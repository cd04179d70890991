"""Summarise one set of benchmark runs, or judge a second set against it.

Usage, from the root of a checkout::

    python3 perfbench/compare.py RUNS_DIR
    python3 perfbench/compare.py BASE_RUNS_DIR NEW_RUNS_DIR

A runs directory holds the records ``run.py`` writes (by default
``perfbench/out/runs``), one per workload, seed and trace setting.  One
directory prints, per workload and metric, the median, the quartiles
and their distance as a share of the median.  Two directories print the
difference of medians, or "below resolution" when it is smaller than
either set's own run-to-run spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from measure import compare, spread


def load(directory: Path) -> dict[tuple[str, int, str], list[float]]:
    """``(workload, trace, metric) -> values``, one value per record."""
    values: dict[tuple[str, int, str], list[float]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        host = record["host"]
        for name, metric in record["metrics"].items():
            values[(host["workload"], host["trace"], name)].append(metric["value"])
    return values


def summarise(values: dict) -> list[str]:
    lines = []
    for (workload, trace, name), series in sorted(values.items()):
        median = statistics.median(series)
        share = spread(series) / median if median else 0.0
        lines.append(
            f"{workload:<16} trace={trace} {name:<34} n={len(series):<3} "
            f"median={median:<14.6g} spread/median={share:.4f}"
        )
    return lines


def judge(base: dict, new: dict) -> list[str]:
    lines = []
    for key in sorted(base.keys() & new.keys()):
        workload, trace, name = key
        result = compare(base[key], new[key])
        lines.append(
            f"{workload:<16} trace={trace} {name:<34} "
            f"{result.base_median:<12.6g} -> {result.new_median:<12.6g} {result.verdict()}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=Path, nargs="+", help="one or two runs directories")
    args = parser.parse_args(argv)
    if len(args.runs) > 2:
        parser.error("give one or two runs directories")
    sets = [load(path) for path in args.runs]
    lines = summarise(sets[0]) if len(sets) == 1 else judge(*sets)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
