"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload landscape_build --seed 2010 --seconds 24 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload with every other operation traced and prints every
per-layer metric.  Lines before the last are a readable report; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the host facts a
comparison depends on, is also written under ``perfbench/out/runs``.

The program is imported from the checkout's ``src`` directory and
nowhere else: without it the benchmark exits with status 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "out" / "runs"

WORKLOAD_NAMES = ("landscape_build", "recluster_sweep", "classify_serve")


def import_program() -> str | None:
    """Import the program from ``SRC``; an error message if that fails."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import repro
    except ImportError as exc:
        return f"cannot import the program from {SRC}: {exc}"
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        return f"repro was imported from {origin}, not from {SRC}"
    return None


def commit() -> str | None:
    """The checkout's git commit, when it is a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files, a commit stand-in for
    checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(args, result) -> dict:
    import numpy

    import workloads
    from measure import PeakRss

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_digest": source_digest(),
        "batch_size": workloads.BATCH_SIZE,
        "peak_rss_per_operation": PeakRss().reset_supported,
        **result.facts,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_program()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    import layers
    import report
    import workloads

    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values = report.per_layer(result)
        units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
    else:
        values = report.end_to_end(result)
        units = report.END_TO_END
    facts = host_facts(args, result)
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    raw = None if args.trace else report.end_to_end(result, raw=True)
    RUNS.mkdir(parents=True, exist_ok=True)
    record = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"host": facts, "raw": raw, **line}, indent=2) + "\n")

    print(f"host: {json.dumps(facts, sort_keys=True)}")
    print(f"operations: {result.attempted} attempted, {result.failed} failed")
    if args.trace:
        print(report.overhead_verdict(result))
    for name, unit in units.items():
        scaled = raw is not None and raw[name] != values[name]
        as_measured = f"  (as measured {raw[name]:.6g})" if scaled else ""
        print(f"  {name:<34} {values[name]:>16.6g} {unit}{as_measured}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
