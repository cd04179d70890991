"""Turn a workload :class:`~workloads.Result` into named metrics."""

from __future__ import annotations

import statistics

import layers
from measure import compare, percentile

#: End-to-end metrics, printed by every untraced run: name -> unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def end_to_end(result, *, raw: bool = False) -> dict[str, float]:
    """The untraced run's end-to-end metric values: timings at the
    reference host speed, or as measured with ``raw=True``."""
    attempted = max(result.attempted, 1)
    setup_s, op_s, rates = (
        (result.raw_setup_s, result.raw_op_s, result.raw_rates)
        if raw
        else (result.setup_s, result.op_s, result.rates)
    )
    return {
        "setup_s": statistics.median(setup_s),
        "events_per_s": statistics.median(rates),
        "op_p50_ms": percentile(op_s, 50) * 1e3,
        "op_p99_ms": percentile(op_s, 99) * 1e3,
        "peak_rss_mb": statistics.median(result.rss_mb),
        "success_rate": (attempted - result.failed) / attempted,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_values(recorders) -> dict[str, float]:
    """Per-operation span aggregates, summed over the traced phases.

    Each recorder is one phase (set-up repetitions, request chunks,
    batches, builds, sweep points) and is normalised by its own
    operation count; a span that no phase reached reads 0.
    """
    values = {}
    for name, extras in layers.spans():
        for suffix in ("calls", "self_s", *extras):
            values[f"{name}.{suffix}"] = 0.0
    for recorder in recorders:
        if not recorder.ops:
            continue
        for name, stats in recorder.stats.items():
            for suffix in ("calls", "self_s", "items", "bytes"):
                key = f"{name}.{suffix}"
                if key in values:
                    values[key] += getattr(stats, suffix) / recorder.ops
    return values


def per_layer(result) -> dict[str, float]:
    """The traced run's per-layer metric values."""
    trace = result.trace
    values = span_values(trace.recorders)
    for stage in layers.STAGES:
        samples = [
            value
            for recorder in trace.recorders
            if f"stage.{stage}" in recorder.stats
            for value in recorder.stats[f"stage.{stage}"].samples
        ]
        values[f"stage.{stage}.rss_mb"] = statistics.median(samples) if samples else 0.0
    counters, ops = trace.counters, trace.counter_ops
    values["stagestore.hit_ratio"] = _ratio(
        counters["cache.stage_hit"], counters["cache.stage_hit"] + counters["cache.stage_miss"]
    )
    for name in ("lsh.candidate_pairs", "lsh.pairs_verified", "lsh.unique_profiles"):
        values[name] = _ratio(counters[name], ops)
    values["classify.scan_cache_hit_ratio"] = _ratio(
        counters["classify.scan_cache_hit"],
        counters["classify.scan_cache_hit"] + counters["classify.scan_cache_miss"],
    )
    own, requests = trace.own_mask or (0, 0)
    values["classify.own_mask_ratio"] = _ratio(own, requests)
    overhead = compare(trace.untraced_walls, trace.traced_walls)
    values["trace.overhead_frac"] = overhead.relative
    values["trace.overhead_floor_frac"] = _ratio(overhead.floor, overhead.base_median)
    values["trace.accounted_frac"] = _ratio(
        statistics.median(trace.covered), overhead.base_median
    )
    return values


def overhead_verdict(result) -> str:
    """One line: the tracing overhead, or that it is below resolution."""
    trace = result.trace
    overhead = compare(trace.untraced_walls, trace.traced_walls)
    return (
        f"tracing overhead {overhead.verdict()} "
        f"(traced median {overhead.new_median:.4f} s over {len(trace.traced_walls)} ops, "
        f"untraced median {overhead.base_median:.4f} s over {len(trace.untraced_walls)} ops, "
        f"noise floor {overhead.floor:.4f} s)"
    )
