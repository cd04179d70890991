"""The layers the traced run times, and what each should move.

:func:`hooks` is the table of spans: each wraps one public callable at
the name its caller looks it up by (a function imported by name is
wrapped in the importing module).  :data:`LAYER_MAP` records, before
anything is measured, which end-to-end metric a layer should move on
which workload and which workload it should leave alone; later
performance claims name their target and their should-not-move
workload from it.

Span figures are per traced operation: a build, a sweep point, a
set-up repetition, a batch, or on ``classify_serve`` a chunk of
``workloads.CHUNK`` single-event requests.
"""

from __future__ import annotations

from pathlib import Path

STAGES = ("deployment", "catalog", "observe", "enrich", "epm", "bcluster")

#: Per-layer metrics that are not span aggregates: name -> (unit, better).
DERIVED: dict[str, tuple[str, str]] = {
    **{f"stage.{stage}.rss_mb": ("MB", "lower") for stage in STAGES},
    "stagestore.hit_ratio": ("ratio", "higher"),
    "lsh.candidate_pairs": ("count", "lower"),
    "lsh.pairs_verified": ("count", "lower"),
    "lsh.unique_profiles": ("count", "lower"),
    "classify.scan_cache_hit_ratio": ("ratio", "higher"),
    "classify.own_mask_ratio": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.overhead_floor_frac": ("ratio", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
}

_SPAN_UNITS = {"calls": "count", "self_s": "s", "items": "count", "bytes": "B"}


def spans() -> list[tuple[str, tuple[str, ...]]]:
    """``(span name, extra figures)`` in table order; every span has
    ``calls`` and ``self_s``, some also ``items`` or ``bytes``."""
    out: dict[str, tuple[str, ...]] = {}
    for hook in hooks():
        extras = ("items",) * (hook.items is not None) + ("bytes",) * (hook.nbytes is not None)
        out.setdefault(hook.span, extras)
    return list(out.items())


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in order."""
    out = []
    for name, extras in spans():
        for suffix in ("calls", "self_s", *extras):
            out.append((f"{name}.{suffix}", _SPAN_UNITS[suffix], "lower"))
    out.extend((name, unit, better) for name, (unit, better) in DERIVED.items())
    return out


#: ``(layer metric, end-to-end metric it should move, on workload,
#: workload it should not move or None)``.
LAYER_MAP: tuple[tuple[str, str, str, str | None], ...] = (
    ("stage.observe", "events_per_s", "landscape_build", "recluster_sweep"),
    ("stage.enrich", "events_per_s", "landscape_build", "recluster_sweep"),
    ("stage.epm", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("stage.bcluster", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("stagestore.load", "op_p50_ms", "recluster_sweep", "landscape_build"),
    ("stagestore.store", "op_p50_ms", "recluster_sweep", "landscape_build"),
    ("stagestore.hit_ratio", "op_p50_ms", "recluster_sweep", "landscape_build"),
    ("pe.build", "events_per_s", "landscape_build", "recluster_sweep"),
    ("pe.parse", "events_per_s", "landscape_build", "recluster_sweep"),
    ("pe.md5", "events_per_s", "landscape_build", "recluster_sweep"),
    ("fsm.walk", "events_per_s", "landscape_build", "recluster_sweep"),
    ("rng.substream", "events_per_s", "landscape_build", "classify_serve"),
    ("columnar.add_event", "events_per_s", "landscape_build", "classify_serve"),
    ("sandbox.execute_batch", "events_per_s", "landscape_build", "recluster_sweep"),
    ("minhash.signature_matrix", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("lsh.candidates", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("lsh.verify", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("invariants.discover", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("patterns.discover", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("classify.train", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("classify.scan_cache_hit_ratio", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("model.compile", "setup_s", "classify_serve", "landscape_build"),
    ("classify.indexed", "op_p99_ms", "classify_serve", "landscape_build"),
    ("classify.batch", "events_per_s", "classify_serve", "landscape_build"),
    ("events.emit", "op_p50_ms", "recluster_sweep", None),
    ("sketch.observe", "op_p50_ms", "recluster_sweep", None),
    ("manifest.digest", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("obs.windows", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("obs.health", "op_p50_ms", "recluster_sweep", "classify_serve"),
    ("manifest.build", "op_p50_ms", "recluster_sweep", "classify_serve"),
)


def _rss_mb() -> float:
    """Current resident set size of this process, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def hooks() -> list:
    """The :class:`tracing.Hook` of every span, grouped by layer."""
    from repro.core import epm as core_epm
    from repro.core.pattern_index import PatternIndex
    from repro.core.patterns import PatternSet
    from repro.egpm.columnar import ColumnarBuilder
    from repro.enrich.pipeline import EnrichmentPipeline
    from repro.experiments import scenario, stages
    from repro.experiments.cache import StageStore
    from repro.honeypot import deployment
    from repro.honeypot.fsm import FSMModel
    from repro.malware import landscape
    from repro.obs import health, manifest, windows
    from repro.obs.events import EventBus, NullEventBus
    from repro.obs.sketch import QuantileSketch
    from repro.sandbox import anubis
    from repro.sandbox.anubis import AnubisService
    from repro.sandbox.execution import Sandbox
    from repro.sandbox.lsh import LSHIndex, MinHasher
    from repro.util.rng import RandomSource

    from tracing import Hook

    def stage(name: str, owner: object, attr: str, **extra) -> Hook:
        return Hook(f"stage.{name}", owner, attr, sample=_rss_mb, **extra)

    def loaded_bytes(args, kwargs, result) -> int:
        path = args[0].path_for(args[1], args[2])
        return path.stat().st_size if result is not None else 0

    return [
        # experiments: the callables the stage DAG runs.
        stage("deployment", stages, "SGNetDeployment"),
        stage("catalog", stages, "build_catalog"),
        stage("observe", deployment.SGNetDeployment, "observe",
              items=lambda a, k, r: len(r)),
        stage("enrich", EnrichmentPipeline, "enrich"),
        stage("epm", core_epm.EPMClustering, "fit"),
        stage("bcluster", AnubisService, "cluster"),
        # experiments.cache
        Hook("stagestore.load", StageStore, "load", nbytes=loaded_bytes),
        Hook("stagestore.store", StageStore, "store",
             nbytes=lambda a, k, r: r.stat().st_size),
        # peformat, malware, util.hashing, honeypot, util.rng, egpm
        Hook("pe.build", landscape, "build_pe", nbytes=lambda a, k, r: len(r)),
        Hook("pe.parse", deployment, "parse_pe"),
        Hook("pe.md5", deployment, "md5_hex", nbytes=lambda a, k, r: len(a[0])),
        Hook("fsm.walk", FSMModel, "walk"),
        *(Hook("rng.substream", RandomSource, attr) for attr in ("child", "rng", "numpy")),
        Hook("columnar.add_event", ColumnarBuilder, "add_event"),
        # sandbox
        Hook("sandbox.execute_batch", Sandbox, "execute_batch",
             items=lambda a, k, r: len(a[1])),
        Hook("minhash.signature_matrix", MinHasher, "signature_matrix",
             items=lambda a, k, r: len(a[1])),
        Hook("lsh.candidates", LSHIndex, "candidate_pairs",
             items=lambda a, k, r: len(r)),
        # cluster_lsh's self time: dedupe, index build and pair verification.
        Hook("lsh.verify", anubis, "cluster_lsh"),
        # core
        Hook("invariants.discover", core_epm, "discover_invariants_columnar"),
        Hook("patterns.discover", PatternSet, "discover"),
        Hook("classify.train", PatternSet, "classify"),
        # core.pattern_index, serve
        Hook("model.compile", PatternIndex, "compile"),
        Hook("classify.indexed", PatternIndex, "classify"),
        Hook("classify.batch", PatternIndex, "batch_classify",
             items=lambda a, k, r: len(r)),
        # obs
        Hook("events.emit", EventBus, "emit"),
        Hook("events.emit", NullEventBus, "emit"),
        Hook("sketch.observe", QuantileSketch, "observe"),
        *(Hook("manifest.digest", module, "canonical_digest")
          for module in (manifest, windows, health)),
        Hook("obs.windows", scenario, "build_window_report"),
        Hook("obs.health", scenario, "evaluate_health"),
        Hook("manifest.build", scenario, "build_manifest"),
    ]
