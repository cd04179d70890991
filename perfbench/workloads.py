"""The benchmark's three workloads, each a closed loop with one caller.

Every workload runs in one process on the program's default serial
executor, through public APIs only, and sees nothing but what its
seed generates.  A workload repeats its set-up step, then times
operations until its share of ``--seconds`` is used (with a minimum
operation count), then checks every operation's output outside the
timed region.  An operation fails if it raises or if its check fails.

* ``landscape_build`` — one operation is a cold paper-scale
  ``PaperScenario(seed).run()``: observe, enrich, E/P/M and B-clustering
  plus the telemetry tail.  Set-up is a small warm-up build, so lazy
  initialisation is paid before timing.
* ``recluster_sweep`` — set-up is a cold paper-scale build into a fresh
  ``StageStore``.  One operation is a build at a new sweep point: a
  fresh ``InvariantPolicy.min_instances`` and ``ClusteringConfig.threshold``,
  so deployment, catalog, observe and enrich replay from the store while
  epm and bcluster recompute and are written back.
* ``classify_serve`` — set-up exports a model from a paper-scale
  landscape and compiles a ``ServingClassifier``.  Requests are the
  events of a landscape at a second seed the model never saw, cycled.
  The first half of the time classifies one event per request, the
  second half fixed-size batches.

``classify_serve`` timings are taken net of host-speed sampling and
scaled to the reference host speed (:class:`measure.HostSpeed`), with
the raw wall times kept beside them: its requests are interpreter work,
whose speed on a shared host drifts by tens of per cent and which the
calibration unit tracks.  The build workloads mix interpreter and
native work (hashing, numpy, pickle) that drift differently, so their
timings are kept as measured (:class:`measure.AsMeasured`).

In the traced run (``trace=True``) every other operation runs with the
layer hooks installed and no speed sampling; the untraced operations in
between give the wall time the tracing overhead is measured against.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import layers
from measure import AsMeasured, HostSpeed, PeakRss
from tracing import Recorder, instrument

clock = time.perf_counter

#: Set-up repetitions; ``setup_s`` is their median.  The sweep's set-up
#: is a whole cold build, so it is repeated least.
SETUP_REPEATS = 3
SWEEP_SETUP_REPEATS = 2
CLASSIFY_SETUP_REPEATS = 5

#: The seed whose paper headline is pinned by ``repro.experiments.regression``.
GOLDEN_SEED = 2010

#: Minimum timed operations per run (the traced run needs untraced and
#: traced ones to compare).
MIN_BUILDS = 3
MIN_POINTS = 4
MIN_CHUNKS = 8
MIN_BATCHES = 8

#: Single-event requests per chunk; tracing alternates per chunk.
CHUNK = 256
#: Events per ``classify_events`` call in the batch phase.
BATCH_SIZE = 1024
#: Requests whose answer is also checked against the linear scan.
SCAN_SAMPLE = 200
#: The request stream's landscape: a second seed at half scale.
STREAM_SEED_OFFSET = 1_000_003
STREAM_SCALE = 0.5

#: Sweep values.  Each run pairs them in a seeded order and uses each
#: value once; the defaults (10, 0.7) are left out, because a default
#: value would turn its stage into a store hit.
SWEEP_MIN_INSTANCES = tuple(v for v in range(4, 29) if v != 10)
SWEEP_THRESHOLDS = tuple(round(0.58 + 0.01 * k, 2) for k in range(25) if k != 12)


@dataclass
class Trace:
    """What the traced run measured; :func:`report.per_layer` reads it."""

    #: One recorder per phase; each normalises by its own op count.
    recorders: list[Recorder] = field(default_factory=list)
    #: Program counters summed over the traced operations.
    counters: Counter = field(default_factory=Counter)
    counter_ops: int = 0
    #: Wall times of the operations the overhead is judged on.
    untraced_walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    #: Seconds of each traced operation covered by a named span.
    covered: list[float] = field(default_factory=list)
    #: (requests answered by the own-mask shortcut, requests) per dimension.
    own_mask: tuple[int, int] | None = None


@dataclass
class Result:
    """Everything one workload run measured.

    ``setup_s``, ``op_s`` and ``rates`` are scaled to the reference host
    speed where the workload scales; the ``raw_`` lists hold the same
    samples as measured.
    """

    setup_s: list[float] = field(default_factory=list)
    #: Latency samples of the workload's operation (untraced only).
    op_s: list[float] = field(default_factory=list)
    #: Events per second of the throughput operation (untraced only).
    rates: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    raw_op_s: list[float] = field(default_factory=list)
    raw_rates: list[float] = field(default_factory=list)
    #: Peak RSS during each timed operation.
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Facts a reader needs to interpret the numbers (sizes, counts).
    facts: dict = field(default_factory=dict)
    trace: Trace | None = None


class _Loop:
    """Time budget: run while time is left or too few ops have run."""

    def __init__(self, seconds: float, min_ops: int) -> None:
        self.deadline = clock() + seconds
        self.min_ops = min_ops

    def more(self, done: int) -> bool:
        return done < self.min_ops or clock() < self.deadline


def _attempt(fn: Callable[[], object]) -> object | None:
    """``fn()``, or ``None`` with the traceback on stderr if it raises."""
    try:
        return fn()
    except Exception:  # an operation that raises is counted as failed
        traceback.print_exc(file=sys.stderr)
        return None


def _program_counters(snapshot) -> dict[str, float]:
    """The program's own counters a per-layer ratio is built from."""
    return {
        "cache.stage_hit": snapshot.total("cache.stage_hit"),
        "cache.stage_miss": snapshot.total("cache.stage_miss"),
        "lsh.candidate_pairs": snapshot.total("lsh.candidate_pairs"),
        "lsh.pairs_verified": snapshot.total("lsh.pairs_verified"),
        "lsh.unique_profiles": snapshot.gauge("lsh.unique_profiles"),
        "classify.scan_cache_hit": snapshot.total("classify.scan_cache_hit"),
        "classify.scan_cache_miss": snapshot.total("classify.scan_cache_miss"),
    }


@contextmanager
def _traced(recorder: Recorder, hooks: list, speed) -> Iterator[None]:
    """One traced operation: speed sampling paused, hooks installed."""
    with speed.paused(), instrument(recorder, hooks), recorder.op():
        yield


def _timed_op(
    fn: Callable[[], object], recorder: Recorder | None, hooks: list, speed
) -> tuple[object | None, float, float | None]:
    """``(output, raw seconds, seconds at reference speed)`` of ``fn()``
    while ``speed`` samples; traced into ``recorder``, unsampled and
    unscaled (``None``), when given."""
    if recorder is not None:
        with _traced(recorder, hooks, speed):
            out = _attempt(fn)
        return out, recorder.op_walls[-1], None
    spent = speed.spent
    start = clock()
    out = _attempt(fn)
    end = clock()
    raw = end - start - (speed.spent - spent)
    return out, raw, raw * speed.scale(start, end)


def _bench_loop(
    op: Callable[[int], object],
    seconds: float,
    min_ops: int,
    trace: Trace | None,
    result: Result,
    on_output: Callable[[object, float, float | None], None],
    max_ops: int | None = None,
    speed=None,
) -> None:
    """Drive one closed loop of build-sized operations; ``on_output``
    gets each output with its raw and scaled seconds (``None`` when
    traced)."""
    recorder = Recorder() if trace is not None else None
    hooks = layers.hooks() if trace is not None else []
    if trace is not None:
        trace.recorders.append(recorder)
    rss = PeakRss()
    speed = speed or AsMeasured()
    loop = _Loop(seconds, min_ops)
    i = 0
    with speed.sampling():
        while loop.more(i) and (max_ops is None or i < max_ops):
            traced = trace is not None and i % 2 == 1
            gc.collect()
            rss.reset()
            out, raw, scaled = _timed_op(
                lambda: op(i), recorder if traced else None, hooks, speed
            )
            result.rss_mb.append(rss.read_mb())
            if trace is not None:
                (trace.traced_walls if traced else trace.untraced_walls).append(raw)
                if traced:
                    trace.covered.append(recorder.covered_s[-1])
                    if out is not None:
                        trace.counters.update(_program_counters(out.metrics))
                        trace.counter_ops += 1
            on_output(out, raw, scaled)
            del out
            i += 1


def _setup(
    step: Callable[[], object],
    repeats: int,
    result: Result,
    traced: tuple[Recorder, list] | None = None,
    speed=None,
) -> object:
    """Run the set-up step ``repeats`` times; returns the last output.

    With ``traced=(recorder, hooks)`` every other repetition is traced
    instead of timed.  A set-up step that raises ends the run.
    """
    speed = speed or AsMeasured()
    out = None
    with speed.sampling():
        for k in range(repeats):
            del out
            gc.collect()
            if traced is not None and k % 2 == 1:
                with _traced(*traced, speed):
                    out = step()
                continue
            spent = speed.spent
            start = clock()
            out = step()
            end = clock()
            raw = end - start - (speed.spent - spent)
            result.raw_setup_s.append(raw)
            result.setup_s.append(raw * speed.scale(start, end))
    return out


def _record_op(result: Result, raw: float, scaled: float | None, events: int) -> None:
    """Keep an untraced operation's latency and events-per-second."""
    if scaled is None:
        return
    result.op_s.append(scaled)
    result.raw_op_s.append(raw)
    result.rates.append(events / scaled)
    result.raw_rates.append(events / raw)


# ---------------------------------------------------------------------------
# landscape_build


def build_failures(
    outputs: Sequence[tuple[Mapping[str, str], Mapping[str, int]] | None],
    seed: int,
) -> int:
    """Failed builds: raised (``None``), digests unlike the run's most
    common digests, or — at the golden seed — a deviating headline."""
    from repro.experiments.regression import check_headline

    digests = [tuple(sorted(out[0].items())) for out in outputs if out is not None]
    reference = Counter(digests).most_common(1)[0][0] if digests else None
    failed = 0
    for out in outputs:
        if out is None or tuple(sorted(out[0].items())) != reference:
            failed += 1
        elif seed == GOLDEN_SEED and check_headline(out[1]):
            failed += 1
    return failed


def landscape_build(seed: int, seconds: float, trace: bool) -> Result:
    from repro.experiments.scenario import PaperScenario, ScenarioConfig

    result = Result(trace=Trace() if trace else None)
    warmup = ScenarioConfig(n_weeks=12, scale=0.1)
    _setup(lambda: PaperScenario(seed, warmup).run(), SETUP_REPEATS, result)
    outputs = []
    events = []

    def on_output(run, raw: float, scaled: float | None) -> None:
        if run is None:
            outputs.append(None)
            return
        outputs.append((dict(run.manifest.artifact_digests), run.headline()))
        events.append(len(run.dataset))
        _record_op(result, raw, scaled, len(run.dataset))

    _bench_loop(
        lambda i: PaperScenario(seed).run(),
        seconds, MIN_BUILDS + (1 if trace else 0), result.trace, result, on_output,
    )
    result.attempted = len(outputs)
    result.failed = build_failures(outputs, seed)
    result.facts = {"builds": len(outputs), "events": events[0] if events else 0}
    return result


# ---------------------------------------------------------------------------
# recluster_sweep


def sweep_points(seed: int) -> list[tuple[int, float]]:
    """The run's ``(min_instances, threshold)`` points, seeded order."""
    rng = random.Random(seed)
    counts = list(SWEEP_MIN_INSTANCES)
    thresholds = list(SWEEP_THRESHOLDS)
    rng.shuffle(counts)
    rng.shuffle(thresholds)
    return list(zip(counts, thresholds))


def _sweep_config(point: tuple[int, float]):
    from repro.core.invariants import InvariantPolicy
    from repro.experiments.scenario import ScenarioConfig
    from repro.sandbox.clustering import ClusteringConfig

    min_instances, threshold = point
    return ScenarioConfig(
        invariant_policy=InvariantPolicy(min_instances=min_instances),
        clustering=ClusteringConfig(threshold=threshold),
    )


def recompute_digests(cold_run, config) -> dict[str, str]:
    """Digests of a store-less epm + bcluster recompute at ``config``
    over the cold build's artifacts."""
    from repro.core.epm import EPMClustering
    from repro.obs.manifest import artifact_digests

    epm = EPMClustering(policy=config.invariant_policy).fit(
        cold_run.dataset, columnar=config.columnar
    )
    bclusters = cold_run.anubis.cluster(config.clustering, vectorize=config.columnar)
    return artifact_digests(dataclasses.replace(cold_run, epm=epm, bclusters=bclusters))


#: Where the sweep's stage stores live while a run uses them.
WORK_ROOT = Path(__file__).resolve().parent / "out"


def recluster_sweep(seed: int, seconds: float, trace: bool) -> Result:
    from repro.experiments.cache import StageStore
    from repro.experiments.scenario import PaperScenario

    result = Result(trace=Trace() if trace else None)
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK_ROOT))
    try:
        stores = iter(range(SWEEP_SETUP_REPEATS))

        def cold_build():
            root = workdir / f"store{next(stores)}"
            return root, PaperScenario(seed).run(stage_store=StageStore(root))

        root, cold = _setup(cold_build, SWEEP_SETUP_REPEATS, result)
        for stale in workdir.iterdir():
            if stale != root:
                shutil.rmtree(stale)
        store = StageStore(root)
        points = sweep_points(seed)
        cold_digests = dict(cold.manifest.artifact_digests)
        # The first point is always run; its reference is computed
        # now, so the cold run is released before timing starts.
        reference = recompute_digests(cold, _sweep_config(points[0]))
        events = len(cold.dataset)
        del cold
        digests: list[dict[str, str] | None] = []

        def on_output(run, raw: float, scaled: float | None) -> None:
            digests.append(None if run is None else dict(run.manifest.artifact_digests))
            if run is not None:
                _record_op(result, raw, scaled, events)

        _bench_loop(
            lambda i: PaperScenario(seed, _sweep_config(points[i])).run(stage_store=store),
            seconds, MIN_POINTS, result.trace, result, on_output,
            max_ops=len(points),
        )
        final = _attempt(lambda: PaperScenario(seed).run(stage_store=store))
        final_digests = None if final is None else dict(final.manifest.artifact_digests)
        del final
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.attempted = len(digests) + 1
    result.failed = sweep_failures(digests, reference, final_digests, cold_digests)
    result.facts = {"points": len(digests), "events": events}
    return result


def sweep_failures(
    digests: Sequence[Mapping[str, str] | None],
    reference: Mapping[str, str],
    final_digests: Mapping[str, str] | None,
    cold_digests: Mapping[str, str],
) -> int:
    """Failed sweep operations: points that raised, a first point unlike
    its store-less recompute, a final default repeat unlike the cold build."""
    failed = sum(1 for d in digests if d is None)
    if digests and digests[0] is not None and dict(digests[0]) != dict(reference):
        failed += 1
    if final_digests is None or dict(final_digests) != dict(cold_digests):
        failed += 1
    return failed


# ---------------------------------------------------------------------------
# classify_serve


def classify_failures(
    answers: Mapping[int, object],
    same: Mapping[int, int],
    mismatched: int,
    batch_reference: Sequence[object],
    scan_bad: set[int],
) -> int:
    """Failed single-event requests.

    ``answers[pos]`` is the first answer for stream position ``pos`` and
    ``same[pos]`` how many requests repeated it; ``mismatched`` counts
    requests that disagreed with their position's first answer.  A
    position whose first answer differs from the batch path's answer,
    or from the linear scan (``scan_bad``), fails every request that
    gave that answer.
    """
    failed = mismatched
    for pos, answer in answers.items():
        if pos in scan_bad or answer != batch_reference[pos]:
            failed += same.get(pos, 0)
    return failed


def scan_mismatches(
    classifier, events: Sequence, answers: Mapping[int, dict], positions
) -> set[int]:
    """Positions whose answer differs from ``PatternSet.scan_classify``."""
    from repro.core.features import Dimension

    bad = set()
    for pos in positions:
        event = events[pos]
        for dimension_value, answer in answers[pos].items():
            dimension = Dimension(dimension_value)
            values = classifier.feature_sets[dimension].extract(event)
            expected = classifier.model.pattern_set(dimension).scan_classify(values)
            if answer.pattern != expected:
                bad.add(pos)
    return bad


def classify_serve(seed: int, seconds: float, trace: bool) -> Result:
    from repro.experiments.scenario import PaperScenario, ScenarioConfig
    from repro.obs import metrics as obs_metrics
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.classifier import ServingClassifier
    from repro.serve.model import ModelArtifact

    result = Result(trace=Trace() if trace else None)
    hooks = layers.hooks() if trace else []
    prep_start = clock()
    model_run = PaperScenario(seed).run()
    stream_run = PaperScenario(
        seed + STREAM_SEED_OFFSET, ScenarioConfig(scale=STREAM_SCALE)
    ).run()
    events = list(stream_run.dataset.events)
    del stream_run
    prep_s = clock() - prep_start

    setup_recorder = Recorder()
    speed = HostSpeed()
    classifier = _setup(
        lambda: ServingClassifier(ModelArtifact.from_run(model_run)),
        CLASSIFY_SETUP_REPEATS,
        result,
        traced=(setup_recorder, hooks) if trace else None,
        speed=speed,
    )
    del model_run
    rss = PeakRss()
    n = len(events)
    answers: dict[int, dict] = {}
    same: Counter = Counter()
    mismatched = 0
    single_recorder, batch_recorder = Recorder(), Recorder()
    traced_requests = 0
    if trace:
        result.trace.recorders += [setup_recorder, single_recorder, batch_recorder]

    # A recording registry, as the serving CLI installs one.
    registry = MetricsRegistry()
    with obs_metrics.use(registry), speed.sampling():
        # Phase 1: one event per request, in chunks of CHUNK requests.
        gc.collect()
        loop = _Loop(seconds / 2, MIN_CHUNKS)
        pos = chunks = requests = 0
        while loop.more(chunks):
            traced = trace and chunks % 2 == 1
            rss.reset()
            latencies = []
            chunk_spent = speed.spent
            chunk_start = clock()
            with _traced(single_recorder, hooks, speed) if traced else nullcontext():
                for _ in range(CHUNK):
                    event = events[pos]
                    spent = speed.spent
                    start = clock()
                    answer = _attempt(lambda: classifier.classify_event(event))
                    latencies.append(clock() - start - (speed.spent - spent))
                    if traced:
                        traced_requests += len(answer or ())
                    first = answers.setdefault(pos, answer)
                    if answer is not None and answer == first:
                        same[pos] += 1
                    else:
                        mismatched += 1
                    pos = (pos + 1) % n
            chunk_end = clock()
            chunk_wall = chunk_end - chunk_start - (speed.spent - chunk_spent)
            result.rss_mb.append(rss.read_mb())
            if not traced:
                scale = speed.scale(chunk_start, chunk_end)
                result.raw_op_s += latencies
                result.op_s += [latency * scale for latency in latencies]
            if trace:
                (result.trace.traced_walls if traced else result.trace.untraced_walls).append(
                    chunk_wall
                )
                if traced:
                    result.trace.covered.append(single_recorder.covered_s[-1])
            chunks += 1
            requests += CHUNK
        if trace:
            indexed = single_recorder.stats.get("classify.indexed")
            calls = indexed.calls if indexed is not None else 0
            result.trace.own_mask = (traced_requests - calls, traced_requests)
        # Positions phase 1 never reached get a reference answer (untimed).
        for p in range(n):
            if answers.get(p) is None:
                answers[p] = classifier.classify_event(events[p])

        # Phase 2: fixed-size batches over the same stream.
        gc.collect()
        loop = _Loop(seconds / 2, MIN_BATCHES)
        batches = batch_failed = 0
        while loop.more(batches):
            traced = trace and batches % 2 == 1
            positions = [(batches * BATCH_SIZE + j) % n for j in range(BATCH_SIZE)]
            batch = [events[p] for p in positions]
            rss.reset()
            out, raw, scaled = _timed_op(
                lambda: classifier.classify_events(batch),
                batch_recorder if traced else None,
                hooks,
                speed,
            )
            result.rss_mb.append(rss.read_mb())
            if scaled is not None and out is not None:
                result.rates.append(BATCH_SIZE / scaled)
                result.raw_rates.append(BATCH_SIZE / raw)
            if out is None or any(a != answers[p] for a, p in zip(out, positions)):
                batch_failed += 1
            batches += 1

    with obs_metrics.use(registry):
        # Output checks: the batch path over the whole stream, and a
        # seeded sample against the linear scan.
        batch_reference: list[dict] = []
        for start in range(0, n, BATCH_SIZE):
            batch_reference.extend(classifier.classify_events(events[start:start + BATCH_SIZE]))
        sample = random.Random(seed).sample(range(n), min(SCAN_SAMPLE, n))
        scan_bad = scan_mismatches(classifier, events, answers, sample)

    result.attempted = requests + batches
    result.failed = batch_failed + classify_failures(
        answers, same, mismatched, batch_reference, scan_bad
    )
    result.facts = {
        "prep_s": prep_s,
        "stream_events": n,
        "requests": requests,
        "batches": batches,
        "batch_size": BATCH_SIZE,
    }
    return result


WORKLOADS: dict[str, Callable[..., Result]] = {
    "landscape_build": landscape_build,
    "recluster_sweep": recluster_sweep,
    "classify_serve": classify_serve,
}
