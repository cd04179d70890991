"""The serving hot path: classify new events against a loaded model.

:class:`ServingClassifier` wraps a :class:`~repro.serve.model.ModelArtifact`
with one compiled :class:`~repro.core.pattern_index.PatternIndex` per
E/P/M dimension.  Single events go through the index's branch-and-bound
lookup (with the own-mask O(1) shortcut in front, exactly like
training-time classification); batches are transposed into per-dimension
code matrices and pushed through the masked-grouping batch kernel.
Both paths return the same pattern the linear scan would, and both hand
out shared, frozen :class:`Classification` objects from per-dimension
answer tables built once at construction.

Instrumentation rides the ambient observability seams — the
``classify.requests`` / ``classify.batch_rows`` counters and the
``classify.latency`` quantile sketch (one observation per single event,
per :meth:`ServingClassifier.classify_values` call, or per batch) on the
active metrics registry, ``classify.start`` / ``classify.finish`` events
on the active bus — so serving runs are validated by the same
``repro obs validate`` catalogue as scenario runs.  The instrument
handles are resolved once per active registry, not once per request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.features import Dimension, default_feature_sets
from repro.core.invariants import InvariantStats
from repro.core.pattern_index import PatternIndex
from repro.core.patterns import Pattern, format_pattern, mask_instance
from repro.egpm.columnar import Vocabulary
from repro.egpm.events import AttackEvent
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.serve.model import ModelArtifact, encode_pattern


@dataclass(frozen=True)
class Classification:
    """One event's assignment in one dimension."""

    dimension: Dimension
    pattern: Pattern
    cluster: int | None
    rendered: str

    def as_dict(self) -> dict:
        """JSONL-friendly form (tagged pattern encoding)."""
        return {
            "dimension": self.dimension.value,
            "pattern": encode_pattern(self.pattern),
            "cluster": self.cluster,
            "rendered": self.rendered,
        }


class ServingClassifier:
    """A model compiled and ready to classify events.

    Construction compiles one :class:`PatternIndex` per dimension and
    builds one answer table per dimension: the frozen
    :class:`Classification` of every pattern of the model.  A request
    only masks, looks its answer up (the own-mask shortcut is a table
    hit; a miss walks the trie to a pattern, then reads the table) and
    counts itself, so it never builds an answer.  The tables are
    bounded by the model, never by the traffic.
    """

    def __init__(self, model: ModelArtifact) -> None:
        self.model = model
        self.feature_sets = default_feature_sets()
        # What a lookup reads, per dimension: (invariants, answer table,
        # index).  The answer table maps every pattern of the model to
        # its frozen Classification.
        self._lanes: dict[
            Dimension,
            tuple[InvariantStats, dict[Pattern, Classification], PatternIndex],
        ] = {}
        for dimension in Dimension:
            invariants = model.invariants(dimension)
            index = PatternIndex.compile(model.pattern_set(dimension), invariants)
            names = model.feature_names(dimension)
            answers = {
                pattern: Classification(
                    dimension=dimension,
                    pattern=pattern,
                    cluster=model.cluster_of_pattern(dimension, pattern),
                    rendered=format_pattern(pattern, names),
                )
                for pattern in index.patterns
            }
            self._lanes[dimension] = (invariants, answers, index)
        # (registry, {dimension: classify.requests counter},
        # classify.latency sketch) of the registry that last recorded.
        self._instruments: tuple = (None, {}, None)

    def index(self, dimension: Dimension) -> PatternIndex:
        """The compiled index of one dimension."""
        return self._lanes[dimension][2]

    def _instruments_of(self, registry) -> tuple:
        """The instrument handles of ``registry``, resolved once.

        Re-resolved whenever the active registry changes (``use()``, a
        worker thread's ``capture()``); a registry never drops an
        instrument, so the handles stay valid for its lifetime.  The
        tuple is swapped whole, so concurrent threads never pair one
        registry's counters with another's sketch.
        """
        instruments = self._instruments
        if instruments[0] is not registry:
            instruments = (registry, {}, registry.sketch("classify.latency"))
            self._instruments = instruments
        return instruments

    @staticmethod
    def _requests(registry, counters: dict, dimension: Dimension):
        """The ``classify.requests`` counter of ``dimension``, created on
        first use so snapshots list only dimensions that saw traffic."""
        counter = counters.get(dimension)
        if counter is None:
            counter = counters[dimension] = registry.counter(
                "classify.requests", dimension=dimension.value
            )
        return counter

    def _lookup(
        self, dimension: Dimension, values: Sequence[Hashable], registry, counters
    ) -> Classification:
        """One dimension's answer for one raw feature tuple: the own
        mask's table entry, else the trie's pattern's entry."""
        invariants, answers, index = self._lanes[dimension]
        answer = answers.get(mask_instance(values, invariants))
        if answer is None:
            answer = answers[index.classify(values)]
        self._requests(registry, counters, dimension).inc()
        return answer

    def classify_values(
        self, dimension: Dimension, values: Sequence[Hashable]
    ) -> Classification:
        """Classify one raw feature tuple in one dimension (one
        ``classify.latency`` observation)."""
        started = time.perf_counter()
        registry, counters, latency = self._instruments_of(obs_metrics.active())
        answer = self._lookup(dimension, values, registry, counters)
        latency.observe(time.perf_counter() - started)
        return answer

    def classify_event(self, event: AttackEvent) -> dict[str, Classification]:
        """Classify one event in every dimension that applies to it.

        One ``classify.latency`` observation per event, covering feature
        extraction and every dimension's lookup.
        """
        started = time.perf_counter()
        registry, counters, latency = self._instruments_of(obs_metrics.active())
        results: dict[str, Classification] = {}
        for dimension, feature_set in self.feature_sets.items():
            if not feature_set.applies_to(event):
                continue
            results[dimension.value] = self._lookup(
                dimension, feature_set.extract(event), registry, counters
            )
        latency.observe(time.perf_counter() - started)
        return results

    def classify_events(
        self, events: Sequence[AttackEvent]
    ) -> list[dict[str, Classification]]:
        """Batch path: per-dimension columnar transpose + batch kernel.

        Returns one ``{dimension: Classification}`` map per input
        event, in input order — element-for-element identical to
        calling :meth:`classify_event` on each event.
        """
        registry, counters, latency = self._instruments_of(obs_metrics.active())
        bus = obs_events.active_bus()
        started = time.perf_counter()
        bus.emit(
            "classify.start",
            model=self.model.model_id,
            events=len(events),
            mode="batch",
        )
        results: list[dict[str, Classification]] = [{} for _ in events]
        for dimension, feature_set in self.feature_sets.items():
            rows: list[int] = []
            vocabularies = [Vocabulary() for _ in feature_set.names]
            codes_rows: list[list[int]] = []
            for position, event in enumerate(events):
                if not feature_set.applies_to(event):
                    continue
                values = feature_set.extract(event)
                rows.append(position)
                codes_rows.append(
                    [
                        vocab.intern(value)
                        for vocab, value in zip(vocabularies, values)
                    ]
                )
            if not rows:
                continue
            codes = np.array(codes_rows, dtype=np.int64)
            _, answers, index = self._lanes[dimension]
            ranks = index.batch_classify(codes, vocabularies).tolist()
            registry.counter(
                "classify.batch_rows", dimension=dimension.value
            ).inc(len(rows))
            self._requests(registry, counters, dimension).inc(len(rows))
            by_rank = {rank: answers[index.pattern_of(rank)] for rank in set(ranks)}
            key = dimension.value
            for position, rank in zip(rows, ranks):
                results[position][key] = by_rank[rank]
        seconds = time.perf_counter() - started
        latency.observe(seconds)
        bus.emit(
            "classify.finish",
            model=self.model.model_id,
            events=len(events),
            seconds=round(seconds, 6),
        )
        return results
