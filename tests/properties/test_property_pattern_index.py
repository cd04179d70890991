"""Hypothesis property tests: the compiled index vs the linear scan.

The pattern trie and the batched numpy kernel are pure accelerations of
:meth:`PatternSet.scan_classify`; on any discovered pattern set and any
probe — in-distribution or novel — all three must return the identical
pattern.  These properties are the contract the classify CI gate
re-checks at landscape scale via digest comparison.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariants import (
    InvariantPolicy,
    InvariantStats,
    discover_invariants,
)
from repro.core.pattern_index import PatternIndex
from repro.core.patterns import WILDCARD, PatternSet
from repro.egpm.columnar import Vocabulary

#: Small alphabets make value collisions (and thus invariants) common.
values = st.sampled_from(["a", "b", "c", "d", "e", None, 0, 1])
instances3 = st.lists(
    st.tuples(values, values, values), min_size=1, max_size=60
)
#: Novel probes can carry values discovery never saw.
probe_values = st.sampled_from(
    ["a", "b", "c", "d", "e", None, 0, 1, "zz", "novel", 99]
)
probes3 = st.lists(
    st.tuples(probe_values, probe_values, probe_values),
    min_size=1,
    max_size=20,
)
LOOSE = InvariantPolicy(min_instances=2, min_sources=1, min_sensors=1)


def build(instances, min_support=1):
    observations = [(v, i % 3, i % 2) for i, v in enumerate(instances)]
    invariants = discover_invariants(observations, ["f0", "f1", "f2"], LOOSE)
    patterns = PatternSet.discover(
        instances, invariants, min_support=min_support
    )
    return invariants, patterns


def batch_patterns(index, workload):
    vocabularies = [Vocabulary() for _ in range(3)]
    codes = np.array(
        [
            [vocab.intern(value) for vocab, value in zip(vocabularies, vals)]
            for vals in workload
        ],
        dtype=np.int64,
    )
    ranks = index.batch_classify(codes, vocabularies)
    return [index.pattern_of(rank) for rank in ranks.tolist()]


class TestIndexedEqualsLinear:
    @given(instances3, probes3)
    @settings(max_examples=80)
    def test_trie_agrees_with_scan_on_any_probe(self, instances, probes):
        invariants, patterns = build(instances)
        index = PatternIndex.compile(patterns, invariants)
        for probe in instances + probes:
            assert index.classify(probe) == patterns.scan_classify(probe)

    @given(instances3, probes3)
    @settings(max_examples=60)
    def test_batch_agrees_with_scan_on_any_probe(self, instances, probes):
        invariants, patterns = build(instances)
        index = PatternIndex.compile(patterns, invariants)
        workload = instances + probes
        expected = [patterns.scan_classify(probe) for probe in workload]
        assert batch_patterns(index, workload) == expected

    @given(instances3, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_agreement_survives_support_pruning(self, instances, min_support):
        # Pruning leaves root-only or sparse sets — the degenerate
        # shapes where a buggy trie would shortcut to the wrong leaf.
        invariants, patterns = build(instances, min_support=min_support)
        index = PatternIndex.compile(patterns, invariants)
        for probe in instances:
            assert index.classify(probe) == patterns.scan_classify(probe)

    @given(instances3)
    @settings(max_examples=60)
    def test_cached_classify_agrees_with_scan(self, instances):
        # The LRU-memoized public path must stay bit-identical to the
        # pure scan, repeated probes included (hit path exercised).
        invariants, patterns = build(instances)
        for probe in instances + instances:
            assert patterns.classify(probe, invariants) == patterns.scan_classify(
                probe
            )

    @given(instances3)
    @settings(max_examples=40)
    def test_index_total_on_discovered_sets(self, instances):
        # Discovery always retains the all-wildcard root, so the trie
        # must classify anything without raising.
        invariants, patterns = build(instances)
        index = PatternIndex.compile(patterns, invariants)
        assigned = index.classify(("__x__", "__y__", "__z__"))
        assert assigned == (WILDCARD, WILDCARD, WILDCARD)


#: Wildcard-heavy hand-built sets: most cells are wildcards, so a probe
#: reaches many partial matches on both edges of deep nodes and the
#: walk has to prune whole subtrees by ``min_rank`` to stay exact.
DEEP = 8
deep_cells = st.sampled_from([WILDCARD, WILDCARD, WILDCARD, "a", "b"])
deep_patterns = st.dictionaries(
    st.tuples(*[deep_cells] * DEEP), st.integers(min_value=1, max_value=5),
    min_size=1, max_size=80,
)
deep_probes = st.lists(
    st.tuples(*[st.sampled_from(["a", "b", "c"])] * DEEP), min_size=1, max_size=30
)


def deep_set(supports):
    supports = dict(supports)
    supports.setdefault(tuple([WILDCARD] * DEEP), 1)
    invariants = InvariantStats(
        feature_names=[f"f{i}" for i in range(DEEP)],
        invariants=[{"a", "b"} for _ in range(DEEP)],
        support=[{} for _ in range(DEEP)],
    )
    return PatternSet(supports), invariants


class TestWildcardHeavySets:
    @given(deep_patterns, deep_probes)
    @settings(max_examples=80)
    def test_trie_agrees_with_scan_under_deep_pruning(self, supports, probes):
        patterns, invariants = deep_set(supports)
        index = PatternIndex.compile(patterns, invariants)
        for probe in probes:
            assert index.classify(probe) == patterns.scan_classify(probe)

    @given(deep_patterns, deep_probes)
    @settings(max_examples=40)
    def test_batch_agrees_with_scan_under_deep_pruning(self, supports, probes):
        patterns, invariants = deep_set(supports)
        index = PatternIndex.compile(patterns, invariants)
        vocabularies = [Vocabulary() for _ in range(DEEP)]
        codes = np.array(
            [[v.intern(x) for v, x in zip(vocabularies, probe)] for probe in probes],
            dtype=np.int64,
        )
        ranks = index.batch_classify(codes, vocabularies).tolist()
        assert [index.pattern_of(r) for r in ranks] == [
            patterns.scan_classify(probe) for probe in probes
        ]
