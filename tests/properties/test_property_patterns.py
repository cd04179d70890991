"""Hypothesis property tests for the EPM pattern lattice."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariants import InvariantPolicy, discover_invariants
from repro.core.patterns import (
    WILDCARD,
    PatternSet,
    generalizes,
    mask_instance,
    pattern_matches,
    specificity,
)
from repro.util.validation import ValidationError, require

#: Small alphabets make value collisions (and thus invariants) common.
values = st.sampled_from(["a", "b", "c", "d", "e", None, 0, 1])
instances3 = st.lists(
    st.tuples(values, values, values), min_size=1, max_size=60
)
LOOSE = InvariantPolicy(min_instances=2, min_sources=1, min_sensors=1)


def build(instances):
    observations = [(v, 0, 0) for v in instances]
    invariants = discover_invariants(observations, ["f0", "f1", "f2"], LOOSE)
    patterns = PatternSet.discover(instances, invariants)
    return invariants, patterns


class TestMaskProperties:
    @given(instances3)
    @settings(max_examples=80)
    def test_mask_matches_its_instance(self, instances):
        invariants, _ = build(instances)
        for instance in instances:
            assert pattern_matches(mask_instance(instance, invariants), instance)

    @given(instances3)
    @settings(max_examples=80)
    def test_classification_total(self, instances):
        invariants, patterns = build(instances)
        for instance in instances:
            assigned = patterns.classify(instance, invariants)
            assert pattern_matches(assigned, instance)

    @given(instances3)
    @settings(max_examples=80)
    def test_assigned_pattern_is_most_specific_match(self, instances):
        invariants, patterns = build(instances)
        for instance in instances:
            assigned = patterns.classify(instance, invariants)
            best = max(
                (specificity(p) for p in patterns.matching_patterns(instance)),
                default=0,
            )
            assert specificity(assigned) == best

    @given(instances3)
    @settings(max_examples=80)
    def test_matching_patterns_generalize_mask(self, instances):
        # Every pattern matching an instance generalizes the instance's mask.
        invariants, patterns = build(instances)
        for instance in instances[:10]:
            mask = mask_instance(instance, invariants)
            for pattern in patterns.matching_patterns(instance):
                assert generalizes(pattern, mask)

    @given(instances3)
    @settings(max_examples=80)
    def test_pattern_supports_sum_to_instances(self, instances):
        invariants, patterns = build(instances)
        from collections import Counter

        assigned = Counter(
            patterns.classify(instance, invariants) for instance in instances
        )
        assert sum(assigned.values()) == len(instances)

    @given(instances3)
    @settings(max_examples=60)
    def test_grouping_is_equivalence_on_identical_instances(self, instances):
        invariants, patterns = build(instances)
        seen = {}
        for instance in instances:
            assigned = patterns.classify(instance, invariants)
            if instance in seen:
                assert seen[instance] == assigned
            seen[instance] = assigned


class TestInvariantMonotonicity:
    @given(
        instances3,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60)
    def test_stricter_instance_threshold_shrinks_invariants(
        self, instances, low, high
    ):
        if low > high:
            low, high = high, low
        observations = [(v, i % 4, i % 3) for i, v in enumerate(instances)]
        names = ["f0", "f1", "f2"]
        loose = discover_invariants(
            observations, names, InvariantPolicy(low, 1, 1)
        )
        strict = discover_invariants(
            observations, names, InvariantPolicy(high, 1, 1)
        )
        for i in range(3):
            assert strict.invariants[i] <= loose.invariants[i]

    @given(instances3)
    @settings(max_examples=60)
    def test_wildcard_count_antitone_in_invariants(self, instances):
        # More invariants -> masks can only become more specific.
        observations = [(v, i % 4, i % 3) for i, v in enumerate(instances)]
        names = ["f0", "f1", "f2"]
        loose = discover_invariants(
            observations, names, InvariantPolicy(1, 1, 1)
        )
        strict = discover_invariants(
            observations, names, InvariantPolicy(4, 2, 2)
        )
        for instance in instances:
            loose_mask = mask_instance(instance, loose)
            strict_mask = mask_instance(instance, strict)
            assert generalizes(strict_mask, loose_mask)


def reference_mask_instance(values, invariants):
    """The per-value masking ``mask_instance`` replaced, kept as the
    differential oracle: one ``is_invariant`` call per value."""
    require(
        len(values) == len(invariants.feature_names),
        "instance arity does not match invariant stats",
    )
    return tuple(
        value if invariants.is_invariant(i, value) else WILDCARD
        for i, value in enumerate(values)
    )


#: Probes mixing discovered values with unseen ones and tuples.
probe_values = st.one_of(
    values, st.sampled_from(["zz", 99, 1.5, ("a", "b"), ()])
)


class TestMaskDifferential:
    @given(instances3, st.lists(st.tuples(probe_values, probe_values, probe_values),
                                max_size=20))
    @settings(max_examples=80)
    def test_mask_instance_equals_reference(self, instances, probes):
        invariants, _ = build(instances)
        for probe in instances + probes:
            expected = reference_mask_instance(probe, invariants)
            masked = mask_instance(probe, invariants)
            assert masked == expected
            assert [v is WILDCARD for v in masked] == [
                v is WILDCARD for v in expected
            ]

    @given(instances3, st.integers(min_value=0, max_value=6).filter(lambda n: n != 3))
    @settings(max_examples=30)
    def test_arity_mismatch_raises_like_reference(self, instances, arity):
        invariants, _ = build(instances)
        probe = tuple("a" for _ in range(arity))
        for implementation in (mask_instance, reference_mask_instance):
            with pytest.raises(ValidationError, match="instance arity"):
                implementation(probe, invariants)
