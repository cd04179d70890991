"""Differential properties of the threshold-free behaviour graph.

``single_linkage(behavior_graph(p, cfg), t)`` must reproduce a
clustering at threshold ``t`` for every ``t`` — the graph is built
once, whatever threshold ``cfg`` carries — and the vectorized and
scalar similarity kernels must agree bit for bit.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sandbox.behavior import BehaviorProfile
from repro.sandbox.clustering import (
    BehaviorClustering,
    ClusteringConfig,
    behavior_graph,
    cluster_lsh,
    single_linkage,
)
from repro.sandbox.lsh import LSHIndex, MinHasher
from repro.util.parallel import SerialExecutor
from repro.util.stats import jaccard

THRESHOLDS = (0.0, 0.2, 0.45, 0.5, 0.7, 0.9, 1.0)

label_set = st.sets(st.integers(min_value=0, max_value=30), max_size=20)
profile_maps = st.lists(label_set, min_size=1, max_size=30).map(
    lambda label_sets: {
        f"s{i}": BehaviorProfile.from_features(
            ("file", f"obj{label}", "create") for label in labels
        )
        for i, labels in enumerate(label_sets)
    }
)
configs = st.builds(
    ClusteringConfig,
    threshold=st.sampled_from(THRESHOLDS),
    bands=st.sampled_from((4, 10, 20)),
    rows=st.sampled_from((2, 5)),
    minhash_seed=st.integers(min_value=0, max_value=2**16),
    max_bucket_size=st.sampled_from((None, 4)),
)


def _reference(profiles, config: ClusteringConfig) -> BehaviorClustering:
    """Union-find over exact-verified LSH candidates, built from the
    public MinHash/LSH pieces with no shared clustering code."""
    uniques = sorted(
        {p.features for p in profiles.values()}, key=lambda fs: (len(fs), sorted(fs))
    )
    index = LSHIndex(
        bands=config.bands, rows=config.rows, max_bucket_size=config.max_bucket_size
    )
    hasher = MinHasher(config.n_hashes, seed=config.minhash_seed)
    for i, features in enumerate(uniques):
        index.add(i, hasher.signature(BehaviorProfile(features).hashed_features()))
    parent = list(range(len(uniques)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    pairs = index.candidate_pairs()
    for i, j in pairs:
        if jaccard(set(uniques[i]), set(uniques[j])) >= config.threshold:
            parent[find(i)] = find(j)
    position = {features: i for i, features in enumerate(uniques)}
    return BehaviorClustering.from_assignment(
        {key: find(position[p.features]) for key, p in profiles.items()},
        n_exact_comparisons=len(pairs),
        n_candidate_pairs=len(pairs),
    )


def _same(a: BehaviorClustering, b: BehaviorClustering) -> None:
    assert a.assignment == b.assignment
    assert a.clusters == b.clusters
    assert a.n_exact_comparisons == b.n_exact_comparisons
    assert a.n_candidate_pairs == b.n_candidate_pairs


class TestBehaviorGraphDifferential:
    @given(profile_maps, configs)
    @settings(max_examples=40, deadline=None)
    def test_one_graph_serves_every_threshold(self, profiles, config):
        graph = behavior_graph(profiles, config)
        thresholds = set(THRESHOLDS) | set(graph.similarity.tolist())
        for threshold in sorted(thresholds):
            linked = single_linkage(graph, threshold)
            at_threshold = replace(config, threshold=threshold)
            _same(linked, cluster_lsh(profiles, at_threshold))
            _same(linked, _reference(profiles, at_threshold))

    @given(profile_maps, configs)
    @settings(max_examples=40, deadline=None)
    def test_vectorized_and_scalar_similarities_are_bit_identical(
        self, profiles, config
    ):
        vectorized = behavior_graph(profiles, config)
        for scalar in (
            behavior_graph(profiles, config, vectorize=False),
            behavior_graph(profiles, config, executor=SerialExecutor(), vectorize=False),
        ):
            assert scalar.members == vectorized.members
            np.testing.assert_array_equal(scalar.left, vectorized.left)
            np.testing.assert_array_equal(scalar.right, vectorized.right)
            assert scalar.similarity.tobytes() == vectorized.similarity.tobytes()

    @given(profile_maps, configs)
    @settings(max_examples=30, deadline=None)
    def test_graph_shape(self, profiles, config):
        graph = behavior_graph(profiles, config)
        assert graph.left.dtype == np.int32 and graph.right.dtype == np.int32
        assert graph.similarity.dtype == np.float64
        assert sorted(k for keys in graph.members for k in keys) == sorted(profiles)
        pairs = list(zip(graph.left.tolist(), graph.right.tolist()))
        assert pairs == sorted(set(pairs))
        assert ((graph.similarity >= 0.0) & (graph.similarity <= 1.0)).all()
