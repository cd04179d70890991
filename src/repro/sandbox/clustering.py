"""Behaviour-based clustering (B-clusters) per Bayer et al., NDSS 2009.

The pipeline avoids the O(n^2) distance matrix in two steps that mirror
the published system:

1. **exact-duplicate pre-grouping** — samples with byte-identical
   feature sets (polymorphic instances of one codebase) collapse to one
   representative each;
2. **MinHash-LSH candidate generation** over the unique profiles,
   followed by exact Jaccard verification of candidate pairs and
   single-linkage grouping at threshold ``t`` (single-linkage
   hierarchical clustering cut at distance 1-t is exactly the connected
   components of the >=t similarity graph, computed here with
   union-find).

Step 2 is split at the threshold: :func:`behavior_graph` computes the
threshold-free part (dedupe, MinHash-LSH candidates and the exact
similarity of every candidate pair) and :func:`single_linkage` cuts
that graph at ``t``.  :func:`cluster_lsh` is their composition; a
threshold sweep builds the graph once and re-runs only the linkage.

:func:`cluster_exact` is the quadratic reference implementation used by
tests and the scalability benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import current_tracer
from repro.sandbox.behavior import BehaviorProfile
from repro.sandbox.lsh import LSHIndex, MinHasher
from repro.util.parallel import Executor
from repro.util.stats import jaccard
from repro.util.validation import require, require_probability


@dataclass(frozen=True)
class ClusteringConfig:
    """Similarity threshold and LSH shape.

    The NDSS'09 system clusters at Jaccard similarity t=0.7.  The
    banding must put the collision sigmoid safely *below* the clustering
    threshold so that true >=0.7 pairs are found with high probability:
    bands=20 x rows=5 collides a 0.7-similar pair with probability
    1-(1-0.7^5)^20 ~ 0.975 (and chains under single linkage push the
    effective recall higher still) while 0.3-similar pairs collide only
    ~5% of the time, keeping the candidate set small.
    """

    threshold: float = 0.7
    bands: int = 20
    rows: int = 5
    minhash_seed: int = 2010
    minhash_backend: str = "python"
    #: Candidate-generation guard: buckets larger than this emit no
    #: pairs (None keeps every bucket; see :class:`~repro.sandbox.lsh.LSHIndex`).
    max_bucket_size: int | None = None

    def __post_init__(self) -> None:
        require_probability(self.threshold, "threshold")
        require(self.bands >= 1 and self.rows >= 1, "bands/rows must be >= 1")
        require(
            self.minhash_backend in ("python", "numpy"),
            f"unknown minhash backend {self.minhash_backend!r}",
        )
        require(
            self.max_bucket_size is None or self.max_bucket_size >= 2,
            "max_bucket_size must be >= 2 (or None)",
        )

    @property
    def n_hashes(self) -> int:
        """MinHash signature length implied by the banding."""
        return self.bands * self.rows


class _UnionFind:
    def __init__(self, items: Sequence[Hashable]) -> None:
        self._parent = {item: item for item in items}
        self._rank = {item: 0 for item in items}

    def find(self, item: Hashable) -> Hashable:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1

    def components(self) -> dict[Hashable, list[Hashable]]:
        groups: dict[Hashable, list[Hashable]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return groups


@dataclass
class BehaviorClustering:
    """The result of a B-clustering run.

    ``assignment`` maps sample key -> B-cluster id; ``clusters`` maps
    B-cluster id -> sorted sample keys.  Cluster ids are dense integers
    ordered by decreasing cluster size (ties broken by smallest member).
    """

    assignment: dict[str, int]
    clusters: dict[int, list[str]] = field(default_factory=dict)
    n_exact_comparisons: int = 0
    n_candidate_pairs: int = 0

    @classmethod
    def from_assignment(
        cls,
        assignment: Mapping[str, int],
        *,
        n_exact_comparisons: int = 0,
        n_candidate_pairs: int = 0,
    ) -> "BehaviorClustering":
        """Normalise raw component labels into dense, size-ordered ids."""
        groups: dict[int, list[str]] = {}
        for key, label in assignment.items():
            groups.setdefault(label, []).append(key)
        ordered = sorted(groups.values(), key=lambda ms: (-len(ms), min(ms)))
        final_assignment: dict[str, int] = {}
        clusters: dict[int, list[str]] = {}
        for cluster_id, members in enumerate(ordered):
            clusters[cluster_id] = sorted(members)
            for member in members:
                final_assignment[member] = cluster_id
        return cls(
            assignment=final_assignment,
            clusters=clusters,
            n_exact_comparisons=n_exact_comparisons,
            n_candidate_pairs=n_candidate_pairs,
        )

    @property
    def n_clusters(self) -> int:
        """Number of B-clusters."""
        return len(self.clusters)

    def size_of(self, cluster_id: int) -> int:
        """Member count of one cluster."""
        return len(self.clusters[cluster_id])

    def singletons(self) -> list[int]:
        """Ids of size-1 clusters (the anomaly candidates of §4.2)."""
        return [cid for cid, members in self.clusters.items() if len(members) == 1]

    def sizes(self) -> dict[int, int]:
        """Cluster id -> size."""
        return {cid: len(members) for cid, members in self.clusters.items()}


def _dedupe(
    profiles: Mapping[str, BehaviorProfile],
) -> tuple[dict[frozenset, list[str]], list[frozenset]]:
    groups: dict[frozenset, list[str]] = {}
    for key, profile in profiles.items():
        groups.setdefault(profile.features, []).append(key)
    uniques = sorted(groups.keys(), key=lambda fs: (len(fs), sorted(fs)))
    return groups, uniques


def _expand(
    unique_labels: Mapping[int, int], members: Sequence[Sequence[str]]
) -> dict[str, int]:
    assignment: dict[str, int] = {}
    for index, keys in enumerate(members):
        label = unique_labels[index]
        for key in keys:
            assignment[key] = label
    return assignment


def cluster_exact(
    profiles: Mapping[str, BehaviorProfile],
    config: ClusteringConfig | None = None,
) -> BehaviorClustering:
    """Quadratic reference clustering: every unique-profile pair compared."""
    config = config or ClusteringConfig()
    groups, uniques = _dedupe(profiles)
    uf = _UnionFind(list(range(len(uniques))))
    comparisons = 0
    sets = [set(features) for features in uniques]
    for i in range(len(uniques)):
        for j in range(i + 1, len(uniques)):
            comparisons += 1
            if jaccard(sets[i], sets[j]) >= config.threshold:
                uf.union(i, j)
    labels = {i: uf.find(i) for i in range(len(uniques))}
    assignment = _expand(labels, [groups[features] for features in uniques])
    return BehaviorClustering.from_assignment(
        assignment, n_exact_comparisons=comparisons, n_candidate_pairs=comparisons
    )


@dataclass(frozen=True, eq=False)
class BehaviorGraph:
    """The threshold-free part of B-clustering: a weighted pair graph.

    Nodes are the unique behaviour profiles (exact duplicates collapsed,
    in :func:`_dedupe` order); ``members[u]`` lists the sample keys that
    share unique profile ``u``.  Edges are the LSH candidate pairs
    ``(left[k], right[k])``, sorted, each carrying its exact Jaccard
    ``similarity[k]``.  Nothing here depends on the clustering
    threshold, so one graph serves every threshold of a sweep through
    :func:`single_linkage`.
    """

    members: tuple[tuple[str, ...], ...]
    left: np.ndarray
    right: np.ndarray
    similarity: np.ndarray

    @property
    def n_unique(self) -> int:
        """Number of unique profiles (graph nodes)."""
        return len(self.members)

    @property
    def n_pairs(self) -> int:
        """Number of candidate pairs (graph edges)."""
        return len(self.similarity)


def _pair_similarity(feature_sets: Sequence[set], pair: tuple[int, int]) -> float:
    """Exact Jaccard of one candidate pair (module-level: picklable)."""
    i, j = pair
    return jaccard(feature_sets[i], feature_sets[j])


def _packed_feature_matrix(feature_sets: Sequence[set]) -> np.ndarray:
    """One row per set, one bit per distinct feature, packed 8 to a byte.

    Bits are set straight into the ``uint8`` matrix, in
    :func:`numpy.packbits` order (feature code ``c`` is bit ``7 - c % 8``
    of byte ``c // 8``), so no dense one-byte-per-feature matrix is
    ever built.
    """
    vocabulary: dict = {}
    rows: list[int] = []
    codes: list[int] = []
    for i, fs in enumerate(feature_sets):
        for feature in fs:
            rows.append(i)
            codes.append(vocabulary.setdefault(feature, len(vocabulary)))
    packed = np.zeros(
        (len(feature_sets), max(1, (len(vocabulary) + 7) // 8)), dtype=np.uint8
    )
    code_array = np.asarray(codes, dtype=np.intp)
    np.bitwise_or.at(
        packed,
        (np.asarray(rows, dtype=np.intp), code_array >> 3),
        (0x80 >> (code_array & 7)).astype(np.uint8),
    )
    return packed


def _pair_similarities_vectorized(
    feature_sets: Sequence[set], left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Exact Jaccard similarity of every pair ``(left[k], right[k])``.

    Intersection sizes come from ``popcount(row_i & row_j)`` over the
    packed feature matrix, in chunks of 8192 pairs.  Each value equals
    ``jaccard(feature_sets[i], feature_sets[j])`` bit for bit:
    intersection and union are the same integers, and the float
    division is the same IEEE-754 operation the scalar path performs.
    """
    packed = _packed_feature_matrix(feature_sets)
    sizes = np.array([len(fs) for fs in feature_sets], dtype=np.int64)
    n_pairs = len(left)
    similarities = np.empty(n_pairs, dtype=np.float64)
    chunk = 8192
    for start in range(0, n_pairs, chunk):
        stop = min(start + chunk, n_pairs)
        ii, jj = left[start:stop], right[start:stop]
        inter = np.bitwise_count(packed[ii] & packed[jj]).sum(axis=1, dtype=np.int64)
        union = sizes[ii] + sizes[jj] - inter
        # Two empty sets have Jaccard 1.0 by convention; guard the division.
        both_empty = union == 0
        similarities[start:stop] = np.where(
            both_empty, 1.0, inter / np.where(both_empty, 1, union)
        )
    return similarities


def behavior_graph(
    profiles: Mapping[str, BehaviorProfile],
    config: ClusteringConfig | None = None,
    *,
    executor: Executor | None = None,
    vectorize: bool = True,
) -> BehaviorGraph:
    """Dedupe, MinHash-LSH candidates and their exact Jaccard similarities.

    Only the LSH shape of ``config`` (bands, rows, MinHash seed and
    backend, bucket guard) is read; the threshold is applied later by
    :func:`single_linkage`.

    With ``vectorize=True`` (the default) MinHash signatures come from
    one :meth:`~repro.sandbox.lsh.MinHasher.signature_matrix` call and
    similarities from packed-bit intersection counts.  With
    ``vectorize=False`` signatures are computed one by one and every
    similarity comes from :func:`~repro.util.stats.jaccard`, through
    ``executor.map`` when an ``executor`` is given.  All paths yield
    the same graph bit for bit, on every executor backend.
    """
    config = config or ClusteringConfig()
    tracer = current_tracer()
    registry = obs_metrics.active()
    with tracer.span("lsh.dedupe") as span:
        groups, uniques = _dedupe(profiles)
        span.set(profiles=len(profiles), unique_profiles=len(uniques))
    with tracer.span("lsh.index") as span:
        hasher = MinHasher(
            config.n_hashes, seed=config.minhash_seed, backend=config.minhash_backend
        )
        index = LSHIndex(
            bands=config.bands,
            rows=config.rows,
            max_bucket_size=config.max_bucket_size,
        )
        hashed_sets: list[set[int]] = []
        feature_sets: list[set] = []
        for features in uniques:
            profile = BehaviorProfile(features)
            hashed_sets.append(profile.hashed_features())
            feature_sets.append(set(features))
        if vectorize:
            signatures = hasher.signature_matrix(hashed_sets)
            for i in range(len(uniques)):
                index.add(i, tuple(int(v) for v in signatures[i]))
        else:
            for i, hashed in enumerate(hashed_sets):
                index.add(i, hasher.signature(hashed))
        candidates = sorted(index.candidate_pairs())
        span.set(candidate_pairs=len(candidates))
        bucket_hist = registry.histogram(
            "lsh.bucket_size", buckets=obs_metrics.SIZE_BUCKETS
        )
        # The sketch tracks the same series with relative-error bins:
        # at 100x-1000x scale bucket sizes outgrow the fixed SIZE
        # buckets, while the sketch keeps tail quantiles meaningful.
        bucket_sketch = registry.sketch("lsh.bucket_size_sketch")
        for size in index.bucket_sizes():
            bucket_hist.observe(size)
            bucket_sketch.observe(size)
        registry.counter("lsh.buckets_skipped").inc(index.skipped_buckets)
    with tracer.span("lsh.verify") as span:
        left = np.array([i for i, _ in candidates], dtype=np.int32)
        right = np.array([j for _, j in candidates], dtype=np.int32)
        if vectorize and candidates:
            similarity = _pair_similarities_vectorized(feature_sets, left, right)
        elif executor is not None and candidates:
            similarity = np.array(
                executor.map(partial(_pair_similarity, feature_sets), candidates),
                dtype=np.float64,
            )
        else:
            similarity = np.array(
                [_pair_similarity(feature_sets, pair) for pair in candidates],
                dtype=np.float64,
            )
        span.set(pairs_verified=len(candidates))
    registry.gauge("lsh.unique_profiles").set(len(uniques))
    registry.counter("lsh.candidate_pairs").inc(len(candidates))
    return BehaviorGraph(
        members=tuple(tuple(groups[features]) for features in uniques),
        left=left,
        right=right,
        similarity=similarity,
    )


def single_linkage(graph: BehaviorGraph, threshold: float) -> BehaviorClustering:
    """Connected components of ``graph``'s edges with similarity >= ``threshold``.

    Single-linkage clustering cut at distance ``1 - threshold``.  Every
    candidate pair of the graph counts as exactly verified, so
    ``n_exact_comparisons`` equals ``n_candidate_pairs``.
    """
    require_probability(threshold, "threshold")
    registry = obs_metrics.active()
    with current_tracer().span("lsh.link") as span:
        linked = graph.similarity >= threshold
        uf = _UnionFind(list(range(graph.n_unique)))
        for i, j in zip(graph.left[linked].tolist(), graph.right[linked].tolist()):
            uf.union(i, j)
        labels = {i: uf.find(i) for i in range(graph.n_unique)}
        result = BehaviorClustering.from_assignment(
            _expand(labels, graph.members),
            n_exact_comparisons=graph.n_pairs,
            n_candidate_pairs=graph.n_pairs,
        )
        span.set(threshold=threshold, pairs_linked=int(linked.sum()))
    registry.counter("lsh.pairs_verified").inc(graph.n_pairs)
    registry.gauge("lsh.clusters").set(result.n_clusters)
    return result


def cluster_lsh(
    profiles: Mapping[str, BehaviorProfile],
    config: ClusteringConfig | None = None,
    *,
    executor: Executor | None = None,
    vectorize: bool = True,
) -> BehaviorClustering:
    """Scalable clustering: LSH candidates + exact verification + union-find.

    The composition of :func:`behavior_graph` (threshold-free) and
    :func:`single_linkage` at ``config.threshold``.  Every candidate
    pair is verified on every path, so cluster assignments and both
    counters are identical for ``vectorize=True``/``False`` and across
    executor backends.
    """
    config = config or ClusteringConfig()
    graph = behavior_graph(profiles, config, executor=executor, vectorize=vectorize)
    return single_linkage(graph, config.threshold)
