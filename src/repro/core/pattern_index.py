"""Compiled most-specific matching: the classification hot path.

:meth:`PatternSet.classify` is exact but scan-shaped: when an
instance's own mask is not in the set it walks the ranked pattern list
most-specific-first until something matches.  That is fine at discovery
time (almost every instance hits the O(1) own-mask fast path) and wrong
for serving, where the interesting traffic is precisely the instances
the landscape has *not* seen.  :class:`PatternIndex` compiles a
:class:`~repro.core.patterns.PatternSet` into a per-feature
discrimination trie whose lookup is branch-and-bound over pattern
*rank* — provably the same answer as the linear scan, at
O(pattern-depth) for the common shapes.

**Index structure.**  Level ``d`` of the trie branches on feature
``d``: a node keeps one edge per concrete value patterns carry there,
plus at most one wildcard edge.  Every node records the minimum rank
(position in the most-specific-first order) of any pattern in its
subtree.  Lookup descends both the matching concrete edge and the
wildcard edge (an explicit stack, no recursion), visiting children in
ascending ``min_rank`` order and pruning any subtree whose ``min_rank``
cannot beat the best complete match found so far.  Because a leaf's
``min_rank`` *is* its pattern's rank, the minimum-rank reachable leaf
is exactly the first match the linear scan would return.

**Batch kernel.**  :meth:`PatternIndex.batch_classify` classifies a
columnar ``(n_rows, n_features)`` code matrix
(:class:`~repro.egpm.columnar.DimensionColumns` layout) in one pass:
it masks the matrix against the invariants (per-feature boolean
lookup tables over the vocabularies, non-invariant codes collapse to
``-1``), deduplicates rows with ``np.unique``, and resolves each
*unique masked tuple* once through the trie.  That grouping is exact
because of the masked-equivalence property: when every non-wildcard
pattern value is invariant (true by construction for discovered sets,
verified at compile time), a pattern matches an instance iff it
matches the instance's mask.  Pattern sets that fail the check — only
constructible by hand — transparently fall back to grouping on the
raw rows, which is exact for any set.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.core.invariants import InvariantStats
from repro.core.patterns import WILDCARD, Pattern, PatternSet
from repro.egpm.columnar import Vocabulary
from repro.util.validation import require


class _TrieNode:
    """One trie level: concrete-value edges, a wildcard edge, and the
    minimum pattern rank reachable in the subtree."""

    __slots__ = ("children", "wild", "min_rank")

    def __init__(self) -> None:
        self.children: dict[Hashable, _TrieNode] = {}
        self.wild: _TrieNode | None = None
        self.min_rank: int = -1  # assigned during compile


class PatternIndex:
    """A :class:`PatternSet` compiled for hot-path classification.

    The index is immutable after :meth:`compile`; it never changes the
    answer, only how fast it is found (equivalence is enforced by
    hypothesis property tests and the CI digest-identity check).
    """

    def __init__(
        self,
        root: _TrieNode,
        patterns: list[Pattern],
        invariants: InvariantStats,
        mask_consistent: bool,
    ) -> None:
        self._root = root
        self._patterns = patterns
        self._rank_of = {pattern: rank for rank, pattern in enumerate(patterns)}
        self._invariants = invariants
        self._mask_consistent = mask_consistent
        self._n_features = len(invariants.feature_names)

    @classmethod
    def compile(
        cls, pattern_set: PatternSet, invariants: InvariantStats
    ) -> "PatternIndex":
        """Build the trie from a pattern set's most-specific-first order."""
        patterns = pattern_set.patterns
        n_features = len(invariants.feature_names)
        for pattern in patterns:
            require(
                len(pattern) == n_features,
                f"pattern arity {len(pattern)} does not match "
                f"{n_features} invariant features",
            )
        root = _TrieNode()
        mask_consistent = True
        for rank, pattern in enumerate(patterns):
            node = root
            if node.min_rank < 0:
                node.min_rank = rank
            for depth, value in enumerate(pattern):
                if value is WILDCARD:
                    if node.wild is None:
                        node.wild = _TrieNode()
                    node = node.wild
                else:
                    if not invariants.is_invariant(depth, value):
                        mask_consistent = False
                    child = node.children.get(value)
                    if child is None:
                        child = _TrieNode()
                        node.children[value] = child
                    node = child
                if node.min_rank < 0:
                    node.min_rank = rank
        return cls(root, patterns, invariants, mask_consistent)

    @property
    def patterns(self) -> list[Pattern]:
        """All patterns, most specific first (rank order)."""
        return list(self._patterns)

    @property
    def n_features(self) -> int:
        """Arity every classified instance must have."""
        return self._n_features

    @property
    def mask_consistent(self) -> bool:
        """Whether every non-wildcard pattern value is invariant (the
        precondition of the masked-grouping batch kernel)."""
        return self._mask_consistent

    def __len__(self) -> int:
        return len(self._patterns)

    def pattern_of(self, rank: int) -> Pattern:
        """The pattern at ``rank`` in most-specific-first order."""
        return self._patterns[rank]

    def classify_rank(self, values: Sequence[Hashable]) -> int:
        """Rank of the most specific matching pattern (linear-scan order).

        Branch-and-bound depth-first search over an explicit stack:
        at a node with both a matching concrete edge and a wildcard
        edge, the child with the smaller subtree ``min_rank`` is
        descended at once and the other is pushed, and a node is pruned
        as soon as its ``min_rank`` cannot beat the best complete match
        found so far.  The answer is the minimum rank over reachable
        complete leaves, which no visiting order can change.
        """
        require(
            len(values) == self._n_features,
            f"instance arity {len(values)} does not match "
            f"{self._n_features} index features",
        )
        n_features = self._n_features
        best = len(self._patterns)
        stack: list[tuple[_TrieNode, int]] = [(self._root, 0)]
        push, pop = stack.append, stack.pop
        while stack:
            node, depth = pop()
            while node.min_rank < best:
                if depth == n_features:
                    best = node.min_rank
                    break
                concrete = node.children.get(values[depth])
                wild = node.wild
                depth += 1
                if concrete is None:
                    if wild is None:
                        break
                    node = wild
                elif wild is None:
                    node = concrete
                elif concrete.min_rank <= wild.min_rank:
                    push((wild, depth))
                    node = concrete
                else:
                    push((concrete, depth))
                    node = wild
        require(best < len(self._patterns), "no pattern matches the instance")
        return best

    def classify(self, values: Sequence[Hashable]) -> Pattern:
        """The most specific matching pattern — identical to scanning
        the ranked list, which is what the property tests assert."""
        return self._patterns[self.classify_rank(values)]

    def _invariant_tables(
        self, vocabularies: Sequence[Vocabulary]
    ) -> list[np.ndarray]:
        """Per-feature boolean lookup: is the vocabulary code invariant?"""
        tables = []
        for feature, vocab in enumerate(vocabularies):
            values = vocab.values()
            table = np.fromiter(
                (self._invariants.is_invariant(feature, value) for value in values),
                dtype=bool,
                count=len(values),
            )
            tables.append(table)
        return tables

    def batch_classify(
        self, codes: np.ndarray, vocabularies: Sequence[Vocabulary]
    ) -> np.ndarray:
        """Classify every row of a columnar code matrix.

        Returns the ``(n_rows,)`` int64 array of pattern *ranks*
        (decode with :meth:`pattern_of`); row ``r`` gets exactly
        ``classify_rank(decode_row(r))``.
        """
        codes = np.asarray(codes, dtype=np.int64)
        require(
            codes.ndim == 2 and codes.shape[1] == self._n_features,
            f"codes matrix has shape {codes.shape}, "
            f"expected (*, {self._n_features})",
        )
        require(
            len(vocabularies) == self._n_features,
            "one vocabulary per feature required",
        )
        if codes.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if self._mask_consistent:
            masked = np.empty_like(codes)
            tables = self._invariant_tables(vocabularies)
            for feature, table in enumerate(tables):
                column = codes[:, feature]
                keep = table[column] if len(table) else np.zeros(len(column), bool)
                masked[:, feature] = np.where(keep, column, -1)
            unique_rows, inverse = np.unique(masked, axis=0, return_inverse=True)
            resolve = self._resolve_masked_row
        else:
            unique_rows, inverse = np.unique(codes, axis=0, return_inverse=True)
            resolve = self._resolve_raw_row
        inverse = np.asarray(inverse).reshape(-1)  # numpy 2.0 shape change
        ranks = np.fromiter(
            (resolve(row, vocabularies) for row in unique_rows),
            dtype=np.int64,
            count=len(unique_rows),
        )
        return ranks[inverse]

    def _resolve_masked_row(
        self, row: np.ndarray, vocabularies: Sequence[Vocabulary]
    ) -> int:
        """Rank of one unique *masked* code row (``-1`` == wildcard).

        A pattern matches an instance iff it matches the instance's
        mask (mask-consistency precondition), so classifying the masked
        tuple itself gives every grouped row's answer; when the mask is
        a pattern of the set it is its own most-specific match and the
        trie walk is skipped entirely.
        """
        masked_tuple = tuple(
            WILDCARD if code < 0 else vocabularies[f].decode(int(code))
            for f, code in enumerate(row.tolist())
        )
        rank = self._rank_of.get(masked_tuple)
        if rank is not None:
            return rank
        return self.classify_rank(masked_tuple)

    def _resolve_raw_row(
        self, row: np.ndarray, vocabularies: Sequence[Vocabulary]
    ) -> int:
        """Rank of one unique raw code row (hand-built-set fallback)."""
        values = tuple(
            vocabularies[f].decode(int(code)) for f, code in enumerate(row.tolist())
        )
        return self.classify_rank(values)
