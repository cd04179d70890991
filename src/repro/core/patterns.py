"""Phases 3 and 4 — pattern discovery and most-specific matching.

A *pattern* is a tuple ``(v_1, ..., v_n)`` over a dimension's features
where each ``v_i`` is either an invariant value or the "do not care"
:data:`WILDCARD`.  Pattern discovery masks every observed instance —
keeping invariant values, wildcarding everything else — and collects the
distinct masked tuples (optionally pruning rare ones).

Classification assigns each instance the **most specific** matching
pattern: specificity is the number of non-wildcard fields, with ties
broken by higher support and then lexicographic order, so assignment is
total and deterministic.  Because every pattern arises by masking, an
instance's own mask — when present in the set — is always its unique
most-specific match, which makes the common case O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.core.invariants import InvariantStats
from repro.obs import metrics as obs_metrics
from repro.util.validation import require

#: Default bound on the per-set memo of linear-scan results (instances
#: whose own mask is absent from the set).  Small on purpose: the memo
#: exists for hot-path *repeats*, not as a second pattern store.
DEFAULT_SCAN_CACHE_SIZE = 1024


class _Wildcard:
    """Singleton "do not care" marker; sorts stably and prints as ``*``."""

    _instance: "_Wildcard | None" = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"

    def __reduce__(self):
        return (_Wildcard, ())


#: The "do not care" value used in patterns.
WILDCARD = _Wildcard()

Pattern = tuple[Hashable, ...]


def mask_instance(values: Sequence[Hashable], invariants: InvariantStats) -> Pattern:
    """Mask an instance tuple: invariant values kept, others wildcarded."""
    require(
        len(values) == len(invariants.feature_names),
        "instance arity does not match invariant stats",
    )
    return tuple(
        [
            value if value in allowed else WILDCARD
            for value, allowed in zip(values, invariants.invariants)
        ]
    )


def pattern_matches(pattern: Pattern, values: Sequence[Hashable]) -> bool:
    """Whether ``values`` is an instance of ``pattern``."""
    if len(pattern) != len(values):
        return False
    return all(p is WILDCARD or p == v for p, v in zip(pattern, values))


def specificity(pattern: Pattern) -> int:
    """Number of non-wildcard fields."""
    return sum(1 for p in pattern if p is not WILDCARD)


def generalizes(general: Pattern, specific: Pattern) -> bool:
    """Whether ``general`` matches every instance ``specific`` matches."""
    if len(general) != len(specific):
        return False
    return all(
        g is WILDCARD or g == s for g, s in zip(general, specific)
    )


@dataclass(frozen=True)
class _RankedPattern:
    pattern: Pattern
    support: int

    @property
    def sort_key(self) -> tuple:
        return (-specificity(self.pattern), -self.support, repr(self.pattern))


class PatternSet:
    """The discovered patterns of one dimension, ready for classification."""

    def __init__(
        self,
        patterns: dict[Pattern, int],
        *,
        scan_cache_size: int = DEFAULT_SCAN_CACHE_SIZE,
    ) -> None:
        require(len(patterns) > 0, "PatternSet cannot be empty")
        require(scan_cache_size >= 0, "scan_cache_size must be >= 0")
        self._support = dict(patterns)
        self._ranked = sorted(
            (_RankedPattern(p, s) for p, s in patterns.items()),
            key=lambda rp: rp.sort_key,
        )
        # Bounded LRU memo of linear-scan results, keyed by the raw
        # instance tuple.  The scan depends only on (values, _ranked) —
        # never on the invariants argument — so memoizing by values is
        # bit-identical to rescanning, whatever invariants are passed.
        self._scan_cache_size = scan_cache_size
        self._scan_cache: OrderedDict[Pattern, Pattern] = OrderedDict()

    @classmethod
    def discover(
        cls,
        instances: Iterable[Sequence[Hashable]],
        invariants: InvariantStats,
        *,
        min_support: int = 1,
    ) -> "PatternSet":
        """Phase 3: collect the distinct masked tuples of ``instances``.

        Patterns below ``min_support`` are pruned; the all-wildcard root
        pattern is always retained so classification stays total (it is
        the "anything" cluster instances fall back to).
        """
        require(min_support >= 1, "min_support must be >= 1")
        counts: dict[Pattern, int] = {}
        n_features = len(invariants.feature_names)
        total = 0
        for values in instances:
            masked = mask_instance(values, invariants)
            counts[masked] = counts.get(masked, 0) + 1
            total += 1
        kept = {p: s for p, s in counts.items() if s >= min_support}
        root: Pattern = tuple([WILDCARD] * n_features)
        if root not in kept:
            kept[root] = total - sum(kept.values())
        return cls(kept)

    @property
    def patterns(self) -> list[Pattern]:
        """All patterns, most specific first."""
        return [rp.pattern for rp in self._ranked]

    def support_of(self, pattern: Pattern) -> int:
        """Discovery-time instance count of ``pattern``."""
        return self._support[pattern]

    def __len__(self) -> int:
        return len(self._support)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self._support

    def classify(
        self, values: Sequence[Hashable], invariants: InvariantStats
    ) -> Pattern:
        """Phase 4: the most specific pattern matching ``values``.

        Fast path: the instance's own mask, when present.  Otherwise a
        bounded LRU memo of previous scan results is consulted before
        falling back to the most-specific-first scan; the root pattern
        guarantees a hit.
        """
        masked = mask_instance(values, invariants)
        if masked in self._support:
            return masked
        key = tuple(values)
        cached = self._scan_cache.get(key)
        if cached is not None:
            self._scan_cache.move_to_end(key)
            obs_metrics.active().counter("classify.scan_cache_hit").inc()
            return cached
        obs_metrics.active().counter("classify.scan_cache_miss").inc()
        result = self.scan_classify(key)
        if self._scan_cache_size:
            self._scan_cache[key] = result
            if len(self._scan_cache) > self._scan_cache_size:
                self._scan_cache.popitem(last=False)
        return result

    def scan_classify(self, values: Sequence[Hashable]) -> Pattern:
        """The pure linear reference path: scan the ranked list,
        most specific first, no fast path, no memo.  This is the
        semantics every accelerated path (the own-mask shortcut, the
        LRU memo, :class:`~repro.core.pattern_index.PatternIndex`)
        must reproduce bit for bit."""
        for ranked in self._ranked:
            if pattern_matches(ranked.pattern, values):
                return ranked.pattern
        raise ValueError("no pattern matches the instance")

    def matching_patterns(self, values: Sequence[Hashable]) -> list[Pattern]:
        """All patterns matching ``values`` (most specific first).

        The paper notes multiple patterns can match one instance (e.g.
        ``(*, 2, 3)`` and ``(*, *, 3)`` both match ``(1, 2, 3)``); this
        returns the full list for inspection and tests.
        """
        return [
            rp.pattern for rp in self._ranked if pattern_matches(rp.pattern, values)
        ]


def format_pattern(pattern: Pattern, feature_names: Sequence[str]) -> str:
    """Render a pattern as ``{name=value, ...}`` with ``*`` wildcards."""
    require(len(pattern) == len(feature_names), "pattern arity mismatch")
    parts = []
    for name, value in zip(feature_names, pattern):
        rendered = "*" if value is WILDCARD else repr(value)
        parts.append(f"{name}={rendered}")
    return "{" + ", ".join(parts) + "}"
