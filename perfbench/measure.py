"""Order statistics, the resolution rule, host speed and peak RSS."""

from __future__ import annotations

import bisect
import json
import math
import resource
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread: the interquartile distance, as
    :func:`statistics.quantiles` gives it; the range below 4 values."""
    if len(values) < 2:
        return math.inf
    if len(values) < 4:
        return max(values) - min(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


@dataclass(frozen=True)
class Comparison:
    """Two sets of runs of one metric, judged by the resolution rule."""

    base_median: float
    new_median: float
    #: The larger of the two sets' own spreads.
    floor: float

    @property
    def delta(self) -> float:
        return self.new_median - self.base_median

    @property
    def resolved(self) -> bool:
        """Whether the difference exceeds the metric's own spread."""
        return abs(self.delta) > self.floor

    @property
    def relative(self) -> float:
        """The difference as a share of the base median; 0 below resolution.

        A difference inside the noise floor is never reported as a
        signed number — that is how a negative overhead gets recorded.
        """
        if not self.resolved or self.base_median == 0:
            return 0.0
        return self.delta / self.base_median

    def verdict(self) -> str:
        if not self.resolved:
            return "below resolution"
        return f"{self.relative:+.2%}"


def compare(base: Sequence[float], new: Sequence[float]) -> Comparison:
    """Judge ``new`` against ``base`` (both non-empty)."""
    return Comparison(
        base_median=statistics.median(base),
        new_median=statistics.median(new),
        floor=max(spread(base), spread(new)),
    )


class PeakRss:
    """High-water mark of this process's RSS, resettable per operation.

    Linux resets the mark on writing ``5`` to ``/proc/self/clear_refs``;
    where that is refused the mark is the process-lifetime peak
    (``reset_supported`` says which).
    """

    def __init__(self) -> None:
        self.reset_supported = self.reset()

    def reset(self) -> bool:
        try:
            Path("/proc/self/clear_refs").write_text("5")
        except OSError:
            return False
        return True

    def read_mb(self) -> float:
        try:
            for line in Path("/proc/self/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Item:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name


def calibration_unit() -> int:
    """A fixed unit of varied interpreter work: object creation, JSON
    encoding, a keyed sort, a dict build and string formatting.

    Varied work tracks the host's speed for a whole pipeline build far
    better than one tight loop, whose slowdowns differ from the
    program's.
    """
    items = [_Item(i, str(i)) for i in range(150)]
    encoded = json.dumps([(item.key, item.name) for item in items])
    by_name = {item.name: item for item in sorted(items, key=lambda item: item.name)}
    return len(encoded) + len(by_name) + sum(len(f"{i.key}:{i.name}") for i in items)


#: Seconds one :func:`calibration_unit` takes at the reference host
#: speed; scaled timings are expressed at this speed.
REFERENCE_UNIT_S = 2.0e-4


class HostSpeed:
    """How fast the host runs Python right now, sampled inside the
    measured operations.

    On a shared host the speed of the same work drifts by tens of per
    cent over seconds to minutes.  While :meth:`sampling` is active a
    timer interrupts the measured code every ``interval`` seconds to
    time a :func:`calibration_unit` in the same thread (not while
    :meth:`paused`, so traced spans stay clean).  An operation's wall
    time minus the sampling time it contained (:attr:`spent`), times
    :meth:`scale` over the operation's interval, is its duration at the
    reference speed.
    """

    def __init__(self, interval: float = 0.025, clock=time.perf_counter) -> None:
        self.interval = interval
        self.clock = clock
        self.times: list[float] = []
        self.units: list[float] = []
        #: Seconds spent sampling so far; subtract deltas from walls.
        self.spent = 0.0
        self._paused = False

    def sample(self, *_signal_args) -> None:
        if self._paused:
            return
        start = self.clock()
        # The first unit refills the caches the interrupted code used;
        # only the second is timed, so the sample depends on the host,
        # not on what the program was doing.
        calibration_unit()
        middle = self.clock()
        calibration_unit()
        end = self.clock()
        self.times.append(start)
        self.units.append(end - middle)
        self.spent += end - start

    @contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self) -> Iterator[None]:
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def scale(self, start: float, end: float, margin: float = 0.25) -> float:
        """Reference unit time over the median unit time sampled within
        ``margin`` seconds of ``[start, end]`` (all samples if none)."""
        lo = bisect.bisect_left(self.times, start - margin)
        hi = bisect.bisect_right(self.times, end + margin)
        window = self.units[lo:hi] or self.units
        if not window:
            self.sample()
            window = self.units
        return REFERENCE_UNIT_S / statistics.median(window)


class AsMeasured:
    """The :class:`HostSpeed` interface for timings kept as measured."""

    spent = 0.0

    def sampling(self):
        return nullcontext(self)

    def paused(self):
        return nullcontext()

    def scale(self, start: float, end: float) -> float:
        return 1.0
