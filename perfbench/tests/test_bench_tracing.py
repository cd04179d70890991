"""Self-time arithmetic and hook installation of :mod:`tracing`."""

import pytest

from tracing import Hook, Recorder, instrument


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_children_only_once():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.op():
        with rec.span("outer"):
            clock.advance(1.0)
            with rec.span("mid"):
                clock.advance(2.0)
                with rec.span("inner"):
                    clock.advance(4.0)
                clock.advance(0.5)
            clock.advance(0.25)
    outer, mid, inner = rec.stats["outer"], rec.stats["mid"], rec.stats["inner"]
    assert inner.total_s == inner.self_s == 4.0
    assert mid.total_s == 6.5 and mid.self_s == 2.5
    # The grandchild is inside mid's total, so outer subtracts it once.
    assert outer.total_s == 7.75 and outer.self_s == 1.25
    assert rec.op_walls == [7.75]
    assert rec.covered_s == [7.75]


def test_sibling_spans_aggregate_and_add_to_parent():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.op():
        clock.advance(0.5)  # uncovered time of the operation
        with rec.span("parent"):
            for seconds in (1.0, 2.0, 3.0):
                with rec.span("leaf"):
                    clock.advance(seconds)
            clock.advance(1.0)
        with rec.span("leaf"):
            clock.advance(10.0)
    leaf, parent = rec.stats["leaf"], rec.stats["parent"]
    assert leaf.calls == 4 and leaf.total_s == leaf.self_s == 16.0
    assert parent.total_s == 7.0 and parent.self_s == 1.0
    assert rec.op_walls == [17.5]
    assert rec.covered_s == [17.0]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = Recorder(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    wrapped = rec.wrap("boom", boom)
    with rec.op(), rec.span("parent"):
        with pytest.raises(ValueError):
            wrapped()
        clock.advance(1.0)
    assert rec.stats["boom"].calls == 1
    assert rec.stats["parent"].self_s == 1.0


class Target:
    def method(self, values):
        return [v * 2 for v in values]

    @classmethod
    def build(cls, n):
        return cls(), n

    @staticmethod
    def size(data):
        return len(data)


def test_instrument_wraps_descriptors_and_restores_them():
    originals = dict(Target.__dict__)
    rec = Recorder()
    hooks = [
        Hook("t.method", Target, "method", items=lambda a, k, r: len(r)),
        Hook("t.build", Target, "build"),
        Hook("t.size", Target, "size", nbytes=lambda a, k, r: r),
    ]
    with instrument(rec, hooks):
        assert Target().method([1, 2, 3]) == [2, 4, 6]
        obj, n = Target.build(5)
        assert isinstance(obj, Target) and n == 5
        assert Target.size(b"abcd") == 4
    for name in ("method", "build", "size"):
        assert Target.__dict__[name] is originals[name]
    assert rec.stats["t.method"].items == 3
    assert rec.stats["t.build"].calls == 1
    assert rec.stats["t.size"].bytes == 4


def test_instrument_restores_after_an_error():
    original = Target.__dict__["method"]
    with pytest.raises(RuntimeError):
        with instrument(Recorder(), [Hook("t.method", Target, "method")]):
            raise RuntimeError("inside")
    assert Target.__dict__["method"] is original
