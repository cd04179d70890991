"""The cyclic-GC pause helper: restores the prior state, nests, survives raises."""

import gc

import pytest

from repro.util.gcpause import gc_paused


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("restore_gc")
class TestGcPaused:
    def test_pauses_and_reenables(self):
        gc.enable()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_pauses_restore_the_outer_state(self):
        gc.enable()
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_when_the_block_raises(self):
        gc.enable()
        with pytest.raises(RuntimeError), gc_paused():
            raise RuntimeError("boom")
        assert gc.isenabled()
