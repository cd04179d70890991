"""Pausing the cyclic garbage collector around allocation-heavy work.

A scenario build or a stage replay allocates hundreds of thousands of
long-lived records and creates (almost) no reference cycles, so the
collections those allocations trigger scan a growing heap and free
nothing.  :func:`gc_paused` switches the cyclic collector off for a
block; reference counting still frees everything acyclic as usual.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the block with the cyclic GC disabled.

    The collector's state on entry is restored on exit, whether the
    block returns or raises.  Pauses nest: an inner block leaves the
    collector disabled, because that was its state on entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
