"""Pickling support shared by the slotted dataclass records.

A ``slots=True`` dataclass has no instance ``__dict__``, so the default
pickle protocol stores its state as a field list and restores it
through a generated ``__setstate__`` that looks up
:func:`dataclasses.fields` once per object.  Stage artifacts unpickle
~100k such records at paper scale, and that lookup was most of a warm
replay's load time.  :func:`reduce_by_value` instead pickles a record
as its class plus its field values, so loading is one call of the
generated ``__init__`` per record — which also re-runs the record's
``__post_init__`` validation on every load.
"""

from __future__ import annotations


def reduce_by_value(record: object) -> tuple[type, tuple]:
    """``__reduce__`` of a slotted dataclass record: ``(class, field values)``.

    Assign it in the class body (``__reduce__ = reduce_by_value``).  The
    values are taken in ``__match_args__`` order, which is the generated
    ``__init__``'s positional order, so the record's fields must all be
    ``init=True`` and positional (no ``kw_only``).
    """
    cls = type(record)
    return cls, tuple([getattr(record, name) for name in cls.__match_args__])
