"""Canonical JSON reduction of arbitrary config/artifact values.

:func:`canonicalize` deterministically reduces dataclasses, enums,
mappings and collections to JSON-serialisable primitives.  It is the
shared substrate of every content address in the repo: the scenario
cache fingerprint (:mod:`repro.experiments.cache`) and the per-run
manifest's artifact digests (:mod:`repro.obs.manifest`) both hash its
output, so its mapping must never depend on iteration order, process
identity or wall-clock state.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from enum import Enum
from typing import Mapping


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """Field names of dataclass type ``cls``; ``None`` for other types."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def canonicalize(value: object) -> object:
    """Reduce ``value`` to JSON-serialisable primitives, deterministically.

    Dataclasses become ``{"__type__": name, **fields}`` maps, enums
    become ``{"__enum__": name, "value": ...}``, mappings are key-sorted,
    sets are element-sorted; anything unrecognised falls back to
    ``repr``.

    Exact ``str``/``int``/``float``/``bool``/``None`` values and plain
    lists and tuples take a fast path ahead of the general checks;
    subclasses (str-valued enums, ``IPv4Address``) do not, so they
    reduce exactly as before.
    """
    cls = type(value)
    if cls is str or cls is int or cls is float or cls is bool or value is None:
        return value
    if cls is list or cls is tuple:
        return [canonicalize(v) for v in value]
    names = _field_names(cls)
    if names is not None:
        return {
            "__type__": cls.__name__,
            **{name: canonicalize(getattr(value, name)) for name in names},
        }
    if isinstance(value, Enum):
        return {"__enum__": type(value).__name__, "value": canonicalize(value.value)}
    if isinstance(value, Mapping):
        return {
            str(k): canonicalize(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [canonicalize(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_json(value: object) -> str:
    """The compact, key-sorted JSON encoding of ``canonicalize(value)``."""
    return json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))


def canonical_digest(value: object) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
