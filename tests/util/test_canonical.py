"""Differential test of :func:`repro.util.canonical.canonicalize`.

Every content address in the repo hashes ``canonical_json``, so its
fast paths must never change a byte.  ``_reference_canonicalize`` is the
straightforward implementation the fast paths replaced, kept here as
the oracle; hypothesis drives both over nested values mixing exact
primitives with the subclasses (str-valued enums, ``IPv4Address``,
bools) that must keep the general path.
"""

import dataclasses
import enum
import json
from enum import Enum
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egpm.events import ExploitObservable, GroundTruth, InteractionType
from repro.malware.polymorphism import PolymorphyMode
from repro.net.address import IPv4Address
from repro.util.canonical import canonical_json, canonicalize


def _reference_canonicalize(value: object) -> object:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _reference_canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Enum):
        return {
            "__enum__": type(value).__name__,
            "value": _reference_canonicalize(value.value),
        }
    if isinstance(value, Mapping):
        return {
            str(k): _reference_canonicalize(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_reference_canonicalize(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _reference_json(value: object) -> str:
    return json.dumps(_reference_canonicalize(value), sort_keys=True, separators=(",", ":"))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass
class Box:
    first: object
    second: object = None


@dataclasses.dataclass(frozen=True, slots=True)
class SlottedBox:
    only: object


class Text(str):
    """A plain ``str`` subclass: must not take the exact-type fast path."""


hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.sampled_from([*InteractionType, *PolymorphyMode, *Level]),
    st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address),
    st.text(max_size=4).map(Text),
    st.binary(max_size=4),
)
records = st.one_of(
    st.builds(
        ExploitObservable,
        fsm_path_id=st.integers(min_value=0, max_value=99),
        dst_port=st.integers(min_value=1, max_value=65535),
    ),
    st.builds(GroundTruth, st.text(max_size=3), st.text(max_size=3), st.just("e"), st.just("p")),
)
keys = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        st.builds(Box, children, children),
        st.builds(SlottedBox, children),
    )


values = st.recursive(st.one_of(hashable_leaves, records), _containers, max_leaves=20)


@given(values)
@settings(max_examples=400)
def test_canonical_json_matches_the_reference(value):
    assert canonical_json(value) == _reference_json(value)


def test_types_and_subclasses_keep_the_general_path():
    assert canonicalize(InteractionType.PUSH) == {
        "__enum__": "InteractionType",
        "value": "push",
    }
    assert canonicalize(Level.HIGH) == {"__enum__": "Level", "value": 2}
    assert canonicalize(True) is True
    assert type(canonicalize(IPv4Address(7))) is IPv4Address
    assert canonicalize(Box) == repr(Box)
    assert canonicalize((1, [2.5, None])) == [1, [2.5, None]]
