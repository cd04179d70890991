"""By-value pickling of the slotted dataclass records.

Every ``slots=True`` record in the package pickles as ``(class, field
values)`` through :func:`repro.util.records.reduce_by_value`: a load
rebuilds it through the generated ``__init__`` (so ``__post_init__``
validation runs) and never asks :func:`dataclasses.fields` for the
field list, which is what made stage replays slow.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import repro
from repro.egpm.events import (
    AttackEvent,
    ExploitObservable,
    GroundTruth,
    InteractionType,
    MalwareObservable,
    PayloadObservable,
    SampleRecord,
)
from repro.honeypot.deployment import StagedObservation
from repro.malware.behaviorspec import BehaviorTemplate
from repro.malware.landscape import AttackAttempt
from repro.malware.propagation import PayloadSpec
from repro.net.address import IPv4Address
from repro.peformat.structures import PEInfo
from repro.util.records import reduce_by_value
from repro.util.validation import ValidationError

PE = PEInfo(
    machine_type=0x14C,
    n_sections=2,
    os_version=4,
    linker_version=6,
    subsystem=2,
    section_names=(".text\x00\x00\x00", ".data\x00\x00\x00"),
    imported_dlls=("KERNEL32.dll",),
    imports={"KERNEL32.dll": ("LoadLibraryA",)},
    file_size=4096,
)
EXPLOIT = ExploitObservable(fsm_path_id=12, dst_port=445)
PAYLOAD = PayloadObservable("ftp", InteractionType.PULL, "x.exe", 21)
MALWARE = MalwareObservable("0123456789abcdef" * 2, 4096, "MS-DOS executable", None)
#: PE headers carry an import dict, so this one is equal-comparable only.
MALWARE_PE = dataclasses.replace(MALWARE, pe=PE)
TRUTH = GroundTruth("allaple", "a", "ms04-011", "ftp-pull")
EVENT = AttackEvent(
    event_id=3,
    timestamp=1000,
    source=IPv4Address(0x0A000001),
    sensor=IPv4Address(0xC0A80001),
    exploit=EXPLOIT,
    payload=PAYLOAD,
    malware=MALWARE,
    ground_truth=TRUTH,
)
BEHAVIOR = BehaviorTemplate(mutexes=("m",), files_dropped=("f.exe",))
ATTEMPT = AttackAttempt(
    timestamp=1000,
    source=EVENT.source,
    sensor=EVENT.sensor,
    conversation=(("SMB", "negotiate"),),
    payload=PayloadSpec("ftp-pull", "ftp", InteractionType.PULL, "x.exe", 21),
    filename="x.exe",
    binary=b"MZ\x90\x00",
    behavior=BEHAVIOR,
    truth=TRUTH,
    variant_key="allaple/a",
    dst_port=445,
    content_seed=17,
)
STAGED = StagedObservation(
    timestamp=1000,
    source=EVENT.source,
    sensor=EVENT.sensor,
    conversation=ATTEMPT.conversation,
    dst_port=445,
    truth=TRUTH,
    behavior=BEHAVIOR,
    payload=PAYLOAD,
    malware=MALWARE,
)
FROZEN = [EXPLOIT, PAYLOAD, MALWARE, TRUTH, EVENT, ATTEMPT, STAGED]
SAMPLE = SampleRecord(
    md5=MALWARE.md5,
    observable=MALWARE,
    first_seen=1000,
    last_seen=2000,
    n_events=2,
    behavior_handle=BEHAVIOR,
    ground_truth=TRUTH,
    enrichment={"av": ("W32.Allaple",)},
)
RECORDS = [*FROZEN, MALWARE_PE, SAMPLE]


def _name(record: object) -> str:
    return type(record).__name__


def _slotted_dataclasses() -> list[type]:
    """Every ``slots=True`` dataclass defined anywhere in the package."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == info.name
                and dataclasses.is_dataclass(value)
                and "__slots__" in vars(value)
            ):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return [found[name] for name in sorted(found)]


def test_every_slotted_record_pickles_by_value():
    classes = _slotted_dataclasses()
    assert {cls.__name__ for cls in classes} == {type(record).__name__ for record in RECORDS}
    for cls in classes:
        assert cls.__reduce__ is reduce_by_value, cls.__qualname__


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_round_trip_preserves_type_and_equality(record):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert type(loaded) is type(record)
        assert loaded == record


@pytest.mark.parametrize("record", FROZEN, ids=_name)
def test_round_trip_preserves_hash(record):
    assert hash(pickle.loads(pickle.dumps(record))) == hash(record)


def test_shared_references_stay_shared():
    loaded_event, loaded_sample = pickle.loads(pickle.dumps((EVENT, SAMPLE)))
    assert loaded_event.malware is loaded_sample.observable
    assert loaded_event.ground_truth is loaded_sample.ground_truth


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_loading_never_asks_for_the_field_list(record, monkeypatch):
    blob = pickle.dumps(record)

    def forbidden(*args, **kwargs):
        raise AssertionError("dataclasses.fields called while unpickling")

    monkeypatch.setattr(dataclasses, "fields", forbidden)
    assert pickle.loads(blob) == record


def test_post_init_validation_runs_on_load():
    forged = copy.copy(MALWARE)
    object.__setattr__(forged, "md5", "a" * 31)
    blob = pickle.dumps(dataclasses.replace(EVENT, malware=forged))
    with pytest.raises(ValidationError, match="md5"):
        pickle.loads(blob)


def test_copies_go_through_init():
    assert copy.copy(EVENT) == EVENT
    assert copy.deepcopy(SAMPLE) == SAMPLE
    assert copy.deepcopy(SAMPLE).enrichment is not SAMPLE.enrichment
