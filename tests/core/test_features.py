"""Tests for Table 1 feature definitions and extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import (
    Dimension,
    FeatureDefinition,
    FeatureSet,
    default_feature_sets,
    epsilon_features,
    mu_features,
    pi_features,
)
from repro.util.validation import ValidationError, require

from tests.egpm.test_events import make_event


class TestFeatureSets:
    def test_default_sets_cover_all_dimensions(self):
        sets = default_feature_sets()
        assert set(sets) == set(Dimension)

    def test_table1_epsilon_features(self):
        assert epsilon_features().names == ["fsm_path_id", "dst_port"]

    def test_table1_pi_features(self):
        assert pi_features().names == ["protocol", "filename", "port", "interaction"]

    def test_table1_mu_features(self):
        names = mu_features().names
        assert names == [
            "md5",
            "size",
            "magic",
            "machine_type",
            "n_sections",
            "n_dlls",
            "os_version",
            "linker_version",
            "section_names",
            "imported_dlls",
            "kernel32_symbols",
        ]

    def test_duplicate_names_rejected(self):
        f = FeatureDefinition("x", lambda e: 1)
        with pytest.raises(ValidationError):
            FeatureSet(Dimension.PI, [f, f], applies=lambda e: True)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            FeatureSet(Dimension.PI, [], applies=lambda e: True)


class TestExtraction:
    def test_epsilon_always_applies(self):
        event = make_event(with_payload=False, with_malware=False)
        assert epsilon_features().applies_to(event)
        assert epsilon_features().extract(event) == (3, 445)

    def test_pi_requires_payload(self):
        event = make_event(with_payload=False, with_malware=False)
        assert not pi_features().applies_to(event)
        with pytest.raises(ValidationError):
            pi_features().extract(event)

    def test_pi_extraction(self):
        event = make_event()
        assert pi_features().extract(event) == ("ftp", "x.exe", 21, "pull")

    def test_mu_requires_malware(self):
        event = make_event(with_malware=False)
        assert not mu_features().applies_to(event)

    def test_mu_extraction_values(self):
        event = make_event()
        values = dict(zip(mu_features().names, mu_features().extract(event)))
        assert values["md5"] == event.malware.md5
        assert values["size"] == 59_904
        assert values["machine_type"] == 332
        assert values["n_sections"] == 3
        assert values["linker_version"] == 92
        assert values["kernel32_symbols"] == ("GetProcAddress", "LoadLibraryA")

    def test_mu_pe_features_none_for_corrupted(self):
        from repro.egpm.events import AttackEvent, MalwareObservable

        base = make_event()
        corrupted = AttackEvent(
            event_id=0,
            timestamp=1,
            source=base.source,
            sensor=base.sensor,
            exploit=base.exploit,
            malware=MalwareObservable(
                md5="f" * 32, size=100, magic="data", pe=None, corrupted=True
            ),
        )
        values = dict(zip(mu_features().names, mu_features().extract(corrupted)))
        assert values["machine_type"] is None
        assert values["section_names"] is None
        assert values["md5"] == "f" * 32

    def test_extracted_values_hashable(self):
        event = make_event()
        for feature_set in default_feature_sets().values():
            if feature_set.applies_to(event):
                hash(feature_set.extract(event))


def reference_extract(feature_set, event):
    """The per-feature generator ``FeatureSet.extract`` replaced, kept
    as the differential oracle."""
    require(feature_set.applies_to(event), "event lacks this dimension")
    return tuple(f.extract(event) for f in feature_set.features)


#: A synthetic "event": feature name -> value, plus whether it applies.
field_values = st.one_of(
    st.none(), st.integers(-3, 3), st.text(max_size=3),
    st.tuples(st.text(max_size=2)),
)
synthetic_events = st.tuples(
    st.dictionaries(st.sampled_from("abcdef"), field_values), st.booleans()
)


def synthetic_feature_set(names):
    return FeatureSet(
        Dimension.PI,
        [FeatureDefinition(name, lambda e, n=name: e[0].get(n)) for name in names],
        applies=lambda e: e[1],
    )


class TestExtractDifferential:
    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True),
        st.lists(synthetic_events, max_size=20),
    )
    @settings(max_examples=80)
    def test_extract_equals_reference(self, names, events):
        feature_set = synthetic_feature_set(names)
        assert isinstance(feature_set.features, tuple)
        for event in events:
            if feature_set.applies_to(event):
                assert feature_set.extract(event) == reference_extract(
                    feature_set, event
                )
            else:
                for implementation in (feature_set.extract,
                                       lambda e: reference_extract(feature_set, e)):
                    with pytest.raises(ValidationError, match="lacks this dimension"):
                        implementation(event)

    def test_default_sets_equal_reference_on_landscape_events(self, small_run):
        for feature_set in default_feature_sets().values():
            for event in small_run.dataset.events[:400]:
                if feature_set.applies_to(event):
                    assert feature_set.extract(event) == reference_extract(
                        feature_set, event
                    )
                else:
                    with pytest.raises(ValidationError):
                        feature_set.extract(event)

    def test_features_cannot_be_replaced(self):
        feature_set = epsilon_features()
        with pytest.raises(AttributeError):
            feature_set.features = ()
