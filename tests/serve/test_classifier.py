"""Tests for the serving classifier (single, batch, instrumentation)."""

import threading

import pytest

from repro.core.features import Dimension, default_feature_sets
from repro.core.patterns import format_pattern
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.events import EventBus
from repro.serve.classifier import Classification, ServingClassifier
from repro.serve.model import ModelArtifact


def reference_classification(model, dimension, values):
    """A fresh Classification of the linear scan's pattern: the oracle
    the shared answer tables must reproduce."""
    pattern = model.pattern_set(dimension).scan_classify(values)
    return Classification(
        dimension=dimension,
        pattern=pattern,
        cluster=model.cluster_of_pattern(dimension, pattern),
        rendered=format_pattern(pattern, model.feature_names(dimension)),
    )


def perturbed(values, step):
    """``values`` with one feature (cycling by ``step``) made novel."""
    feature = step % len(values)
    return tuple(
        f"__novel_{step}__" if i == feature else value
        for i, value in enumerate(values)
    )


def request_totals(snapshot):
    return {
        key: value
        for key, value in snapshot["counters"].items()
        if key.startswith("classify.requests")
    }


@pytest.fixture(scope="module")
def artifact(small_run):
    return ModelArtifact.from_run(small_run)


@pytest.fixture(scope="module")
def classifier(artifact):
    return ServingClassifier(artifact)


@pytest.fixture(scope="module")
def sample_events(small_run):
    return small_run.dataset.events[:120]


class TestSingle:
    def test_matches_training_assignment(self, classifier, small_run):
        # Serving an event the model trained on must land it in the
        # exact cluster training assigned.
        feature_sets = default_feature_sets()
        for event in small_run.dataset.events[:80]:
            results = classifier.classify_event(event)
            for dimension in Dimension:
                if not feature_sets[dimension].applies_to(event):
                    assert dimension.value not in results
                    continue
                clustering = small_run.epm.dimensions[dimension]
                classification = results[dimension.value]
                assert classification.cluster == clustering.cluster_of(
                    event.event_id
                )

    def test_matches_linear_scan_on_novel_values(self, classifier, artifact):
        dimension = Dimension.EPSILON
        names = artifact.feature_names(dimension)
        probe = tuple(f"__unseen_{name}__" for name in names)
        classification = classifier.classify_values(dimension, probe)
        assert classification.pattern == artifact.pattern_set(
            dimension
        ).scan_classify(probe)

    def test_rendered_uses_feature_names(self, classifier, artifact, small_run):
        event = small_run.dataset.events[0]
        results = classifier.classify_event(event)
        for dimension in Dimension:
            if dimension.value not in results:
                continue
            rendered = results[dimension.value].rendered
            assert rendered.startswith("{") and rendered.endswith("}")
            assert artifact.feature_names(dimension)[0] in rendered

    def test_as_dict_shape(self, classifier, small_run):
        results = classifier.classify_event(small_run.dataset.events[0])
        for classification in results.values():
            payload = classification.as_dict()
            assert set(payload) == {"dimension", "pattern", "cluster", "rendered"}


class TestBatch:
    def test_batch_equals_single(self, classifier, sample_events):
        batch = classifier.classify_events(sample_events)
        assert len(batch) == len(sample_events)
        for event, result in zip(sample_events, batch):
            single = classifier.classify_event(event)
            assert set(result) == set(single)
            for key in result:
                assert result[key] == single[key]

    def test_empty_batch(self, classifier):
        assert classifier.classify_events([]) == []

    def test_metrics_emitted(self, classifier, sample_events):
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use(registry):
            classifier.classify_events(sample_events)
        snapshot = registry.snapshot().as_dict()
        requests = {
            key: value
            for key, value in snapshot["counters"].items()
            if key.startswith("classify.requests")
        }
        assert sum(requests.values()) > 0
        assert any(
            key.startswith("classify.batch_rows") for key in snapshot["counters"]
        )
        assert snapshot["sketches"]["classify.latency"]["count"] == 1

    def test_events_emitted(self, classifier, sample_events, tmp_path):
        from repro.obs.events import FileTransport

        stream = tmp_path / "events.jsonl"
        bus = EventBus([FileTransport(stream)])
        with obs_events.use_bus(bus):
            classifier.classify_events(sample_events[:10])
        bus.close()
        lines = stream.read_text(encoding="utf-8").splitlines()
        kinds = [__import__("json").loads(line)["kind"] for line in lines]
        assert kinds[0] == "classify.start"
        assert kinds[-1] == "classify.finish"


class TestAnswerOracle:
    """Single and batch answers equal the per-request construction."""

    def _expected(self, artifact, events):
        feature_sets = default_feature_sets()
        expected = []
        for event in events:
            answers = {}
            for dimension, feature_set in feature_sets.items():
                if feature_set.applies_to(event):
                    answers[dimension.value] = reference_classification(
                        artifact, dimension, feature_set.extract(event)
                    )
            expected.append(answers)
        return expected

    def test_single_and_batch_equal_reference_on_landscape(
        self, classifier, artifact, small_run
    ):
        events = small_run.dataset.events[:600]
        expected = self._expected(artifact, events)
        batch = classifier.classify_events(events)
        for event, want, got_batch in zip(events, expected, batch):
            got = classifier.classify_event(event)
            assert got == want == got_batch
            assert {k: v.as_dict() for k, v in got.items()} == {
                k: v.as_dict() for k, v in want.items()
            }
            assert {k: v.as_dict() for k, v in got_batch.items()} == {
                k: v.as_dict() for k, v in want.items()
            }

    def test_novel_values_equal_reference(self, classifier, artifact, small_run):
        events = small_run.dataset.events[:300]
        feature_sets = default_feature_sets()
        for step, event in enumerate(events):
            for dimension, feature_set in feature_sets.items():
                if not feature_set.applies_to(event):
                    continue
                values = perturbed(feature_set.extract(event), step)
                got = classifier.classify_values(dimension, values)
                want = reference_classification(artifact, dimension, values)
                assert got == want
                assert got.as_dict() == want.as_dict()

    def test_answers_are_shared_per_pattern(self, classifier, small_run):
        # The tables hand out one frozen object per pattern, never a
        # per-request copy.
        event = small_run.dataset.events[0]
        first = classifier.classify_event(event)
        again = classifier.classify_event(event)
        batch = classifier.classify_events([event])[0]
        for key in first:
            assert first[key] is again[key] is batch[key]


class TestInstrumentsFollowRegistry:
    def test_each_registry_gets_its_own_totals(self, artifact, sample_events):
        classifier = ServingClassifier(artifact)
        first, second = obs_metrics.MetricsRegistry(), obs_metrics.MetricsRegistry()
        with obs_metrics.use(first):
            for event in sample_events[:30]:
                classifier.classify_event(event)
        with obs_metrics.use(second):
            for event in sample_events[:50]:
                classifier.classify_event(event)
        captured = {}

        def worker():
            with obs_metrics.capture() as registry:
                for event in sample_events[:20]:
                    classifier.classify_event(event)
            captured["registry"] = registry

        with obs_metrics.use(second):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        feature_sets = default_feature_sets()
        for registry, n in (
            (first, 30), (second, 50), (captured["registry"], 20)
        ):
            expected = {
                f"classify.requests{{dimension={dimension.value}}}": applies
                for dimension, feature_set in feature_sets.items()
                if (applies := sum(map(feature_set.applies_to, sample_events[:n])))
            }
            snapshot = registry.snapshot().as_dict()
            assert request_totals(snapshot) == expected
            assert snapshot["sketches"]["classify.latency"]["count"] == n

    def test_snapshot_lists_only_dimensions_with_traffic(self, classifier, artifact):
        registry = obs_metrics.MetricsRegistry()
        names = artifact.feature_names(Dimension.EPSILON)
        with obs_metrics.use(registry):
            classifier.classify_values(Dimension.EPSILON, tuple(None for _ in names))
        assert request_totals(registry.snapshot().as_dict()) == {
            "classify.requests{dimension=epsilon}": 1
        }


class TestLatencyCount:
    def test_one_observation_per_single_request(self, classifier, sample_events):
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use(registry):
            for event in sample_events:
                classifier.classify_event(event)
        snapshot = registry.snapshot().as_dict()
        assert snapshot["sketches"]["classify.latency"]["count"] == len(
            sample_events
        )
        # More lookups than requests: pi/mu apply to most events.
        assert sum(request_totals(snapshot).values()) > len(sample_events)

    def test_one_observation_per_classify_values_call(self, classifier, artifact):
        registry = obs_metrics.MetricsRegistry()
        names = artifact.feature_names(Dimension.PI)
        with obs_metrics.use(registry):
            for step in range(7):
                classifier.classify_values(
                    Dimension.PI, tuple(f"v{step}" for _ in names)
                )
        snapshot = registry.snapshot().as_dict()
        assert snapshot["sketches"]["classify.latency"]["count"] == 7
