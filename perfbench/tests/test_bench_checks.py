"""Wrong outputs are counted as failed operations, never dropped."""

import dataclasses

import pytest

import report
import workloads
from repro.experiments import scenario
from repro.serve.classifier import ServingClassifier
from workloads import build_failures, classify_failures, sweep_failures

DIGESTS = {"dataset.events": "aa", "epm.clusters": "bb", "headline": "cc"}


class SmallScenario(scenario.PaperScenario):
    """Every scenario the workloads build, at a few seconds' scale."""

    def __init__(self, seed=2010, config=None):
        config = dataclasses.replace(
            config or scenario.ScenarioConfig(), n_weeks=8, scale=0.05
        )
        super().__init__(seed, config)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(scenario, "PaperScenario", SmallScenario)


def test_a_corrupted_digest_fails_one_build():
    outputs = [(DIGESTS, {}), (dict(DIGESTS, headline="xx"), {}), (DIGESTS, {}), None]
    assert build_failures(outputs, seed=7) == 2


def test_the_golden_seed_also_checks_the_headline():
    outputs = [(DIGESTS, {"events": 1}), (DIGESTS, {"events": 1})]
    assert build_failures(outputs, seed=7) == 0
    assert build_failures(outputs, seed=workloads.GOLDEN_SEED) == 2


def test_sweep_checks_the_recompute_and_the_final_repeat():
    assert sweep_failures([DIGESTS, DIGESTS], DIGESTS, DIGESTS, DIGESTS) == 0
    wrong = dict(DIGESTS, **{"epm.clusters": "zz"})
    assert sweep_failures([wrong, DIGESTS], DIGESTS, DIGESTS, DIGESTS) == 1
    assert sweep_failures([DIGESTS, None], DIGESTS, wrong, DIGESTS) == 2
    assert sweep_failures([DIGESTS], DIGESTS, None, DIGESTS) == 1


def test_a_corrupted_classification_fails_every_request_that_gave_it():
    answers = {0: "a", 1: "b", 2: "c"}
    same = {0: 5, 1: 4, 2: 3}
    assert classify_failures(answers, same, 0, ["a", "b", "c"], set()) == 0
    assert classify_failures(answers, same, 0, ["a", "B", "c"], set()) == 4
    assert classify_failures(answers, same, 2, ["a", "b", "c"], {2}) == 5


def test_failures_reach_the_success_rate():
    result = workloads.Result(
        setup_s=[1.0], op_s=[0.5], rates=[10.0], rss_mb=[100.0], attempted=4, failed=1
    )
    assert report.end_to_end(result)["success_rate"] == 0.75


def test_landscape_build_counts_a_corrupted_build(small, monkeypatch):
    calls = []
    real_run = SmallScenario.run

    def run(self, **kwargs):
        out = real_run(self, **kwargs)
        calls.append(1)
        if len(calls) == 5:  # the second timed build, after three warm-ups
            out.manifest.artifact_digests["headline"] = "corrupted"
        return out

    monkeypatch.setattr(SmallScenario, "run", run)
    result = workloads.landscape_build(seed=3, seconds=0, trace=False)
    assert result.attempted == workloads.MIN_BUILDS
    assert result.failed == 1
    assert report.end_to_end(result)["success_rate"] < 1.0


def test_classify_serve_counts_a_corrupted_classification(small, monkeypatch):
    real = ServingClassifier.classify_event
    victim = []

    def classify_event(self, event):
        answers = real(self, event)
        if not victim:
            victim.append(event.event_id)
        if event.event_id == victim[0]:
            name, answer = next(iter(answers.items()))
            answers[name] = dataclasses.replace(answer, cluster=-12345)
        return answers

    monkeypatch.setattr(ServingClassifier, "classify_event", classify_event)
    result = workloads.classify_serve(seed=3, seconds=0, trace=False)
    assert result.failed > 0
    assert report.end_to_end(result)["success_rate"] < 1.0


def test_unmodified_small_workloads_fail_nothing(small):
    for name, run in workloads.WORKLOADS.items():
        result = run(seed=4, seconds=0, trace=False)
        assert result.attempted > 0, name
        assert result.failed == 0, name
