"""Wrapping the layers changes no artifact and nothing the store pickles."""

import layers
from repro.experiments.cache import StageStore
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from tracing import Recorder, instrument

CONFIG = ScenarioConfig(n_weeks=8, scale=0.05)


def test_wrapped_runs_keep_their_artifact_digests(tmp_path):
    plain = PaperScenario(11, CONFIG).run()
    recorder = Recorder()
    with instrument(recorder, layers.hooks()):
        with recorder.op():
            traced = PaperScenario(11, CONFIG).run(stage_store=StageStore(tmp_path))
    assert traced.manifest.artifact_digests == plain.manifest.artifact_digests
    for stage in layers.STAGES:
        assert recorder.stats[f"stage.{stage}"].calls == 1
    assert recorder.stats["stagestore.store"].calls == len(layers.STAGES)
    # What the traced run stored replays, unwrapped, to the same digests.
    replayed = PaperScenario(11, CONFIG).run(stage_store=StageStore(tmp_path))
    assert set(replayed.stage_cache.values()) == {"hit"}
    assert replayed.manifest.artifact_digests == plain.manifest.artifact_digests
