"""``PaperScenario.run`` builds with the cyclic GC paused.

The pause must restore the collector's prior state in every case, and
it is only sound because a build leaves (almost) no cyclic garbage
behind: none at all for a store-less cold build, and none of the
program's own types for a warm sweep point (the stdlib JSON encoder of
the stage-store sidecars is the only cycle maker).
"""

import gc
from dataclasses import replace

import pytest

from repro.experiments import stages
from repro.experiments.cache import StageStore
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.honeypot.deployment import DeploymentConfig
from repro.sandbox.clustering import ClusteringConfig

SEED = 7
BASE = ScenarioConfig(
    n_weeks=8,
    scale=0.05,
    deployment=DeploymentConfig(n_networks=6, sensors_per_network=2),
)


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("restore_gc")
class TestRunPausesGc:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_run_restores_the_prior_state(self, monkeypatch, enabled):
        seen = []
        original = stages._compute_epm

        def probe(ctx):
            seen.append(gc.isenabled())
            original(ctx)

        monkeypatch.setattr(
            stages,
            "STAGES",
            tuple(replace(s, compute=probe) if s.name == "epm" else s for s in stages.STAGES),
        )
        (gc.enable if enabled else gc.disable)()
        PaperScenario(seed=SEED, config=BASE).run()
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_run_restores_the_state_when_the_build_raises(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("deployment failed")

        monkeypatch.setattr(stages, "SGNetDeployment", broken)
        gc.enable()
        with pytest.raises(RuntimeError, match="deployment failed"):
            PaperScenario(seed=SEED, config=BASE).run()
        assert gc.isenabled()

    def test_cold_run_leaves_no_cyclic_garbage(self):
        PaperScenario(seed=SEED, config=BASE).run()
        gc.collect()
        run = PaperScenario(seed=SEED, config=BASE).run()
        del run
        assert gc.collect() == 0

    def test_warm_sweep_point_garbage_holds_no_program_types(self, tmp_path):
        store = StageStore(tmp_path)
        PaperScenario(seed=SEED, config=BASE).run(stage_store=store)
        point = replace(BASE, clustering=ClusteringConfig(threshold=0.5))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        run = PaperScenario(seed=SEED, config=point).run(stage_store=store)
        statuses, clusters = run.stage_cache, run.metrics.gauge("lsh.clusters")
        del run
        gc.collect()
        modules = {type(obj).__module__ for obj in gc.garbage}
        assert not any(module.startswith("repro") for module in modules), modules
        # Only single linkage re-ran, and it still reports its clusters.
        assert {name for name, s in statuses.items() if s == "miss"} == {"bcluster"}
        assert clusters >= 1
