"""The scenario artifact cache: fingerprints, round-trips, eviction."""

import pickle
import time

import pytest

from repro.experiments.cache import (
    ScenarioCache,
    cached_run,
    scenario_fingerprint,
)
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.honeypot.deployment import DeploymentConfig
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.sandbox.execution import SandboxConfig

TINY = ScenarioConfig(
    n_weeks=10,
    scale=0.08,
    deployment=DeploymentConfig(n_networks=6, sensors_per_network=2),
)


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        again = ScenarioConfig(
            n_weeks=10,
            scale=0.08,
            deployment=DeploymentConfig(n_networks=6, sensors_per_network=2),
        )
        assert scenario_fingerprint(1, TINY) == scenario_fingerprint(1, again)

    def test_default_config_implied(self):
        assert scenario_fingerprint(1) == scenario_fingerprint(1, ScenarioConfig())

    def test_seed_sensitive(self):
        assert scenario_fingerprint(1, TINY) != scenario_fingerprint(2, TINY)

    def test_semantic_config_sensitive(self):
        for other in (
            ScenarioConfig(n_weeks=11, scale=TINY.scale, deployment=TINY.deployment),
            ScenarioConfig(n_weeks=10, scale=0.09, deployment=TINY.deployment),
            ScenarioConfig(
                n_weeks=10,
                scale=0.08,
                deployment=TINY.deployment,
                sandbox=SandboxConfig(noise_multiplier=2.0),
            ),
        ):
            assert scenario_fingerprint(1, TINY) != scenario_fingerprint(1, other)

    def test_execution_knobs_do_not_change_the_key(self):
        parallel = ScenarioConfig(
            n_weeks=10,
            scale=0.08,
            deployment=TINY.deployment,
            executor="process",
            jobs=8,
        )
        assert scenario_fingerprint(1, TINY) == scenario_fingerprint(1, parallel)

    def test_hex_sha256_shape(self):
        fingerprint = scenario_fingerprint(1, TINY)
        assert len(fingerprint) == 64
        assert int(fingerprint, 16) >= 0


class TestScenarioCache:
    @pytest.fixture(scope="class")
    def built(self):
        return PaperScenario(seed=11, config=TINY).run()

    def test_miss_on_empty_cache(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        assert cache.load(11, TINY) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_round_trip_returns_equal_run(self, tmp_path, built):
        cache = ScenarioCache(tmp_path)
        cache.store(built)
        loaded = cache.load(11, TINY)
        assert loaded is not None
        assert loaded.headline() == built.headline()
        assert loaded.bclusters.assignment == built.bclusters.assignment
        assert loaded.bclusters.clusters == built.bclusters.clusters
        for event in built.dataset.events:
            assert loaded.epm.coordinates(event.event_id) == built.epm.coordinates(
                event.event_id
            )
        assert cache.hits == 1

    def test_config_change_misses(self, tmp_path, built):
        cache = ScenarioCache(tmp_path)
        cache.store(built)
        other = ScenarioConfig(
            n_weeks=12, scale=TINY.scale, deployment=TINY.deployment
        )
        assert cache.load(11, other) is None
        assert cache.load(12, TINY) is None

    def test_execution_knob_change_hits(self, tmp_path, built):
        cache = ScenarioCache(tmp_path)
        cache.store(built)
        parallel = ScenarioConfig(
            n_weeks=10,
            scale=0.08,
            deployment=TINY.deployment,
            executor="thread",
            jobs=2,
        )
        assert cache.load(11, parallel) is not None

    def test_corrupt_entry_is_evicted_as_miss(self, tmp_path, built):
        cache = ScenarioCache(tmp_path)
        path = cache.store(built)
        path.write_bytes(b"not a pickle")
        assert cache.load(11, TINY) is None
        assert not path.exists()

    def test_non_scenario_pickle_is_evicted(self, tmp_path, built):
        cache = ScenarioCache(tmp_path)
        path = cache.path_for(11, TINY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "a run"}))
        assert cache.load(11, TINY) is None
        assert not path.exists()

    @pytest.mark.parametrize("damage", ["protocol-9", "short-md5"])
    def test_unloadable_entry_is_evicted_and_rebuilt(self, tmp_path, built, damage):
        # A pickle protocol this interpreter does not know, and a record
        # whose __post_init__ rejects the stored values on load, both
        # raise ValueError: each must read as a miss, not a crash.
        cache = ScenarioCache(tmp_path)
        path = cache.store(built)
        if damage == "protocol-9":
            path.write_bytes(b"\x80\x09" + path.read_bytes()[2:])
        else:
            forged = pickle.loads(path.read_bytes())
            event = next(e for e in forged.dataset.events if e.malware is not None)
            object.__setattr__(event.malware, "md5", event.malware.md5[:31])
            path.write_bytes(pickle.dumps(forged))
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            assert cache.load(11, TINY) is None
        assert not path.exists()
        assert registry.snapshot().counter("cache.evict") == 1
        rebuilt = cache.get_or_run(PaperScenario(seed=11, config=TINY))
        assert rebuilt.manifest.artifact_digests == built.manifest.artifact_digests
        assert path.exists()

    def test_clear_removes_entries(self, tmp_path, built):
        cache = ScenarioCache(tmp_path)
        cache.store(built)
        assert cache.clear() == 1
        assert cache.load(11, TINY) is None

    def test_get_or_run_builds_once_then_hits(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        first = cache.get_or_run(PaperScenario(seed=11, config=TINY))
        second = cache.get_or_run(PaperScenario(seed=11, config=TINY))
        assert (cache.hits, cache.misses) == (1, 1)
        assert second.headline() == first.headline()

    def test_cached_run_convenience(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        run = cached_run(11, TINY, cache=cache)
        again = cached_run(11, TINY, cache=cache)
        assert again.headline() == run.headline()
        assert cache.hits == 1

    def test_warm_load_is_much_faster_than_rebuild(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        config = ScenarioConfig(
            n_weeks=20,
            scale=0.15,
            deployment=DeploymentConfig(n_networks=10, sensors_per_network=3),
        )
        started = time.perf_counter()
        cache.get_or_run(PaperScenario(seed=11, config=config))
        build_seconds = time.perf_counter() - started

        # Best of three: a single load can eat a GC pause or a cold
        # page under full-suite load; the claim is about the mechanism,
        # not one sample.
        load_seconds = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            assert cache.load(11, config) is not None
            load_seconds = min(load_seconds, time.perf_counter() - started)
        assert load_seconds * 10 <= build_seconds
