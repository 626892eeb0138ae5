"""Behaviour of the on-disk result cache (cold/warm/invalidation/corruption)."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments import parallel, runner
from repro.experiments.cache import (
    CACHE_DIR_ENV,
    NullCache,
    ResultCache,
    cache_key,
    code_fingerprint,
    default_cache_dir,
)
from repro.experiments.registry import REGISTRY

IDS = ["fig4", "fig6", "table3"]
SEED = 99
N = 80


@pytest.fixture
def cache(tmp_path):
    return ResultCache(cache_dir=tmp_path / "cache")


@pytest.fixture
def compute_spy(monkeypatch):
    """Count real experiment computations inside the engine.

    A whole experiment counts when it runs; a sharded one, which runs as
    its units plus ``merge``, counts once, when its first unit runs.
    """
    calls = []
    run_whole = parallel._run_whole
    run_shard = parallel._run_shard

    def whole_spy(experiment_id, seed, num_requests):
        calls.append(experiment_id)
        return run_whole(experiment_id, seed, num_requests)

    def shard_spy(experiment_id, unit, seed, num_requests):
        if unit == REGISTRY[experiment_id].shards.units[0]:
            calls.append(experiment_id)
        return run_shard(experiment_id, unit, seed, num_requests)

    monkeypatch.setattr(parallel, "_run_whole", whole_spy)
    monkeypatch.setattr(parallel, "_run_shard", shard_spy)
    return calls


class TestColdWarm:
    def test_cold_run_misses_and_stores(self, cache, compute_spy):
        summary = parallel.execute(ids=IDS, seed=SEED, num_requests=N, cache=cache)
        assert sorted(compute_spy) == sorted(IDS)
        assert cache.stats.misses == len(IDS)
        assert cache.stats.stores == len(IDS)
        assert cache.stats.hits == 0
        assert all(t.cache == "miss" for t in summary.telemetry)

    def test_warm_run_hits_without_recompute(self, cache, compute_spy):
        cold = parallel.execute(ids=IDS, seed=SEED, num_requests=N, cache=cache)
        compute_spy.clear()
        warm_cache = ResultCache(cache_dir=cache.cache_dir)
        warm = parallel.execute(
            ids=IDS, seed=SEED, num_requests=N, cache=warm_cache
        )
        assert compute_spy == []  # nothing recomputed
        assert warm_cache.stats.hits == len(IDS)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hit_ids == IDS
        assert all(t.cache == "hit" for t in warm.telemetry)
        # Cached results replay byte-identically.
        assert [r.render() for r in warm.results] == [
            r.render() for r in cold.results
        ]
        assert [runner._jsonable(r.data) for r in warm.results] == [
            runner._jsonable(r.data) for r in cold.results
        ]

    def test_null_cache_never_reads_or_writes(self, tmp_path, compute_spy):
        null = NullCache()
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=null)
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=null)
        assert compute_spy == ["fig4", "fig4"]  # recomputed both times
        assert null.stats.stores == 0 and null.stats.hits == 0


class TestInvalidation:
    def test_changed_seed_misses(self, cache, compute_spy):
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=cache)
        compute_spy.clear()
        parallel.execute(ids=["fig4"], seed=SEED + 1, num_requests=N, cache=cache)
        assert compute_spy == ["fig4"]

    def test_changed_num_requests_misses(self, cache, compute_spy):
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=cache)
        compute_spy.clear()
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N + 1, cache=cache)
        assert compute_spy == ["fig4"]

    def test_key_depends_on_code_fingerprint(self, monkeypatch):
        spec = REGISTRY["fig4"]
        before = cache_key(spec, SEED, N)
        monkeypatch.setattr(
            "repro.experiments.cache.code_fingerprint", lambda _spec: "different"
        )
        assert cache_key(spec, SEED, N) != before

    def test_key_depends_on_package_version(self, monkeypatch):
        spec = REGISTRY["fig4"]
        before = cache_key(spec, SEED, N)
        monkeypatch.setattr("repro.experiments.cache.__version__", "0.0.0-test")
        assert cache_key(spec, SEED, N) != before

    def test_seed_independent_experiment_shares_entries(self):
        spec = REGISTRY["overhead"]  # declared uses_seed=False
        assert cache_key(spec, 1, N) == cache_key(spec, 2, N)
        assert cache_key(spec, 1, N) != cache_key(spec, 1, None)

    def test_fingerprint_covers_the_shard_worker_module(self, monkeypatch):
        # fig9 runs fig8's worker, so an edit to fig8 must invalidate both.
        from repro.experiments import cache as cache_module

        ids = ("fig8", "fig9", "fig4")
        before = {eid: cache_key(REGISTRY[eid], SEED, N) for eid in ids}
        source = cache_module._module_source

        def edited(module_name):
            text = source(module_name)
            return text + "# edited\n" if module_name == "repro.experiments.fig8" else text

        monkeypatch.setattr(cache_module, "_module_source", edited)
        after = {eid: cache_key(REGISTRY[eid], SEED, N) for eid in ids}
        assert after["fig8"] != before["fig8"]
        assert after["fig9"] != before["fig9"]
        assert after["fig4"] == before["fig4"]

    def test_fingerprint_covers_common_helpers(self):
        spec = REGISTRY["fig4"]
        fingerprint = code_fingerprint(spec)
        assert fingerprint == code_fingerprint(spec)  # stable
        assert len(fingerprint) == 64


class TestCorruption:
    def _entry_paths(self, cache):
        return sorted(cache.results_dir.glob("*.pkl"))

    def test_corrupt_entry_recomputes_gracefully(self, cache, compute_spy):
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=cache)
        (path,) = self._entry_paths(cache)
        path.write_bytes(b"not a pickle at all")
        compute_spy.clear()
        fresh = ResultCache(cache_dir=cache.cache_dir)
        summary = parallel.execute(
            ids=["fig4"], seed=SEED, num_requests=N, cache=fresh
        )
        assert compute_spy == ["fig4"]  # degraded to recompute
        assert fresh.stats.invalidated == 1
        assert fresh.stats.hits == 0
        assert summary.results[0].experiment_id == "fig4"
        # The corrupt entry was replaced by a fresh store...
        again = ResultCache(cache_dir=cache.cache_dir)
        assert again.load(REGISTRY["fig4"], SEED, N) is not None

    def test_wrong_payload_type_treated_as_corrupt(self, cache):
        spec = REGISTRY["fig4"]
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=cache)
        (path,) = self._entry_paths(cache)
        key = path.stem
        path.write_bytes(
            pickle.dumps({"key": key, "format": 1, "result": "not-a-result"})
        )
        fresh = ResultCache(cache_dir=cache.cache_dir)
        assert fresh.load(spec, SEED, N) is None
        assert fresh.stats.invalidated == 1
        assert not path.exists()  # corrupt entry removed

    def test_unwritable_cache_degrades_to_compute(self, tmp_path, compute_spy):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        cache = ResultCache(cache_dir=blocked)  # mkdir will fail
        summary = parallel.execute(
            ids=["fig4"], seed=SEED, num_requests=N, cache=cache
        )
        assert compute_spy == ["fig4"]
        assert summary.results[0].experiment_id == "fig4"
        assert cache.stats.errors >= 1  # store failed, run succeeded


class TestLocationResolution:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "via-env"))
        assert default_cache_dir() == tmp_path / "via-env"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


class TestRunnerCacheFlags:
    def test_warm_cli_rerun_reports_hits(self, capsys, tmp_path):
        argv = ["fig4", "--quick", "--seed", "5", "--cache-dir", str(tmp_path)]
        assert runner.main(argv) == 0
        first = capsys.readouterr().out
        assert "cache: 0/1 hits" in first
        assert runner.main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "cache: 1/1 hits" in second

    def test_no_cache_flag_recomputes(self, capsys, tmp_path, compute_spy):
        argv = [
            "fig4", "--quick", "--seed", "5", "--cache-dir", str(tmp_path),
            "--no-cache",
        ]
        assert runner.main(argv) == 0
        assert runner.main(argv) == 0
        assert compute_spy == ["fig4", "fig4"]
        assert list(tmp_path.glob("**/*.pkl")) == []
