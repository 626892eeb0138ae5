"""Tests for the experiment harness's shared caching layer."""

import os

from repro.experiments import common


class TestCaching:
    def test_traces_cached_per_key(self):
        first = common.individual_traces(seed=42, num_requests=50)
        second = common.individual_traces(seed=42, num_requests=50)
        assert first[0] is second[0]  # same objects: cache hit

    def test_distinct_keys_not_shared(self):
        a = common.individual_traces(seed=42, num_requests=50)
        b = common.individual_traces(seed=43, num_requests=50)
        assert a[0] is not b[0]
        assert [r.lba for r in a[0]] != [r.lba for r in b[0]]

    def test_all_traces_superset_of_individual(self):
        everything = common.all_traces(seed=42, num_requests=50)
        names = [trace.name for trace in everything]
        assert len(names) == 25
        individual = [t.name for t in common.individual_traces(seed=42, num_requests=50)]
        assert names[:18] == individual

    def test_collections_cached(self):
        first = common.replayed_individual(seed=42, num_requests=40)
        second = common.replayed_individual(seed=42, num_requests=40)
        assert first[0] is second[0]
        assert all(result.trace.completed for result in first)

    def test_replay_on_fresh_device(self):
        from repro.emmc import four_ps

        trace = common.individual_traces(seed=42, num_requests=30)[0]
        first = common.replay_on(four_ps(), trace)
        second = common.replay_on(four_ps(), trace)
        # Brand-new device each time: identical stats.
        assert first.stats.mean_response_ms == second.stats.mean_response_ms


class TestProcessLocalLRU:
    def test_hit_and_miss_accounting(self):
        cache = common.ProcessLocalLRU(maxsize=4)
        assert cache.get_or_compute("a", lambda: 1) == 1
        assert cache.get_or_compute("a", lambda: 2) == 1  # cached
        assert (cache.hits, cache.misses) == (1, 1)

    def test_bounded_lru_eviction(self):
        cache = common.ProcessLocalLRU(maxsize=2)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda k=key: k.upper())
        assert len(cache) == 2
        assert "a" not in cache  # least recently used went first
        assert "b" in cache and "c" in cache

    def test_lru_order_refreshed_on_hit(self):
        cache = common.ProcessLocalLRU(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 0)  # refresh "a"
        cache.get_or_compute("c", lambda: 3)  # evicts "b", not "a"
        assert "a" in cache and "b" not in cache

    def test_rejects_nonpositive_maxsize(self):
        import pytest

        with pytest.raises(ValueError):
            common.ProcessLocalLRU(maxsize=0)


class TestForkSafety:
    """Workers must never observe another process's trace cache."""

    def test_cache_emptied_when_pid_changes(self):
        cache = common.ProcessLocalLRU(maxsize=8)
        cache.get_or_compute("stale", lambda: "parent-value")
        assert "stale" in cache
        # Simulate "this object was inherited across a fork": the recorded
        # owner pid no longer matches os.getpid().
        cache._pid = os.getpid() + 1
        assert "stale" not in cache  # first touch from the "child" clears
        assert cache.fork_invalidations == 1
        assert cache.get_or_compute("stale", lambda: "child-value") == "child-value"

    def test_trace_cache_not_reused_across_processes(self):
        before = common.individual_traces(seed=11, num_requests=30)[0]
        assert common.individual_traces(seed=11, num_requests=30)[0] is before
        common._TRACE_CACHE._pid = os.getpid() + 1  # fake inherited-from-fork
        after = common.individual_traces(seed=11, num_requests=30)[0]
        assert after is not before  # recomputed, not served stale
        # Determinism: the recomputed trace is identical in content.
        assert [r.lba for r in after] == [r.lba for r in before]

    def test_fork_hook_clears_both_caches(self):
        common.cached_trace("Twitter", seed=12, num_requests=25)
        common.cached_collection("Twitter", seed=12, num_requests=25)
        assert len(common._TRACE_CACHE) > 0
        assert len(common._COLLECTION_CACHE) > 0
        # clear_experiment_caches is what os.register_at_fork runs in the
        # child; invoking it directly must leave both memos empty.
        common.clear_experiment_caches()
        assert len(common._TRACE_CACHE) == 0
        assert len(common._COLLECTION_CACHE) == 0

    def test_real_fork_child_starts_empty(self):
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            import pytest

            pytest.skip("os.fork not available")
        common.cached_trace("Twitter", seed=13, num_requests=25)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            os.close(read_fd)
            payload = b"empty" if len(common._TRACE_CACHE) == 0 else b"stale"
            os.write(write_fd, payload)
            os.close(write_fd)
            os._exit(0)
        os.close(write_fd)
        try:
            assert os.read(read_fd, 16) == b"empty"
        finally:
            os.close(read_fd)
            os.waitpid(pid, 0)


class TestTraceStoreSourcing:
    """``$REPRO_TRACE_STORE`` swaps synthesis for packed stores, exactly."""

    def _pack(self, root, name, seed, num_requests):
        from repro.store import pack
        from repro.workloads import generate_trace

        trace = generate_trace(name, seed=seed, num_requests=num_requests)
        key = common.trace_store_key(name, seed, num_requests)
        pack(trace, os.path.join(root, key), chunk_rows=32)
        return trace

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(common.TRACE_STORE_ENV, raising=False)
        assert common._trace_from_store("Email", 1, 30) is None

    def test_store_key_escapes_slash(self):
        assert common.trace_store_key("Music/WB", 7, None) == "Music+WB-s7-nfull"
        assert common.trace_store_key("Email", 7, 90) == "Email-s7-n90"

    def test_sourced_trace_identical_to_synthesis(self, tmp_path, monkeypatch):
        expected = self._pack(tmp_path, "Email", 21, 80)
        monkeypatch.setenv(common.TRACE_STORE_ENV, str(tmp_path))
        common.clear_experiment_caches()
        sourced = common.cached_trace("Email", seed=21, num_requests=80)
        assert sourced.name == expected.name
        assert sourced.metadata == expected.metadata
        assert list(sourced) == list(expected)
        common.clear_experiment_caches()

    def test_setting_the_store_root_bypasses_an_earlier_memo(
        self, tmp_path, monkeypatch
    ):
        # A different trace packed under the Email-s21-n80 key tells the
        # store's trace apart from the synthesized one.  No cache clears.
        from repro.store import pack
        from repro.workloads import generate_trace

        stored = generate_trace("Email", seed=99, num_requests=80)
        key = common.trace_store_key("Email", 21, 80)
        pack(stored, os.path.join(tmp_path, key), chunk_rows=32)
        monkeypatch.delenv(common.TRACE_STORE_ENV, raising=False)
        synthesized = common.cached_trace("Email", seed=21, num_requests=80)
        monkeypatch.setenv(common.TRACE_STORE_ENV, str(tmp_path))
        sourced = common.cached_trace("Email", seed=21, num_requests=80)
        assert list(sourced) == list(stored)
        assert list(sourced) != list(synthesized)
        monkeypatch.delenv(common.TRACE_STORE_ENV)
        assert common.cached_trace("Email", seed=21, num_requests=80) is synthesized

    def test_missing_store_falls_back_to_synthesis(self, tmp_path, monkeypatch):
        monkeypatch.setenv(common.TRACE_STORE_ENV, str(tmp_path))
        common.clear_experiment_caches()
        trace = common.cached_trace("Twitter", seed=22, num_requests=40)
        assert len(trace) == 40
        common.clear_experiment_caches()
