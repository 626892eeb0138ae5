"""Tests for closed-loop trace collection (the BIOtracer methodology)."""

import dataclasses

import pytest

from repro.analysis import timing_stats
from repro.workloads import TABLE_IV, collect, generate_trace, profile, sync_fraction
from repro.emmc import small_four_ps


class TestCollect:
    def test_trace_is_completed(self):
        result = collect("Email", num_requests=400)
        assert result.trace.completed
        assert len(result.trace) == 400

    def test_deterministic(self):
        first = collect("Email", num_requests=200)
        second = collect("Email", num_requests=200)
        assert [r.arrival_us for r in first.trace] == [r.arrival_us for r in second.trace]

    def test_same_attributes_as_generator(self):
        """Collection changes only the arrival times, not sizes/ops/addresses."""
        collected = collect("Email", num_requests=300).trace
        generated = generate_trace("Email", num_requests=300)
        assert [(r.lba, r.size, r.op) for r in collected] == [
            (r.lba, r.size, r.op) for r in generated
        ]

    def test_nowait_close_to_table_iv(self):
        result = collect("Twitter", num_requests=4000)
        stats = timing_stats(result.trace)
        assert stats.nowait_pct == pytest.approx(TABLE_IV["Twitter"].nowait_pct, abs=10.0)

    def test_sync_requests_never_wait_much(self):
        """High-sync traces must have a high no-wait ratio by construction."""
        result = collect("CallIn", num_requests=1000)
        stats = timing_stats(result.trace)
        assert stats.nowait_pct > 90.0

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            collect("Email", num_requests=0)


class TestSyncFraction:
    def test_within_bounds(self):
        for name in ("Twitter", "Movie", "CallIn", "Booting"):
            assert 0.0 <= sync_fraction(profile(name)) <= 0.98

    def test_cached(self):
        first = sync_fraction(profile("Radio"))
        second = sync_fraction(profile("Radio"))
        assert first == second

    def test_ordering_follows_targets(self):
        """A 98 % no-wait app needs a larger sync share than a 23 % one."""
        assert sync_fraction(profile("CallIn")) > sync_fraction(profile("Movie"))

    def test_memo_holds_only_the_registered_profile(self):
        """A modified copy that keeps the name calibrates fresh."""
        from repro.workloads.collection import _sync_cache
        from repro.workloads.generator import _calibrated_temporal, _temporal_cache

        email = profile("Email")
        registered = sync_fraction(email, seed=3)
        assert _sync_cache[("Email", 3)] == registered
        quiet = dataclasses.replace(
            email, timing_stats=dataclasses.replace(email.timing_stats, nowait_pct=20.0)
        )
        fresh = sync_fraction(quiet, seed=3)
        assert fresh != registered
        _sync_cache.pop(("Email", 3))
        assert sync_fraction(quiet, seed=3) == fresh
        assert ("Email", 3) not in _sync_cache

        rehit = _calibrated_temporal(email, 3)
        assert _temporal_cache[("Email", 3)] == rehit
        sparse = dataclasses.replace(
            email,
            timing_stats=dataclasses.replace(email.timing_stats, temporal_locality_pct=5.0),
        )
        fresh_rehit = _calibrated_temporal(sparse, 3)
        assert fresh_rehit < rehit
        _temporal_cache.pop(("Email", 3))
        assert _calibrated_temporal(sparse, 3) == fresh_rehit
        assert ("Email", 3) not in _temporal_cache
