"""Regression tests for the DeviceStats reuse guarantee.

The fleet executor asserts ``device.stats.fresh`` before every replay;
these tests pin the contract: a just-constructed stats object is fresh,
any replay dirties it, and ``reset()`` restores it to the constructed
state field for field.
"""

import pytest

from repro.emmc import EmmcDevice, PageKind, energy_report, four_ps, small_four_ps
from repro.emmc.stats import DeviceStats
from repro.sim import Host
from repro.trace import KIB, Op, Request, Trace
from repro.workloads import generate_trace


class TestFreshness:
    def test_constructed_stats_are_fresh(self):
        assert DeviceStats().fresh

    def test_fresh_device_stats_are_fresh(self):
        assert EmmcDevice(small_four_ps()).stats.fresh

    def test_any_touch_makes_stats_stale(self):
        stats = DeviceStats()
        stats.requests += 1
        assert not stats.fresh

    def test_sample_lists_make_stats_stale(self):
        stats = DeviceStats()
        stats.response_us.append(1.0)
        assert not stats.fresh

    def test_per_kind_dicts_make_stats_stale(self):
        stats = DeviceStats()
        stats.record_op_counts(PageKind.K4, reads=1)
        assert not stats.fresh

    def test_replay_makes_stats_stale(self):
        device = EmmcDevice(small_four_ps())
        trace = generate_trace("Twitter", seed=1, num_requests=10)
        Host(device).replay(trace)
        assert not device.stats.fresh


class TestReset:
    def test_reset_restores_constructed_state(self):
        device = EmmcDevice(small_four_ps())
        trace = generate_trace("Twitter", seed=1, num_requests=10)
        Host(device).replay(trace)
        device.stats.reset()
        assert device.stats.fresh
        assert vars(device.stats) == vars(DeviceStats())

    def test_reset_is_idempotent(self):
        stats = DeviceStats()
        stats.reset()
        stats.reset()
        assert stats.fresh

    def test_reset_does_not_alias_defaults(self):
        # The reset lists/dicts must be fresh objects, not shared with
        # other instances' defaults.
        a, b = DeviceStats(), DeviceStats()
        a.reset()
        a.response_us.append(1.0)
        a.page_reads[PageKind.K4] = 1
        assert b.response_us == []
        assert b.page_reads == {}

    @pytest.mark.parametrize("mode", ["off", "auto"])
    def test_reset_drops_earlier_wakeups(self, mode, monkeypatch):
        # Two writes 10 thresholds apart wake the device once; after a
        # reset, two writes 10 us apart must report no wake-up at all,
        # on either engine, and charge no wake-up energy.
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", mode)
        device = EmmcDevice(four_ps())
        threshold = device.latency.power_threshold_us
        first = Host(device).replay(Trace("wake", [
            Request(0.0, 0, 4 * KIB, Op.WRITE),
            Request(10 * threshold, 256 * KIB, 4 * KIB, Op.WRITE),
        ]))
        assert first.stats.wakeups == 1
        device.stats.reset()
        start = first.trace.requests[-1].finish_us + 10.0
        second = Host(device).replay(Trace("awake", [
            Request(start, 512 * KIB, 4 * KIB, Op.WRITE),
            Request(start + 10.0, 768 * KIB, 4 * KIB, Op.WRITE),
        ]))
        stats = second.stats
        assert (stats.requests, stats.low_power_us, stats.wakeups) == (2, 0.0, 0)
        assert energy_report(stats).wakeup_uj == 0.0
