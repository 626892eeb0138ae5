"""Integration-level tests for the eMMC device model."""

import random

import pytest

from repro.trace import KIB, MIB, Op, Request, Trace
from repro.emmc import (
    EmmcDevice,
    PageKind,
    capacity_matches,
    eight_ps,
    four_ps,
    hps,
    small_eight_ps,
    small_four_ps,
    small_hps,
    table_v_configs,
)


def _req(at, lba, size, op=Op.WRITE):
    return Request(arrival_us=at, lba=lba, size=size, op=op)


class TestTableVConfigs:
    def test_three_schemes_same_capacity(self):
        configs = table_v_configs()
        assert set(configs) == {"4PS", "8PS", "HPS"}
        assert capacity_matches(*configs.values())
        assert configs["4PS"].geometry.capacity_bytes() == 32 * 1024**3

    def test_scheme_block_pools(self):
        assert four_ps().geometry.blocks_per_plane == {PageKind.K4: 1024}
        assert eight_ps().geometry.blocks_per_plane == {PageKind.K8: 512}
        assert hps().geometry.blocks_per_plane == {PageKind.K4: 512, PageKind.K8: 256}

    def test_small_configs_match_capacity(self):
        assert capacity_matches(small_four_ps(), small_eight_ps(), small_hps())

    def test_overrides(self):
        config = four_ps(idle_gc=True, gc_threshold_blocks=5)
        assert config.idle_gc
        assert config.gc_threshold_blocks == 5


class TestSubmit:
    def test_timestamps_ordered(self):
        device = EmmcDevice(small_four_ps())
        done = device.submit(_req(100.0, 0, 8 * KIB))
        assert done.arrival_us == 100.0
        assert done.service_start_us >= done.arrival_us
        assert done.finish_us > done.service_start_us

    def test_fifo_queueing(self):
        device = EmmcDevice(small_four_ps())
        first = device.submit(_req(0.0, 0, 256 * KIB))
        second = device.submit(_req(1.0, 0, 4 * KIB, Op.READ))
        assert second.service_start_us == pytest.approx(first.finish_us)
        assert not second.no_wait
        assert device.stats.no_wait_requests == 1

    def test_idle_device_serves_immediately(self):
        device = EmmcDevice(small_four_ps())
        first = device.submit(_req(0.0, 0, 4 * KIB))
        second = device.submit(_req(first.finish_us + 10.0, 4 * KIB, 4 * KIB))
        assert second.no_wait

    def test_read_faster_than_write(self):
        reads = EmmcDevice(small_four_ps())
        writes = EmmcDevice(small_four_ps())
        read = reads.submit(_req(0.0, 0, 16 * KIB, Op.READ))
        write = writes.submit(_req(0.0, 0, 16 * KIB, Op.WRITE))
        assert read.service_us < write.service_us

    def test_warmup_after_long_idle(self):
        device = EmmcDevice(small_four_ps())
        first = device.submit(_req(0.0, 0, 4 * KIB))
        # Arrive far beyond the power threshold: pays the warm-up.
        gap = device.latency.power_threshold_us + first.finish_us + 1.0
        woken = device.submit(_req(gap, 4 * KIB, 4 * KIB))
        busy = device.submit(_req(woken.finish_us + 10.0, 8 * KIB, 4 * KIB))
        assert woken.service_us == pytest.approx(
            busy.service_us + device.latency.warmup_us, rel=0.01
        )
        assert device.stats.wakeups == 1

    def test_larger_requests_take_longer(self):
        device = EmmcDevice(small_four_ps())
        small = device.submit(_req(0.0, 0, 4 * KIB, Op.READ))
        large = device.submit(_req(small.finish_us + 1, 0, 64 * KIB, Op.READ))
        assert large.service_us > small.service_us


class TestReplay:
    def test_replay_returns_completed_trace(self):
        trace = Trace("t", [_req(i * 5000.0, i * 8 * KIB, 8 * KIB) for i in range(20)])
        result = EmmcDevice(small_four_ps()).replay(trace)
        assert result.trace.completed
        assert result.stats.requests == 20
        assert result.config_name == "small-4PS"

    def test_mrt_positive(self):
        trace = Trace("t", [_req(i * 3000.0, 0, 4 * KIB) for i in range(10)])
        result = EmmcDevice(small_four_ps()).replay(trace)
        assert result.stats.mean_response_ms > 0
        assert result.stats.mean_response_ms >= result.stats.mean_service_ms * 0.99


class TestSpaceUtilization:
    def test_hps_and_4ps_never_pad(self):
        for config in (small_four_ps(), small_hps()):
            device = EmmcDevice(config)
            device.submit(_req(0.0, 0, 20 * KIB))
            assert device.stats.space_utilization == 1.0

    def test_8ps_pads_odd_writes(self):
        device = EmmcDevice(small_eight_ps())
        device.submit(_req(0.0, 0, 20 * KIB))
        assert device.stats.space_utilization == pytest.approx(20 / 24)
        assert device.stats.padding_bytes == 4 * KIB


def _tiny_config(**overrides):
    """A 2-plane, 8-blocks-per-plane device that fills up fast."""
    from repro.emmc import Geometry

    geometry = Geometry(
        channels=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane={PageKind.K4: 8},
        pages_per_block=16,
    )
    return small_four_ps(geometry=geometry, **overrides)


class TestGcUnderPressure:
    def test_small_device_collects_garbage(self):
        device = EmmcDevice(_tiny_config(gc_threshold_blocks=2))
        # Hammer a small working set until well past device capacity.
        finish = 0.0
        for i in range(1200):
            lba = (i % 48) * 4 * KIB
            done = device.submit(_req(finish, lba, 4 * KIB))
            finish = done.finish_us
        assert device.stats.gc_collections > 0
        assert device.stats.erases > 0

    def test_idle_gc_reduces_foreground_gc(self):
        def hammer(config):
            device = EmmcDevice(config)
            at = 0.0
            for i in range(1200):
                done = device.submit(_req(at, (i % 48) * 4 * KIB, 4 * KIB))
                # Long think time: plenty of idle gaps for idle GC.
                at = done.finish_us + 300_000.0
            return device.stats

        baseline = hammer(_tiny_config(gc_threshold_blocks=2))
        with_idle = hammer(
            _tiny_config(gc_threshold_blocks=2, idle_gc=True, idle_gc_soft_threshold=6)
        )
        assert with_idle.idle_gc_collections > 0
        assert with_idle.gc_collections < baseline.gc_collections

    def test_idle_gc_reserves_its_ops(self):
        """Idle collections occupy the units: their erases count as busy time."""
        device = EmmcDevice(
            small_four_ps(
                idle_gc=True, idle_gc_min_gap_us=1000.0, idle_gc_soft_threshold=64
            )
        )
        for i in range(3000):
            device.submit(_req(i * 5000.0, (i % 400) * 16 * KIB, 16 * KIB))
        stats = device.stats
        assert stats.idle_gc_collections > 0
        assert stats.erases >= stats.idle_gc_collections
        assert stats.busy_erase_us == stats.erases * device.latency.erase_us


class TestRamBufferPath:
    def test_buffered_device_absorbs_rewrites(self):
        config = small_four_ps(ram_buffer_bytes=1 * MIB)
        device = EmmcDevice(config)
        finish = 0.0
        for _ in range(50):
            done = device.submit(_req(finish, 0, 4 * KIB))
            finish = done.finish_us + 1
        # Every write after the first hits the same cached page: no flash I/O.
        assert device.stats.flash_bytes_consumed == 0
        read = device.submit(_req(finish + 1, 0, 4 * KIB, Op.READ))
        assert read.service_us <= device.buffer.hit_latency_us + 1e-6

    @pytest.mark.parametrize("buffer_bytes", [0, 16 * KIB])
    def test_flushes_account_gc_migrations(self, buffer_bytes):
        """RAM-buffer flushes program through the same accounting as host
        writes: every slot GC migrates reaches the device stats."""
        rng = random.Random(0)
        # Fill 6,000 of the 8,192 LPNs, then rewrite a 1,500-LPN hot set
        # at random so GC victims still hold valid pages.
        lpns = list(range(6000)) + [rng.randrange(1500) for _ in range(6000)]
        trace = Trace(
            "hot-set",
            [_req(index * 1000.0, lpn * 4 * KIB, 4 * KIB) for index, lpn in enumerate(lpns)],
        )
        device = EmmcDevice(small_four_ps(ram_buffer_bytes=buffer_bytes))
        device.replay(trace)
        assert device.ftl.gc_migrated_slots > 0
        assert device.stats.gc_migrated_slots == device.ftl.gc_migrated_slots
