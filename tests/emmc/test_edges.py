"""Edge cases across the eMMC package."""

import pytest

from repro.trace import KIB, Op, Request
from repro.emmc import (
    EmmcDevice,
    Geometry,
    GreedyGC,
    PageKind,
    capacity_matches,
    describe_die,
    eight_ps,
    four_ps,
    hps,
    small_four_ps,
)
from repro.emmc.ftl import Ftl, OutOfSpaceError


class TestStructureHelpers:
    def test_describe_die_mentions_pools(self):
        text = describe_die(hps())
        assert "512 blocks" in text
        assert "256 blocks" in text
        assert "4096 MiB" in text

    def test_capacity_matches_false(self):
        small = small_four_ps()
        assert not capacity_matches(four_ps(), small)

    def test_capacity_matches_single(self):
        assert capacity_matches(eight_ps())


class TestGcEdges:
    def _pool(self, blocks=2, pages=2):
        geometry = Geometry(
            channels=1, dies_per_chip=1, planes_per_die=1,
            blocks_per_plane={PageKind.K4: blocks}, pages_per_block=pages,
        )
        ftl = Ftl(geometry)
        return ftl, ftl.pools[0]

    def test_reclaim_raises_when_free_zero_and_nothing_reclaimable(self):
        ftl, pool = self._pool()
        # Fill both blocks with valid data (nothing reclaimable).
        for block_index in range(2):
            block = pool.open_block()
            ftl.program(pool, block, [(block_index * 2, block_index * 2 + 1)])
        pool.active = None
        gc = GreedyGC(threshold_blocks=1)
        with pytest.raises(OutOfSpaceError):
            gc.reclaim_until_safe(pool, ftl)

    def test_reclaim_stops_at_max_rounds(self):
        ftl, pool = self._pool(blocks=6)
        # Several reclaimable blocks, but cap rounds at 1.
        for base in range(4):
            block = pool.open_block()
            ftl.program(pool, block, [(base, base + 100)])
            pool.invalidate(block, 0, 0)
            pool.invalidate(block, 1, 0)
        pool.active = None
        results = GreedyGC(threshold_blocks=4).reclaim_until_safe(
            pool, ftl, max_rounds=1
        )
        assert len(results) == 1


class TestDeviceEdges:
    def test_zero_arrival_request(self):
        device = EmmcDevice(small_four_ps())
        done = device.submit(Request(0.0, 0, 4 * KIB, Op.READ))
        assert done.no_wait

    def test_replay_empty_trace(self):
        from repro.trace import Trace

        result = EmmcDevice(small_four_ps()).replay(Trace("empty"))
        assert result.stats.requests == 0
        assert result.stats.mean_response_ms == 0.0
        assert result.stats.no_wait_ratio == 0.0

    def test_stats_properties_on_fresh_device(self):
        device = EmmcDevice(small_four_ps())
        assert device.stats.space_utilization == 1.0
        assert device.stats.padding_bytes == 0
        assert device.stats.write_amplification == 1.0

    def test_largest_supported_request(self):
        from repro.trace import MIB

        device = EmmcDevice(four_ps())
        done = device.submit(Request(0.0, 0, 16 * MIB, Op.WRITE))
        assert done.completed
        assert device.stats.page_programs[PageKind.K4] == 4096
