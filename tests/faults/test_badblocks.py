"""Program/erase failures: bad-block retirement, the spare pool, and the
FTL invariants that must hold around them (GC and wear-leveling skip
retired blocks; no live mapping entry points into one)."""

import pytest

from repro.emmc import small_four_ps
from repro.emmc.ftl.wear_leveling import collect_wear
from repro.faults import FaultPlan, SparePoolExhausted, replay_with_faults, stats_digest
from repro.trace import Op, Request, SECTOR, Trace


def _write_pressure_trace(num=3000, span=1500):
    """Write-heavy, span wider than a few blocks: fills flash, forces GC."""
    return Trace(
        "pressure",
        [
            Request(
                arrival_us=i * 20.0,
                lba=(i % span) * SECTOR,
                size=4 * SECTOR,
                op=Op.WRITE,
            )
            for i in range(num)
        ],
    )


#: Rates sized so a few thousand programs / dozens of erases retire a
#: handful of blocks without exhausting 16 spares per plane.
PLAN = FaultPlan(
    seed=11,
    program_error_rate=0.0008,
    erase_error_rate=0.02,
    spare_blocks_per_plane=16,
)


class TestRetirementUnderGcPressure:
    @classmethod
    def setup_class(cls):
        cls.trace = _write_pressure_trace()
        cls.config = small_four_ps()
        # Keep the device for structural inspection of its planes.
        from repro.emmc import EmmcDevice
        from repro.sim import Host

        cls.device = EmmcDevice(cls.config, faults=PLAN)
        cls.result = Host(cls.device).replay(cls.trace.without_timing())

    def test_blocks_were_retired(self):
        stats = self.result.stats
        assert stats.bad_blocks_retired > 0
        assert stats.program_failures + stats.erase_failures >= stats.bad_blocks_retired

    def test_spare_accounting_balances(self):
        stats = self.result.stats
        # Every retirement consumed exactly one spare.
        assert stats.spare_blocks_consumed == stats.bad_blocks_retired
        assert self.device.ftl.bad_blocks.retired == stats.bad_blocks_retired

    def test_retired_blocks_are_fully_quarantined(self):
        retired_seen = 0
        for pool in self.device.ftl.pools:
            free = set(pool.free)
            for block in range(len(pool)):
                if not pool.bad[block]:
                    continue
                retired_seen += 1
                assert block not in free
                assert pool.active != block
                assert pool.valid_count[block] == 0  # contents migrated away
            # GC must never pick a retired block as victim.
            for candidate in pool.gc_candidates():
                assert not pool.bad[candidate]
        assert retired_seen == self.result.stats.bad_blocks_retired

    def test_no_mapping_entry_points_into_a_bad_block(self):
        ftl = self.device.ftl
        for lpn in ftl.mapping.mapped_lpns():
            location = ftl.mapping.lookup(lpn)
            if location.preloaded:
                continue
            pool = ftl.pool(location.plane, location.kind)
            assert not pool.bad[location.block_id], f"lpn {lpn} maps into retired block"

    def test_ftl_invariants_hold(self):
        self.device.ftl.check_invariants()

    def test_wear_stats_exclude_retired_blocks(self):
        wear = collect_wear(self.device.ftl.pools)
        live_erases = sum(
            count
            for pool in self.device.ftl.pools
            for count, bad in zip(pool.erase_count, pool.bad)
            if not bad
        )
        all_erases = sum(sum(pool.erase_count) for pool in self.device.ftl.pools)
        assert wear.total_erases == live_erases
        # Retired blocks carry erase history that the wear report drops.
        assert all_erases >= live_erases

    def test_migrated_slots_accounted(self):
        stats = self.result.stats
        assert stats.remap_migrated_slots == self.device.ftl.bad_blocks.migrated_slots
        # Retirement of in-use blocks migrates their valid pages.
        assert stats.remap_migrated_slots > 0

    def test_replay_is_deterministic(self):
        again = replay_with_faults(self.config, self.trace, PLAN)
        assert stats_digest(again.stats) == stats_digest(self.result.stats)


class TestSparePoolExhaustion:
    def test_exhaustion_raises_named_error(self):
        plan = FaultPlan(seed=11, erase_error_rate=0.9, spare_blocks_per_plane=1)
        with pytest.raises(SparePoolExhausted, match="spare"):
            replay_with_faults(small_four_ps(), _write_pressure_trace(), plan)

    def test_larger_pool_absorbs_the_same_faults(self):
        plan = FaultPlan(seed=11, erase_error_rate=0.05, spare_blocks_per_plane=64)
        result = replay_with_faults(small_four_ps(), _write_pressure_trace(), plan)
        assert result.stats.erase_failures > 0
        assert result.stats.bad_blocks_retired == result.stats.spare_blocks_consumed
