"""Tests for GC victim policies and static wear-leveling."""

import pytest

from repro.trace import KIB, Op, Request
from repro.emmc import (
    EmmcDevice,
    Geometry,
    GreedyGC,
    PageKind,
    StaticWearLeveler,
    VictimPolicy,
    collect_wear,
    small_four_ps,
)
from repro.emmc.ftl import Ftl


def _tiny_geometry(blocks=8, pages=16):
    return Geometry(
        channels=2, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={PageKind.K4: blocks}, pages_per_block=pages,
    )


def _hammer(config, writes=1600, working_set=48):
    device = EmmcDevice(config)
    at = 0.0
    for i in range(writes):
        done = device.submit(Request(at, (i % working_set) * 4 * KIB, 4 * KIB, Op.WRITE))
        at = done.finish_us
    return device


class TestVictimPolicies:
    @pytest.mark.parametrize("policy", ["greedy", "fifo", "random"])
    def test_all_policies_reclaim(self, policy):
        config = small_four_ps(geometry=_tiny_geometry(), gc_policy=policy,
                               gc_threshold_blocks=2)
        device = _hammer(config)
        assert device.stats.erases > 0

    def test_greedy_migrates_least(self):
        """Greedy picks the most-invalid victim, so it moves the least data
        for the same reclaimed space (under a skewed overwrite pattern)."""
        migrations = {}
        for policy in ("greedy", "random"):
            config = small_four_ps(geometry=_tiny_geometry(), gc_policy=policy,
                                   gc_threshold_blocks=2)
            device = EmmcDevice(config)
            at = 0.0
            for i in range(2400):
                # Skewed: half the writes hammer a tiny hot set.
                lpn = (i % 8) if i % 2 else (i // 2 % 56)
                done = device.submit(Request(at, lpn * 4 * KIB, 4 * KIB, Op.WRITE))
                at = done.finish_us
            migrations[policy] = device.stats.gc_migrated_slots
        assert migrations["greedy"] <= migrations["random"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            EmmcDevice(small_four_ps(gc_policy="best-effort"))

    def test_policy_enum_values(self):
        assert VictimPolicy("greedy") is VictimPolicy.GREEDY
        assert VictimPolicy("fifo") is VictimPolicy.FIFO


class TestStaticWearLeveling:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            StaticWearLeveler(spread_threshold=0)

    def test_noop_when_even(self):
        ftl = Ftl(_tiny_geometry())
        leveler = StaticWearLeveler(spread_threshold=4)
        gc = GreedyGC()
        assert leveler.maybe_level(ftl.pools[0], gc, ftl) is None
        assert leveler.relocations == 0

    def test_bounds_spread_under_hot_cold_workload(self):
        """Half the LPNs are written once (cold), half rewritten forever.

        Without static WL the cold blocks never cycle; with it the spread
        stays near the threshold.
        """

        def run(static_wl):
            config = small_four_ps(
                geometry=_tiny_geometry(blocks=10, pages=8),
                gc_threshold_blocks=2,
                static_wl_threshold=static_wl,
            )
            device = EmmcDevice(config)
            at = 0.0
            # Cold data first: 40 LPNs written once.
            for lpn in range(40):
                done = device.submit(Request(at, lpn * 4 * KIB, 4 * KIB, Op.WRITE))
                at = done.finish_us
            # Then a hot set rewritten many times.
            for i in range(2600):
                lpn = 40 + (i % 8)
                done = device.submit(Request(at, lpn * 4 * KIB, 4 * KIB, Op.WRITE))
                at = done.finish_us
            return collect_wear(device.ftl.pools), device

        baseline, _ = run(None)
        leveled, device = run(6)
        assert device.ftl.wear_leveler.relocations > 0
        assert leveled.spread < baseline.spread
