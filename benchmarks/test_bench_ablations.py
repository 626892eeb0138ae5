"""Ablation benchmarks for the design choices DESIGN.md calls out.

* Implication 1 -- more channels barely help smartphone workloads.
* Implication 2 -- idle-time GC removes foreground GC stalls.
* Implication 3 -- a RAM buffer sees a low hit rate under weak locality.
* Implication 4 -- simple dynamic wear-leveling keeps wear even.
* HPS 4K:8K block-ratio sweep -- utilization stays perfect across ratios.
"""

import dataclasses

from repro.trace import KIB, MIB, Op, Request
from repro.emmc import EmmcDevice, Geometry, PageKind, collect_wear, four_ps, hps
from repro.workloads import generate_trace

from conftest import BENCH_SEED, run_once


def _replay_mrt(config, trace):
    return EmmcDevice(config).replay(trace.without_timing()).stats.mean_response_ms


def test_ablation_channel_count_implication_1(benchmark):
    """Doubling channels gives only marginal MRT gains on a typical trace."""
    trace = generate_trace("Twitter", seed=BENCH_SEED, num_requests=2000)

    def sweep():
        results = {}
        for channels in (1, 2, 4):
            geometry = dataclasses.replace(four_ps().geometry, channels=channels)
            config = four_ps(geometry=geometry)
            results[channels] = _replay_mrt(config, trace)
        return results

    mrt = run_once(benchmark, sweep)
    print(f"\nImplication 1 -- MRT by channel count: {mrt}")
    # Going from 2 to 4 channels helps far less than 2x (the workload is
    # no-wait-dominated, as the paper argues).
    assert mrt[2] < mrt[1]
    assert mrt[4] > mrt[2] * 0.7


def test_ablation_idle_gc_implication_2(benchmark):
    """Idle-time GC removes foreground collections on a GC-heavy workload."""
    geometry = Geometry(
        channels=2, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={PageKind.K4: 8}, pages_per_block=16,
    )

    def hammer(idle_gc):
        config = four_ps(
            geometry=geometry, gc_threshold_blocks=2,
            idle_gc=idle_gc, idle_gc_soft_threshold=6,
        )
        device = EmmcDevice(config)
        at = 0.0
        for i in range(1500):
            done = device.submit(
                Request(at, (i % 48) * 4 * KIB, 4 * KIB, Op.WRITE)
            )
            at = done.finish_us + 250_000.0  # Characteristic 6's long gaps
        return device.stats

    def run_both():
        return hammer(idle_gc=False), hammer(idle_gc=True)

    baseline, with_idle = run_once(benchmark, run_both)
    print(
        f"\nImplication 2 -- foreground GC: {baseline.gc_collections} "
        f"(threshold-only) vs {with_idle.gc_collections} (+{with_idle.idle_gc_collections} idle)"
    )
    assert with_idle.gc_collections < baseline.gc_collections
    assert with_idle.idle_gc_collections > 0
    assert with_idle.mean_response_ms <= baseline.mean_response_ms * 1.02


def test_ablation_ram_buffer_implication_3(benchmark):
    """A sizable RAM buffer yields a low read hit rate under weak locality."""
    trace = generate_trace("Facebook", seed=BENCH_SEED, num_requests=2500)

    def run():
        config = four_ps(ram_buffer_bytes=8 * MIB)
        device = EmmcDevice(config)
        device.replay(trace.without_timing())
        return device

    device = run_once(benchmark, run)
    hits = device.buffer.stats.read_hits
    misses = device.buffer.stats.read_misses
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    print(f"\nImplication 3 -- RAM buffer read hit rate: {hit_rate:.1%}")
    # The paper argues the buffer is of little use: hit rate well below 50 %.
    assert hit_rate < 0.5


def test_ablation_wear_leveling_implication_4(benchmark):
    """Dynamic (lowest-erase-count) allocation keeps wear even."""
    geometry = Geometry(
        channels=2, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={PageKind.K4: 8}, pages_per_block=16,
    )

    def hammer():
        device = EmmcDevice(four_ps(geometry=geometry, gc_threshold_blocks=2))
        at = 0.0
        for i in range(4000):
            done = device.submit(Request(at, (i % 40) * 4 * KIB, 4 * KIB, Op.WRITE))
            at = done.finish_us
        return collect_wear(device.ftl.pools)

    wear = run_once(benchmark, hammer)
    print(
        f"\nImplication 4 -- erases total={wear.total_erases} "
        f"max={wear.max_erase} min={wear.min_erase} evenness={wear.evenness:.2f}"
    )
    assert wear.total_erases > 0
    # Dynamic wear-leveling bounds the hottest block near the mean; blocks
    # pinned by cold valid data may stay unworn (no static WL -- the
    # "simple strategy" the paper deems sufficient).
    assert wear.max_erase <= 2.5 * wear.mean_erase


def test_ablation_queue_depth_implication_1(benchmark):
    """Parallel request queues (depth > 1) barely help: arrivals rarely
    overlap (Characteristic 3), so deeper queues mostly sit empty."""
    trace = generate_trace("Facebook", seed=BENCH_SEED, num_requests=2000)

    def sweep():
        return {
            depth: _replay_mrt(four_ps(queue_depth=depth), trace)
            for depth in (1, 2, 8)
        }

    mrt = run_once(benchmark, sweep)
    print(f"\nImplication 1 -- MRT by queue depth: {mrt}")
    # Deeper queues may help a little (bursts overlap) but nowhere near
    # proportionally; an 8-deep queue buys < 2x.
    assert mrt[8] > mrt[1] * 0.5
    assert mrt[2] <= mrt[1] * 1.01


def test_ablation_multi_plane_commands(benchmark):
    """Multi-plane advanced commands shrink large-request service times --
    the parallelism a cost-constrained eMMC leaves on the table."""
    trace = generate_trace("Booting", seed=BENCH_SEED, num_requests=2000)

    def sweep():
        return {
            "die-serial": _replay_mrt(four_ps(), trace),
            "multi-plane": _replay_mrt(four_ps(multi_plane=True), trace),
        }

    mrt = run_once(benchmark, sweep)
    print(f"\nMulti-plane ablation -- MRT: {mrt}")
    assert mrt["multi-plane"] < mrt["die-serial"]


def test_ablation_gc_victim_policy(benchmark):
    """Greedy victim selection migrates no more than random selection."""
    geometry = Geometry(
        channels=2, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={PageKind.K4: 8}, pages_per_block=16,
    )

    def hammer(policy):
        device = EmmcDevice(
            four_ps(geometry=geometry, gc_threshold_blocks=2, gc_policy=policy)
        )
        at = 0.0
        for i in range(2400):
            lpn = (i % 8) if i % 2 else (i // 2 % 56)
            done = device.submit(Request(at, lpn * 4 * KIB, 4 * KIB, Op.WRITE))
            at = done.finish_us
        return device.stats.gc_migrated_slots

    def sweep():
        return {policy: hammer(policy) for policy in ("greedy", "fifo", "random")}

    migrated = run_once(benchmark, sweep)
    print(f"\nGC victim policy -- migrated slots: {migrated}")
    assert migrated["greedy"] <= migrated["random"]
    assert migrated["greedy"] <= migrated["fifo"]


def test_ablation_static_wear_leveling(benchmark):
    """Static WL bounds the wear spread under a hot/cold split -- the heavy
    machinery Implication 4 argues smartphone workloads don't need."""
    geometry = Geometry(
        channels=2, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={PageKind.K4: 10}, pages_per_block=8,
    )

    def hammer(static_wl):
        device = EmmcDevice(
            four_ps(geometry=geometry, gc_threshold_blocks=2,
                    static_wl_threshold=static_wl)
        )
        at = 0.0
        for lpn in range(40):  # cold data, written once
            done = device.submit(Request(at, lpn * 4 * KIB, 4 * KIB, Op.WRITE))
            at = done.finish_us
        for i in range(2400):  # hot set, rewritten forever
            done = device.submit(
                Request(at, (40 + i % 8) * 4 * KIB, 4 * KIB, Op.WRITE)
            )
            at = done.finish_us
        return collect_wear(device.ftl.pools)

    def run_both():
        return hammer(None), hammer(6)

    baseline, leveled = run_once(benchmark, run_both)
    print(
        f"\nImplication 4 (static WL): spread {baseline.spread} (dynamic only) "
        f"vs {leveled.spread} (with static relocation)"
    )
    assert leveled.spread < baseline.spread


def test_ablation_hps_block_ratio(benchmark):
    """HPS keeps perfect utilization across 4K:8K pool splits."""
    trace = generate_trace("Messaging", seed=BENCH_SEED, num_requests=1500)

    def sweep():
        results = {}
        for k4, k8 in ((768, 128), (512, 256), (256, 384)):
            geometry = dataclasses.replace(
                hps().geometry, blocks_per_plane={PageKind.K4: k4, PageKind.K8: k8}
            )
            device = EmmcDevice(hps(geometry=geometry))
            device.replay(trace.without_timing())
            results[(k4, k8)] = (
                device.stats.space_utilization,
                device.stats.mean_response_ms,
            )
        return results

    results = run_once(benchmark, sweep)
    print(f"\nHPS ratio sweep (utilization, MRT ms): {results}")
    for (k4, k8), (utilization, mrt) in results.items():
        assert utilization == 1.0, (k4, k8)
        assert mrt > 0
