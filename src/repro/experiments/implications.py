"""Section IV: the five design implications, each checked by an ablation.

1. Device-level parallelism beyond the two channels barely helps (requests
   rarely overlap): channel-count sweep.
2. Long inter-arrival gaps leave room for idle-time GC: foreground-GC
   comparison with idle GC on/off.
3. A large RAM buffer is of little use under weak locality: measured read
   hit rate.
4. A simple wear-leveling strategy is sufficient: wear evenness under a
   sustained workload.
5. Small (4 KB) requests deserve a fast path: share of single-page
   requests across the traces (the motivation for HPS's 4 KB blocks).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.trace import KIB, MIB, Op, Request
from repro.analysis import render_table, small_request_share
from repro.emmc import EmmcDevice, Geometry, PageKind, collect_wear, four_ps
from repro.sim import Host
from repro.workloads import DEFAULT_SEED, INDIVIDUAL_APPS, generate_trace

from .common import ExperimentResult, individual_traces, replay_on
from .spec import ExperimentSpec


def _implication_1(trace) -> dict:
    """MRT by channel count on a typical trace."""
    results = {}
    for channels in (1, 2, 4):
        geometry = dataclasses.replace(four_ps().geometry, channels=channels)
        config = four_ps(geometry=geometry)
        results[channels] = replay_on(config, trace).stats.mean_response_ms
    return results


def _implication_2(seed: int) -> dict:
    """Foreground GC with and without idle-time collections."""
    geometry = Geometry(
        channels=2, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={PageKind.K4: 8}, pages_per_block=16,
    )

    def hammer(idle_gc: bool):
        """Run the GC-pressure loop with/without idle GC."""
        device = EmmcDevice(
            four_ps(geometry=geometry, gc_threshold_blocks=2,
                    idle_gc=idle_gc, idle_gc_soft_threshold=6)
        )
        at = 0.0
        for i in range(2000):
            done = device.submit(Request(at, (i % 48) * 4 * KIB, 4 * KIB, Op.WRITE))
            at = done.finish_us + 250_000.0
        return device.stats

    baseline = hammer(False)
    with_idle = hammer(True)
    return {
        "foreground_gc_threshold_only": baseline.gc_collections,
        "foreground_gc_with_idle": with_idle.gc_collections,
        "idle_collections": with_idle.idle_gc_collections,
        "mrt_threshold_only_ms": baseline.mean_response_ms,
        "mrt_with_idle_ms": with_idle.mean_response_ms,
    }


def _implication_3(trace) -> dict:
    """RAM buffer hit rate on a real workload."""
    device = EmmcDevice(four_ps(ram_buffer_bytes=8 * MIB))
    Host(device).replay(trace.without_timing())
    stats = device.buffer.stats
    total = stats.read_hits + stats.read_misses
    return {
        "buffer_mib": 8,
        "read_hit_rate": stats.read_hits / total if total else 0.0,
    }


def _implication_4(seed: int) -> dict:
    """Wear evenness under a sustained hot workload."""
    geometry = Geometry(
        channels=2, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={PageKind.K4: 8}, pages_per_block=16,
    )
    device = EmmcDevice(four_ps(geometry=geometry, gc_threshold_blocks=2))
    # Back-to-back overwrites of a 40-page hot set.
    Host(device).replay_closed_loop(
        [(i % 40) * 4 * KIB for i in range(4000)],
        [4 * KIB] * 4000,
        [Op.WRITE] * 4000,
        [0.0] * 3999,
        [True] * 3999,
    )
    wear = collect_wear(device.ftl.pools)
    return {
        "total_erases": wear.total_erases,
        "max_erase": wear.max_erase,
        "mean_erase": wear.mean_erase,
        "max_over_mean": wear.max_erase / wear.mean_erase if wear.mean_erase else 0.0,
    }


def _implication_5(traces) -> dict:
    """Share of single-page requests across the 18 traces."""
    shares = {trace.name: small_request_share(trace) for trace in traces}
    majority = sum(1 for share in shares.values() if share >= 0.449)
    return {"traces_with_4k_majority": majority, "max_share": max(shares.values())}


def run(seed: int = DEFAULT_SEED, num_requests: Optional[int] = None) -> ExperimentResult:
    """Run all five implication ablations and summarize."""
    traces = individual_traces(seed=seed, num_requests=num_requests)
    by_name = {trace.name: trace for trace in traces}
    typical = by_name["Twitter"]
    facebook = by_name["Facebook"]

    impl1 = _implication_1(typical)
    impl2 = _implication_2(seed)
    impl3 = _implication_3(facebook)
    impl4 = _implication_4(seed)
    impl5 = _implication_5(traces)

    gain_2_to_4 = 1.0 - impl1[4] / impl1[2]
    rows = [
        ["1", "extra channels barely help",
         f"MRT 1ch={impl1[1]:.2f} 2ch={impl1[2]:.2f} 4ch={impl1[4]:.2f} ms "
         f"(2->4ch gain only {gain_2_to_4 * 100:.0f}%)"],
        ["2", "idle gaps absorb GC",
         f"foreground GC {impl2['foreground_gc_threshold_only']} -> "
         f"{impl2['foreground_gc_with_idle']} with {impl2['idle_collections']} idle collections"],
        ["3", "RAM buffer of little use",
         f"8 MiB buffer read hit rate {impl3['read_hit_rate'] * 100:.1f}%"],
        ["4", "simple wear-leveling suffices",
         f"max/mean erase ratio {impl4['max_over_mean']:.2f} over "
         f"{impl4['total_erases']} erases"],
        ["5", "serve small requests fast",
         f"{impl5['traces_with_4k_majority']}/18 traces have a 4 KB majority"],
    ]
    table = render_table(["Impl", "Claim", "Measured evidence"], rows)
    return ExperimentResult(
        experiment_id="implications",
        title="The five eMMC design implications (ablations)",
        table=table,
        data={"impl1": impl1, "impl2": impl2, "impl3": impl3,
              "impl4": impl4, "impl5": impl5},
    )


SPEC = ExperimentSpec(
    experiment_id="implications",
    title="The five Section-IV design implications, each ablated",
    runner=run,
    cost="medium",
)


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
