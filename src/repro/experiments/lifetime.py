"""Extension study: GC pressure, write amplification and lifetime.

Section V argues that with equal capacity an 8 KB-page device "has a much
fewer number of pages ... more garbage collection operations after its
limited number of free pages are quickly consumed by the small random
write requests. More GC operations further lowers the performance and
shrinks the lifetime."  The Fig. 8/9 replays run on a brand-new 32 GB
device where GC never triggers, so this experiment scales the geometry
down (same shape, 1/1024 capacity) and replays a small-write-heavy trace
repeatedly until the device is under sustained GC pressure, then reports:

* per-block erase cycles (the lifetime metric: flash blocks endure a fixed
  number of program/erase cycles, and 8PS has half as many blocks),
* GC page migrations,
* write amplification = (host + padding + GC) bytes / host bytes.

An observed HPS trade-off surfaces here: an LPN written inside an
8 KB-aligned pair lands in an 8 KB page, while the same LPN overwritten as
a lone page lands in a 4 KB page, so invalidations scatter across both
pools and the small 4 KB pool needs valid-page migration during GC --
kind-aware GC placement would be the natural next optimization.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.trace import Request
from repro.analysis import render_table
from repro.workloads import DEFAULT_SEED, generate_trace
from repro.emmc import EmmcDevice, PageKind, collect_wear, eight_ps, four_ps, hps
from repro.sim import Host

from .common import ExperimentResult
from .spec import ExperimentSpec

#: Scaled-down per-plane block pools: same 2:1 structure, 32 MB devices.
_SMALL_POOLS = {
    "4PS": {PageKind.K4: 32},
    "8PS": {PageKind.K8: 16},
    "HPS": {PageKind.K4: 16, PageKind.K8: 8},
}


def _scaled_config(name: str):
    base = {"4PS": four_ps, "8PS": eight_ps, "HPS": hps}[name]()
    geometry = dataclasses.replace(
        base.geometry, blocks_per_plane=_SMALL_POOLS[name], pages_per_block=64
    )
    return base.with_overrides(geometry=geometry, gc_threshold_blocks=2)


def run(
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
    rounds: int = 6,
    app: str = "Messaging",
) -> ExperimentResult:
    """Sustained small-write pressure on scaled-down devices."""
    trace = generate_trace(app, seed=seed, num_requests=num_requests or 3000)
    window = _scaled_config("4PS").geometry.capacity_bytes() // 2
    # One open-loop trace of every round's writes at fixed arrivals.
    pressure = []
    clock = 0.0
    for _ in range(rounds):
        for request in trace.writes:
            clock += 10_000.0  # modest load: GC pressure, not overload
            size = min(request.size, window // 2)
            # Fold the full-device addresses into the scaled device so the
            # same overwrite pattern (hence reclaimable garbage) appears at
            # 1/1024 scale.
            lba = request.lba % max(4096, window - size)
            lba -= lba % 4096
            pressure.append(Request(clock, lba, size, request.op))
    pressure_trace = trace.with_requests(pressure)
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for name in ("4PS", "8PS", "HPS"):
        device = EmmcDevice(_scaled_config(name))
        Host(device).replay(pressure_trace)
        stats = device.stats
        wear = collect_wear(device.ftl.pools)
        amplification = (
            (stats.flash_bytes_consumed
             + stats.gc_migrated_slots * 4096)
            / max(1, stats.data_bytes_written)
        )
        data[name] = {
            "erases": stats.erases,
            "mean_block_cycles": wear.mean_erase,
            "gc_migrated_slots": stats.gc_migrated_slots,
            "write_amplification": amplification,
            "mrt_ms": stats.mean_response_ms,
        }
        rows.append(
            [
                name,
                stats.erases,
                wear.mean_erase,
                stats.gc_migrated_slots,
                amplification,
                stats.mean_response_ms,
            ]
        )
    table = render_table(
        ["Scheme", "Erases", "Cycles/block", "Migrated slots", "Write amp", "MRT ms"],
        rows,
        title=f"Sustained {app} writes, {rounds} rounds on 32 MB-scale devices",
    )
    return ExperimentResult(
        experiment_id="lifetime",
        title="GC pressure and write amplification under sustained small writes",
        table=table,
        data=data,
    )


SPEC = ExperimentSpec(
    experiment_id="lifetime",
    title="GC pressure, write amplification and lifetime extension study",
    runner=run,
    cost="light",
)


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
