"""Exhaustive full-state parity sweep: replay fast path vs event kernel.

Replays six representative traces on the four full-size and three small
device configs, plus a copy-back variant of each small config, twice --
``REPRO_REPLAY_FASTPATH=off`` then ``require`` -- fault-free and under
two transient read-fault plans (the ``transient-reads`` profile and a
0.5 error rate), and diffs the whole device with
:mod:`repro.replay.parity`: every ``DeviceStats`` field, the timing
state (admission queue, power state, resource frontiers),
fault-injector stream states, kernel clock, the FTL's mapping, blocks,
pools, cursor and GC totals, the returned timed requests, and the
columns of the returned trace (arrival, service start and completion
times included).  Any mismatch prints the first diverging element and
the two values::

    PYTHONHASHSEED=0 python tools/replay_parity.py

Exit code is non-zero on any divergence. The small configs push the
write-heavy traces into thousands of GC cycles, exercising the
planner's per-request fallback; a combo that exhausts flash must raise
``OutOfSpaceError`` on *both* engines, and is flagged when only one
does. Smaller versions of these checks run per commit in
``tests/replay``.
"""
import os
import sys
import time

sys.path.insert(0, "src")

from repro.emmc import EmmcDevice, OutOfSpaceError
from repro.emmc.configs import (
    eight_ps,
    four_ps,
    hps,
    hps_slc,
    small_eight_ps,
    small_four_ps,
    small_hps,
)
from repro.faults import FaultPlan
from repro.replay.parity import compare, snapshot
from repro.sim import Host
from repro.workloads import generate_trace


#: (label suffix, fault plan): fault-free, then two read-fault plans.
PLANS = [
    ("", None),
    ("/transient-reads", FaultPlan.profile("transient-reads", seed=7)),
    ("/read-0.5", FaultPlan(seed=7, read_error_rate=0.5)),
]


def run(config, trace, plan, mode):
    """Replay on a fresh device; ``(device, result, seconds)``, or no result."""
    os.environ["REPRO_REPLAY_FASTPATH"] = mode
    device = EmmcDevice(config, faults=plan)
    start = time.perf_counter()
    try:
        result = Host(device).replay(trace.without_timing())
    except OutOfSpaceError:
        return device, None, time.perf_counter() - start
    return device, result, time.perf_counter() - start


def main():
    full = [four_ps(), eight_ps(), hps(), hps_slc()]
    small = [small_four_ps(), small_eight_ps(), small_hps()]
    small += [
        config.with_overrides(name=f"{config.name}-copyback", gc_copyback=True)
        for config in small
    ]
    apps = ["Twitter", "CameraVideo", "Booting", "Email", "Idle", "WebBrowsing"]
    total_bad = 0
    for app in apps:
        big_trace = generate_trace(app, seed=7, num_requests=4000)
        small_trace = generate_trace(app, seed=7, num_requests=1200)
        for config in full + small:
            trace = big_trace if config in full else small_trace
            for suffix, plan in PLANS:
                total_bad += check(f"{app}/{config.name}{suffix}", config, trace, plan)
    print("TOTAL DIFFS:", total_bad)
    return 1 if total_bad else 0


def check(label, config, trace, plan):
    """Replay on both engines and print one status line; returns the diff count."""
    kernel_device, kernel_result, kernel_s = run(config, trace, plan, "off")
    fast_device, fast_result, fast_s = run(config, trace, plan, "require")
    if kernel_result is None and fast_result is None:
        print(f"OK  {label}: out of space on both engines")
        return 0
    if kernel_result is None or fast_result is None:
        short = "fast path" if fast_result is None else "kernel"
        print(f"BAD {label}: {short} ran out of space, the other engine did not")
        return 1
    diffs = compare(
        snapshot(kernel_device, kernel_result),
        snapshot(fast_device, fast_result),
        label,
    )
    for line in diffs:
        print(f"  DIFF {line}")
    status = "OK " if not diffs else "BAD"
    stats = kernel_device.stats
    print(
        f"{status} {label}: kernel {kernel_s*1e3:7.1f} ms, "
        f"fast {fast_s*1e3:7.1f} ms ({kernel_s/max(fast_s, 1e-9):5.1f}x)"
        f"  gc={stats.gc_collections} retries={stats.read_retries}"
    )
    return len(diffs)


if __name__ == "__main__":
    sys.exit(main())
