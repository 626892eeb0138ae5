"""Exhaustive full-state parity sweep: replay fast path vs event kernel.

Replays six representative traces on the four full-size and three small
device configs, plus a copy-back variant of each small config, twice --
``REPRO_REPLAY_FASTPATH=off`` then ``require`` -- under five fault
plans: fault-free, two transient read-fault plans (the
``transient-reads`` profile and a 0.5 error rate), and two plans that
fail programs and erases and retire blocks into spares (program and
erase failures together, and erase failures alone).  Each line diffs
the whole device with :mod:`repro.replay.parity`: every ``DeviceStats``
field, the timing state (admission queue, power state, resource
frontiers), fault-injector stream states, kernel clock, the FTL's
mapping, blocks, pools, cursor and GC totals, and the columns of the
returned trace (arrival, service start and completion times included).
Any mismatch prints the first diverging element and the two values::

    PYTHONHASHSEED=0 python tools/replay_parity.py

Exit code is non-zero on any divergence. The small configs push the
write-heavy traces into thousands of GC cycles, exercising the
planner's per-request fallback. A line that exhausts flash
(``OutOfSpaceError``) or a pool's spare blocks (``SparePoolExhausted``)
must raise the same error on *both* engines, and is flagged when only
one does. Smaller versions of these checks run per commit in
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
from repro.faults import FaultPlan, SparePoolExhausted
from repro.replay.parity import compare, snapshot
from repro.sim import Host
from repro.workloads import generate_trace


#: (label suffix, fault plan): fault-free, two read-fault plans, then
#: two program/erase plans.  (The stock ``wearout`` profile exhausts the
#: spares of full-size 4PS on a 4,000-request Twitter trace.)
PLANS = [
    ("", None),
    ("/transient-reads", FaultPlan.profile("transient-reads", seed=7)),
    ("/read-0.5", FaultPlan(seed=7, read_error_rate=0.5)),
    (
        "/program-erase",
        FaultPlan(
            seed=7,
            program_error_rate=0.0005,
            erase_error_rate=0.005,
            spare_blocks_per_plane=8,
        ),
    ),
    ("/erase-0.003", FaultPlan(seed=7, erase_error_rate=0.003, spare_blocks_per_plane=8)),
]

#: The errors both engines must raise alike.
DEVICE_ERRORS = (OutOfSpaceError, SparePoolExhausted)


def run(config, trace, plan, mode):
    """Replay on a fresh device: ``(device, result, error type, seconds)``.

    ``result`` is ``None`` when the replay raised one of
    :data:`DEVICE_ERRORS`, and the error type is ``None`` when it did not.
    """
    os.environ["REPRO_REPLAY_FASTPATH"] = mode
    device = EmmcDevice(config, faults=plan)
    start = time.perf_counter()
    try:
        result = Host(device).replay(trace.without_timing())
    except DEVICE_ERRORS as error:
        return device, None, type(error), time.perf_counter() - start
    return device, result, None, time.perf_counter() - start


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
    kernel_device, kernel_result, kernel_error, kernel_s = run(config, trace, plan, "off")
    fast_device, fast_result, fast_error, fast_s = run(config, trace, plan, "require")
    if kernel_error is not fast_error:
        print(
            f"BAD {label}: {_outcome(kernel_error)} on the kernel, "
            f"{_outcome(fast_error)} on the fast path"
        )
        return 1
    if kernel_error is not None:
        print(f"OK  {label}: {kernel_error.__name__} on both engines")
        return 0
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
        f" program-fails={stats.program_failures} erase-fails={stats.erase_failures}"
    )
    return len(diffs)


def _outcome(error):
    return "no error" if error is None else error.__name__


if __name__ == "__main__":
    sys.exit(main())
