"""Full-state parity of the fast path on generated geometries and traces.

Fixed grids (``test_parity.py``) cover the paper's workloads; this suite
draws the inputs instead.  Hypothesis picks a small geometry -- 1-2
channels, 1-2 planes per die, 6-24 blocks per kind, 4-32 pages per
block, a GC threshold of 1-3, a 4PS/8PS/HPS mix, ``multi_plane`` and
``gc_copyback`` -- a fault plan (transient reads at an error rate of 0,
0.05, 0.3 or 0.6 with a retry limit of 0-3 and no backoff or 37.5-200
us; program failures at 0, 0.01 or 0.05 and erase failures at 0, 0.02
or 0.1 with 2-8 spare blocks), and a seed for a hidden-state request
generator, after Harrison et al.'s hidden-Markov storage workloads.
Its states emit the shapes that independent random draws rarely reach:

* rewrite bursts over a small hot set (stale-copy invalidation, GC);
* long writes across the span that fill the device toward its GC
  threshold, and past its capacity at the top fill level;
* writes that straddle the plane stripe by a page either way;
* reads of rewritten LPNs (the planner's fallback) and of LPNs no write
  ever touched (first-touch preload), beyond the span and inside it, where
  a later write may overwrite what the read preloaded;
* arrivals that tie the previous one, and idle gaps that land exactly on
  the power-down deadline -- the tie the timing pass breaks with a
  strict ``<``.

Every example replays on both engines, open and closed loop.  They must
end in equal full-state snapshots -- the fault injector's stream state
included, so both engines must draw exactly as often -- with the FTL
invariants intact, or both raise the same error: :class:`OutOfSpaceError`
(the fill level runs some examples past the device's capacity on
purpose) or :class:`SparePoolExhausted` (program and erase failures
retire blocks until a pool's spares run out).
"""

import os
import random
from contextlib import contextmanager

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.emmc import EmmcDevice, Geometry, OutOfSpaceError, PageKind
from repro.emmc.device import DeviceConfig
from repro.faults import FaultPlan, SparePoolExhausted
from repro.replay import REPLAY_FASTPATH_ENV
from repro.replay.parity import compare, snapshot
from repro.sim import Host
from repro.trace import Op, Request, SECTOR, Trace

MIXES = {
    "4PS": (PageKind.K4,),
    "8PS": (PageKind.K8,),
    "HPS": (PageKind.K4, PageKind.K8),
}

#: Program and erase failure rates; half the plans arm neither.
PROGRAM_RATES = (0.0, 0.0, 0.01, 0.05)
ERASE_RATES = (0.0, 0.0, 0.02, 0.1)

#: Hidden states.  TIE and IDLE borrow another state's request shape and
#: only change its arrival.
HOT, FILL, STRADDLE, REREAD, COLD, FRESH, TIE, IDLE = range(8)
SHAPES = (HOT, FILL, STRADDLE, REREAD, COLD, FRESH)
STATES = 8
#: Probability of staying in the current state (bursty workloads).
STAY = 0.6


@st.composite
def configs(draw):
    mix = draw(st.sampled_from(sorted(MIXES)))
    geometry = Geometry(
        channels=draw(st.integers(1, 2)),
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=draw(st.integers(1, 2)),
        blocks_per_plane={kind: draw(st.integers(6, 24)) for kind in MIXES[mix]},
        pages_per_block=draw(st.integers(4, 32)),
    )
    return DeviceConfig(
        name=f"generated-{mix}",
        geometry=geometry,
        gc_threshold_blocks=draw(st.integers(1, 3)),
        multi_plane=draw(st.booleans()),
        gc_copyback=draw(st.booleans()),
    )


#: The errors both engines must raise alike, or the example fails.
DEVICE_ERRORS = (OutOfSpaceError, SparePoolExhausted)


@st.composite
def fault_plans(draw):
    return FaultPlan(
        seed=draw(st.integers(0, 2**32 - 1)),
        read_error_rate=draw(st.sampled_from((0.0, 0.05, 0.3, 0.6))),
        read_retry_limit=draw(st.integers(0, 3)),
        read_retry_backoff_us=draw(
            st.one_of(st.just(0.0), st.floats(37.5, 200.0))
        ),
        program_error_rate=draw(st.sampled_from(PROGRAM_RATES)),
        erase_error_rate=draw(st.sampled_from(ERASE_RATES)),
        spare_blocks_per_plane=draw(st.integers(2, 8)),
    )


def hidden_state_requests(config, seed, fill, count):
    """``count`` rows of ``(op, lpn, pages, gap_us, idle, synchronous)``.

    ``fill`` scales the written LPN span to the device's LPN capacity, so
    values near or above 1 drive GC hard and may exhaust the device.
    """
    rng = random.Random(seed)
    geometry = config.geometry
    stripe = geometry.num_planes * max(kind.slots for kind in geometry.kinds())
    capacity = geometry.num_planes * sum(
        blocks * geometry.pages_for(kind) * kind.slots
        for kind, blocks in geometry.blocks_per_plane.items()
    )
    span = max(stripe + 2, int(capacity * fill))
    hot = [rng.randrange(span) for _ in range(6)]
    cold_base = span + 4 * stripe + 64  # beyond every write
    threshold = config.latency.power_threshold_us
    written = []
    written_lpns = set()
    rows = []
    state = rng.randrange(len(SHAPES))
    for _ in range(count):
        if rng.random() > STAY:
            state = rng.randrange(STATES)
        shape = rng.choice(SHAPES) if state in (TIE, IDLE) else state
        if shape == REREAD and not written:
            shape = COLD
        if shape == FRESH:
            # A never-written LPN inside the span, read up to the next
            # written one: a first touch that a later write may overwrite.
            lpn = rng.randrange(span)
            if lpn in written_lpns:
                shape = COLD
        if shape == HOT:
            op, lpn, pages = Op.WRITE, rng.choice(hot), rng.randint(1, 3)
        elif shape == FILL:
            op, lpn = Op.WRITE, rng.randrange(span)
            pages = rng.randint(stripe, max(stripe, capacity // 8))
        elif shape == STRADDLE:
            op, lpn = Op.WRITE, rng.randrange(span)
            pages = stripe + rng.choice((-1, 0, 1, stripe - 1, stripe + 1))
        elif shape == REREAD:
            start, length = rng.choice(written[-8:])
            offset = rng.randrange(length)
            op, lpn = Op.READ, start + offset
            pages = rng.randint(1, length - offset + 1)
        elif shape == FRESH:
            op, pages = Op.READ, 1
            limit = rng.randint(1, 2 * stripe + 1)
            while pages < limit and lpn + pages not in written_lpns:
                pages += 1
        else:
            op, lpn = Op.READ, cold_base + rng.randrange(4 * stripe + 16)
            pages = rng.randint(1, 2 * stripe + 1)
        pages = max(1, pages)
        if op is Op.WRITE:
            written.append((lpn, pages))
            written_lpns.update(range(lpn, lpn + pages))
        if state == TIE:
            gap = 0.0
        elif state == IDLE:
            gap = threshold
        elif shape == HOT:
            gap = rng.choice((0.0, rng.uniform(0.0, 40.0)))
        else:
            gap = rng.uniform(0.0, 3000.0)
        rows.append((op, lpn, pages, gap, state == IDLE, rng.random() < 0.5))
    return rows


def open_loop_trace(config, plan, rows):
    """The rows as an open-loop trace.

    An IDLE row arrives exactly at the power-down deadline its
    predecessor leaves behind.  The deadline comes from a pacing device,
    under the same fault plan, fed one request at a time on the event
    kernel; if the pacer runs out of space or spares, later IDLE rows
    fall back to their plain gap.
    """
    pacer = EmmcDevice(config, faults=plan)
    pacing = True
    arrival = 0.0
    requests = []
    for op, lpn, pages, gap, idle, _ in rows:
        if idle and pacing and requests:
            arrival = pacer.timing.power_down_us
        else:
            arrival += gap
        request = Request(arrival, lpn * SECTOR, pages * SECTOR, op)
        requests.append(request)
        if pacing:
            try:
                pacer.submit(request)
            except DEVICE_ERRORS:
                pacing = False
    return Trace("hidden-state", requests)


@contextmanager
def _engine(mode):
    saved = os.environ.get(REPLAY_FASTPATH_ENV)
    os.environ[REPLAY_FASTPATH_ENV] = mode
    try:
        yield
    finally:
        if saved is None:
            del os.environ[REPLAY_FASTPATH_ENV]
        else:
            os.environ[REPLAY_FASTPATH_ENV] = saved


def _replay(config, plan, mode, call):
    """``(device, result, None)``, or ``(device, None, error type)``."""
    with _engine(mode):
        device = EmmcDevice(config, faults=plan)
        try:
            return device, call(Host(device)), None
        except DEVICE_ERRORS as error:
            return device, None, type(error)


def _assert_engines_agree(config, plan, call):
    kernel_device, kernel_result, kernel_error = _replay(config, plan, "off", call)
    fast_device, fast_result, fast_error = _replay(config, plan, "require", call)
    assert kernel_error is fast_error
    if kernel_error is not None:
        return
    assert compare(
        snapshot(kernel_device, kernel_result), snapshot(fast_device, fast_result)
    ) == []
    kernel_device.ftl.check_invariants()
    fast_device.ftl.check_invariants()


EXAMPLE = dict(
    config=configs(),
    plan=fault_plans(),
    seed=st.integers(0, 2**32 - 1),
    fill=st.sampled_from((0.25, 0.5, 0.8, 1.1)),
    count=st.integers(10, 150),
)
SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(**EXAMPLE)
@SETTINGS
def test_open_loop_engines_agree(config, plan, seed, fill, count):
    rows = hidden_state_requests(config, seed, fill, count)
    trace = open_loop_trace(config, plan, rows)
    _assert_engines_agree(config, plan, lambda host: host.replay(trace))


@given(**EXAMPLE)
@SETTINGS
def test_closed_loop_engines_agree(config, plan, seed, fill, count):
    rows = hidden_state_requests(config, seed, fill, count)
    lba = np.array([lpn * SECTOR for _, lpn, _, _, _, _ in rows], dtype=np.int64)
    size = np.array([pages * SECTOR for _, _, pages, _, _, _ in rows], dtype=np.int64)
    ops = [op for op, _, _, _, _, _ in rows]
    gaps = [gap for _, _, _, gap, _, _ in rows[1:]]
    synchronous = [idle or sync for _, _, _, _, idle, sync in rows[1:]]
    _assert_engines_agree(
        config,
        plan,
        lambda host: host.replay_closed_loop(lba, size, ops, gaps, synchronous),
    )
