"""The serve step's routines, against hand-computed values.

Both replay engines call :func:`repro.emmc.reserve.admit`,
:func:`~repro.emmc.reserve.reserve`, :func:`~repro.emmc.reserve.complete`
and :func:`~repro.emmc.reserve.power_down`, so engine parity cannot see
a mistake inside them.  These cases pin their arithmetic directly:
admission at depth 1 and at depth 2 (the in-flight heap), the idle-gap
split, the wake-up charge and its strict threshold comparison, the
power-down flag, op order on the controller, unit and channel frontiers,
copy-back, and the ECC read-retry branch driven by a scripted injector.
"""

from types import SimpleNamespace

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.emmc.ops import FlashOp, FlashOpType
from repro.emmc.reserve import (
    ERASE,
    PROGRAM,
    READ,
    OpRows,
    TimingState,
    admit,
    complete,
    power_down,
    reserve,
)
from repro.emmc.stats import DeviceStats

OVERHEAD = 10.0
READ_US = 50.0
PROGRAM_US = 400.0
XFER_US = 70.0
THRESHOLD = 100.0
WARMUP = 10.0


class ScriptedFaults:
    """An injector whose ``read_failures()`` returns scripted counts."""

    def __init__(self, failures, limit=3, backoff=100.0):
        self.failures = list(failures)
        self.draws = 0
        self.plan = SimpleNamespace(read_retry_limit=limit, read_retry_backoff_us=backoff)

    def read_failures(self):
        self.draws += 1
        return self.failures.pop(0)


def _state(copyback=False, depth=1, threshold=THRESHOLD):
    state = TimingState(
        channels=2,
        units=2,
        ftl_overhead_us=OVERHEAD,
        copyback=copyback,
        depth=depth,
        power_threshold_us=threshold,
        warmup_us=WARMUP,
    )
    state.load(DeviceStats())
    return state


class TestAdmission:
    """Dispatch instants and queue counts (no idle gap reaches the threshold)."""

    def test_depth_one_serializes(self):
        state = _state(threshold=1e9)
        assert admit(state, 0.0) == (0.0, 0.0)
        complete(state, 100.0)
        assert admit(state, 10.0) == (100.0, 100.0)  # waits for the device
        complete(state, 150.0)
        assert admit(state, 200.0) == (200.0, 200.0)  # device already idle
        complete(state, 260.0)
        assert state.busy_until == 260.0
        assert (state.dispatches, state.slot_waits, state.max_in_flight) == (3, 1, 1)

    def test_depth_two_overlaps_until_full(self):
        state = _state(depth=2, threshold=1e9)
        assert admit(state, 0.0) == (0.0, 0.0)
        complete(state, 100.0)
        assert admit(state, 0.0) == (0.0, 0.0)  # second slot free
        complete(state, 50.0)
        # Both in flight at t=10: wait for the earliest completion (50).
        assert admit(state, 10.0) == (50.0, 50.0)
        complete(state, 120.0)
        assert sorted(state.in_flight) == [100.0, 120.0]
        assert (state.slot_waits, state.max_in_flight) == (1, 2)
        # By t=200 everything has drained.
        assert admit(state, 200.0) == (200.0, 200.0)
        assert state.in_flight == []
        assert (state.dispatches, state.slot_waits) == (4, 1)
        # The heap, not busy_until, is the depth-2 queue.
        assert state.busy_until == 0.0

    def test_a_slot_freed_before_the_arrival_costs_no_wait(self):
        state = _state(depth=2, threshold=1e9)
        for finish in (30.0, 40.0):
            admit(state, 0.0)
            complete(state, finish)
        assert admit(state, 35.0) == (35.0, 35.0)  # 30 has left the queue
        assert state.in_flight == [40.0]
        assert state.slot_waits == 0


class TestPower:
    def test_starts_active(self):
        state = _state()
        assert admit(state, 0.0) == (0.0, 0.0)
        assert (state.wakeups, state.low_power) == (0, False)

    def test_no_penalty_within_the_threshold(self):
        state = _state()
        complete(state, 50.0)
        assert admit(state, 140.0) == (140.0, 140.0)
        assert state.wakeups == 0

    def test_wakeup_after_the_threshold(self):
        state = _state()
        complete(state, 50.0)
        assert admit(state, 151.0) == (151.0, 151.0 + WARMUP)
        assert state.wakeups == 1

    def test_exactly_at_the_threshold_stays_active(self):
        # The comparison is strict: a gap equal to the threshold is awake.
        state = _state()
        complete(state, 0.0)
        assert admit(state, THRESHOLD) == (THRESHOLD, THRESHOLD)
        assert state.wakeups == 0
        state = _state()
        complete(state, 0.0)
        assert admit(state, THRESHOLD + 0.0001)[1] == THRESHOLD + 0.0001 + WARMUP
        assert state.wakeups == 1

    def test_idle_gap_split_at_the_threshold(self):
        state = _state()
        complete(state, 0.0)
        admit(state, 500.0)
        assert (state.active_idle_us, state.low_power_us) == (THRESHOLD, 400.0)
        complete(state, 520.0)
        admit(state, 580.0)
        assert (state.active_idle_us, state.low_power_us) == (THRESHOLD + 60.0, 400.0)

    def test_overlapping_dispatch_accounts_no_idle(self):
        state = _state(depth=2)
        admit(state, 0.0)
        complete(state, 100.0)
        assert admit(state, 10.0) == (10.0, 10.0)  # gap -90: not idle
        assert (state.active_idle_us, state.low_power_us, state.wakeups) == (0.0, 0.0, 0)

    def test_activity_end_is_monotonic(self):
        state = _state(depth=2)
        complete(state, 100.0)
        complete(state, 50.0)
        assert state.last_end == 100.0
        assert state.power_down_us == 100.0 + THRESHOLD

    def test_power_down_counts_once_per_idle_period(self):
        state = _state()
        power_down(state)
        power_down(state)
        assert (state.low_power, state.low_power_entries) == (True, 1)
        admit(state, 0.0)  # the dispatch wakes the device
        assert state.low_power is False
        power_down(state)
        assert state.low_power_entries == 2

    def test_reset_empties_the_queue_and_keeps_the_lifetime_counts(self):
        state = _state()
        admit(state, 0.0)
        complete(state, 500.0)
        power_down(state)
        state.reset(300.0)  # a finish beyond the resume instant still counts
        assert state.host() == {
            "queue": (0.0, 0, 0, 0),
            "power": (500.0, False, 1),
        }
        state.reset(900.0)
        assert state.last_end == 900.0


def _read(gc=False):
    return (READ, 0, 0, READ_US, XFER_US, gc)


def test_read_then_program_in_op_order():
    state = _state()
    legs = []
    rows = [_read(), (PROGRAM, 0, 0, PROGRAM_US, XFER_US, False)]
    finish = reserve(state, rows, 100.0, legs=legs)
    # Read: issue 100-110, sense 110-160, transfer 160-230.
    # Program: issue 110-120, transfer 230-300 (channel busy), program
    # 300-700 (unit free at 160).
    assert finish == 700.0
    assert [leg[4:8] for leg in legs] == [
        (100.0, 110.0, (110.0, 160.0), (160.0, 230.0)),
        (110.0, 120.0, (300.0, 700.0), (230.0, 300.0)),
    ]
    assert state.resources() == {
        "controller": (120.0, 2 * OVERHEAD, 2),
        "channels": [(300.0, 2 * XFER_US, 2), (0.0, 0.0, 0)],
        "units": [(700.0, READ_US + PROGRAM_US, 2), (0.0, 0.0, 0)],
    }
    assert state.busy_read_us == READ_US
    assert state.busy_program_us == PROGRAM_US
    assert state.busy_transfer_us == 2 * XFER_US


def test_erase_occupies_the_unit_only():
    state = _state()
    finish = reserve(state, [(ERASE, 1, 1, 3800.0, 0.0, True)], 0.0)
    assert finish == OVERHEAD + 3800.0
    assert state.erases == 1 and state.busy_erase_us == 3800.0
    assert state.ch_count == [0, 0]


@pytest.mark.parametrize("code", [READ, PROGRAM])
def test_copyback_skips_the_channel_for_gc_rows_only(code):
    state = _state(copyback=True)
    reserve(state, [(code, 0, 0, READ_US, XFER_US, True)], 0.0)
    assert state.ch_count == [0, 0] and state.busy_transfer_us == 0.0
    reserve(state, [(code, 0, 0, READ_US, XFER_US, False)], 0.0)
    assert state.ch_count == [1, 0]


def test_corrected_read_retries_after_growing_backoffs():
    state = _state()
    faults = ScriptedFaults([2], limit=3, backoff=100.0)
    retries, legs = [], []
    finish = reserve(state, [_read()], 0.0, faults, retries, legs)
    # Sense 10-60; retry 1 at 60+100=160 until 210; retry 2 at
    # 210+200=410 until 460; then the transfer, 460-530.
    assert retries == [(1, 160.0), (2, 410.0)]
    assert legs[0][8] == ((160.0, 210.0), (410.0, 460.0))
    assert legs[0][7] == (460.0, 530.0)
    assert finish == 530.0
    assert state.read_retries == 2
    assert state.read_retry_backoff_us == 300.0
    assert state.busy_read_us == 3 * READ_US
    assert (state.corrected_reads, state.uncorrectable_reads) == (1, 0)


def test_failures_at_the_limit_are_still_corrected():
    state = _state()
    reserve(state, [_read()], 0.0, ScriptedFaults([3], limit=3))
    assert (state.corrected_reads, state.uncorrectable_reads) == (1, 0)
    assert state.ch_count == [1, 0]


def test_uncorrectable_read_moves_no_data():
    state = _state()
    faults = ScriptedFaults([4], limit=3, backoff=0.0)
    legs = []
    finish = reserve(state, [_read()], 0.0, faults, legs=legs)
    assert (state.corrected_reads, state.uncorrectable_reads) == (0, 1)
    assert state.read_retries == 3
    assert state.ch_count == [0, 0] and state.busy_transfer_us == 0.0
    assert legs[0][7] is None
    assert finish == OVERHEAD + 4 * READ_US


def test_every_read_row_draws_once_gc_reads_included():
    faults = ScriptedFaults([0, 0, 0])
    rows = [_read(), _read(gc=True), (PROGRAM, 1, 1, PROGRAM_US, XFER_US, True), _read(gc=True)]
    reserve(_state(), rows, 0.0, faults)
    assert faults.draws == 3


def test_op_rows_match_the_flash_ops():
    device = EmmcDevice(small_four_ps())
    geometry = device.geometry
    kind = geometry.kinds()[0]
    ops = [
        FlashOp(FlashOpType.READ, 1, kind, 4096),
        FlashOp(FlashOpType.PROGRAM, 2, kind, kind.bytes, gc=True),
        FlashOp(FlashOpType.ERASE, 3, kind, 0, gc=True),
    ]
    latency = device.latency
    assert OpRows(geometry, latency, multi_plane=False).of(ops) == [
        (READ, geometry.die_of(1), geometry.channel_of(1),
         latency.timing(kind).read_us, latency.transfer_us(4096), False),
        (PROGRAM, geometry.die_of(2), geometry.channel_of(2),
         latency.timing(kind).program_us, latency.transfer_us(kind.bytes), True),
        (ERASE, geometry.die_of(3), geometry.channel_of(3), latency.erase_us, 0.0, True),
    ]
    assert [row[1] for row in OpRows(geometry, latency, multi_plane=True).of(ops)] == [1, 2, 3]
