"""The op-row reservation routine, against hand-computed windows.

Both replay engines call :func:`repro.emmc.reserve.reserve`, so engine
parity cannot see a mistake inside it.  These cases pin its arithmetic
directly: op order on the controller, unit and channel frontiers,
copy-back, and the ECC read-retry branch driven by a scripted injector.
"""

from types import SimpleNamespace

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.emmc.ops import FlashOp, FlashOpType
from repro.emmc.reserve import ERASE, PROGRAM, READ, OpRows, TimingState, reserve
from repro.emmc.stats import DeviceStats

OVERHEAD = 10.0
READ_US = 50.0
PROGRAM_US = 400.0
XFER_US = 70.0


class ScriptedFaults:
    """An injector whose ``read_failures()`` returns scripted counts."""

    def __init__(self, failures, limit=3, backoff=100.0):
        self.failures = list(failures)
        self.draws = 0
        self.plan = SimpleNamespace(read_retry_limit=limit, read_retry_backoff_us=backoff)

    def read_failures(self):
        self.draws += 1
        return self.failures.pop(0)


def _state(copyback=False):
    state = TimingState(channels=2, units=2, ftl_overhead_us=OVERHEAD, copyback=copyback)
    state.load(DeviceStats())
    return state


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
