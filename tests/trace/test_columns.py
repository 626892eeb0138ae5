"""Tests for the columnar struct-of-arrays layer (repro.trace.columns)."""

import pickle

import numpy as np
import pytest

from repro.trace import (
    FLAG_HAS_FINISH,
    FLAG_HAS_SERVICE,
    OP_READ,
    OP_WRITE,
    Op,
    Request,
    SECTOR,
    Trace,
    TraceColumns,
    sequential_sum,
)
from repro.trace.columns import COLUMN_NAMES


def _mixed_requests():
    """A small hand-built list mixing replayed and never-replayed records."""
    return [
        Request(arrival_us=0.0, lba=0, size=SECTOR, op=Op.READ),
        Request(
            arrival_us=10.0,
            lba=SECTOR,
            size=2 * SECTOR,
            op=Op.WRITE,
            service_start_us=12.0,
            finish_us=20.0,
        ),
        Request(
            arrival_us=15.0,
            lba=8 * SECTOR,
            size=SECTOR,
            op=Op.WRITE,
            service_start_us=20.0,
            finish_us=31.5,
        ),
        Request(arrival_us=40.0, lba=3 * SECTOR, size=4 * SECTOR, op=Op.READ),
    ]


# -- sequential_sum -----------------------------------------------------------


def test_sequential_sum_matches_builtin_sum_bitwise():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 10, 1000, 4097):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
        assert sequential_sum(values) == sum(values.tolist())


def test_sequential_sum_empty_is_zero():
    assert sequential_sum(np.empty(0)) == 0.0


# -- construction / schema ----------------------------------------------------


def test_from_requests_schema_and_flags():
    columns = TraceColumns.from_requests(_mixed_requests())
    assert len(columns) == 4
    assert columns.arrival_us.dtype == np.float64
    assert columns.service_start_us.dtype == np.float64
    assert columns.complete_us.dtype == np.float64
    assert columns.lba.dtype == np.int64
    assert columns.size.dtype == np.int64
    assert columns.op.dtype == np.uint8
    assert columns.flags.dtype == np.uint8
    # NaN where never replayed; flags mark the replayed rows.
    assert np.isnan(columns.service_start_us[0]) and np.isnan(columns.complete_us[0])
    assert columns.service_start_us[1] == 12.0 and columns.complete_us[2] == 31.5
    expected_flags = FLAG_HAS_SERVICE | FLAG_HAS_FINISH
    assert list(columns.flags) == [0, expected_flags, expected_flags, 0]
    assert list(columns.op) == [OP_READ, OP_WRITE, OP_WRITE, OP_READ]


def test_roundtrip_to_requests():
    requests = _mixed_requests()
    assert TraceColumns.from_requests(requests).to_requests() == requests


def test_empty_columns():
    columns = TraceColumns.empty()
    assert len(columns) == 0
    assert columns.inter_arrival_us.size == 0
    assert columns.completed_mask.size == 0
    assert TraceColumns.from_requests([]).to_requests() == []


def test_length_mismatch_rejected():
    good = TraceColumns.from_requests(_mixed_requests())
    with pytest.raises(ValueError):
        TraceColumns(
            good.arrival_us,
            good.service_start_us[:2],
            good.complete_us,
            good.lba,
            good.size,
            good.op,
            good.flags,
        )


# -- masks and derived columns ------------------------------------------------


def test_masks_and_caching():
    columns = TraceColumns.from_requests(_mixed_requests())
    assert list(columns.read_mask) == [True, False, False, True]
    assert list(columns.write_mask) == [False, True, True, False]
    assert list(columns.completed_mask) == [False, True, True, False]
    # Cached: repeated access returns the identical array object.
    assert columns.read_mask is columns.read_mask
    assert columns.completed_mask is columns.completed_mask


def test_derived_columns():
    columns = TraceColumns.from_requests(_mixed_requests())
    assert list(columns.end_lba) == [SECTOR, 3 * SECTOR, 9 * SECTOR, 7 * SECTOR]
    assert columns.inter_arrival_us.tolist() == [10.0, 5.0, 25.0]
    assert columns.wait_us[1] == 2.0
    assert columns.service_us[2] == 11.5
    assert columns.response_us[1] == 10.0
    assert np.isnan(columns.wait_us[0]) and np.isnan(columns.response_us[3])


def test_select_slice_is_view_mask_is_copy():
    columns = TraceColumns.from_requests(_mixed_requests())
    sliced = columns.select(slice(1, 3))
    assert len(sliced) == 2
    assert sliced.arrival_us.base is columns.arrival_us  # zero-copy view
    masked = columns.select(columns.write_mask)
    assert len(masked) == 2
    assert masked.arrival_us.base is None  # NumPy fancy indexing copies
    assert masked.lba.tolist() == [SECTOR, 8 * SECTOR]


def test_columns_pickle_roundtrip():
    columns = TraceColumns.from_requests(_mixed_requests())
    restored = pickle.loads(pickle.dumps(columns))
    assert restored.to_requests() == columns.to_requests()
    np.testing.assert_array_equal(restored.flags, columns.flags)


# -- Trace integration: the trace is its columns ------------------------------


def test_request_view_is_one_cached_tuple():
    columns = TraceColumns.from_requests(_mixed_requests())
    trace = Trace.from_columns("t", columns)
    assert trace.columns() is columns  # held, not rebuilt
    view = trace.requests
    assert isinstance(view, tuple)
    assert trace.requests is view  # built once
    assert list(view) == _mixed_requests()
    with pytest.raises(AttributeError):
        trace.requests = []


def test_trace_pickle_carries_columns_not_requests():
    trace = Trace(name="t", requests=_mixed_requests(), metadata={"k": "v"})
    trace.requests  # the view exists on this side
    wire = pickle.dumps(trace)
    assert b"repro.trace.record" not in wire  # no Request in the pickle
    restored = pickle.loads(wire)
    assert restored._requests is None
    assert restored == trace
    np.testing.assert_array_equal(restored.columns().lba, trace.columns().lba)
    assert list(restored) == _mixed_requests()
    with pytest.raises(TypeError):
        hash(trace)


def test_equality_is_row_equality():
    trace = Trace(name="t", requests=_mixed_requests())
    same = Trace.from_columns("t", TraceColumns.from_requests(_mixed_requests()))
    assert trace == same  # NaN service/finish columns compare equal
    assert trace != Trace(name="u", requests=_mixed_requests())
    assert trace != Trace(name="t", requests=_mixed_requests(), metadata={"k": "v"})
    assert trace != Trace(name="t", requests=_mixed_requests()[:3])
    moved = _mixed_requests()
    moved[3] = Request(arrival_us=40.0, lba=4 * SECTOR, size=4 * SECTOR, op=Op.READ)
    assert trace != Trace(name="t", requests=moved)


def test_from_columns_sorts_stably():
    a = Request(arrival_us=5.0, lba=0, size=SECTOR, op=Op.READ)
    b = Request(arrival_us=1.0, lba=SECTOR, size=SECTOR, op=Op.WRITE)
    c = Request(arrival_us=5.0, lba=2 * SECTOR, size=SECTOR, op=Op.WRITE)
    d = Request(arrival_us=1.0, lba=3 * SECTOR, size=SECTOR, op=Op.READ)
    trace = Trace.from_columns("t", TraceColumns.from_requests([a, b, c, d]))
    assert list(trace.requests) == [b, d, a, c]
    assert list(trace.requests) == list(Trace(name="t", requests=[a, b, c, d]).requests)


@pytest.mark.parametrize(
    "column, row, value, message",
    [
        ("arrival_us", 2, -1.0, "arrival_us must be >= 0"),
        ("lba", 1, 100, "lba must be a non-negative multiple"),
        ("size", 3, 0, "size must be a positive multiple"),
        ("service_start_us", 1, 9.0, "service_start_us precedes arrival_us"),
        ("complete_us", 2, 19.0, "finish_us precedes service_start_us"),
        ("flags", 1, FLAG_HAS_FINISH, "finish_us set without service_start_us"),
    ],
)
def test_from_columns_rejects_the_first_invalid_row(column, row, value, message):
    columns = TraceColumns.from_requests(_mixed_requests())
    bad = getattr(columns, column).copy()
    bad[row] = value
    fields = {name: getattr(columns, name) for name in COLUMN_NAMES}
    fields[column] = bad
    with pytest.raises(ValueError, match=message):
        Trace.from_columns("bad", TraceColumns(**fields))


def test_without_timing_shares_untimed_columns():
    columns = TraceColumns.from_requests([r.without_timing() for r in _mixed_requests()])
    stripped = Trace.from_columns("t", columns).without_timing()
    assert stripped.columns() is columns  # nothing to strip: the arrays are shared
    # A trace with device timestamps really strips them.
    stripped = Trace(name="r", requests=_mixed_requests()).without_timing()
    assert all(r.finish_us is None for r in stripped)
    assert not stripped.columns().flags.any()
    assert np.isnan(stripped.columns().service_start_us).all()


# -- constructor sort behaviour (the O(n log n) skip) -------------------------


def test_constructor_preserves_already_sorted_input():
    requests = _mixed_requests()
    trace = Trace(name="t", requests=requests)
    assert list(trace.requests) == requests
    assert trace.requests is not requests  # defensive copy either way


def test_constructor_sorts_unsorted_input():
    requests = _mixed_requests()
    shuffled = [requests[2], requests[0], requests[3], requests[1]]
    trace = Trace(name="t", requests=shuffled)
    assert list(trace.requests) == sorted(shuffled, key=lambda r: r.arrival_us)
    assert [r.arrival_us for r in trace.requests] == [0.0, 10.0, 15.0, 40.0]


def test_constructor_keeps_equal_arrivals_stable():
    a = Request(arrival_us=5.0, lba=0, size=SECTOR, op=Op.READ)
    b = Request(arrival_us=5.0, lba=SECTOR, size=SECTOR, op=Op.WRITE)
    trace = Trace(name="t", requests=[a, b])
    assert trace.requests[0] is a and trace.requests[1] is b
