"""Unit tests for :class:`repro.metrics.reductions.OrderedSum`."""

import numpy as np
import pytest

from repro.metrics import OrderedSum, chunked
from repro.trace import sequential_sum
from repro.workloads import generate_trace


def _values(n=997, seed=3):
    rng = np.random.default_rng(seed)
    # Wildly varying magnitudes so naive re-ordering visibly drifts.
    return rng.standard_normal(n) * np.exp(rng.uniform(-20, 20, n))


class TestDeferred:
    def test_total_matches_sequential_sum(self):
        values = _values()
        ordered = OrderedSum()
        for start in range(0, len(values), 101):
            ordered.update(values[start : start + 101])
        assert ordered.total() == sequential_sum(values)
        assert ordered.count == len(values)

    def test_merge_is_exact_under_any_split(self):
        values = _values()
        expected = sequential_sum(values)
        rng = np.random.default_rng(0)
        for _ in range(10):
            cuts = np.sort(rng.choice(np.arange(1, len(values)), 4, replace=False))
            bounds = [0, *cuts.tolist(), len(values)]
            parts = []
            for a, b in zip(bounds, bounds[1:]):
                part = OrderedSum()
                for start in range(a, b, 37):
                    part.update(values[start : min(start + 37, b)])
                parts.append(part)
            # Left fold of the merge tree...
            left = parts[0]
            for part in parts[1:]:
                left.merge(part)
            assert left.total() == expected
            # ...and a right-heavy tree give the same bits (associative).
            parts2 = []
            for a, b in zip(bounds, bounds[1:]):
                part = OrderedSum()
                part.update(values[a:b])
                parts2.append(part)
            while len(parts2) > 1:
                right = parts2.pop()
                parts2[-1].merge(right)
            assert parts2[0].total() == expected

    def test_empty(self):
        assert OrderedSum().total() == 0.0
        assert OrderedSum().count == 0


class TestCollapsed:
    def test_carry_continues_fold_exactly(self):
        values = _values()
        collapsed = OrderedSum(collapse=True)
        for start in range(0, len(values), 53):
            collapsed.update(values[start : start + 53])
        assert collapsed.total() == sequential_sum(values)

    def test_chunk_size_never_changes_bits(self):
        values = _values(500, seed=8)
        expected = sequential_sum(values)
        for size in (1, 2, 7, 499, 500):
            collapsed = OrderedSum(collapse=True)
            for start in range(0, len(values), size):
                collapsed.update(values[start : start + size])
            assert collapsed.total() == expected

    def test_collapsed_absorbs_deferred_right_operand(self):
        values = _values(400, seed=4)
        left = OrderedSum(collapse=True)
        left.update(values[:150])
        right = OrderedSum()
        right.update(values[150:300])
        right.update(values[300:])
        left.merge(right)
        assert left.total() == sequential_sum(values)
        assert left.count == 400

    def test_collapsed_right_operand_rejected(self):
        left = OrderedSum()
        right = OrderedSum(collapse=True)
        right.update(np.ones(3))
        with pytest.raises(ValueError, match="collapsed"):
            left.merge(right)

    def test_o1_state(self):
        collapsed = OrderedSum(collapse=True)
        for _ in range(100):
            collapsed.update(np.ones(1000))
        assert collapsed._segments == []  # nothing retained


class TestChunked:
    def test_chunks_cover_stream_in_order(self):
        trace = generate_trace("Email", seed=2, num_requests=113)
        columns = trace.columns()
        pieces = list(chunked(columns, 25))
        assert [len(p) for p in pieces] == [25, 25, 25, 25, 13]
        np.testing.assert_array_equal(
            np.concatenate([p.arrival_us for p in pieces]), columns.arrival_us
        )

    def test_zero_copy_views(self):
        trace = generate_trace("Email", seed=2, num_requests=50)
        columns = trace.columns()
        piece = next(iter(chunked(columns, 20)))
        assert piece.arrival_us.base is columns.arrival_us

    def test_invalid_chunk_rows(self):
        trace = generate_trace("Email", seed=2, num_requests=10)
        with pytest.raises(ValueError):
            list(chunked(trace.columns(), 0))
