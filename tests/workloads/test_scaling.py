"""Unit tests for trace scaling utilities.

The public ``scale_rate``/``scale_sizes`` are vectorized over the
trace's columns; the retired scalar implementations are kept as
``_reference_*`` oracles in ``tests/analysis/oracles.py`` and the
vectorized paths are asserted bit-identical to them, request for
request, over generated traces.
"""

import pytest

from repro.trace import KIB, MIB, Op, Request, Trace
from repro.workloads import generate_trace
from repro.workloads.scaling import scale_rate, scale_sizes, truncate

from ..analysis.oracles import _reference_scale_rate, _reference_scale_sizes


def _trace():
    return Trace("t", [
        Request(0.0, 0, 4 * KIB, Op.WRITE),
        Request(1000.0, 8 * KIB, 12 * KIB, Op.READ),
        Request(3000.0, 64 * KIB, 4 * KIB, Op.WRITE),
    ], metadata={"k": "v"})


class TestScaleRate:
    def test_compresses_time(self):
        scaled = scale_rate(_trace(), 2.0)
        assert [r.arrival_us for r in scaled] == [0.0, 500.0, 1500.0]
        assert scaled.arrival_rate() == pytest.approx(_trace().arrival_rate() * 2)

    def test_stretches_time(self):
        scaled = scale_rate(_trace(), 0.5)
        assert scaled.duration_us == pytest.approx(6000.0)

    def test_requests_untouched(self):
        scaled = scale_rate(_trace(), 4.0)
        assert [(r.lba, r.size, r.op) for r in scaled] == [
            (r.lba, r.size, r.op) for r in _trace()
        ]

    def test_metadata_annotated(self):
        scaled = scale_rate(_trace(), 2.0)
        assert scaled.metadata["rate_factor"] == "2"
        assert scaled.metadata["k"] == "v"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_rate(_trace(), 0.0)


class TestScaleSizes:
    def test_doubles_pages(self):
        scaled = scale_sizes(_trace(), 2.0)
        assert [r.size for r in scaled] == [8 * KIB, 24 * KIB, 8 * KIB]

    def test_never_below_one_page(self):
        scaled = scale_sizes(_trace(), 0.01)
        assert all(r.size == 4 * KIB for r in scaled)

    def test_capped_and_aligned(self):
        big = Trace("b", [Request(0.0, 0, 8 * MIB, Op.WRITE)])
        scaled = scale_sizes(big, 10.0, max_bytes=16 * MIB)
        assert scaled[0].size == 16 * MIB
        assert scaled[0].size % (4 * KIB) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_sizes(_trace(), -1.0)


class TestVectorizedAgainstScalarOracle:
    """The vectorized transforms must equal the scalar loops bit for bit."""

    @pytest.mark.parametrize("app", ["Twitter", "Facebook", "Music/WB"])
    @pytest.mark.parametrize("factor", [0.25, 0.5, 1.5, 3.0, 7.3])
    def test_scale_rate_matches_oracle(self, app, factor):
        trace = generate_trace(app, seed=3, num_requests=400)
        fast, oracle = scale_rate(trace, factor), _reference_scale_rate(trace, factor)
        assert fast.name == oracle.name
        assert fast.metadata == oracle.metadata
        assert fast.requests == oracle.requests  # float == is bit-identity

    @pytest.mark.parametrize("app", ["Twitter", "Facebook", "Music/WB"])
    @pytest.mark.parametrize("factor", [0.01, 0.5, 1.5, 2.5, 10.0])
    def test_scale_sizes_matches_oracle(self, app, factor):
        trace = generate_trace(app, seed=3, num_requests=400)
        fast = scale_sizes(trace, factor)
        oracle = _reference_scale_sizes(trace, factor)
        assert fast.name == oracle.name
        assert fast.metadata == oracle.metadata
        assert fast.requests == oracle.requests

    def test_scale_sizes_half_to_even_rounding_matches(self):
        # 1.5 pages and 2.5 pages both sit exactly on the rounding tie;
        # np.rint and round() must agree (both half-to-even).
        trace = Trace("ties", [
            Request(0.0, 0, 4 * KIB, Op.WRITE),      # 1 page * 1.5 = 1.5 -> 2
            Request(1.0, 8 * KIB, 8 * KIB, Op.WRITE),  # 2 pages * 1.25 = 2.5 -> 2
        ])
        for factor in (1.5, 1.25, 0.5, 2.5):
            fast = scale_sizes(trace, factor)
            oracle = _reference_scale_sizes(trace, factor)
            assert [r.size for r in fast] == [r.size for r in oracle]

    def test_scaled_trace_adopts_columns_without_rebuild(self):
        trace = generate_trace("Twitter", seed=3, num_requests=50)
        scaled = scale_rate(trace, 2.0)
        # from_columns installs the scaled columns as the cache: the
        # columnar view must be ready without a second conversion pass.
        assert scaled._columns is not None
        assert scaled.columns() is scaled._columns

    def test_replayed_timestamps_are_dropped(self):
        trace = generate_trace("Twitter", seed=3, num_requests=20)
        for transform in (lambda t: scale_rate(t, 2.0), lambda t: scale_sizes(t, 2.0)):
            scaled = transform(trace)
            assert all(r.service_start_us is None for r in scaled)
            assert all(r.finish_us is None for r in scaled)


class TestTruncate:
    def test_keeps_prefix(self):
        assert len(truncate(_trace(), 2)) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            truncate(_trace(), 0)
