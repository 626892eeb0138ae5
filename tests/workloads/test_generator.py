"""Calibration and determinism tests for the statistical trace generator.

The full-size calibration checks (every Table III/IV column we control)
run on a few representative applications to keep the suite fast; the
experiment harness covers all 25.
"""

import numpy as np
import pytest

from repro.analysis.locality import measure as measure_localities
from repro.metrics.buckets import size_histogram
from repro.trace import SECTOR, validate_trace
from repro.workloads import (
    DEVICE_BYTES,
    TABLE_III,
    TABLE_IV,
    generate_all,
    generate_trace,
)
from repro.workloads.paper_data import effective_num_requests

REPRESENTATIVE = ("Twitter", "Movie", "Booting", "CameraVideo", "Idle", "Music/FB")


class TestBasics:
    def test_deterministic_per_seed(self):
        first = generate_trace("Email", num_requests=300)
        second = generate_trace("Email", num_requests=300)
        assert [
            (r.arrival_us, r.lba, r.size, r.op) for r in first
        ] == [(r.arrival_us, r.lba, r.size, r.op) for r in second]

    def test_different_seeds_differ(self):
        first = generate_trace("Email", seed=1, num_requests=300)
        second = generate_trace("Email", seed=2, num_requests=300)
        assert [r.lba for r in first] != [r.lba for r in second]

    def test_request_count_override(self):
        assert len(generate_trace("Email", num_requests=123)) == 123

    def test_full_count_matches_profile(self):
        trace = generate_trace("YouTube")
        assert len(trace) == effective_num_requests("YouTube")

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            generate_trace("Email", num_requests=0)

    def test_traces_are_valid_and_fit_device(self):
        for name in ("Twitter", "CameraVideo"):
            validate_trace(generate_trace(name, num_requests=500), device_bytes=DEVICE_BYTES)

    def test_metadata_recorded(self):
        trace = generate_trace("Email", seed=9, num_requests=10)
        assert trace.metadata["profile"] == "Email"
        assert trace.metadata["seed"] == "9"

    def test_generate_all_covers_25(self):
        traces = generate_all(num_requests=50)
        assert len(traces) == 25


@pytest.mark.parametrize("name", REPRESENTATIVE)
class TestCalibration:
    """Full-size traces must reproduce the published statistics."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {name: generate_trace(name) for name in REPRESENTATIVE}

    def test_write_request_pct(self, traces, name):
        trace = traces[name]
        write_pct = 100.0 * sum(r.is_write for r in trace) / len(trace)
        assert write_pct == pytest.approx(TABLE_III[name].write_req_pct, abs=2.5)

    def test_average_size(self, traces, name):
        trace = traces[name]
        avg_kib = np.mean([r.size for r in trace]) / 1024.0
        assert avg_kib == pytest.approx(TABLE_III[name].avg_size_kib, rel=0.15)

    def test_duration(self, traces, name):
        trace = traces[name]
        assert trace.duration_s == pytest.approx(TABLE_IV[name].duration_s, rel=0.15)

    def test_localities(self, traces, name):
        localities = measure_localities(traces[name])
        assert localities.spatial_pct == pytest.approx(
            TABLE_IV[name].spatial_locality_pct, abs=3.0
        )
        assert localities.temporal_pct == pytest.approx(
            TABLE_IV[name].temporal_locality_pct, abs=6.0
        )

    def test_4k_share_characteristic_2(self, traces, name):
        share = size_histogram([r.size for r in traces[name]])["<=4K"] * 100.0
        if name in ("Movie", "Booting", "CameraVideo"):
            assert share < 44.9
        elif name in TABLE_III and "/" not in name:
            assert 42.0 <= share <= 60.0
