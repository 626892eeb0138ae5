"""The eMMC device on the event kernel: overlap, timers, host replay.

The hand-computed scenario below pins the queue-depth semantics to exact
numbers.  Three 4 KB writes on the stock 4PS device (2 channels, K4 pages)
land on distinct planes striped across channels, so each expands to one
PROGRAM op with, from :class:`LatencyParams` defaults:

* controller (FTL) processing: 65 us, serialized device-wide;
* channel transfer: 20 us command overhead + 4096/60 us data;
* K4 page program: 1385 us.

One isolated write therefore finishes at ``65 + transfer + 1385``.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.trace import KIB, Op, Request, Trace
from repro.emmc import EmmcDevice, four_ps
from repro.sim import Host
from repro.telemetry import Telemetry

#: LatencyParams defaults, spelled out so the arithmetic is visible.
FTL_US = 65.0
TRANSFER_US = 20.0 + 4 * KIB / 60.0
PROGRAM_US = 1385.0
ONE_WRITE_US = FTL_US + TRANSFER_US + PROGRAM_US


def _three_writes(device):
    reqs = [
        Request(0.0, 0, 4 * KIB, Op.WRITE),
        Request(1.0, 256 * KIB, 4 * KIB, Op.WRITE),
        Request(2.0, 512 * KIB, 4 * KIB, Op.WRITE),
    ]
    return [device.submit(request) for request in reqs]


class TestQueueOverlapHandComputed:
    def test_depth_one_fully_serializes(self):
        a, b, c = _three_writes(EmmcDevice(four_ps()))
        assert a.finish_us == ONE_WRITE_US
        assert b.service_start_us == a.finish_us
        assert b.finish_us == 2 * ONE_WRITE_US
        assert c.finish_us == 3 * ONE_WRITE_US

    def test_depth_two_overlaps_dies_and_channels(self):
        a, b, c = _three_writes(EmmcDevice(four_ps(queue_depth=2)))
        assert a.finish_us == ONE_WRITE_US
        # B dispatches at its arrival (t=1): it only waits 65 us for the
        # serialized controller, then uses the *other* channel and die
        # while A's program is still in flight.
        assert b.service_start_us == 1.0
        assert b.finish_us == 2 * FTL_US + TRANSFER_US + PROGRAM_US
        assert b.finish_us == a.finish_us + FTL_US
        # C finds both slots busy and dispatches when A (the earliest
        # in-flight request) completes; its program overlaps nothing.
        assert c.service_start_us == a.finish_us
        assert c.finish_us == 2 * ONE_WRITE_US

    def test_overlap_beats_serial_end_to_end(self):
        serial = _three_writes(EmmcDevice(four_ps()))
        overlapped = _three_writes(EmmcDevice(four_ps(queue_depth=2)))
        assert overlapped[-1].finish_us < serial[-1].finish_us
        assert sum(r.response_us for r in overlapped) < sum(
            r.response_us for r in serial
        )


class TestQueueDepthMrt:
    def test_deeper_queue_strictly_lowers_mrt_on_bursty_trace(self):
        # Arrivals every 10 us against a ~1.5 ms service: a deep backlog.
        trace = Trace(
            name="burst",
            requests=[
                Request(i * 10.0, i * 256 * KIB, 4 * KIB, Op.WRITE)
                for i in range(24)
            ],
        )
        mrt = {}
        for depth in (1, 4):
            result = Host(EmmcDevice(four_ps(queue_depth=depth))).replay(trace)
            mrt[depth] = result.stats.mean_response_ms
        assert mrt[4] < mrt[1]


class TestActivityTimers:
    def test_power_down_fires_as_event_and_charges_warmup(self):
        device = EmmcDevice(four_ps())
        threshold = device.latency.power_threshold_us
        first = device.submit(Request(0.0, 0, 4 * KIB, Op.WRITE))
        second = device.submit(
            Request(first.finish_us + threshold + 1000.0, 256 * KIB, 4 * KIB, Op.WRITE)
        )
        # The POWER_DOWN timer fired during the gap (event-driven sleep),
        # and the dispatch paid the warm-up exactly once.
        assert device.timing.low_power_entries == 1
        assert device.stats.wakeups == 1
        assert not device.timing.low_power  # awake again after the dispatch
        assert second.service_us == pytest.approx(
            first.service_us + device.latency.warmup_us
        )

    def test_arrival_just_inside_threshold_cancels_power_down(self):
        device = EmmcDevice(four_ps())
        threshold = device.latency.power_threshold_us
        first = device.submit(Request(0.0, 0, 4 * KIB, Op.WRITE))
        second = device.submit(
            Request(first.finish_us + threshold, 256 * KIB, 4 * KIB, Op.WRITE)
        )
        # Old model slept only for gaps *strictly* beyond the threshold; an
        # arrival exactly at the deadline wins the tie and cancels it.
        assert device.timing.low_power_entries == 0
        assert device.stats.wakeups == 0
        assert second.service_us == pytest.approx(first.service_us)

    def test_trailing_timers_never_fire(self):
        device = EmmcDevice(four_ps())
        Host(device).replay(
            Trace(name="one", requests=[Request(0.0, 0, 4 * KIB, Op.WRITE)])
        )
        # The speculative power-down deadline after the last request stays
        # pending: nothing happens after the end of a trace.
        assert device.timing.low_power_entries == 0
        assert device.kernel.pending_material() == 0
        assert len(device.kernel) > 0


class TestHostReplay:
    def _trace(self, count=6):
        return Trace(
            name="t",
            requests=[
                Request(i * 500.0, i * 64 * KIB, 4 * KIB, Op.WRITE)
                for i in range(count)
            ],
        )

    def test_replay_equals_submit_loop(self):
        via_host = Host(EmmcDevice(four_ps())).replay(self._trace())
        device = EmmcDevice(four_ps())
        via_submit = [device.submit(r) for r in self._trace()]
        assert [
            (r.service_start_us, r.finish_us) for r in via_host.trace
        ] == [(r.service_start_us, r.finish_us) for r in via_submit]
        assert via_host.stats.response_us == device.stats.response_us

    def test_on_complete_fires_in_completion_order(self):
        seen = []
        Host(EmmcDevice(four_ps())).replay(
            self._trace(), on_complete=lambda r: seen.append(r.finish_us)
        )
        assert len(seen) == 6
        assert seen == sorted(seen)
        assert all(r > 0 for r in seen)

    def test_shared_kernel_serializes_out_of_order_producers(self):
        # Two producers schedule arrivals out of submission order; the
        # kernel serves them in *time* order all the same.
        device = EmmcDevice(four_ps())
        completed = []
        device.arrive(Request(5000.0, 0, 4 * KIB, Op.WRITE), record_to=completed)
        device.arrive(Request(0.0, 256 * KIB, 4 * KIB, Op.WRITE), record_to=completed)
        device.kernel.drain()
        assert [r.arrival_us for r in completed] == [0.0, 5000.0]
        assert completed[0].wait_us == 0.0


def _replay_digest():
    """Digest of the full event trace + timings of a deterministic replay."""
    from repro.workloads import generate_trace

    trace = generate_trace("Messaging", seed=11, num_requests=200)
    sink = Telemetry()
    device = EmmcDevice(four_ps(), telemetry=sink)
    result = Host(device).replay(trace.without_timing())
    payload = json.dumps(
        {
            "events": sink.kernel_events,
            "timings": [
                (r.arrival_us, r.service_start_us, r.finish_us)
                for r in result.trace
            ],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestDeterminism:
    def test_identical_event_order_across_runs(self):
        assert _replay_digest() == _replay_digest()

    def test_identical_event_order_across_processes(self):
        script = (
            "from tests.sim.test_device_on_kernel import _replay_digest;"
            "print(_replay_digest())"
        )
        digests = set()
        for hash_seed in ("0", "1", "2", "3"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={
                    "PYTHONPATH": "src",
                    "PYTHONHASHSEED": hash_seed,
                },
                cwd=str(__import__("pathlib").Path(__file__).resolve().parents[2]),
            )
            digests.add(proc.stdout.strip())
        digests.add(_replay_digest())
        assert len(digests) == 1
