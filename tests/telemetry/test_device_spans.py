"""Hand-checked span trees and instant events from the device model."""

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.faults import FaultPlan
from repro.sim import Host, SimInterrupt
from repro.telemetry import (
    S_CAT,
    S_DUR,
    S_NAME,
    S_PARENT,
    S_START,
    S_TRACK,
    Telemetry,
)
from repro.trace import Op, Request, SECTOR, Trace


def _replay(config=None, faults=None, requests=None):
    sink = Telemetry()
    device = EmmcDevice(
        config or small_four_ps(), faults=faults, telemetry=sink
    )
    result = Host(device).replay(Trace("spans", requests))
    return sink, result, device


class TestRequestSpanTree:
    def test_single_write_span_structure(self):
        sink, result, device = _replay(requests=[
            Request(arrival_us=0.0, lba=0, size=2 * SECTOR, op=Op.WRITE),
        ])
        roots = [
            i for i, s in enumerate(sink.spans) if s[S_CAT] == "request"
        ]
        assert len(roots) == 1
        root = sink.spans[roots[0]]
        assert root[S_NAME] == "write"
        assert root[S_START] == 0.0
        # The request span covers exactly the recorded response time.
        assert root[S_DUR] == result.stats.response_us[0]
        children = sink.children_of(roots[0])
        child_names = [sink.spans[c][S_NAME] for c in children]
        assert "issue" in child_names
        assert "program" in child_names
        assert "xfer" in child_names
        # The program span runs on a unit track, the transfer on a channel.
        for child in children:
            span = sink.spans[child]
            if span[S_NAME] == "program":
                assert span[S_TRACK].startswith("die")
            if span[S_NAME] == "xfer":
                assert span[S_TRACK].startswith("channel")

    def test_read_emits_a_read_op_span(self):
        sink, _, _ = _replay(requests=[
            Request(arrival_us=0.0, lba=0, size=2 * SECTOR, op=Op.WRITE),
            Request(arrival_us=5_000.0, lba=0, size=2 * SECTOR, op=Op.READ),
        ])
        assert sink.spans_named("read")
        read_root = sink.spans[sink.spans_named("read")[0]]
        assert read_root[S_CAT] == "request"

    def test_queue_wait_span_appears_at_depth_pressure(self):
        # Back-to-back arrivals at queue_depth=1: the second request
        # waits, and its decomposition's queue component is that span.
        sink, result, _ = _replay(requests=[
            Request(arrival_us=0.0, lba=0, size=8 * SECTOR, op=Op.WRITE),
            Request(arrival_us=1.0, lba=16 * SECTOR, size=2 * SECTOR, op=Op.WRITE),
        ])
        waits = sink.spans_named("queue-wait")
        assert len(waits) == 1
        wait = sink.spans[waits[0]]
        assert wait[S_DUR] == result.stats.wait_us[1]
        assert sink.decompositions[1].components["queue"] == wait[S_DUR]

    def test_wake_up_span_after_a_long_gap(self):
        sink, _, _ = _replay(requests=[
            Request(arrival_us=0.0, lba=0, size=2 * SECTOR, op=Op.WRITE),
            Request(arrival_us=6e7, lba=16 * SECTOR, size=2 * SECTOR, op=Op.WRITE),
        ])
        assert sink.spans_named("wake-up")
        assert [e for e in sink.events if e[0] == "power-down"]


class TestFtlEvents:
    def test_ftl_write_and_read_events(self):
        sink, _, _ = _replay(requests=[
            Request(arrival_us=0.0, lba=0, size=2 * SECTOR, op=Op.WRITE),
            Request(arrival_us=5_000.0, lba=0, size=2 * SECTOR, op=Op.READ),
        ])
        names = [e[0] for e in sink.events]
        assert "ftl-write" in names
        assert "ftl-read" in names
        assert all(e[2] == "ftl" for e in sink.events if e[0].startswith("ftl-"))

    def test_bad_block_remap_event_under_program_faults(self):
        sink, _, _ = _replay(
            faults=FaultPlan(
                seed=5, program_error_rate=0.002, spare_blocks_per_plane=16
            ),
            requests=[
                Request(
                    arrival_us=i * 40.0,
                    lba=(i % 64) * SECTOR,
                    size=4 * SECTOR,
                    op=Op.WRITE,
                )
                for i in range(400)
            ],
        )
        assert [e for e in sink.events if e[0] == "bad-block-remap"]

    def test_idle_gc_event_fires_in_a_long_gap(self):
        requests = [
            Request(
                arrival_us=i * 50.0,
                lba=(i % 12) * SECTOR,
                size=4 * SECTOR,
                op=Op.WRITE,
            )
            for i in range(300)
        ]
        requests.append(
            Request(arrival_us=300 * 50.0 + 5e7, lba=0, size=2 * SECTOR,
                    op=Op.READ)
        )
        sink, _, _ = _replay(
            config=small_four_ps(idle_gc=True, idle_gc_soft_threshold=10**6),
            requests=requests,
        )
        idle = [e for e in sink.events if e[0] == "idle-gc"]
        assert idle and idle[0][4] > 0  # args = collections performed


class TestEccRetrySpans:
    def test_backoff_and_reread_spans(self):
        sink, result, _ = _replay(
            faults=FaultPlan(seed=11, read_error_rate=0.3),
            requests=[
                Request(
                    arrival_us=i * 300.0,
                    lba=(i % 16) * SECTOR,
                    size=2 * SECTOR,
                    op=Op.WRITE if i < 16 else Op.READ,
                )
                for i in range(200)
            ],
        )
        backoffs = [
            s for s in sink.spans if s[S_NAME].startswith("ecc-backoff")
        ]
        rereads = sink.spans_named("read-retry")
        assert backoffs and rereads
        assert all(s[S_CAT] == "fault" for s in backoffs)
        # Retry time surfaced in the decompositions too.
        assert sum(
            d.components["retry"] for d in sink.decompositions
        ) > 0.0


class TestRecovery:
    def test_recovery_event_and_sink_survival(self):
        plan = FaultPlan(seed=7, power_loss_at_event=60)
        sink = Telemetry()
        device = EmmcDevice(small_four_ps(), faults=plan, telemetry=sink)
        requests = [
            Request(
                arrival_us=i * 100.0,
                lba=(i % 24) * SECTOR,
                size=2 * SECTOR,
                op=Op.WRITE,
            )
            for i in range(80)
        ]
        for request in requests:
            device.arrive(request)
        device.kernel.interrupt_before(plan.power_loss_at_event)
        with pytest.raises(SimInterrupt):
            device.kernel.drain()
        spans_before = len(sink.spans)
        device.recover(at_us=device.kernel.now_us + 1_000.0)
        # The explicit sink rides through the power cycle onto the
        # successor kernel; recording continues where it left off.
        assert device.kernel.telemetry is sink
        assert [e for e in sink.events if e[0] == "recovery"]
        Host(device).replay(
            Trace("resume", [
                Request(
                    arrival_us=device.kernel.now_us + 100.0,
                    lba=0,
                    size=2 * SECTOR,
                    op=Op.READ,
                )
            ])
        )
        assert len(sink.spans) > spans_before
