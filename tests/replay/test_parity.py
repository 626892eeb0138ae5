"""Bit-identity of the fast path against the event kernel.

The contract (:mod:`repro.replay`): a fast-path replay leaves the device
and the returned timestamps in *exactly* the state a kernel replay
produces -- ``==`` on every float, digest-equal stats, identical FTL
mapping.  These tests pin that on real generated workloads, including
GC-heavy small-geometry runs that exercise the planner's per-request
fallback to the full FTL write path, for both arrival shapes: open loop
(``Host.replay``) and closed loop (``Host.replay_closed_loop``).
"""

import numpy as np
import pytest

from repro.emmc import EmmcDevice, small_eight_ps, small_four_ps, small_hps
from repro.emmc.ftl.blocks import OutOfSpaceError
from repro.faults import stats_digest
from repro.replay.parity import compare, snapshot
from repro.sim import Host
from repro.workloads import generate_trace

SEED = 2015
REQUESTS = 900

CONFIGS = {
    "small_4PS": small_four_ps,
    "small_8PS": small_eight_ps,
    "small_HPS": small_hps,
}

#: Light, heavy-write and GC-heavy apps (small_HPS + WebBrowsing runs
#: thousands of GC cycles at this size, all through the fallback path).
APPS = ["Twitter", "Booting", "WebBrowsing"]


def _closed_loop(host, trace):
    """Serve ``trace``'s stream closed-loop: its own gaps, half synchronous."""
    columns = trace.columns()
    count = len(trace)
    synchronous = np.random.default_rng(SEED).random(count - 1) < 0.5
    return host.replay_closed_loop(
        columns.lba,
        columns.size,
        [request.op for request in trace],
        np.diff(columns.arrival_us),
        synchronous,
        name=trace.name,
    )


#: The two arrival shapes, each a ``(host, trace) -> ReplayResult``.
SHAPES = {
    "open": lambda host, trace: host.replay(trace),
    "closed": _closed_loop,
}


def _replay(config_factory, app, mode, monkeypatch, shape="open"):
    monkeypatch.setenv("REPRO_REPLAY_FASTPATH", mode)
    device = EmmcDevice(config_factory())
    trace = generate_trace(app, seed=SEED, num_requests=REQUESTS).without_timing()
    try:
        result = SHAPES[shape](Host(device), trace)
    except OutOfSpaceError:
        # Write-heavy traces can exhaust a small geometry outright; both
        # engines must agree on that too (error parity, checked below).
        return device, None
    return device, result


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("app", APPS)
def test_fast_path_matches_kernel(config_name, app, shape, monkeypatch):
    factory = CONFIGS[config_name]
    kernel_device, kernel_result = _replay(factory, app, "off", monkeypatch, shape)
    fast_device, fast_result = _replay(factory, app, "require", monkeypatch, shape)

    if kernel_result is None or fast_result is None:
        # Capacity exhaustion must strike in both modes or neither.
        assert kernel_result is None and fast_result is None
        return

    # Timestamps: == on every float, not approx.
    kernel_requests = list(kernel_result.trace)
    fast_requests = list(fast_result.trace)
    assert kernel_requests == fast_requests

    # Device statistics digest-equal (covers every counter and list).
    assert stats_digest(fast_device.stats) == stats_digest(kernel_device.stats)

    # The whole device: stats, queue, power, timelines, kernel clock and
    # pending power-down deadline, the FTL's mapping, blocks, pools,
    # cursor and GC totals, and the result trace's columns (the fast
    # path builds those from its timing arrays, not from the requests).
    assert compare(
        snapshot(kernel_device, kernel_result), snapshot(fast_device, fast_result)
    ) == []
    kernel_device.ftl.check_invariants()
    fast_device.ftl.check_invariants()


def test_snapshot_checks_the_result_columns(monkeypatch):
    """A result whose columns disagree with its requests fails the oracle."""
    from repro.trace import TraceColumns

    device, result = _replay(small_four_ps, "Twitter", "require", monkeypatch)
    before = snapshot(device, result)
    columns = result.trace.columns()
    shifted = columns.complete_us.copy()
    shifted[7] = np.nextafter(shifted[7], np.inf)
    result.trace._adopt_columns(
        TraceColumns(
            columns.arrival_us, columns.service_start_us, shifted,
            columns.lba, columns.size, columns.op, columns.flags,
        )
    )
    diffs = compare(before, snapshot(device, result))
    assert len(diffs) == 1 and diffs[0].startswith("trace.columns.complete_us at 7:")


def test_snapshot_checks_the_queue_and_power_state():
    """The admission queue and the power state are part of the oracle."""
    from repro.emmc.reserve import complete, power_down

    device = EmmcDevice(small_four_ps())
    before = snapshot(device)
    power_down(device.timing)
    complete(device.timing, 5.0)
    assert compare(before, snapshot(device)) == [
        "timing.power at 0: 0.0 vs 5.0",
        "timing.queue at 0: 0.0 vs 5.0",
    ]


def test_compare_names_the_first_differing_page_kind():
    """Per-kind op counts are dicts keyed by PageKind, which cannot be sorted."""
    from repro.emmc import PageKind

    before = {"stats.page_programs": {PageKind.K4: 3, PageKind.K8: 1}}
    after = {"stats.page_programs": {PageKind.K8: 2, PageKind.K4: 3}}
    assert compare(before, after) == ["stats.page_programs at 8K: 1 vs 2"]


def test_mixed_fast_and_kernel_runs_digest_identically(monkeypatch):
    """Interleaving fast and kernel replays on one device changes nothing.

    Replays 1 and 3 take the fast path; replay 2 is pinned to the event
    kernel by an ``on_complete`` observer.  The end state must digest
    equal to the same three replays run entirely on the kernel.
    """
    pieces = [
        generate_trace(app, seed=SEED, num_requests=250).without_timing()
        for app in ("Twitter", "Messaging", "Email")
    ]

    def run(mode):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", mode)
        device = Host(EmmcDevice(small_four_ps()))
        timestamps = []
        for index, piece in enumerate(pieces):
            # Sequential replays need arrivals at or after the clock.
            shifted = _shift(piece, device.device.kernel.now_us + 1.0)
            if index == 1 and mode == "auto":
                result = device.replay(shifted, on_complete=lambda request: None)
            else:
                result = device.replay(shifted)
            timestamps.append([(r.service_start_us, r.finish_us) for r in result.trace])
        return device.device, timestamps

    mixed_device, mixed_stamps = run("auto")
    kernel_device, kernel_stamps = run("off")
    assert mixed_stamps == kernel_stamps
    assert stats_digest(mixed_device.stats) == stats_digest(kernel_device.stats)
    assert compare(snapshot(mixed_device), snapshot(kernel_device)) == []
    mixed_device.ftl.check_invariants()


def _shift(trace, offset_us):
    """Copy of ``trace`` with arrivals moved up by ``offset_us``."""
    from repro.trace import Request

    return trace.with_requests(
        [
            Request(
                arrival_us=request.arrival_us + offset_us,
                lba=request.lba,
                size=request.size,
                op=request.op,
            )
            for request in trace
        ]
    )


def test_fast_path_reports_its_decision_counts(monkeypatch):
    """Every request is slim or a fallback, and the result says so."""
    trace = generate_trace("Twitter", seed=SEED, num_requests=REQUESTS).without_timing()
    monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "require")
    fast = Host(EmmcDevice(small_four_ps())).replay(trace)
    assert fast.engine == "fast"
    assert fast.slim_writes + fast.slim_reads + fast.fallback_requests == len(trace)
    assert fast.slim_writes > 0 and fast.slim_reads > 0

    monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "off")
    kernel = Host(EmmcDevice(small_four_ps())).replay(trace)
    assert kernel.engine == "kernel"
    assert (kernel.slim_writes, kernel.slim_reads, kernel.fallback_requests) == (0, 0, 0)


def test_gc_heavy_replay_reports_fallbacks(monkeypatch):
    """GC-risky writes go to the real FTL, and the count shows it."""
    _, result = _replay(small_hps, "Idle", "require", monkeypatch)
    assert result.engine == "fast"
    assert result.stats.gc_collections > 0
    assert result.fallback_requests > 0
    assert (
        result.slim_writes + result.slim_reads + result.fallback_requests
        == result.stats.requests
    )
