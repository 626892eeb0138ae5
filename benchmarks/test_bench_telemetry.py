"""Telemetry overhead: enabled vs disabled on a Fig. 8-style battery.

PR 9's telemetry contract has two performance sides:

* **Disabled is structurally absent** -- ``device.telemetry is None``
  removes the recording calls from the hot path entirely, so a replay
  without a sink runs the same event-kernel code the seed ran.  The
  before/after numbers for the full 6-app x 2500-request kernel battery
  (26.5 s pre-change, within noise post-change; see
  ``docs/telemetry.md``) back the <=2 % claim; this file guards the
  enabled side, which *can* be measured within one build.
* **Enabled stays cheap** -- recording every span, kernel event and
  decomposition must cost at most ``_MAX_SLOWDOWN``x the disabled
  kernel replay.

The two modes are timed interleaved, best of ``_ROUNDS`` repetitions
per mode (:func:`conftest.interleaved_best`), over the same traces.
Both modes pin ``REPRO_REPLAY_FASTPATH=off`` so they time the same
engine: an attached sink forces the kernel anyway, and comparing
kernel-to-kernel isolates the recording cost.
"""

from __future__ import annotations

import os

from repro.emmc import EmmcDevice, four_ps
from repro.replay import REPLAY_FASTPATH_ENV
from repro.sim import Host
from repro.telemetry import Telemetry
from repro.workloads import generate_trace

from conftest import BENCH_SEED, QUICK_REQUESTS, interleaved_best, run_once

#: A reduced Fig. 8 mix: one heavy 8b trace, one mixed, one light 8a.
_APPS = ["Booting", "CameraVideo", "Twitter"]
#: Interleaved repetitions per mode.
_ROUNDS = 3
#: Recording everything may cost at most this factor over no sink.
_MAX_SLOWDOWN = 1.5


def _traces():
    return [
        generate_trace(
            app, seed=BENCH_SEED, num_requests=QUICK_REQUESTS
        ).without_timing()
        for app in _APPS
    ]


def _battery(traces, with_sink: bool):
    """Replay the battery on the kernel; return the per-trace MRTs."""
    config = four_ps()
    os.environ[REPLAY_FASTPATH_ENV] = "off"
    try:
        mrts = []
        for trace in traces:
            sink = Telemetry() if with_sink else None
            device = EmmcDevice(config, telemetry=sink)
            result = Host(device).replay(trace)
            mrts.append(sum(result.stats.response_us) / len(result.trace))
            if with_sink:
                assert sink.spans and sink.decompositions
        return tuple(mrts)
    finally:
        del os.environ[REPLAY_FASTPATH_ENV]


def test_enabled_overhead_bounded(benchmark):
    traces = _traces()
    disabled_mrts, enabled_mrts, disabled_s, enabled_s = run_once(
        benchmark,
        lambda: interleaved_best(
            lambda: _battery(traces, with_sink=False),
            lambda: _battery(traces, with_sink=True),
            _ROUNDS,
        ),
    )

    # Observation only: the sink changes no simulated number.
    assert enabled_mrts == disabled_mrts

    slowdown = enabled_s / disabled_s
    print(
        f"\ndisabled {disabled_s * 1000:.0f} ms vs enabled "
        f"{enabled_s * 1000:.0f} ms ({slowdown:.2f}x, best of {_ROUNDS} "
        f"interleaved) on {len(_APPS)} apps x {QUICK_REQUESTS} requests"
    )
    assert slowdown <= _MAX_SLOWDOWN
