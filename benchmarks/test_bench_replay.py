"""Replay fast path vs the event kernel: the promised >=3x floor.

PR 8's tentpole lowers qd=1 open-loop replay onto the two-pass columnar
engine and promises at least a 3x speedup on the Fig. 8-style replay
battery.  The two modes are timed interleaved, best of ``_ROUNDS``
repetitions per mode (:func:`conftest.interleaved_best`).

The bit-identity side of the contract is asserted too: the fast battery
must produce float-equal MRT values, not merely close ones.
"""

from __future__ import annotations

import os

from repro.experiments import fig8
from repro.replay import REPLAY_FASTPATH_ENV

from conftest import BENCH_SEED, interleaved_best, run_once

#: Heavy Fig. 8b traces plus light Fig. 8a ones (same mix as the fig8
#: benchmark) -- each replayed on 4PS, 8PS and HPS.
_APPS = ["Booting", "Installing", "CameraVideo", "Movie", "Twitter", "Facebook"]
_REQUESTS = 2000
#: Interleaved repetitions per mode.
_ROUNDS = 3
#: The promised floor; measured locally at ~3.2-3.8x.
_MIN_SPEEDUP = 3.0


def _battery(mode: str):
    os.environ[REPLAY_FASTPATH_ENV] = mode
    try:
        return fig8.run(seed=BENCH_SEED, num_requests=_REQUESTS, apps=_APPS)
    finally:
        del os.environ[REPLAY_FASTPATH_ENV]


def test_fast_path_battery_speedup(benchmark):
    kernel_result, fast_result, kernel_s, fast_s = run_once(
        benchmark,
        lambda: interleaved_best(
            lambda: _battery("off"), lambda: _battery("require"), _ROUNDS
        ),
    )

    # Bit-identity: float-equal MRTs per app per scheme, not approx.
    assert fast_result.data["mrt"] == kernel_result.data["mrt"]

    speedup = kernel_s / fast_s
    print(
        f"\nkernel {kernel_s * 1000:.0f} ms vs fast {fast_s * 1000:.0f} ms "
        f"({speedup:.2f}x, best of {_ROUNDS} interleaved) on "
        f"{len(_APPS)} apps x 3 schemes x {_REQUESTS} requests"
    )
    assert speedup >= _MIN_SPEEDUP
