"""Closed-loop trace collection on a device (the BIOtracer methodology).

Table IV's no-wait ratios (58-98 %) cannot arise from replaying bursty
arrivals *open-loop* into a device: sub-millisecond intra-burst gaps would
queue behind multi-millisecond services.  On the real phone most block I/O
is **synchronous** -- the application (SQLite commit, fsync, page-fault
read) issues its next request only after the previous one completed -- so
the recorded arrival stream is paced by the device itself and almost every
request finds the device idle.

:func:`collect` reproduces this: requests are issued with the calibrated
think-time gaps, but a per-request *synchronous* flag (calibrated from the
Table IV no-wait target) makes the request wait for the previous completion
before it is issued.  The request stream, gaps and flags are all drawn up
front; :meth:`repro.sim.Host.replay_closed_loop` then serves the stream,
computing each arrival from the previous completion.  The result is a
completed trace whose recorded timestamps mirror what BIOtracer would have
logged on the reference device; replaying that trace open-loop on other
device configurations is then exactly the paper's Fig. 8 methodology.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.trace import Trace
from repro.emmc.configs import four_ps
from repro.emmc.device import DeviceConfig, EmmcDevice
from repro.emmc.stats import DeviceStats
from repro.sim import Host

from .generator import (
    DEFAULT_SEED,
    _calibrated_temporal,
    _draw_requests,
    _memoizable,
    _rng_for,
)
from .profiles import AppProfile, profile


@dataclass
class CollectionResult:
    """A collected (completed) trace plus the collecting device's stats."""

    trace: Trace
    device_stats: DeviceStats


#: Cache of calibrated sync fractions of the registered profiles, keyed by
#: (app name, seed).
_sync_cache = {}

#: Pilot length for the sync-fraction calibration.
_PILOT_REQUESTS = 2500


def sync_fraction(app: AppProfile, seed: int = DEFAULT_SEED) -> float:
    """Fraction of requests issued synchronously, calibrated empirically.

    A synchronous request never waits; an asynchronous one (write-back,
    read-ahead) waits with some workload-dependent probability ``p``.  The
    measured no-wait ratio is roughly ``s + (1 - s) * (1 - p)``, so one
    pilot collection at ``s0 = target`` estimates the async no-wait rate
    and a corrected ``s`` solves for the Table IV target exactly.

    Memoized for the registered profiles only: a modified copy of a
    profile that keeps its name calibrates fresh.
    """
    key = (app.name, seed)
    memoize = _memoizable(app)
    cached = _sync_cache.get(key) if memoize else None
    if cached is not None:
        return cached
    target = app.timing_stats.nowait_pct / 100.0
    guess = min(0.98, target)
    pilot_count = min(app.num_requests, _PILOT_REQUESTS)
    pilot = _collect(app, seed, pilot_count, guess, stream="sync-pilot").trace
    columns = pilot.columns()
    # Request.no_wait's test, over the columns.
    no_wait = columns.service_start_us - columns.arrival_us <= 1e-6
    measured = int(np.count_nonzero(no_wait)) / len(pilot)
    if guess < 1.0 and measured > guess:
        async_nowait = (measured - guess) / (1.0 - guess)
        if async_nowait < 1.0:
            guess = max(0.0, min(0.98, (target - async_nowait) / (1.0 - async_nowait)))
    if memoize:
        _sync_cache[key] = guess
    return guess


def collect(
    app: "AppProfile | str",
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
    config: Optional[DeviceConfig] = None,
) -> CollectionResult:
    """Collect one trace closed-loop on a fresh reference device.

    The request attributes (sizes, ops, addresses) are drawn exactly like
    :func:`repro.workloads.generator.generate_trace` draws them; only the
    arrival times differ, being paced by device completions for the
    synchronous share of requests.
    """
    if isinstance(app, str):
        app = profile(app)
    count = app.num_requests if num_requests is None else num_requests
    if count <= 0:
        raise ValueError("num_requests must be positive")
    return _collect(app, seed, count, sync_fraction(app, seed), "main", config)


def _collect(
    app: AppProfile,
    seed: int,
    count: int,
    sync_frac: float,
    stream: str,
    config: Optional[DeviceConfig] = None,
) -> CollectionResult:
    device = EmmcDevice(config or four_ps())
    rng = _rng_for(app.name, seed, stream)
    sync_rng = _rng_for(app.name, seed, f"{stream}-sync")
    address_model = dataclasses.replace(
        app.address_model(), temporal=_calibrated_temporal(app, seed)
    )
    # The whole stream is drawn before the device serves any of it: the
    # gaps and the requests from one stream in the generator's order, the
    # synchronous flags from their own.  Only the arrivals depend on the
    # device, and Host.replay_closed_loop computes them from completions.
    gaps = app.arrival_model().sample_gaps(count - 1, rng) if count > 1 else []
    lbas, sizes, ops = _draw_requests(app, rng, address_model, count)
    synchronous = sync_rng.random(count - 1) < sync_frac
    trace = (
        Host(device)
        .replay_closed_loop(lbas, sizes, ops, gaps, synchronous, name=app.name)
        .trace
    )
    trace.metadata = {
        "generator": "repro.workloads.collection",
        "seed": str(seed),
        "profile": app.name,
        "collection_device": device.config.name,
        "sync_fraction": f"{sync_frac:.3f}",
    }
    return CollectionResult(trace=trace, device_stats=device.stats)
