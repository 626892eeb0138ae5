"""Synthetic trace generation from calibrated application profiles.

This is the substitute for the paper's BIOtracer collection on a Nexus 5
(see DESIGN.md, substitution table): for each of the 25 traces we draw a
request stream whose size distribution, read/write mix, arrival process and
localities are calibrated to the published Tables III/IV and Figs. 4-7.

Temporal locality needs special care: sequential continuations of re-hit
requests, and fresh addresses colliding with the already-covered footprint,
inflate the measured hit rate beyond the generator's re-hit probability by a
workload-dependent amount.  :func:`generate_trace` therefore runs a short
pilot generation and adjusts the re-hit probability by fixed-point iteration
so the *measured* temporal locality converges to the Table IV target.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.locality import temporal_locality
from repro.trace import Op, Request, SECTOR, Trace, TraceColumns

from .addresses import AccessMode, AddressModel
from .profiles import PROFILES, AppProfile, all_profiles, profile

#: Base seed of the released trace set; every trace derives its own stream.
DEFAULT_SEED = 20150614

#: Pilot length and iteration count of the temporal-locality calibration.
_PILOT_REQUESTS = 4000
_PILOT_ITERATIONS = 2

#: Cache of calibrated re-hit probabilities of the registered profiles,
#: keyed by (app name, seed).
_temporal_cache: Dict[Tuple[str, int], float] = {}


def _rng_for(name: str, seed: int, stream: str = "main") -> np.random.Generator:
    """Independent, reproducible random stream per (trace, seed, purpose)."""
    digest = hashlib.sha256(f"{name}:{seed}:{stream}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def generate_trace(
    app: "AppProfile | str",
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
    calibrate_temporal: bool = True,
) -> Trace:
    """Synthesize one trace.

    Args:
        app: an :class:`AppProfile` or the name of one of the 25 traces.
        seed: base seed; the same (app, seed) pair always yields the same
            trace.
        num_requests: override the profile's request count (Table III),
            e.g. for fast tests.  The arrival process is unchanged, so a
            shorter trace simply covers a shorter duration.
        calibrate_temporal: run the pilot-based temporal-locality
            calibration (skipped automatically inside the pilot itself).

    Returns:
        A :class:`~repro.trace.Trace` without device timestamps; replay it
        on an :class:`~repro.emmc.device.EmmcDevice` to obtain service and
        response times.
    """
    if isinstance(app, str):
        app = profile(app)
    count = app.num_requests if num_requests is None else num_requests
    if count <= 0:
        raise ValueError("num_requests must be positive")
    address_model = app.address_model()
    if calibrate_temporal:
        address_model = dataclasses.replace(
            address_model, temporal=_calibrated_temporal(app, seed)
        )
    return _generate(app, seed, count, address_model, stream="main")


def _generate(
    app: AppProfile,
    seed: int,
    count: int,
    address_model: AddressModel,
    stream: str,
) -> Trace:
    rng = _rng_for(app.name, seed, stream)
    arrivals = app.arrival_model().sample_arrivals(count, rng)
    lbas, sizes, ops = _draw_requests(app, rng, address_model, count)
    requests = [
        Request(arrival_us=arrival, lba=lba, size=size, op=op)
        for arrival, lba, size, op in zip(arrivals.tolist(), lbas, sizes, ops)
    ]
    never_replayed = np.full(count, np.nan, dtype=np.float64)
    columns = TraceColumns(
        arrivals,
        never_replayed,
        never_replayed.copy(),
        np.array(lbas, dtype=np.int64),
        np.array(sizes, dtype=np.int64),
        np.array([op is Op.WRITE for op in ops], dtype=np.uint8),
        np.zeros(count, dtype=np.uint8),
    )
    return Trace.from_columns(
        app.name,
        columns,
        metadata={
            "generator": "repro.workloads",
            "seed": str(seed),
            "profile": app.name,
            "requests": str(count),
        },
        requests=requests,
    )


def _draw_requests(
    app: AppProfile,
    rng: np.random.Generator,
    address_model: AddressModel,
    count: int,
) -> Tuple[List[int], List[int], List[Op]]:
    """Draw ``count`` requests' (lba, size, op) from ``rng``, in trace order.

    The one per-request draw loop of the workload layer: the open-loop
    generator and closed-loop collection both call it after drawing
    their arrival gaps from the same stream, so a collected trace has
    exactly the generated trace's addresses, sizes and ops.  The draws
    are data-dependent and interleave one shared stream, so they cannot
    be batched without changing every released trace.
    """
    read_sizes = app.size_model(op_is_write=False)
    write_sizes = app.size_model(op_is_write=True)
    address_sampler = address_model.sampler(rng)
    lbas: List[int] = []
    sizes: List[int] = []
    ops: List[Op] = []
    random_draw = rng.random
    next_address = address_sampler.next_address
    spatial_edge = address_model.spatial
    rehit_edge = spatial_edge + address_model.temporal
    write_frac = app.write_frac
    op_read, op_write = Op.READ, Op.WRITE
    sequential, temporal, fresh = (
        AccessMode.SEQUENTIAL,
        AccessMode.TEMPORAL,
        AccessMode.FRESH,
    )
    previous_op: Optional[Op] = None
    for _ in range(count):
        # Inlined AddressModel.choose_mode: one uniform draw against the
        # cumulative locality edges (identical stream position and result).
        draw = random_draw()
        if draw < spatial_edge:
            mode = sequential
        elif draw < rehit_edge:
            mode = temporal
        else:
            mode = fresh
        if mode is sequential and previous_op is not None:
            # A sequential continuation keeps the predecessor's access type
            # (a sequential stream is one logical transfer); the stationary
            # write fraction still equals the Bernoulli target.
            op = previous_op
        else:
            op = op_write if random_draw() < write_frac else op_read
        size_model = write_sizes if op is op_write else read_sizes
        size = int(size_model.sample(rng)) * SECTOR
        lbas.append(next_address(mode, size))
        sizes.append(size)
        ops.append(op)
        previous_op = op
    return lbas, sizes, ops


def _calibrated_temporal(app: AppProfile, seed: int) -> float:
    """Re-hit probability whose *measured* temporal locality hits Table IV.

    Memoized for the registered profiles only (see :func:`_memoizable`).
    """
    key = (app.name, seed)
    memoize = _memoizable(app)
    cached = _temporal_cache.get(key) if memoize else None
    if cached is not None:
        return cached
    target = app.timing_stats.temporal_locality_pct / 100.0
    model = app.address_model()
    ceiling = max(0.0, 0.98 * (1.0 - model.spatial) - 1e-9)
    rehit = min(model.temporal, ceiling)
    pilot_count = min(app.num_requests, _PILOT_REQUESTS)
    for iteration in range(_PILOT_ITERATIONS):
        pilot_model = dataclasses.replace(model, temporal=rehit)
        pilot = _generate(app, seed, pilot_count, pilot_model, stream=f"pilot{iteration}")
        measured = temporal_locality(pilot)
        if measured <= 1e-6 or abs(measured - target) < 0.002:
            break
        rehit = min(ceiling, max(0.0, rehit * target / measured))
    if memoize:
        _temporal_cache[key] = rehit
    return rehit


def _memoizable(app: AppProfile) -> bool:
    """Whether a calibration of ``app`` may be memoized under its name.

    The calibration memos are keyed on ``(app.name, seed)``, which names
    the profile only when ``app`` is the registered object itself; a
    modified copy that keeps the name calibrates fresh every time.
    (``AppProfile`` cannot be the key: its ``extra`` dict makes it
    unhashable.)
    """
    return PROFILES.get(app.name) is app


def generate_all(
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
    profiles: Optional[Iterable[AppProfile]] = None,
) -> List[Trace]:
    """Synthesize the full 25-trace set (or the given profiles)."""
    selected = list(profiles) if profiles is not None else list(all_profiles())
    return [generate_trace(app, seed=seed, num_requests=num_requests) for app in selected]
