"""Sharded fleet execution: simulate devices, stream rows, merge stats.

The executor turns a :class:`~repro.fleet.scenario.FleetScenario` into a
packed :mod:`fleet store <repro.fleet.store>` plus a fleet-level
request-statistics rollup, without ever materializing the whole fleet in
memory:

* **one device** (:func:`simulate_device`) builds the device's trace,
  config and fault plan from its :class:`~repro.fleet.population.DeviceSpec`,
  replays it through :class:`repro.sim.Host`, and reduces the result to a
  flat scalar row (:data:`~repro.fleet.store.FLEET_COLUMNS`) plus the
  replayed request columns;
* **one shard** folds a contiguous device range, accumulating request
  stats into mergeable :mod:`repro.metrics` states -- so a shard's
  footprint is its rows plus O(1) metric state, never the raw requests;
* **the run** (:func:`run_fleet`) executes shards either inline
  (``jobs=1``) or on a ``ProcessPoolExecutor`` (the
  :mod:`repro.experiments.parallel` machinery), and the parent commits
  shard payloads strictly in device-index order through a reorder
  buffer.

Determinism
-----------
Bit-identical output for any ``--jobs`` and any ``PYTHONHASHSEED``:

* a device's row is a pure function of ``(scenario, index)`` -- every
  random decision comes from named sha256-derived streams, so it does
  not matter which process simulates it;
* ``jobs=1`` and ``jobs=N`` run the *same* shard plan and the parent
  merges shard metric states left-to-right in start order, so float
  accumulation order never varies (the same argument -- and the same
  ``OrderedSum`` machinery -- as the experiment runner's);
* the store writer chunks purely by row count, so the chunk files and
  the manifest (which embeds the rollup) are byte-identical too.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.emmc import EmmcDevice, collect_wear
from repro.emmc.energy import energy_report
from repro.experiments.parallel import WallPoint, _pool_context, _worker_init
from repro.faults.replay import stats_digest
from repro.metrics import get_metric
from repro.sim import Host
from repro.trace import TraceColumns

from .population import DeviceSpec, build_config, build_fault_plan, build_trace, device_spec
from .scenario import FleetScenario
from .store import DEFAULT_CHUNK_DEVICES, DeviceRow, FleetStoreWriter

#: Request-level metrics folded fleet-wide (across every request of every
#: device).  Deliberately restricted to order-insensitive, bounded-state
#: metrics: locality metrics keep distinct-LBA sets (unbounded across a
#: fleet), and interarrival/timing statistics are meaningless across
#: device boundaries (every device's clock restarts near zero).
FLEET_REQUEST_METRICS: Tuple[str, ...] = (
    "size_stats",
    "size_distribution",
    "response_distribution",
)

#: Default devices per worker task.  Small enough to load-balance a
#: thousand-device fleet over a handful of workers, large enough that
#: fork/pickle overhead stays negligible against ~10ms+ per device.
DEFAULT_SHARD_DEVICES = 32


@dataclass
class DeviceResult:
    """One simulated device: its identity, flat row, and replayed columns."""

    spec: DeviceSpec
    row: DeviceRow
    digest: str
    columns: TraceColumns


@dataclass
class FleetRunResult:
    """Everything one :func:`run_fleet` invocation produced."""

    scenario: FleetScenario
    path: Path
    manifest: Dict[str, object]
    request_summary: Dict[str, Any]
    jobs: int
    wall_s: float
    compute_s: float
    shards: int = 0

    @property
    def devices(self) -> int:
        return int(self.manifest["total_rows"])

    @property
    def speedup(self) -> float:
        """Serial-equivalent seconds per wall second (1.0 = no benefit)."""
        return self.compute_s / self.wall_s if self.wall_s > 0 else 0.0


def simulate_device(
    scenario: FleetScenario, device: Union[int, DeviceSpec]
) -> DeviceResult:
    """Simulate one device of the fleet, bit-identical to its in-fleet run.

    Accepts either a device index or an already-sampled spec.  The
    returned row carries the leading 64 bits of the canonical
    :func:`~repro.faults.replay.stats_digest` so re-simulation parity is
    checkable from the store alone.
    """
    spec = device_spec(scenario, device) if isinstance(device, int) else device
    trace = build_trace(scenario, spec)
    emmc = EmmcDevice(build_config(spec), faults=build_fault_plan(spec))
    if not emmc.stats.fresh:
        raise RuntimeError(
            f"device {spec.index} started replay with non-fresh stats"
        )
    result = Host(emmc).replay(trace)
    stats = result.stats
    wear = collect_wear(getattr(emmc.ftl, "pools", ()))
    digest = stats_digest(stats)
    responses = stats.response_us
    row: DeviceRow = {
        "device_index": spec.index,
        "app_id": scenario.app_names().index(spec.app),
        "config_id": scenario.config_names().index(spec.config_name),
        "fault_id": scenario.fault_profile_names().index(spec.fault_profile),
        "rate_factor": spec.rate_factor,
        "size_factor": spec.size_factor,
        "requests": stats.requests,
        "duration_us": result.trace.duration_us,
        "mean_response_us": sum(responses) / len(responses) if responses else 0.0,
        "mean_service_us": (
            sum(stats.service_us) / len(stats.service_us) if stats.service_us else 0.0
        ),
        "max_response_us": max(responses) if responses else 0.0,
        "no_wait_requests": stats.no_wait_requests,
        "data_bytes_written": stats.data_bytes_written,
        "data_bytes_read": stats.data_bytes_read,
        "flash_bytes_consumed": stats.flash_bytes_consumed,
        "gc_collections": stats.gc_collections,
        "idle_gc_collections": stats.idle_gc_collections,
        "gc_migrated_slots": stats.gc_migrated_slots,
        "erases": stats.erases,
        "max_erase": wear.max_erase,
        "mean_erase": wear.mean_erase,
        "wakeups": stats.wakeups,
        "low_power_us": stats.low_power_us,
        "energy_uj": energy_report(stats).total_uj,
        "read_retries": stats.read_retries,
        "uncorrectable_reads": stats.uncorrectable_reads,
        "program_failures": stats.program_failures,
        "erase_failures": stats.erase_failures,
        "bad_blocks_retired": stats.bad_blocks_retired,
        "fault_events": stats.fault_events,
        "stats_digest64": int(digest[:16], 16),
    }
    return DeviceResult(
        spec=spec, row=row, digest=digest, columns=result.trace.columns()
    )


def plan_shards(devices: int, shard_devices: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` device ranges covering the population."""
    if devices <= 0:
        raise ValueError("devices must be positive")
    if shard_devices <= 0:
        raise ValueError("shard_devices must be positive")
    return [
        (start, min(start + shard_devices, devices))
        for start in range(0, devices, shard_devices)
    ]


#: One shard's payload back to the parent: rows in index order, the
#: shard's metric states keyed by registry name, and timing.
_ShardPayload = Tuple[int, List[DeviceRow], Dict[str, Any], float, WallPoint]


def _run_shard(scenario: FleetScenario, start: int, stop: int) -> _ShardPayload:
    """Simulate devices ``[start, stop)`` and fold their request stats."""
    started = time.perf_counter()
    rows: List[DeviceRow] = []
    states: Dict[str, Any] = {
        name: get_metric(name).init() for name in FLEET_REQUEST_METRICS
    }
    for index in range(start, stop):
        result = simulate_device(scenario, index)
        rows.append(result.row)
        for name in FLEET_REQUEST_METRICS:
            get_metric(name).update(states[name], result.columns)
    ended = time.perf_counter()
    label = f"devices[{start}:{stop}]"
    return start, rows, states, ended - started, (label, started, ended, os.getpid())


def _summary_as_json(summary: Dict[str, Any]) -> Dict[str, object]:
    """Finalized metric values as JSON-ready objects for the manifest."""
    import dataclasses

    encoded: Dict[str, object] = {}
    for name, value in summary.items():
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            encoded[name] = dataclasses.asdict(value)
        else:
            encoded[name] = value
    return encoded


def _emit_wall_spans(sink, walls: List[WallPoint], origin_s: float) -> None:
    """One parent ``fleet`` span plus a child span per shard task."""
    if not walls:
        return
    ordered = sorted(walls, key=lambda wall: wall[1])
    parent = sink.add_wall_span(
        "fleet",
        ordered[0][1],
        max(wall[2] for wall in ordered),
        cat="fleet",
        track="fleet",
        origin_s=origin_s,
    )
    for label, started, ended, pid in ordered:
        sink.add_wall_span(
            label, started, ended,
            cat="shard", track=f"worker-{pid}", parent=parent, origin_s=origin_s,
        )


def run_fleet(
    scenario: FleetScenario,
    out_path: Union[str, Path],
    jobs: int = 1,
    shard_devices: int = DEFAULT_SHARD_DEVICES,
    chunk_devices: int = DEFAULT_CHUNK_DEVICES,
    overwrite: bool = False,
    wall_sink=None,
) -> FleetRunResult:
    """Run the whole fleet into a packed store at ``out_path``.

    ``jobs=1`` executes the shard plan inline; ``jobs>1`` fans it over a
    process pool.  Either way the parent consumes shard payloads through
    a reorder buffer keyed by shard start, so rows reach the store writer
    -- and metric states merge -- strictly in device-index order, and the
    resulting store is byte-identical for any ``jobs``.

    ``wall_sink`` (optional :class:`repro.telemetry.Telemetry`) records
    the run's wall-clock shape: one ``fleet`` parent span plus one child
    span per shard on a per-worker track.  Recording never affects the
    store bytes.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    run_started = time.perf_counter()
    shards = plan_shards(scenario.devices, shard_devices)
    writer = FleetStoreWriter(
        out_path, scenario, chunk_devices=chunk_devices, overwrite=overwrite
    )
    merged: Dict[str, Any] = {}
    compute_s = 0.0
    walls: List[WallPoint] = []

    def _commit(payload: _ShardPayload) -> None:
        nonlocal compute_s
        _, rows, states, duration, wall = payload
        writer.append_rows(rows)
        for name in FLEET_REQUEST_METRICS:
            if name in merged:
                get_metric(name).merge(merged[name], states[name])
            else:
                merged[name] = states[name]
        compute_s += duration
        walls.append(wall)

    if jobs == 1:
        for start, stop in shards:
            _commit(_run_shard(scenario, start, stop))
    else:
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=_pool_context(),
            initializer=_worker_init,
            initargs=(scenario.seed,),
        )
        try:
            futures = {
                pool.submit(_run_shard, scenario, start, stop): start
                for start, stop in shards
            }
            # Reorder buffer: payloads commit strictly in shard-start order
            # no matter which worker finishes first.
            ready: Dict[int, _ShardPayload] = {}
            order = [start for start, _ in shards]
            next_at = 0
            pending = set(futures)
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    payload = future.result()
                    ready[payload[0]] = payload
                while next_at < len(order) and order[next_at] in ready:
                    _commit(ready.pop(order[next_at]))
                    next_at += 1
        finally:
            pool.shutdown(wait=True)

    summary = {
        name: get_metric(name).finalize(merged[name], scenario.name)
        for name in FLEET_REQUEST_METRICS
    }
    manifest = writer.close(request_summary=_summary_as_json(summary))
    wall_s = time.perf_counter() - run_started
    if wall_sink is not None:
        _emit_wall_spans(wall_sink, walls, run_started)
    return FleetRunResult(
        scenario=scenario,
        path=Path(out_path),
        manifest=manifest,
        request_summary=summary,
        jobs=jobs,
        wall_s=wall_s,
        compute_s=compute_s,
        shards=len(shards),
    )
