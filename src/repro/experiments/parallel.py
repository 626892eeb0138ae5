"""Parallel, cached execution of the experiment registry.

The engine shards work at two granularities:

* **whole experiments** -- every selected experiment with no
  :class:`~repro.experiments.spec.ShardPlan` is one task;
* **per-trace shards** -- heavy replay studies (fig3/fig8/fig9) split into
  one task per independent unit (device sweep, or one app's replays), so
  a single heavy experiment no longer serializes the tail of the run.

A shard unit is identified by ``(worker, unit)``: by the
:data:`~repro.experiments.spec.ShardWorker` contract its payload depends
only on that pair plus ``(seed, num_requests)``.  Within a wave each
distinct pair runs once, serially or in the pool, and its payload goes to
every spec that lists it -- fig8 and fig9 share one per-app replay task.
Its compute and wall time are charged to its first consumer in wave
order; the others count it in ``shared_units``.

Determinism
-----------
Parallel output is bit-identical to serial because nothing about the
computation depends on scheduling:

* every RNG stream is derived from ``hash(name, seed)`` inside the
  generators, never from global state (the pool still reseeds
  ``random``/``numpy`` per worker as defense in depth);
* shard payloads are merged by the spec's ``merge`` in one deterministic
  order in the parent, so float accumulation order never varies;
* results are emitted in selection (paper) order, not completion order.

Workers receive only ``(experiment_id, unit, seed, num_requests)`` and
re-resolve the spec from :mod:`repro.experiments.registry` after import,
so nothing non-picklable crosses the process boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import registry
from .cache import CacheStats, NullCache, ResultCache
from .common import ExperimentResult
from .spec import COST_CLASSES, ExperimentSpec, ShardWorker

#: One wall measurement from a task: (label, started_s, ended_s, pid).
#: Endpoints are ``time.perf_counter()`` seconds -- CLOCK_MONOTONIC on
#: Linux, system-wide, so worker-process endpoints are directly
#: comparable with the parent's run origin.
WallPoint = Tuple[str, float, float, int]


@dataclass
class ExperimentTelemetry:
    """Wall-time and cache accounting for one experiment."""

    experiment_id: str
    compute_s: float  # summed worker-side compute time (serial-equivalent)
    wall_s: float  # submit-to-merge span as seen by the scheduler
    cache: str  # "hit" | "miss" | "off"
    shards: int  # parallel shard count (0 = ran in-process or as one task)
    cost: str
    shared_units: int = 0  # units served by a task run for another experiment

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "compute_s": round(self.compute_s, 6),
            "wall_s": round(self.wall_s, 6),
            "cache": self.cache,
            "shards": self.shards,
            "shared_units": self.shared_units,
            "cost": self.cost,
        }


@dataclass
class RunSummary:
    """Everything one engine invocation produced."""

    results: List[ExperimentResult]
    telemetry: List[ExperimentTelemetry]
    wall_s: float
    jobs: int
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def compute_s(self) -> float:
        """Serial-equivalent compute seconds actually spent this run."""
        return sum(item.compute_s for item in self.telemetry)

    @property
    def speedup(self) -> float:
        """Serial-equivalent seconds per wall second (1.0 = no benefit)."""
        return self.compute_s / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 6),
            "compute_s": round(self.compute_s, 6),
            "speedup": round(self.speedup, 3),
            "experiments": [item.as_dict() for item in self.telemetry],
            "cache": self.cache_stats.as_dict(),
        }


def _worker_init(seed: int) -> None:
    """Deterministically seed the global RNGs in a fresh worker.

    Experiments derive their randomness from explicit per-name streams, so
    this is defense in depth: any stray use of the global generators
    behaves identically no matter which worker runs which task.
    """
    random.seed(seed)
    np.random.seed(seed % 2**32)


def _run_whole(
    experiment_id: str, seed: int, num_requests: Optional[int]
) -> Tuple[ExperimentResult, float, WallPoint]:
    spec = registry.get_spec(experiment_id)
    started = time.perf_counter()
    result = spec.call(seed, num_requests)
    ended = time.perf_counter()
    return result, ended - started, ("run", started, ended, os.getpid())


def _run_shard(
    experiment_id: str, unit: str, seed: int, num_requests: Optional[int]
) -> Tuple[str, object, float, WallPoint]:
    spec = registry.get_spec(experiment_id)
    assert spec.shards is not None
    started = time.perf_counter()
    payload = spec.shards.worker(unit, seed, num_requests)
    ended = time.perf_counter()
    return unit, payload, ended - started, (unit, started, ended, os.getpid())


def _pool_context():
    """Prefer fork (fast, and our caches are fork-safe); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _cost_rank(spec: ExperimentSpec) -> int:
    return COST_CLASSES.index(spec.cost)


def _topological_waves(specs: Sequence[ExperimentSpec]) -> List[List[ExperimentSpec]]:
    """Dependency waves; deps outside the selection count as satisfied."""
    selected = {spec.experiment_id for spec in specs}
    done: set = set()
    remaining = list(specs)
    waves: List[List[ExperimentSpec]] = []
    while remaining:
        ready = [
            spec
            for spec in remaining
            if all(dep in done or dep not in selected for dep in spec.deps)
        ]
        if not ready:
            cycle = [spec.experiment_id for spec in remaining]
            raise ValueError(f"dependency cycle among experiments: {cycle}")
        # Heavy experiments first so the pool drains evenly.
        ready.sort(key=_cost_rank)
        waves.append(ready)
        done.update(spec.experiment_id for spec in ready)
        remaining = [spec for spec in remaining if spec.experiment_id not in done]
    return waves


#: A shard unit's identity (see the module docstring).
UnitKey = Tuple[ShardWorker, str]


@dataclass
class _Outcome:
    """One experiment's progress through its wave."""

    spec: ExperimentSpec
    result: Optional[ExperimentResult] = None
    compute_s: float = 0.0
    walls: List[WallPoint] = field(default_factory=list)
    payloads: Dict[str, object] = field(default_factory=dict)
    shared_units: int = 0


class _Wave:
    """One dependency wave as tasks: each whole spec and distinct unit once.

    :attr:`tasks` lists ``(function, args, tag)`` in wave order.  Whoever
    runs a task -- inline or a pool worker -- hands its return value to
    :meth:`deliver`, which charges the compute and wall time to the task's
    first consumer, fans a unit's payload out to every spec that lists it,
    and merges a sharded spec in this (the parent) process as soon as its
    last unit is in.
    """

    def __init__(
        self,
        wave: Sequence[ExperimentSpec],
        seed: int,
        num_requests: Optional[int],
    ) -> None:
        self.seed = seed
        self.num_requests = num_requests
        self.outcomes = {spec.experiment_id: _Outcome(spec) for spec in wave}
        self.consumers: Dict[UnitKey, List[_Outcome]] = {}
        self.tasks: List[Tuple[Callable, tuple, Union[str, UnitKey]]] = []
        for spec in wave:
            outcome = self.outcomes[spec.experiment_id]
            if spec.shards is None:
                self.tasks.append((
                    _run_whole, (spec.experiment_id, seed, num_requests),
                    spec.experiment_id,
                ))
                continue
            for unit in spec.shards.units:
                key = (spec.shards.worker, unit)
                if key in self.consumers:
                    outcome.shared_units += 1
                else:
                    self.consumers[key] = []
                    self.tasks.append((
                        _run_shard, (spec.experiment_id, unit, seed, num_requests),
                        key,
                    ))
                self.consumers[key].append(outcome)

    def deliver(self, tag: Union[str, UnitKey], value: tuple) -> None:
        """Account one finished task and merge every spec it completes."""
        if isinstance(tag, str):
            outcome = self.outcomes[tag]
            outcome.result, duration, wall = value
            outcome.compute_s += duration
            outcome.walls.append(wall)
            return
        unit, payload, duration, wall = value
        consumers = self.consumers[tag]
        consumers[0].compute_s += duration
        consumers[0].walls.append(wall)
        for outcome in consumers:
            outcome.payloads[unit] = payload
            if len(outcome.payloads) == len(outcome.spec.shards.units):
                self._merge(outcome)

    def _merge(self, outcome: _Outcome) -> None:
        started = time.perf_counter()
        outcome.result = outcome.spec.shards.merge(
            outcome.payloads, self.seed, self.num_requests
        )
        ended = time.perf_counter()
        outcome.compute_s += ended - started
        outcome.walls.append(("merge", started, ended, os.getpid()))


#: Span category per wall label; every other label is a shard unit.
_SPAN_CATEGORIES = {"run": "task", "merge": "merge"}


def _emit_wall_spans(
    sink,
    spec: ExperimentSpec,
    walls: Sequence[WallPoint],
    origin_s: float,
) -> None:
    """Record one experiment's wall-clock spans on the runner's sink.

    The experiment gets a parent span on the ``experiments`` track
    covering first-start to last-end; each task it ran (whole run, shard,
    merge) becomes a child span on a per-worker ``worker-PID`` track.  A
    shared shard task appears once, under its first consumer.  Wall spans
    are real time -- deliberately outside the byte-identity contract
    sim-time spans live under.
    """
    if not walls:
        return
    ordered = sorted(walls, key=lambda wall: wall[1])
    parent = sink.add_wall_span(
        spec.experiment_id,
        ordered[0][1],
        max(wall[2] for wall in ordered),
        cat="experiment",
        track="experiments",
        origin_s=origin_s,
    )
    for label, started, ended, pid in ordered:
        sink.add_wall_span(
            f"{spec.experiment_id}:{label}", started, ended,
            cat=_SPAN_CATEGORIES.get(label, "shard"),
            track=f"worker-{pid}", parent=parent, origin_s=origin_s,
        )


def execute(
    ids: Optional[Sequence[str]] = None,
    seed: int = 0,
    num_requests: Optional[int] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    wall_sink=None,
) -> RunSummary:
    """Run ``ids`` (default: everything) and return results + telemetry.

    ``jobs=1`` runs in-process with no pool; ``jobs>1`` shards across a
    ``ProcessPoolExecutor``.  Either way a sharded experiment runs as its
    units plus ``merge``, each distinct ``(worker, unit)`` of a wave runs
    once, and the results are bit-identical and ordered by selection
    (paper) order.  ``cache=None`` disables caching.

    ``wall_sink`` is an optional :class:`repro.telemetry.Telemetry`
    recording the run's wall-clock shape: one span per experiment, one
    child span per task on a per-worker track, and a ``cache-hit`` /
    ``cache-miss`` instant per cache probe.  Timestamps are microseconds
    since this call started.  Recording never affects results.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    specs = registry.select(ids or ())
    cache = cache if cache is not None else NullCache()
    run_started = time.perf_counter()

    telemetry_by_id: Dict[str, ExperimentTelemetry] = {}
    results_by_id: Dict[str, ExperimentResult] = {}

    # Cache probe (parent process, cheap).
    to_compute: List[ExperimentSpec] = []
    for spec in specs:
        cached = cache.load(spec, seed, num_requests)
        if wall_sink is not None:
            wall_sink.add_event(
                spec.experiment_id,
                (time.perf_counter() - run_started) * 1e6,
                cat="cache-hit" if cached is not None else "cache-miss",
                track="cache",
            )
        if cached is not None:
            results_by_id[spec.experiment_id] = cached
            telemetry_by_id[spec.experiment_id] = ExperimentTelemetry(
                experiment_id=spec.experiment_id,
                compute_s=0.0,
                wall_s=0.0,
                cache="hit",
                shards=0,
                cost=spec.cost,
            )
        else:
            to_compute.append(spec)

    if to_compute:
        waves = _topological_waves(to_compute)
        pool: Optional[ProcessPoolExecutor] = None
        try:
            if jobs > 1:
                pool = ProcessPoolExecutor(
                    max_workers=jobs,
                    mp_context=_pool_context(),
                    initializer=_worker_init,
                    initargs=(seed,),
                )
            for specs_in_wave in waves:
                wave_started = time.perf_counter()
                wave = _Wave(specs_in_wave, seed, num_requests)
                if pool is None:
                    for function, args, tag in wave.tasks:
                        wave.deliver(tag, function(*args))
                else:
                    futures = {
                        pool.submit(function, *args): tag
                        for function, args, tag in wave.tasks
                    }
                    for future in as_completed(futures):
                        wave.deliver(futures[future], future.result())
                wave_wall = time.perf_counter() - wave_started
                for spec in specs_in_wave:
                    outcome = wave.outcomes[spec.experiment_id]
                    if wall_sink is not None:
                        _emit_wall_spans(wall_sink, spec, outcome.walls, run_started)
                    results_by_id[spec.experiment_id] = outcome.result
                    telemetry_by_id[spec.experiment_id] = ExperimentTelemetry(
                        experiment_id=spec.experiment_id,
                        compute_s=outcome.compute_s,
                        wall_s=outcome.compute_s if pool is None else wave_wall,
                        cache="miss" if cache.enabled else "off",
                        shards=(
                            len(spec.shards.units)
                            if pool is not None and spec.shards is not None
                            else 0
                        ),
                        cost=spec.cost,
                        shared_units=outcome.shared_units,
                    )
                    cache.store(spec, seed, num_requests, outcome.result)
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

    ordered_ids = [spec.experiment_id for spec in specs]
    return RunSummary(
        results=[results_by_id[eid] for eid in ordered_ids],
        telemetry=[telemetry_by_id[eid] for eid in ordered_ids],
        wall_s=time.perf_counter() - run_started,
        jobs=jobs,
        cache_stats=cache.stats,
    )
