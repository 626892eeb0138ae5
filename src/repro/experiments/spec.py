"""Declarative experiment specifications.

Every experiment module exports a module-level :data:`SPEC`, an
:class:`ExperimentSpec` describing how to run it: the runner callable, its
scheduling cost class, dependencies on other experiments, and (for the
heavy replay studies) a :class:`ShardPlan` that lets the parallel engine
split the experiment into independent per-trace units of work.

The specs replace the ad-hoc ``lambda seed, n: module.run(...)`` registry
that :mod:`repro.experiments.runner` used to carry.  Keeping everything a
module-level callable (never a lambda or closure) is what makes the specs
safe to resolve inside ``ProcessPoolExecutor`` workers: workers receive
only the experiment id and look the spec up again after import, so nothing
non-picklable ever crosses a process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .common import ExperimentResult

#: Scheduling cost classes, heaviest first.  The parallel engine submits
#: heavy experiments before light ones so the pool drains evenly.
COST_CLASSES = ("heavy", "medium", "light")

#: ``(seed, num_requests) -> ExperimentResult`` -- the uniform call
#: convention every spec runner adapts its module's ``run()`` to.
Runner = Callable[[int, Optional[int]], ExperimentResult]

#: ``(unit, seed, num_requests) -> payload`` -- one independent shard.
#: The payload depends only on ``(worker, unit)`` and ``(seed,
#: num_requests)``, so the engine runs a ``(worker, unit)`` pair that
#: several specs list once per wave and hands every spec the same payload.
ShardWorker = Callable[[str, int, Optional[int]], object]

#: ``(payloads_by_unit, seed, num_requests) -> ExperimentResult`` --
#: deterministic reassembly of the shard payloads.
ShardMerge = Callable[[Dict[str, object], int, Optional[int]], ExperimentResult]


@dataclass(frozen=True)
class ShardPlan:
    """How to split one experiment into independent units of work.

    ``units`` lists the shard keys (trace names for the replay studies);
    ``worker`` computes one unit's payload and ``merge`` reassembles the
    full :class:`ExperimentResult` from all payloads.  ``merge`` must be a
    pure function of the payloads so that sharded output is bit-identical
    to the unsharded ``run()``, and must not mutate them: plans that name
    the same worker share payload objects.
    """

    units: Tuple[str, ...]
    worker: ShardWorker
    merge: ShardMerge


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment.

    Attributes
    ----------
    experiment_id:
        Registry key; also the id embedded in the result and cache key.
    title:
        One-line description used by ``repro-experiments --list``.
    runner:
        Module-level callable with the ``(seed, num_requests)`` convention.
    cost:
        One of :data:`COST_CLASSES`; orders submission to the worker pool.
    deps:
        Ids of experiments that must complete before this one is
        scheduled.  All current experiments are independent, but the
        scheduler honours the field so future pipeline stages (e.g. a
        summary experiment over earlier results) need no engine changes.
    shards:
        Optional :class:`ShardPlan` for splitting the experiment across
        workers at finer granularity than whole experiments.
    uses_seed / uses_requests:
        Whether the experiment's output actually depends on ``seed`` /
        ``num_requests``.  The cache key only includes parameters the
        experiment consumes, so e.g. ``overhead`` (which ignores the seed)
        is not needlessly recomputed when only the seed changes.
    """

    experiment_id: str
    title: str
    runner: Runner
    cost: str = "light"
    deps: Tuple[str, ...] = ()
    shards: Optional[ShardPlan] = None
    uses_seed: bool = True
    uses_requests: bool = True
    extra_config: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cost not in COST_CLASSES:
            raise ValueError(
                f"{self.experiment_id}: cost {self.cost!r} not in {COST_CLASSES}"
            )

    def call(self, seed: int, num_requests: Optional[int]) -> ExperimentResult:
        """Run the experiment in-process (the serial path)."""
        return self.runner(seed, num_requests)

    def cache_relevant_params(
        self, seed: int, num_requests: Optional[int]
    ) -> Dict[str, object]:
        """The (parameter -> value) map that the cache key must cover."""
        params: Dict[str, object] = {}
        if self.uses_seed:
            params["seed"] = seed
        if self.uses_requests:
            params["num_requests"] = num_requests
        if self.extra_config:
            params["extra_config"] = dict(sorted(self.extra_config.items()))
        return params
