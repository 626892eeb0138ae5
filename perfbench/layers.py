"""Layer boundaries and self-time accounting for the traced benchmark run.

The traced run wraps the public call boundaries of each layer *from
outside*: nothing under ``src/`` knows it is being measured.  Callers
import most of these functions by name (``from .planner import
plan_trace``), so a boundary patches the binding the *caller* looks up
at call time -- ``repro.replay.engine.plan_trace``, not
``repro.replay.planner.plan_trace``.  Methods are patched on their
class and on every subclass that overrides them.

Each wrapped call adds one to ``<prefix>.calls`` and its self time --
its duration minus the time spent in wrapped calls it made -- to
``<prefix>.self_s``.  Self times therefore partition the time spent
under the outermost wrapped calls, and their sum over the traced wall is
``trace.coverage_pct``.  Boundaries that are not per-request also emit a
wall span on a :class:`repro.telemetry.Telemetry` sink via
``add_wall_span``, the same mechanism the experiment runner and the
fleet executor use, so the traced run exports a Chrome trace with the
existing ``chrome_trace`` writer.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Boundary:
    """One named layer boundary and the bindings that make it up."""

    prefix: str
    #: ``"module:function"`` or ``"module:Class.method"`` bindings.
    targets: Tuple[str, ...]
    #: Emit a wall span per call.  Off for per-request boundaries, where a
    #: span per call would cost more than the work it describes.
    span: bool = True
    #: Also report inclusive time as ``<prefix>.total_s``.
    total: bool = False
    #: Work items per call, reported as ``<prefix>.requests``.
    requests: Optional[Callable[[tuple], int]] = None
    #: An FTL call: calls made while :data:`PLAN` is on the stack (the
    #: planner's fallbacks to the real FTL) add to ``replay.plan.ftl_calls``.
    ftl: bool = False


#: The planning pass, whose ``ftl_calls`` the ``ftl`` boundaries count.
PLAN = "replay.plan"

#: The boundary table.  Order is report order.
BOUNDARIES: Tuple[Boundary, ...] = (
    # Every caller's own binding of ``repro.workloads.generate_trace``, so
    # trace synthesis is credited here wherever it runs.
    Boundary(
        "workloads.generate",
        (
            "repro.experiments.common:generate_trace",
            "repro.experiments.ftl_study:generate_trace",
            "repro.experiments.lifetime:generate_trace",
            "repro.experiments.power_study:generate_trace",
            "repro.experiments.sdcard_study:generate_trace",
            "repro.experiments.sensitivity:generate_trace",
            "repro.fleet.population:generate_trace",
        ),
    ),
    Boundary("workloads.collect", ("repro.experiments.common:collect",)),
    Boundary(
        "workloads.sync_fraction",
        ("repro.workloads.collection:sync_fraction",),
        total=True,
    ),
    Boundary("emmc.device_init", ("repro.emmc.device:EmmcDevice.__init__",)),
    Boundary("emmc.submit", ("repro.emmc.device:EmmcDevice.submit",), span=False),
    Boundary("emmc.ftl_write", ("repro.emmc.ftl.core:Ftl.write",), span=False, ftl=True),
    Boundary("emmc.ftl_read", ("repro.emmc.ftl.core:Ftl.read",), span=False, ftl=True),
    Boundary("emmc.gc", ("repro.emmc.ftl.gc:GreedyGC.collect",), span=False),
    Boundary("sim.replay", ("repro.sim.host:Host.replay",)),
    Boundary(
        PLAN,
        ("repro.replay.engine:plan_trace",),
        requests=lambda args: len(args[1]),
    ),
    Boundary("replay.timing", ("repro.replay.engine:compute_timing",)),
    Boundary("replay.apply", ("repro.replay.engine:fast_replay",)),
    Boundary("fleet.build_trace", ("repro.fleet.executor:build_trace",)),
    Boundary("fleet.device", ("repro.fleet.executor:simulate_device",)),
    Boundary("faults.stats_digest", ("repro.fleet.executor:stats_digest",)),
    Boundary("metrics.update", ("repro.metrics.base:Metric.update",)),
    Boundary("metrics.merge", ("repro.metrics.base:Metric.merge",)),
    Boundary("metrics.finalize", ("repro.metrics.base:Metric.finalize",)),
    Boundary(
        "store.fleet_write",
        (
            "repro.fleet.store:FleetStoreWriter.append_rows",
            "repro.fleet.store:FleetStoreWriter.close",
        ),
    ),
)


#: Metrics derived from several boundaries.
DERIVED = (f"{PLAN}.ftl_calls", "replay.fastpath_ratio", "trace.coverage_pct")


def metric_names() -> List[str]:
    """Every per-layer metric name the tracer reports, in report order."""
    names: List[str] = []
    for boundary in BOUNDARIES:
        names += [f"{boundary.prefix}.calls", f"{boundary.prefix}.self_s"]
        if boundary.total:
            names.append(f"{boundary.prefix}.total_s")
        if boundary.requests is not None:
            names.append(f"{boundary.prefix}.requests")
    return names + list(DERIVED)


class _Layer:
    """Running totals for one boundary."""

    __slots__ = ("calls", "self_s", "total_s", "active", "requests", "ftl_calls")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0
        self.requests = 0
        self.ftl_calls = 0


def _owners(target: str) -> Tuple[List[object], str]:
    """The objects whose attribute ``name`` is the binding ``target``."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [module], path
    class_name, name = path.split(".")
    owners: List[object] = []
    pending = [getattr(module, class_name)]
    while pending:
        cls = pending.pop()
        if name in vars(cls) and cls not in owners:
            owners.append(cls)
        pending.extend(cls.__subclasses__())
    return owners, name


class Tracer:
    """Installs the boundary wrappers and accumulates per-layer totals.

    Use as a context manager (or :meth:`install` / :meth:`uninstall`).
    Wrappers are process-local: a process pool forked while they are
    installed would count in its workers, so traced runs use ``jobs=1``.
    """

    def __init__(self, sink=None) -> None:
        self.sink = sink
        self.layers: Dict[str, _Layer] = {b.prefix: _Layer() for b in BOUNDARIES}
        #: Wrapped calls per binding (``target`` -> count).
        self.hits: Dict[str, int] = {t: 0 for b in BOUNDARIES for t in b.targets}
        self._stack: List[float] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.origin_s = time.perf_counter()

    def install(self) -> "Tracer":
        for boundary in BOUNDARIES:
            for target in boundary.targets:
                owners, name = _owners(target)
                if not owners:
                    raise LookupError(f"boundary binding {target} not found")
                for owner in owners:
                    original = vars(owner)[name]
                    wrapped = self._wrap(original, boundary, target)
                    setattr(owner, name, wrapped)
                    self._patched.append((owner, name, original))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, fn, boundary: Boundary, target: str):
        layer = self.layers[boundary.prefix]
        plan = self.layers[PLAN] if boundary.ftl else None
        count_requests = boundary.requests
        sink = self.sink if boundary.span else None
        prefix = boundary.prefix
        stack = self._stack
        hits = self.hits
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_requests is not None:
                layer.requests += count_requests(args)
            if plan is not None and plan.active:
                plan.ftl_calls += 1
            layer.active += 1
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                elapsed = ended - started
                layer.self_s += elapsed - stack.pop()
                layer.calls += 1
                layer.active -= 1
                if not layer.active:
                    layer.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
                hits[target] += 1
                if sink is not None:
                    sink.add_wall_span(
                        prefix, started, ended, cat="layer", origin_s=self.origin_s
                    )

        return wrapper

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics for a traced call that took ``wall_s``."""
        values: Dict[str, float] = {}
        for boundary in BOUNDARIES:
            layer = self.layers[boundary.prefix]
            values[f"{boundary.prefix}.calls"] = layer.calls
            values[f"{boundary.prefix}.self_s"] = layer.self_s
            if boundary.total:
                values[f"{boundary.prefix}.total_s"] = layer.total_s
            if boundary.requests is not None:
                values[f"{boundary.prefix}.requests"] = layer.requests
        values[f"{PLAN}.ftl_calls"] = self.layers[PLAN].ftl_calls
        replays = self.layers["sim.replay"].calls
        fast = self.layers["replay.apply"].calls
        values["replay.fastpath_ratio"] = fast / replays if replays else 0.0
        covered = sum(layer.self_s for layer in self.layers.values())
        values["trace.coverage_pct"] = 100.0 * covered / wall_s if wall_s > 0 else 0.0
        return values
