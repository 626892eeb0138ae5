"""Shared infrastructure for the per-table/figure experiment modules."""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, TypeVar

from repro.trace import Trace
from repro.workloads import (
    ALL_TRACES,
    DEFAULT_SEED,
    INDIVIDUAL_APPS,
    generate_trace,
)
from repro.workloads.collection import CollectionResult, collect
from repro.emmc import DeviceConfig, EmmcDevice, ReplayResult, four_ps
from repro.sim import Host

T = TypeVar("T")


@dataclass
class ExperimentResult:
    """Output of one experiment: a printable report plus structured data."""

    experiment_id: str
    title: str
    table: str
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """The printable report for this experiment."""
        return f"== {self.experiment_id}: {self.title} ==\n{self.table}"


class ProcessLocalLRU:
    """A bounded memo that never leaks across process boundaries.

    The previous implementation used :func:`functools.lru_cache`, which is
    plain process-global state: after an ``os.fork()`` (what
    ``ProcessPoolExecutor`` does on Linux) every worker inherited the
    parent's cached traces, so a long-lived pool both held an unbounded
    copy of every (seed, size) trace set per worker and could serve a
    worker traces generated before the fork -- incoherent with what a
    freshly-seeded worker would compute.  This cache:

    * records the owning ``os.getpid()`` and empties itself the first time
      it is touched from a different process (covers ``fork`` *and* any
      exotic inheritance path);
    * additionally registers an ``os.register_at_fork`` hook (via
      :func:`clear_experiment_caches`) so children start empty even before
      first access;
    * evicts least-recently-used entries beyond ``maxsize`` so sweeping
      many seeds/sizes cannot grow memory without bound;
    * counts hits/misses/fork-invalidations for telemetry and tests.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._pid = os.getpid()
        self.hits = 0
        self.misses = 0
        self.fork_invalidations = 0

    def _ensure_process_local(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._data.clear()
            self._pid = pid
            self.fork_invalidations += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing it on a miss."""
        self._ensure_process_local()
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]  # type: ignore[return-value]
        self.misses += 1
        value = compute()
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return value

    def clear(self) -> None:
        self._data.clear()
        self._pid = os.getpid()

    def __len__(self) -> int:
        self._ensure_process_local()
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        self._ensure_process_local()
        return key in self._data


#: Process-local trace memo (25 apps x a few (seed, size) combinations).
_TRACE_CACHE = ProcessLocalLRU(maxsize=128)
#: Process-local closed-loop collection memo.
_COLLECTION_CACHE = ProcessLocalLRU(maxsize=64)


def clear_experiment_caches() -> None:
    """Empty every shared experiment memo (used by the fork hook/tests)."""
    _TRACE_CACHE.clear()
    _COLLECTION_CACHE.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=clear_experiment_caches)


#: Environment variable naming a directory of packed trace stores.  When
#: set, :func:`cached_trace` sources traces from matching store
#: subdirectories instead of re-synthesizing them.  Off by default so the
#: experiment pipeline's provenance stays purely generative.
TRACE_STORE_ENV = "REPRO_TRACE_STORE"


def trace_store_key(name: str, seed: int, num_requests: Optional[int]) -> str:
    """Store subdirectory name for one (name, seed, size) trace identity."""
    safe = name.replace("/", "+")
    suffix = "full" if num_requests is None else str(num_requests)
    return f"{safe}-s{seed}-n{suffix}"


def _trace_from_store(
    name: str, seed: int, num_requests: Optional[int]
) -> Optional[Trace]:
    """Load the trace from ``$REPRO_TRACE_STORE`` if a matching store exists.

    Returns ``None`` (fall back to synthesis) when the variable is unset,
    the subdirectory is absent, or it holds no readable manifest.  A
    present-but-corrupt manifest raises rather than silently
    regenerating different data.
    """
    root = os.environ.get(TRACE_STORE_ENV)
    if not root:
        return None
    from repro.store import MANIFEST_NAME, open_store

    path = os.path.join(root, trace_store_key(name, seed, num_requests))
    if not os.path.exists(os.path.join(path, MANIFEST_NAME)):
        return None
    return open_store(path).to_trace()


def cached_trace(
    name: str, seed: int = DEFAULT_SEED, num_requests: Optional[int] = None
) -> Trace:
    """One synthesized trace, memoized per (name, seed, size) in-process.

    Trace synthesis is keyed only by these three values (the generator
    derives its RNG streams from a hash of name+seed), so the memo is safe
    to consult from any experiment -- and, because the cache is
    process-local, from any pool worker.

    When :data:`TRACE_STORE_ENV` points at a directory of packed stores
    (see ``repro-trace store pack``), a store named
    :func:`trace_store_key` is used instead of re-synthesizing; packed
    stores round-trip traces exactly, so results are unchanged either way.
    The store root is part of the memo key, so a trace memoized before
    the variable was set or changed is not served after it.
    """
    root = os.environ.get(TRACE_STORE_ENV) or None

    def compute() -> Trace:
        stored = _trace_from_store(name, seed, num_requests)
        if stored is not None:
            return stored
        return generate_trace(name, seed=seed, num_requests=num_requests)

    return _TRACE_CACHE.get_or_compute((name, seed, num_requests, root), compute)


def cached_collection(
    name: str, seed: int = DEFAULT_SEED, num_requests: Optional[int] = None
) -> CollectionResult:
    """One closed-loop collection, memoized like :func:`cached_trace`."""
    return _COLLECTION_CACHE.get_or_compute(
        (name, seed, num_requests),
        lambda: collect(name, seed=seed, num_requests=num_requests),
    )


def individual_traces(
    seed: int = DEFAULT_SEED, num_requests: Optional[int] = None
) -> List[Trace]:
    """The 18 individual traces (memoized per seed/size)."""
    return [cached_trace(name, seed, num_requests) for name in INDIVIDUAL_APPS]


def all_traces(
    seed: int = DEFAULT_SEED, num_requests: Optional[int] = None
) -> List[Trace]:
    """All 25 traces (memoized per seed/size)."""
    return [cached_trace(name, seed, num_requests) for name in ALL_TRACES]


#: Environment variable naming a fault profile (see
#: :data:`repro.faults.PROFILES`) to thread through every experiment
#: replay.  ``none``/unset leaves the replay path structurally unchanged
#: (the CI golden-parity job runs with ``REPRO_FAULT_PROFILE=none`` to
#: prove exactly that).
FAULT_PROFILE_ENV = "REPRO_FAULT_PROFILE"


def _fault_plan_from_env():
    """The :class:`~repro.faults.FaultPlan` named by the environment, if any."""
    profile = os.environ.get(FAULT_PROFILE_ENV)
    if not profile:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.profile(profile)


def _telemetry_from_env():
    """A fresh :class:`~repro.telemetry.Telemetry` sink when enabled by env.

    ``$REPRO_TELEMETRY`` unset/empty/``0``/``off``/``none``/``false``
    leaves the replay path structurally unchanged (``telemetry=None`` on
    the device, no recording branches).  Any other value attaches a
    fresh per-replay sink; the digest-parity suite runs the whole
    experiment battery both ways and asserts bit-identical results.
    """
    value = os.environ.get("REPRO_TELEMETRY", "")
    if value.lower() in ("", "0", "off", "none", "false"):
        return None
    from repro.telemetry import Telemetry

    return Telemetry()


def replay_on(config: DeviceConfig, trace: Trace, faults=None) -> ReplayResult:
    """Replay ``trace`` open-loop on a brand-new device built from ``config``.

    This is the experiments' one front door to the device: a
    :class:`repro.sim.Host` schedules every request as an ``ARRIVAL``
    event on the device's kernel and drains the loop, so figure replays
    take exactly the Host -> EmmcDevice path the rest of the codebase
    uses.

    ``faults`` is an optional :class:`~repro.faults.FaultPlan`; when left
    ``None`` it is sourced from ``$REPRO_FAULT_PROFILE``, so a whole
    experiment sweep can be rerun under a fault profile without touching
    any call site.  An inactive plan is dropped by the device itself.
    ``$REPRO_TELEMETRY`` likewise attaches a per-replay telemetry sink
    (see :func:`_telemetry_from_env`) -- recording only, never a
    behaviour change.

    Columnar wiring: a trace is its columns, and ``without_timing``
    shares them for never-replayed traces, so a fast-path replay never
    builds a ``Request`` for the input side.
    """
    if faults is None:
        faults = _fault_plan_from_env()
    telemetry = _telemetry_from_env()
    device = EmmcDevice(config, faults=faults, telemetry=telemetry)
    return Host(device).replay(trace.without_timing())


def replayed_individual(
    seed: int = DEFAULT_SEED, num_requests: Optional[int] = None
) -> List[CollectionResult]:
    """The 18 individual traces collected closed-loop on the reference device.

    This is the BIOtracer methodology (see
    :mod:`repro.workloads.collection`): the recorded timestamps are what the
    monitor would log on the phone, which is what Table IV, Fig. 5 and the
    characteristics are computed from.
    """
    return [cached_collection(name, seed, num_requests) for name in INDIVIDUAL_APPS]


def replayed_all(
    seed: int = DEFAULT_SEED, num_requests: Optional[int] = None
) -> List[CollectionResult]:
    """All 25 traces collected closed-loop on the reference device."""
    return [cached_collection(name, seed, num_requests) for name in ALL_TRACES]
