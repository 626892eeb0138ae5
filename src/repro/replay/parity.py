"""Full-state parity between the replay engines: snapshot a device, diff two.

The fast path's contract is bit-identity with the event kernel, so the
oracle is the whole device, not a digest of it.  :func:`snapshot` reads
every piece of state a replay can touch through public views:

* every ``DeviceStats`` field (float lists element for element);
* the device's timing state: the admission queue, the power state and
  the controller / channel / unit frontiers; the kernel clock, its
  pending-event count and the pending power-down deadline;
* the bit-generator state of each fault-injector stream, so a different
  number of draws is a difference even when the draws agree;
* the FTL: the decoded LPN mapping, one row per block (erase count,
  write pointer, valid count, bad flag and the slots of its written
  pages), the free-list order and active block of every pool, the
  striping cursor and the GC totals;
* optionally a replay result's timed requests and, separately, the
  columns of its trace (arrival, service start, completion, address,
  size, op and flags).  The fast path builds those columns from its own
  timing arrays instead of deriving them from the requests, and the
  metrics read them, so they are checked as their own state.

:func:`compare` diffs two snapshots and returns one line per mismatch,
naming the first diverging element of a list or column.  Columns compare
bit for bit, so NaN equals NaN.  ``tools/replay_parity.py``
and ``tests/replay`` both use this pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

State = Dict[str, object]

#: The :class:`~repro.trace.TraceColumns` arrays a snapshot records.
TRACE_COLUMNS = (
    "arrival_us", "service_start_us", "complete_us", "lba", "size", "op", "flags",
)


def snapshot(device, result=None) -> State:
    """Everything a replay can change on ``device``, as comparable values."""
    state: State = {}
    for name, value in vars(device.stats).items():
        state[f"stats.{name}"] = value
    timing = device.timing
    for name, value in {**timing.host(), **timing.resources()}.items():
        state[f"timing.{name}"] = value
    if device.faults is not None:
        state["faults.streams"] = device.faults.stream_states()
    state["clock"] = device.kernel.now_us
    state["pending_events"] = len(device.kernel)
    timer = device._power_down_timer
    state["power_down_at"] = None if timer is None else timer.time_us
    ftl = device.ftl
    state["ftl.cursor"] = ftl.cursor
    state["ftl.mapping"] = dict(ftl.mapping.items())
    state["ftl.blocks"] = ftl.block_rows()
    state["ftl.pools"] = ftl.pool_rows()
    state["ftl.gc"] = (ftl.gc_results_total, ftl.gc_migrated_slots)
    if result is not None:
        state["trace.requests"] = list(result.trace)
        columns = result.trace.columns()
        for name in TRACE_COLUMNS:
            state[f"trace.columns.{name}"] = np.array(getattr(columns, name))
    return state


def compare(a: State, b: State, label: str = "") -> List[str]:
    """One line per key whose values differ between snapshots ``a`` and ``b``."""
    prefix = f"{label} " if label else ""
    diffs: List[str] = []
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key), b.get(key)
        if _same(left, right):
            continue
        index = _first_difference(left, right)
        if index is None:
            diffs.append(f"{prefix}{key}: {_short(left)} vs {_short(right)}")
        else:
            diffs.append(
                f"{prefix}{key} at {index}: "
                f"{_short(_at(left, index))} vs {_short(_at(right, index))}"
            )
    return diffs


def _same(left, right) -> bool:
    """``left == right``, bit for bit when either side is an array."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (
            isinstance(left, np.ndarray)
            and isinstance(right, np.ndarray)
            and left.dtype == right.dtype
            and left.shape == right.shape
            and left.tobytes() == right.tobytes()
        )
    return left == right


def _first_difference(left, right) -> Optional[object]:
    """The first index (or mapping key) at which two containers differ."""
    if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
        if left.dtype != right.dtype:
            return None
        count = min(len(left), len(right))
        # Compare the elements' bytes, so two NaNs are not a difference.
        raw = (left[:count].view(np.uint8) != right[:count].view(np.uint8)).reshape(
            count, left.dtype.itemsize
        )
        differing = np.flatnonzero(raw.any(axis=1))
        return int(differing[0]) if len(differing) else count
    if isinstance(left, dict) and isinstance(right, dict):
        # LPNs in order; page kinds, which do not order, by name.
        keys = sorted(set(left) | set(right), key=lambda key: getattr(key, "name", key))
        for key in keys:
            if left.get(key) != right.get(key):
                return key
        return None
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        for index, (x, y) in enumerate(zip(left, right)):
            if x != y:
                return index
        return min(len(left), len(right))
    return None


def _at(container, index):
    if isinstance(container, dict):
        return container.get(index, "<missing>")
    return container[index] if index < len(container) else "<missing>"


def _short(value, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
