"""Trace invariant checks.

Per-record invariants are enforced where records enter: in
``Request.__post_init__`` and, for whole columns (the generator, CSV
files, stores, replays), in :meth:`~repro.trace.Trace.from_columns`,
which applies the same tests.  This module adds whole-trace checks used
by tests and by the workload generator's self-validation.
"""

from __future__ import annotations

from typing import List

from .record import SECTOR
from .trace import Trace


class TraceValidationError(ValueError):
    """A trace violates a structural invariant."""


def validate_trace(trace: Trace, device_bytes: int = 0) -> None:
    """Raise :class:`TraceValidationError` on any violated invariant.

    Checks:
      * arrivals are sorted and non-negative (sortedness is maintained by
        :class:`Trace`, but we verify defensively);
      * sizes and addresses are 4 KB-aligned (enforced per record);
      * if ``device_bytes`` is given, every access fits inside the device;
      * completed records never finish before they start.

    Args:
        trace: trace to check.
        device_bytes: optional device capacity the trace must fit in.
    """
    problems = collect_problems(trace, device_bytes=device_bytes)
    if problems:
        raise TraceValidationError(
            f"trace {trace.name!r}: " + "; ".join(problems[:5])
            + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
        )


def collect_problems(trace: Trace, device_bytes: int = 0) -> List[str]:
    """Return a human-readable list of invariant violations (empty if none)."""
    problems: List[str] = []
    previous_arrival = 0.0
    for index, request in enumerate(trace):
        if request.arrival_us < previous_arrival:
            problems.append(f"request {index} arrives before its predecessor")
        previous_arrival = request.arrival_us
        if request.lba % SECTOR or request.size % SECTOR:
            problems.append(f"request {index} is not 4KB-aligned")
        if device_bytes and request.end_lba > device_bytes:
            problems.append(
                f"request {index} accesses byte {request.end_lba} beyond "
                f"device capacity {device_bytes}"
            )
    return problems
