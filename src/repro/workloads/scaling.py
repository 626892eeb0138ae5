"""Trace transformations for sensitivity studies.

The paper's workloads stress the device lightly (Characteristic 3); these
utilities let experiments ask "what if the same I/O arrived k times
faster/slower?" or "what if requests were twice as large?" without
re-calibrating profiles.

Both transforms scale the trace's columns and hand the result to
:meth:`repro.trace.Trace.from_columns`, so fleet runs applying
per-device scaling never pay a per-request Python loop.  The unit tests
compare them, element for element, against request-at-a-time oracles
kept in ``tests/``.

Bit-identity argument (the :mod:`repro.trace.columns` rules): dividing
the arrival column by ``factor`` and multiplying the page column by
``factor`` are the same IEEE-754 element-wise operations the scalar
loops performed per request, and ``np.rint`` rounds half-to-even exactly
like the built-in ``round`` -- so the vectorized traces equal the scalar
ones request for request.
"""

from __future__ import annotations

import numpy as np

from repro.trace import SECTOR, Trace, TraceColumns


def scale_rate(trace: Trace, factor: float) -> Trace:
    """Compress (factor > 1) or stretch (factor < 1) the arrival times.

    The request mix is untouched; only inter-arrival gaps scale by
    ``1 / factor``, so the arrival rate scales by ``factor``.  Device
    timestamps (if any) are dropped -- a rescaled trace has not been
    replayed.
    """
    if factor <= 0:
        raise ValueError("rate factor must be positive")
    columns = trace.columns()
    return Trace.from_columns(
        name=f"{trace.name}[x{factor:g}]",
        columns=TraceColumns.untimed(
            columns.arrival_us / factor, columns.lba, columns.size, columns.op
        ),
        metadata={**trace.metadata, "rate_factor": f"{factor:g}"},
    )


def scale_sizes(trace: Trace, factor: float, max_bytes: int = 16 * 1024 * 1024) -> Trace:
    """Scale request sizes by ``factor`` (4 KB-aligned, at least one page)."""
    if factor <= 0:
        raise ValueError("size factor must be positive")
    columns = trace.columns()
    pages = np.maximum(1, np.rint((columns.size // SECTOR) * factor)).astype(np.int64)
    size = np.minimum(pages * SECTOR, max_bytes - max_bytes % SECTOR)
    return Trace.from_columns(
        name=f"{trace.name}[size x{factor:g}]",
        columns=TraceColumns.untimed(columns.arrival_us, columns.lba, size, columns.op),
        metadata={**trace.metadata, "size_factor": f"{factor:g}"},
    )


def truncate(trace: Trace, num_requests: int) -> Trace:
    """Keep only the first ``num_requests`` requests."""
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    return Trace.from_columns(
        trace.name, trace.columns().select(slice(0, num_requests)), dict(trace.metadata)
    )
