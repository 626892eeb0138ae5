"""Exact per-request latency decomposition.

Every served request's response time splits into seven components::

    queue       admission wait (arrival -> dispatch)
    wake        low-power warm-up (dispatch -> first op may start)
    controller  FTL/command processing: the serialized controller resource
    channel     bus transfers (data in/out) on the critical path
    unit        die/plane cell operations (read sense, program, erase)
    gc          foreground garbage-collection ops on the critical path
    retry       ECC-retry backoff gaps

The contract -- enforced by ``tests/telemetry/test_decomposition.py``
over every app trace -- is *float-exactness*: summing the components
left-to-right in the decomposition's ``order`` reproduces the request's
recorded ``response_us`` bit for bit.

Why that needs care: response time is one subtraction
(``finish - arrival``) while the components telescope through every
intermediate timestamp, and IEEE-754 addition does not telescope --
``(b - a) + (f - b)`` is generally not ``f - a``.  The residual is a few
ulps, but "a few ulps" and "bit-identical" cannot coexist.  So the
decomposition is *closed*: after attributing every critical-path segment
to its component, :func:`_close` nudges the **final** component (the one
owning the last critical-path leg, placed last in ``order``) by the
rounding residual until the ordered sum lands exactly on
``response_us``.  The adjustment is bounded by a few ulps of the
response time -- nanoseconds against microsecond-scale components --
and converges in one or two iterations (an assertion guards the theory).

The input is the list of per-op *legs* :func:`repro.emmc.reserve.reserve`
records for the device's ``_schedule`` while reserving resource windows
(see the ``L_*`` layout below); the decomposition walks the **critical op** -- the one whose
finish is the request's finish -- and attributes each wait/busy window
along its chain.  At ``queue_depth=1`` each window's cause is the named
resource itself; at higher depths a wait may be induced by another
in-flight request, and it is still charged to the resource being waited
on (that is what a timeline decomposition means).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

#: Component names, in canonical (report) order.
COMPONENTS = ("queue", "wake", "controller", "channel", "unit", "gc", "retry")

#: Leg tuple layout, one per flash op, recorded by
#: :func:`repro.emmc.reserve.reserve`:
#: ``(gc, code, die, channel_index, issue_start, issue, unit_window,
#: transfer_window, retry_windows, op_finish)`` where the windows are
#: ``(start, end)`` pairs (``transfer_window`` is ``None`` for copyback
#: and uncorrectable reads, erases, and copyback programs) and
#: ``retry_windows`` is a tuple of the ECC-retry re-read windows.
(
    L_GC,
    L_CODE,
    L_DIE,
    L_CHANNEL,
    L_ISSUE_START,
    L_ISSUE,
    L_UNIT,
    L_XFER,
    L_RETRIES,
    L_FINISH,
) = range(10)

#: ``L_CODE`` values (match ``FlashOpType`` semantics without importing it).
OP_READ, OP_PROGRAM, OP_ERASE = 0, 1, 2


class LatencyDecomposition:
    """One request's response time, split into exact components."""

    __slots__ = ("arrival_us", "dispatch_us", "start_us", "finish_us",
                 "order", "components")

    def __init__(
        self,
        arrival_us: float,
        dispatch_us: float,
        start_us: float,
        finish_us: float,
        order: Tuple[str, ...],
        components: dict,
    ) -> None:
        self.arrival_us = arrival_us
        self.dispatch_us = dispatch_us
        self.start_us = start_us
        self.finish_us = finish_us
        #: Summation order; ``total()`` must be accumulated exactly in
        #: this order for the bit-exactness contract to hold.
        self.order = order
        self.components = components

    @property
    def response_us(self) -> float:
        """The recorded response time (the same single subtraction the
        device appends to ``DeviceStats.response_us``)."""
        return self.finish_us - self.arrival_us

    def total(self) -> float:
        """Left-to-right sum of the components in ``order``.

        Bit-identical to :attr:`response_us` by construction.
        """
        acc = 0.0
        components = self.components
        for name in self.order:
            acc += components[name]
        return acc

    def as_dict(self) -> dict:
        """Components keyed by name, in canonical order."""
        return {name: self.components[name] for name in COMPONENTS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}={self.components[name]:.3f}" for name in COMPONENTS
        )
        return f"LatencyDecomposition({parts})"


def chain_segments(
    start: float, leg: Sequence
) -> List[Tuple[str, float, float]]:
    """The critical op's contiguous ``(component, begin, end)`` chain.

    Segments partition ``[start, op_finish]`` exactly: each one's begin
    is the previous one's end, with zero-length placeholders where a
    resource was immediately free.  GC-flagged ops charge every segment
    to ``gc`` except retry backoffs, which stay ``retry`` (an ECC stall
    is an ECC stall, whoever issued the read).
    """
    gc_flag = leg[L_GC]
    code = leg[L_CODE]
    issue_start = leg[L_ISSUE_START]
    issue = leg[L_ISSUE]

    def cat(component: str) -> str:
        return "gc" if gc_flag else component

    segments: List[Tuple[str, float, float]] = [
        (cat("controller"), start, issue_start),
        (cat("controller"), issue_start, issue),
    ]
    prev = issue
    transfer = leg[L_XFER]
    if code == OP_PROGRAM and transfer is not None:
        t0, t1 = transfer
        segments.append((cat("channel"), prev, t0))
        segments.append((cat("channel"), t0, t1))
        prev = t1
    u0, u1 = leg[L_UNIT]
    segments.append((cat("unit"), prev, u0))
    segments.append((cat("unit"), u0, u1))
    prev = u1
    for r0, r1 in leg[L_RETRIES]:
        segments.append(("retry", prev, r0))
        segments.append((cat("unit"), r0, r1))
        prev = r1
    if code == OP_READ and transfer is not None:
        t0, t1 = transfer
        segments.append((cat("channel"), prev, t0))
        segments.append((cat("channel"), t0, t1))
    return segments


def decompose_request(
    arrival: float,
    dispatch: float,
    start: float,
    finish: float,
    legs: Optional[Sequence[Sequence]],
) -> LatencyDecomposition:
    """Decompose one request from its timestamps and recorded legs.

    ``legs`` may be ``None``/empty for requests that expanded to no
    flash ops (RAM-buffer absorption, command-overhead-only reads);
    their post-wake latency is all controller time.
    """
    components = {name: 0.0 for name in COMPONENTS}
    components["queue"] = dispatch - arrival
    components["wake"] = start - dispatch
    final = "controller"
    if legs:
        critical = None
        for leg in legs:
            if leg[L_FINISH] == finish:
                critical = leg
                break
        if critical is None:  # pragma: no cover - zero-duration chains only
            critical = legs[-1]
        segments = chain_segments(start, critical)
        for component, begin, end in segments:
            components[component] += end - begin
        final = segments[-1][0]
    else:
        components["controller"] += finish - start
    # The component owning the final critical-path leg sums last, so the
    # closure's ulp-scale residual lands on the largest natural term.
    order = ("queue", "wake") + tuple(
        name for name in COMPONENTS[2:] if name != final
    ) + (final,)
    decomposition = LatencyDecomposition(
        arrival, dispatch, start, finish, order, components
    )
    _close(decomposition)
    return decomposition


def _close(decomposition: LatencyDecomposition) -> None:
    """Nudge the final component until the ordered sum is bit-exact.

    Solves ``fl(acc + x) == response`` for the final component ``x``.
    Residual correction (``x += response - fl(acc + x)``) usually lands
    in one step, but round-to-nearest can leave it oscillating between
    the two neighbours of the target, so the fallback walks ``x`` one
    ulp at a time toward the target: ``fl(acc + x)`` is monotone in
    ``x`` and (with ``x`` no larger in magnitude than the total) steps
    through every representable value, so the walk must land.  Both
    phases move ``x`` by at most a few ulps of the response time --
    sub-picosecond against microsecond-scale components.
    """
    response = decomposition.finish_us - decomposition.arrival_us
    components = decomposition.components
    order = decomposition.order
    acc = 0.0
    for name in order[:-1]:
        acc += components[name]
    last = order[-1]
    value = components[last]
    for _ in range(4):
        total = acc + value
        if total == response:
            components[last] = value
            return
        value += response - total
    for _ in range(64):
        total = acc + value
        if total == response:
            components[last] = value
            return
        value = math.nextafter(
            value, math.inf if total < response else -math.inf
        )
    raise AssertionError(
        f"decomposition closure failed to converge: acc={acc!r} "
        f"response={response!r} last={last}={value!r}"
    )
