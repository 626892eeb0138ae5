"""Vectorized replay fast path for queue_depth=1 replay, open or closed loop.

Every paper experiment replays traces on the same device configuration:
a single command queue (``queue_depth=1``) and no RAM buffer.  Arrivals
are open loop (recorded times) or closed loop (each paced by the
previous completion, the collection methodology).  Under
those conditions each request's full schedule is fixed at dispatch
(FIFO, no preemption), so the event kernel
is pure overhead: the heap, the Event objects, the timer churn and the
per-op method dispatch all reproduce arithmetic that can be computed in
two tight passes over the trace columns instead.

The fast path is split into:

* :mod:`repro.replay.preconditions` -- the eligibility rules; anything
  the two-pass engine cannot model bit-exactly falls back to the kernel.
* :mod:`repro.replay.planner` -- the planning pass: decides every
  request of the :class:`~repro.trace.columns.TraceColumns` at once with
  array arithmetic, drives the real FTL once per window of slim requests
  to exactly the state the kernel would leave, runs the device's own
  write and read steps for the rest, and emits each request's op rows
  (unit, channel, latency components) as flat columns.
* :mod:`repro.replay.timing` -- the timing pass: serves each request
  through :mod:`repro.emmc.reserve`'s ``admit``, ``reserve`` and
  ``complete``, the serve step the event kernel runs at each arrival,
  ECC read retries included, on the device's own timing state.
* :mod:`repro.replay.engine` -- orchestration: one body for open and
  closed loop runs both passes, applies the rest of the resulting
  device state (per-request samples, kernel clock and timers), and
  assembles the ``ReplayResult``, whose trace is built from the timing
  columns without a ``Request`` object.

The contract is **bit-identity**: a fast-path replay must leave the
device -- stats, FTL, mapping, timing state, kernel clock --
in exactly the state a kernel replay would, and return exactly the same
timestamps.  ``tests/replay`` and the CI replay-parity job enforce this
against the 57 experiment digests and the frozen goldens.
"""

from .engine import (
    FastPathUnavailable,
    fallback_reasons,
    fast_replay,
    fast_replay_closed_loop,
)
from .preconditions import REPLAY_FASTPATH_ENV, decide

__all__ = [
    "REPLAY_FASTPATH_ENV",
    "FastPathUnavailable",
    "decide",
    "fallback_reasons",
    "fast_replay",
    "fast_replay_closed_loop",
]
