"""repro.sim: the shared discrete-event simulation kernel.

The paper's HPS case study rests on a modified SSDsim -- a genuinely
event-driven simulator.  This package is our equivalent substrate: a
single simulated clock, a heap-based event loop with typed events and
deterministic tie-breaking, and the :class:`Host` front door.
``repro.emmc`` schedules device work on it (the device's serve step,
admission included, is :mod:`repro.emmc.reserve`), ``repro.android``
schedules application ops and monitor flushes on it, and
``repro.experiments`` replays traces through :class:`Host` into the
device.

Layering: this package depends only on :mod:`repro.trace`; everything
else depends on it.
"""

from .clock import SimClock, SimTimeError
from .events import Event, EventKind
from .host import Host
from .loop import EventLoop, SimInterrupt

__all__ = [
    "Event",
    "EventKind",
    "EventLoop",
    "Host",
    "SimClock",
    "SimInterrupt",
    "SimTimeError",
]
