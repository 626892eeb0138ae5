"""repro.sim: the shared discrete-event simulation kernel.

The paper's HPS case study rests on a modified SSDsim -- a genuinely
event-driven simulator.  This package is our equivalent substrate: a
single simulated clock, a heap-based event loop with typed events and
deterministic tie-breaking, serially-reusable resource timelines, and the
host-side admission queue.  ``repro.emmc`` schedules device work on it,
``repro.android`` schedules application ops and monitor flushes on it,
and ``repro.experiments`` replays traces through the
:class:`Host` -> :class:`AdmissionQueue` -> device pipeline.

Layering: this package depends only on :mod:`repro.trace`; everything
else depends on it.
"""

from .clock import SimClock, SimTimeError
from .events import Event, EventKind
from .host import Host
from .loop import EventLoop, SimInterrupt
from .queueing import AdmissionQueue
from .resources import ResourcePool, ResourceTimeline

__all__ = [
    "AdmissionQueue",
    "Event",
    "EventKind",
    "EventLoop",
    "Host",
    "ResourcePool",
    "ResourceTimeline",
    "SimClock",
    "SimInterrupt",
    "SimTimeError",
]
