"""Deterministic telemetry: sim-time spans, exact latency decomposition,
Chrome-trace/span-store/flame exports.

Quick start::

    from repro.emmc import EmmcDevice, four_ps
    from repro.sim import Host
    from repro.telemetry import Telemetry, chrome_trace

    sink = Telemetry()
    device = EmmcDevice(four_ps(), telemetry=sink)
    Host(device).replay(trace)
    chrome_trace(sink, "out.json")        # load in chrome://tracing

Disabled mode is structural absence (``telemetry=None``, the default):
no sink, no branches taken on the replay hot path.  Enabling telemetry
never changes a simulation result -- only what gets recorded about it.
See ``docs/telemetry.md`` for the span model and the decomposition
contract.

Environment switch: setting :data:`TELEMETRY_ENV` (``REPRO_TELEMETRY``)
to ``1``/``on`` makes :func:`repro.experiments.common.replay_on` attach
a sink to every experiment device, which is how the digest-parity suite
proves the enabled/disabled bit-identity.
"""

from .chrome import chrome_trace, chrome_trace_events, chrome_trace_json
from .core import (
    C_NAME,
    C_TS,
    C_VALUE,
    E_ARGS,
    E_CAT,
    E_NAME,
    E_TRACK,
    E_TS,
    S_CAT,
    S_DUR,
    S_NAME,
    S_PARENT,
    S_START,
    S_TRACK,
    Telemetry,
    attach_telemetry,
)
from .decomposition import (
    COMPONENTS,
    LatencyDecomposition,
    chain_segments,
    decompose_request,
)
from .flame import flame_summary, span_paths
from .spanstore import SpanStore, open_span_store, pack_spans

#: Environment switch: attach a telemetry sink to every experiment
#: replay (see repro.experiments.common.replay_on).
TELEMETRY_ENV = "REPRO_TELEMETRY"

__all__ = [
    "Telemetry",
    "attach_telemetry",
    "COMPONENTS",
    "LatencyDecomposition",
    "decompose_request",
    "chain_segments",
    "chrome_trace",
    "chrome_trace_events",
    "chrome_trace_json",
    "flame_summary",
    "span_paths",
    "pack_spans",
    "open_span_store",
    "SpanStore",
    "TELEMETRY_ENV",
    "S_NAME", "S_CAT", "S_TRACK", "S_PARENT", "S_START", "S_DUR",
    "E_NAME", "E_CAT", "E_TRACK", "E_TS", "E_ARGS",
    "C_NAME", "C_TS", "C_VALUE",
]
