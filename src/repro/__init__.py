"""repro: reproduction of "I/O Characteristics of Smartphone Applications
and Their Implications for eMMC Design" (IISWC 2015).

The package has eleven subsystems (see DESIGN.md):

* :mod:`repro.trace` -- block-level I/O trace model and serialization;
* :mod:`repro.sim` -- the shared discrete-event kernel (clock, event
  loop, host);
* :mod:`repro.workloads` -- the 25 calibrated synthetic traces;
* :mod:`repro.android` -- a simulated Android I/O stack with BIOtracer;
* :mod:`repro.emmc` -- the event-driven eMMC simulator with the HPS scheme;
* :mod:`repro.metrics` -- one definition per statistic, run whole-trace,
  sharded or out-of-core with bit-identical results;
* :mod:`repro.store` -- the one chunked on-disk columnar table (trace,
  span and fleet stores are schemas of it);
* :mod:`repro.faults` -- seeded fault injection and power-loss recovery;
* :mod:`repro.replay` -- the vectorized replay fast path;
* :mod:`repro.telemetry` -- sim-time spans and the exact latency
  decomposition;
* :mod:`repro.fleet` -- deterministic multi-device population runs;

plus :mod:`repro.analysis` / :mod:`repro.experiments`, characterization
and the per-table/figure reproduction harness.

Quickstart::

    from repro.workloads import generate_trace
    from repro.emmc import hps, four_ps, EmmcDevice

    trace = generate_trace("Twitter")
    result = EmmcDevice(hps()).replay(trace)
    print(result.stats.mean_response_ms)
"""

from repro.trace import Op, Request, Trace

__version__ = "1.0.0"

__all__ = ["Op", "Request", "Trace", "__version__"]
