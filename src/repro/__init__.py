"""repro: reproduction of "I/O Characteristics of Smartphone Applications
and Their Implications for eMMC Design" (IISWC 2015).

The package has eight subsystems (see DESIGN.md):

* :mod:`repro.trace` -- block-level I/O trace model and serialization;
* :mod:`repro.sim` -- the shared discrete-event kernel (clock, event
  loop, resource timelines, admission queue, host);
* :mod:`repro.workloads` -- the 25 calibrated synthetic traces;
* :mod:`repro.android` -- a simulated Android I/O stack with BIOtracer;
* :mod:`repro.emmc` -- the event-driven eMMC simulator with the HPS scheme;
* :mod:`repro.analysis` / :mod:`repro.experiments` -- characterization and
  the per-table/figure reproduction harness;
* :mod:`repro.store` / :mod:`repro.streaming` -- the one chunked on-disk
  columnar table (trace, span and fleet stores are schemas of it) and
  out-of-core, mergeable streaming analytics.

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
