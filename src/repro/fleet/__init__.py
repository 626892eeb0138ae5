"""Fleet simulation: deterministic multi-device population runs.

The paper characterizes I/O from 25 single-device traces; its eMMC-design
implications only matter at population scale -- millions of phones with
heterogeneous app mixes, device configurations and wear states.  This
package turns the single-device reproduction into a population engine:

* :mod:`repro.fleet.scenario` -- :class:`FleetScenario`, a frozen,
  JSON-loadable description of a device population (size, app mix,
  config mix, fault-profile mix, per-device rate/size scaling, seed);
* :mod:`repro.fleet.population` -- the deterministic sampler mapping a
  device index to its :class:`DeviceSpec` (app, config, scaling, fault
  plan), each device drawing from its own
  ``sha256("fleet:{seed}:{index}")`` stream so any device can be
  re-simulated in isolation, bit-identical to its in-fleet run;
* :mod:`repro.fleet.executor` -- sharded multi-process execution that
  folds per-request statistics into mergeable :mod:`repro.metrics`
  states and packs per-device rows into a chunked columnar fleet store,
  with merge order fixed by device index so results are bit-identical
  for any ``--jobs``;
* :mod:`repro.fleet.store` -- the fleet store: the :mod:`repro.store`
  table with one row per device and the scenario in its manifest;
* :mod:`repro.fleet.report` -- fleet-level rollups: percentiles across
  devices, per-app breakdowns, end-of-life projections;
* :mod:`repro.fleet.cli` -- the ``repro-fleet run|stats|show-device``
  entry point.
"""

from .population import (
    DeviceSpec,
    build_config,
    build_fault_plan,
    build_trace,
    device_spec,
    iter_population,
    population_counts,
)
from .scenario import CONFIG_FACTORIES, FleetScenario, derive_seed, device_stream
from .executor import (
    DeviceResult,
    FleetRunResult,
    plan_shards,
    run_fleet,
    simulate_device,
)
from .report import FleetReport, fleet_report
from .store import (
    FLEET_COLUMNS,
    FleetStore,
    FleetStoreError,
    FleetStoreWriter,
    open_fleet_store,
)

__all__ = [
    "CONFIG_FACTORIES",
    "DeviceResult",
    "DeviceSpec",
    "FLEET_COLUMNS",
    "FleetReport",
    "FleetRunResult",
    "FleetScenario",
    "FleetStore",
    "FleetStoreError",
    "FleetStoreWriter",
    "build_config",
    "build_fault_plan",
    "build_trace",
    "derive_seed",
    "device_spec",
    "device_stream",
    "fleet_report",
    "iter_population",
    "open_fleet_store",
    "plan_shards",
    "population_counts",
    "run_fleet",
    "simulate_device",
]
