"""Fleet stores: one row per simulated device in a :mod:`repro.store` table.

Rows follow :data:`FLEET_COLUMNS` in the shared chunked layout (see
``docs/trace-store.md``), so fleet analytics over arbitrarily large
populations run out of core, one memory-mapped chunk at a time.

The manifest header makes the store self-describing: the scenario
(``show-device --resimulate`` needs nothing else), the app / config /
fault-profile string tables in scenario-mix order, and -- once the run
completes -- the fleet-level ``request_summary`` rollup.  Two runs of
the same scenario produce byte-identical directories regardless of
``--jobs`` or ``PYTHONHASHSEED`` (the CI fleet job compares them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.store import Schema, StoreError, Table, TableWriter
from repro.store.table import Manifest, PathLike

from .scenario import FleetScenario

#: Per-device row schema: (column, little-endian dtype), in on-disk order.
#: ``*_id`` columns index the manifest's string tables (scenario-mix
#: order); ``stats_digest64`` is the leading 8 bytes of the device's
#: canonical :func:`repro.faults.replay.stats_digest`, the re-simulation
#: parity anchor.
FLEET_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("device_index", "<i8"),
    ("app_id", "<u4"),
    ("config_id", "<u4"),
    ("fault_id", "<u4"),
    ("rate_factor", "<f8"),
    ("size_factor", "<f8"),
    ("requests", "<i8"),
    ("duration_us", "<f8"),
    ("mean_response_us", "<f8"),
    ("mean_service_us", "<f8"),
    ("max_response_us", "<f8"),
    ("no_wait_requests", "<i8"),
    ("data_bytes_written", "<i8"),
    ("data_bytes_read", "<i8"),
    ("flash_bytes_consumed", "<i8"),
    ("gc_collections", "<i8"),
    ("idle_gc_collections", "<i8"),
    ("gc_migrated_slots", "<i8"),
    ("erases", "<i8"),
    ("max_erase", "<i8"),
    ("mean_erase", "<f8"),
    ("wakeups", "<i8"),
    ("low_power_us", "<f8"),
    ("energy_uj", "<f8"),
    ("read_retries", "<i8"),
    ("uncorrectable_reads", "<i8"),
    ("program_failures", "<i8"),
    ("erase_failures", "<i8"),
    ("bad_blocks_retired", "<i8"),
    ("fault_events", "<i8"),
    ("stats_digest64", "<u8"),
)

#: The fleet store's layout.
FLEET_SCHEMA = Schema(format="repro-fleet-store", version=2, columns=FLEET_COLUMNS)

#: Default devices per chunk file (~66 KiB at 271 B/row).
DEFAULT_CHUNK_DEVICES = 256

#: A per-device row: column name -> Python scalar.
DeviceRow = Dict[str, Union[int, float]]

#: Fleet-store failures are plain store errors.
FleetStoreError = StoreError


class FleetStoreWriter(TableWriter):
    """Incrementally write one fleet store directory, row batches in
    device-index order.

    The writer buffers at most ``chunk_devices`` rows before flushing a
    chunk file, so the executor's memory stays bounded by the shard
    size regardless of population size.
    """

    def __init__(
        self,
        path: PathLike,
        scenario: FleetScenario,
        chunk_devices: int = DEFAULT_CHUNK_DEVICES,
        overwrite: bool = False,
    ) -> None:
        header = {
            "scenario": scenario.as_dict(),
            "apps": scenario.app_names(),
            "configs": scenario.config_names(),
            "fault_profiles": scenario.fault_profile_names(),
        }
        super().__init__(path, FLEET_SCHEMA, chunk_devices, header, overwrite)
        self.scenario = scenario

    def append_row(self, row: DeviceRow) -> None:
        """Queue one device's row (rows must arrive in device-index order)."""
        self.append_rows([row])

    # append_rows and close are defined on this class, not inherited:
    # perfbench/layers.py times the fleet store through these two names.
    def append_rows(self, rows: List[DeviceRow]) -> None:
        """Queue a batch of rows (in device-index order)."""
        expected = self.rows_written + self._pending_rows
        for row in rows:
            if int(row["device_index"]) != expected:
                raise FleetStoreError(
                    f"rows must arrive in device-index order: got device "
                    f"{row['device_index']}, expected {expected}"
                )
            missing = [name for name, _ in FLEET_COLUMNS if name not in row]
            if missing:
                raise FleetStoreError(f"device row is missing columns: {missing}")
            expected += 1
        self.append(
            {
                name: np.array([row[name] for row in rows], dtype=dtype)
                for name, dtype in FLEET_COLUMNS
            }
        )

    def close(self, request_summary: Optional[Dict[str, object]] = None) -> Manifest:
        """Flush the tail chunk and write the manifest atomically.

        ``request_summary`` (optional) is the fleet-level request-stat
        rollup the executor folded; it is embedded verbatim so the
        manifest's bytes cover the merged metric states too.
        """
        if request_summary is not None:
            self.header["request_summary"] = request_summary
        return super().close()


class FleetStore(Table):
    """Read-side handle on a packed fleet store directory."""

    def __init__(self, path: PathLike) -> None:
        super().__init__(path, FLEET_SCHEMA)
        self.apps: List[str] = list(self.manifest["apps"])
        self.configs: List[str] = list(self.manifest["configs"])
        self.fault_profiles: List[str] = list(self.manifest["fault_profiles"])

    @property
    def request_summary(self) -> Optional[Dict[str, object]]:
        """The fleet-level request-stat rollup, when the run recorded one."""
        return self.manifest.get("request_summary")

    def scenario(self) -> FleetScenario:
        """The population description this store was produced from."""
        return FleetScenario.from_dict(self.manifest["scenario"])

    def device_row(self, index: int) -> DeviceRow:
        """Device ``index``'s row, touching only its chunk."""
        if not 0 <= index < len(self):
            raise IndexError(f"device index {index} outside [0, {len(self)})")
        chunk = 0
        while index >= self.manifest["chunks"][chunk]["rows"]:
            index -= self.manifest["chunks"][chunk]["rows"]
            chunk += 1
        columns = self.chunk_columns(chunk)
        return {
            name: (float if np.dtype(dtype).kind == "f" else int)(columns[name][index])
            for name, dtype in FLEET_COLUMNS
        }


def open_fleet_store(path: PathLike) -> FleetStore:
    """Open a packed fleet store directory for reading."""
    return FleetStore(path)
