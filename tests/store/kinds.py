"""The three store schemas, packed from hand-built rows, for the suites
that check the shared container once per schema."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fleet import FLEET_COLUMNS, FleetScenario, FleetStore, FleetStoreWriter
from repro.store import Table, TraceStore, pack
from repro.telemetry import SpanStore, Telemetry, pack_spans
from repro.trace import Op, Request, SECTOR, Trace


def trace_rows(rows):
    return Trace(
        "kinds",
        [
            Request(
                arrival_us=i * 10.0,
                lba=(i % 97) * SECTOR,
                size=SECTOR,
                op=Op.WRITE if i % 3 else Op.READ,
            )
            for i in range(rows)
        ],
        metadata={"origin": "kinds"},
    )


def span_rows(rows):
    sink = Telemetry()
    sink.meta["origin"] = "kinds"
    for i in range(rows):
        sink.add_span(
            ("write", "read", "gc")[i % 3],
            start_us=i * 5.0,
            dur_us=1.0 + i % 4,
            cat="device",
            track=f"unit-{i % 2}",
            parent=-1 if i % 5 == 0 else i - i % 5,
        )
    return sink


def fleet_row(index):
    """A synthetic device row with distinguishable values."""
    row = {}
    for position, (name, dtype) in enumerate(FLEET_COLUMNS):
        if name == "device_index":
            row[name] = index
        elif np.dtype(dtype).kind == "f":
            row[name] = float(index * 100 + position)
        else:
            row[name] = index * 100 + position
    return row


def pack_fleet(path, rows, chunk_rows, overwrite=False):
    scenario = FleetScenario(
        devices=rows, name="kinds", apps={"Twitter": 1.0}, configs={"small-4PS": 1.0}
    )
    with FleetStoreWriter(
        path, scenario, chunk_devices=chunk_rows, overwrite=overwrite
    ) as writer:
        writer.append_rows([fleet_row(i) for i in range(rows)])


@dataclass(frozen=True)
class Kind:
    name: str
    #: ``pack(path, rows, chunk_rows, overwrite=False)`` -> a store of ``rows`` rows.
    pack: Callable[..., object]
    #: The schema's typed reader.
    open: Callable[..., Table]

    def __str__(self):
        return self.name


KINDS = (
    Kind(
        "trace",
        lambda path, rows, chunk_rows, overwrite=False: pack(
            trace_rows(rows), path, chunk_rows=chunk_rows, overwrite=overwrite
        ),
        TraceStore,
    ),
    Kind(
        "span",
        lambda path, rows, chunk_rows, overwrite=False: pack_spans(
            span_rows(rows), path, chunk_rows=chunk_rows, overwrite=overwrite
        ),
        SpanStore,
    ),
    Kind("fleet", pack_fleet, FleetStore),
)
