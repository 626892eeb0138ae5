"""Flash-level operations exchanged between the FTL and the timing engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .geometry import PageKind


class FlashOpType(enum.Enum):
    """Kind of flash-level operation."""
    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


@dataclass(frozen=True)
class FlashOp:
    """One page read, page program, or block erase on a specific plane.

    Attributes:
        op_type: read / program / erase.
        plane: flat plane index (determines the channel, see
            :meth:`repro.emmc.geometry.Geometry.channel_of`).
        kind: page kind of the touched page/block.
        payload_bytes: bytes moved over the channel -- the full page size
            for a program, only the requested slots for a read, zero for an
            erase (erases occupy the die only).
        gc: True when the op was generated by garbage collection rather
            than by the host request itself.
    """

    op_type: FlashOpType
    plane: int
    kind: PageKind
    payload_bytes: int
    gc: bool = False

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        if self.op_type is FlashOpType.ERASE and self.payload_bytes:
            raise ValueError("erases move no data over the channel")


@dataclass(frozen=True)
class WriteGroup:
    """One physical page worth of logical pages, produced by the distributor.

    ``lpns`` has exactly ``kind.slots`` entries; ``None`` entries are padding
    (flash space consumed without holding host data -- the quantity Fig. 9's
    space-utilization metric penalizes).
    """

    kind: PageKind
    lpns: Tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        if len(self.lpns) != self.kind.slots:
            raise ValueError(
                f"{self.kind} group needs {self.kind.slots} slots, got {len(self.lpns)}"
            )
        if all(lpn is None for lpn in self.lpns):
            raise ValueError("write group carries no data")
