"""Page-level address mapping for the eMMC FTL: one packed int per LPN.

The mapping translates 4 KB logical page numbers (LPNs) to physical slots.
A physical 8 KB page holds two slots, so two LPNs can map into one physical
page (the HPS and 8PS write paths exploit this).

Each location is stored as one int, its *code*.  Low bits first::

    slot (2) | kind index (2) | plane (8) | block + 1 (20) | page (rest)

The kind index is the kind's position in :meth:`Geometry.kinds`.  Plane
and kind index together name a block pool (:func:`pool_index`).  The
page field has no upper bound; :func:`check_widths` tells the FTL
whether a geometry fits the other fields.

This module is the only place that knows the layout.  The FTL builds and
takes apart codes through batch calls, one per batch on its hot paths:
:meth:`PageMapping.assign` (map programmed pages, return the stale
copies), :func:`page_reads` (the page reads a set of codes costs),
:func:`in_block` (the migration check), :func:`preload_codes`
(pre-trace placement), and :func:`slot_code` / :func:`in_flash` for the
scans.

A block field of 0 (``block_id == PRELOADED_BLOCK`` once decoded) marks
data that existed on the device before the trace started.  The paper
replays traces of *reads of pre-existing data* on a brand-new simulated
device.  Such pseudo-blocks have realistic plane placement for timing
purposes but are not part of the GC pool -- see DESIGN.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..geometry import PageKind

#: Sentinel block id for pre-existing ("pre-loaded") data.
PRELOADED_BLOCK = -1

SLOT_BITS = 2
KIND_BITS = 2
PLANE_BITS = 8
BLOCK_BITS = 20

KIND_SHIFT = SLOT_BITS
PLANE_SHIFT = KIND_SHIFT + KIND_BITS
BLOCK_SHIFT = PLANE_SHIFT + PLANE_BITS
PAGE_SHIFT = BLOCK_SHIFT + BLOCK_BITS

SLOT_MASK = (1 << SLOT_BITS) - 1
KIND_MASK = (1 << KIND_BITS) - 1
PLANE_MASK = (1 << PLANE_BITS) - 1
BLOCK_MASK = (1 << BLOCK_BITS) - 1
#: Mask of a pool index (plane and kind index) after ``>> KIND_SHIFT``.
POOL_MASK = (1 << (PLANE_BITS + KIND_BITS)) - 1
#: The block field in place: non-zero for every flash-resident code.
BLOCK_FIELD = BLOCK_MASK << BLOCK_SHIFT
#: The code distance between one page of a block and the next.
PAGE_UNIT = 1 << PAGE_SHIFT
#: The block, plane and kind fields: equal for every slot of one block.
BLOCK_SITE = (PAGE_UNIT - 1) ^ SLOT_MASK


def pool_index(plane: int, kind_index: int) -> int:
    """Index of the (plane, kind) pool, as the codes of its slots hold it."""
    return (plane << KIND_BITS) | kind_index


def _block_site(pool: int, block: int) -> int:
    """The code of slot 0 of page 0 of ``block`` in pool ``pool``."""
    return ((block + 1) << BLOCK_SHIFT) | (pool << KIND_SHIFT)


def slot_code(pool: int, block: int, page: int, slot: int) -> int:
    """The code of one slot of a flash block."""
    return _block_site(pool, block) | (page << PAGE_SHIFT) | slot


def in_flash(code: int) -> bool:
    """Whether ``code`` names a flash slot (``False`` for pre-loaded data)."""
    return bool(code & BLOCK_FIELD)


def page_reads(codes: Iterable[int]) -> List[Tuple[int, int]]:
    """``(pool, slots)`` per physical page the codes name, in first-seen order."""
    # Dropping the slot field leaves one key per physical page, whose low
    # bits are the pool index.
    pages = Counter([code >> KIND_SHIFT for code in codes])
    return list(zip(map(POOL_MASK.__and__, pages), pages.values()))


def in_block(codes: Iterable[Optional[int]], pool: int, block: int) -> bool:
    """Whether every code is a slot of ``block`` in pool ``pool`` (``None`` is not)."""
    site = _block_site(pool, block)
    return all(code is not None and code & BLOCK_SITE == site for code in codes)


def preload_codes(
    lpns: Iterable[int], slots: int, planes: int, kind_index: int
) -> List[int]:
    """The pre-trace codes of ``lpns``, on pages of ``slots`` slots.

    Adjacent LPNs share a page, and consecutive pages stripe over
    ``planes`` planes: the layout a large sequential write would leave.
    The block field stays 0 (pre-loaded).
    """
    kind = kind_index << KIND_SHIFT
    return [
        ((lpn // slots // planes) << PAGE_SHIFT)
        | ((lpn // slots % planes) << PLANE_SHIFT)
        | kind
        | (lpn % slots)
        for lpn in lpns
    ]


def check_widths(num_planes: int, num_kinds: int, slots: int, blocks: int) -> None:
    """Raise ``ValueError`` if a geometry does not fit the code fields.

    ``slots`` is the largest slot count of a kind, ``blocks`` the most
    blocks a pool can ever hold (spares included).
    """
    for name, value, limit in (
        ("planes", num_planes, 1 << PLANE_BITS),
        ("page kinds", num_kinds, 1 << KIND_BITS),
        ("slots per page", slots, 1 << SLOT_BITS),
        # Block ids are stored + 1; 0 is the pre-loaded marker.
        ("blocks per pool", blocks, (1 << BLOCK_BITS) - 1),
    ):
        if value > limit:
            raise ValueError(
                f"{value} {name} exceed the location code's limit of {limit}"
            )


@dataclass(frozen=True)
class PhysicalLocation:
    """Where one logical 4 KB page lives on flash (a decoded code)."""

    plane: int
    kind: PageKind
    block_id: int
    page: int
    slot: int

    @property
    def preloaded(self) -> bool:
        """True for data that existed before the trace started."""
        return self.block_id == PRELOADED_BLOCK


def decode(code: int, kinds: Sequence[PageKind]) -> PhysicalLocation:
    """The location a code stands for; ``kinds`` is the geometry's kind list."""
    return PhysicalLocation(
        plane=(code >> PLANE_SHIFT) & PLANE_MASK,
        kind=kinds[(code >> KIND_SHIFT) & KIND_MASK],
        block_id=((code >> BLOCK_SHIFT) & BLOCK_MASK) - 1,
        page=code >> PAGE_SHIFT,
        slot=code & SLOT_MASK,
    )


class PageMapping:
    """LPN -> location code table maintained by the controller.

    ``codes`` is the live dict; the FTL reads and writes it directly.
    Everything else decodes, for tests and tools.
    """

    def __init__(self, kinds: Sequence[PageKind]) -> None:
        self.kinds: List[PageKind] = list(kinds)
        self.codes: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, lpn: int) -> bool:
        return lpn in self.codes

    def assign(
        self, columns: Sequence[Sequence], pool: int, block: int, page: int
    ) -> List[Tuple[int, int, int, int]]:
        """Map programmed pages; return the flash slots their LPNs held before.

        ``columns[s][i]`` is the LPN written to slot ``s`` of page
        ``page + i`` of ``block`` in pool ``pool``, or ``None`` for
        padding; the LPNs are distinct.  Each slot column is one
        ``dict.update``, as the codes of consecutive pages are
        :data:`PAGE_UNIT` apart.  Returns ``(pool, block, page, slot)``
        for every LPN that was in flash; pre-loaded data held no slot.
        """
        codes = self.codes
        get = codes.get
        old: List[int] = []
        for column in columns:
            old.extend(filter(None, map(get, column)))
        first = _block_site(pool, block) | (page << PAGE_SHIFT)
        stop = first + len(columns[0]) * PAGE_UNIT
        for slot, column in enumerate(columns):
            codes.update(zip(column, range(first + slot, stop + slot, PAGE_UNIT)))
        if None in codes:  # padding slots map nothing
            del codes[None]
        return [
            (
                (code >> KIND_SHIFT) & POOL_MASK,
                ((code >> BLOCK_SHIFT) & BLOCK_MASK) - 1,
                code >> PAGE_SHIFT,
                code & SLOT_MASK,
            )
            for code in old
            if code & BLOCK_FIELD
        ]

    def lookup(self, lpn: int) -> Optional[PhysicalLocation]:
        """Location of ``lpn``, or ``None`` if unmapped."""
        code = self.codes.get(lpn)
        return None if code is None else decode(code, self.kinds)

    def mapped_lpns(self) -> Iterator[int]:
        """Iterator over all mapped LPNs."""
        return iter(self.codes)

    def items(self) -> Iterator[Tuple[int, PhysicalLocation]]:
        """Iterator over ``(lpn, location)`` pairs, decoded."""
        kinds = self.kinds
        return ((lpn, decode(code, kinds)) for lpn, code in self.codes.items())

    def partition(self, low: int, high: int) -> Tuple[List[int], List[int]]:
        """The mapped LPNs in ``[low, high)``, and those of them held in flash.

        The rest of the mapped ones are pre-loaded.
        """
        mapped: List[int] = []
        written: List[int] = []
        for lpn, code in self.codes.items():
            if low <= lpn < high:
                mapped.append(lpn)
                if code & BLOCK_FIELD:
                    written.append(lpn)
        return mapped, written
