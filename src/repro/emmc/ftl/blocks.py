"""Flash block state for the page-mapping FTL: one pool per (plane, kind).

A :class:`Pool` holds every block of one page kind in one plane as
columns.  Block ``b``'s state is element ``b`` of each column:

* ``erase_count`` -- program/erase cycles so far;
* ``write_ptr`` -- pages programmed since the last erase (append-only);
* ``valid_count`` -- slots still holding live data;
* ``bad`` -- retired by bad-block management;
* ``contents`` -- the slot contents, ``None`` until the block is opened.

The columns are plain lists: hot paths read one element at a time, and
an element of a list is cheaper to read than a NumPy scalar.  A block's
contents list is allocated when the block is opened and dropped when it
is erased, so a fresh device allocates nothing per block.  Contents are
flat, page-major: slot ``s`` of page ``p`` is element ``p * slots + s``.
It holds the logical page number (LPN) stored there, or ``None`` when the
slot is stale (its LPN was overwritten) or padding (never valid).

Block ids are positions in the columns.  Bad blocks keep their position
but hold no valid data, are never free, never active, never a GC victim,
and are left out of wear statistics.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..geometry import PageKind
from .mapping import pool_index, slot_code


class OutOfSpaceError(RuntimeError):
    """A plane ran out of reclaimable space (nothing left for GC to free)."""


class InvariantError(RuntimeError):
    """The FTL's state broke one of its invariants (see :meth:`Ftl.check_invariants`)."""


class Pool:
    """The blocks of one page kind in one plane, with their free list."""

    __slots__ = (
        "plane", "kind", "index", "pages", "slots", "slot_bytes", "page_bytes",
        "erase_count", "write_ptr", "valid_count", "bad", "contents", "free",
        "active",
    )

    def __init__(
        self, plane: int, kind: PageKind, kind_index: int, blocks: int, pages: int
    ) -> None:
        self.plane = plane
        self.kind = kind
        #: Pool index in location codes (:func:`~.mapping.pool_index`).
        self.index = pool_index(plane, kind_index)
        self.pages = pages
        self.slots = kind.slots
        self.page_bytes = kind.bytes
        self.slot_bytes = kind.bytes // kind.slots
        self.erase_count: List[int] = [0] * blocks
        self.write_ptr: List[int] = [0] * blocks
        self.valid_count: List[int] = [0] * blocks
        self.bad: List[bool] = [False] * blocks
        self.contents: List[Optional[List[Optional[int]]]] = [None] * blocks
        #: Erased blocks ready to open, in the order they became free.
        self.free: List[int] = list(range(blocks))
        #: The block new pages go to, or ``None`` before the first open.
        self.active: Optional[int] = None

    def __len__(self) -> int:
        return len(self.write_ptr)

    # -- per-block views --------------------------------------------------------

    def written_slots(self, block: int) -> Tuple[Tuple[Optional[int], ...], ...]:
        """The slot contents of each written page of ``block``."""
        contents = self.contents[block]
        if contents is None:
            return ()
        slots = self.slots
        return tuple(
            tuple(contents[start : start + slots])
            for start in range(0, self.write_ptr[block] * slots, slots)
        )

    def valid_entries(self, block: int) -> List[Tuple[int, int, int]]:
        """All valid ``(page, slot, lpn)`` triples of ``block``, in program order."""
        contents = self.contents[block]
        if contents is None:
            return []
        slots = self.slots
        return [
            (index // slots, index % slots, lpn)
            for index, lpn in enumerate(contents[: self.write_ptr[block] * slots])
            if lpn is not None
        ]

    def valid_pages(self, block: int) -> List[List[int]]:
        """The valid LPNs of each written page of ``block`` that holds any."""
        pages = (
            [lpn for lpn in page if lpn is not None] for page in self.written_slots(block)
        )
        return [valid for valid in pages if valid]

    def valid_codes(self, block: int) -> List[Tuple[int, int]]:
        """``(lpn, location code)`` of every valid slot of ``block``, in program order."""
        index = self.index
        return [
            (lpn, slot_code(index, block, page, slot))
            for page, slot, lpn in self.valid_entries(block)
        ]

    # -- allocation -------------------------------------------------------------

    def open_block(self) -> int:
        """Open the free block with the lowest erase count as the active block.

        Raises :class:`OutOfSpaceError` when no block is free.
        """
        free = self.free
        if not free:
            raise OutOfSpaceError(f"plane {self.plane} has no free {self.kind} blocks")
        erase_count = self.erase_count
        # First position with the minimal erase count, as a C-level min +
        # index over a plain int list (a keyed min pays a Python call per
        # candidate, and free pools run to tens of thousands of blocks).
        counts = [erase_count[block] for block in free]
        block = free.pop(counts.index(min(counts)))
        self.contents[block] = [None] * (self.pages * self.slots)
        self.active = block
        return block

    def ensure_active(self) -> int:
        """The active block, opening a fresh one when it is full or absent."""
        block = self.active
        if block is None or self.write_ptr[block] >= self.pages:
            block = self.open_block()
        return block

    def gc_budget(self, threshold: int) -> int:
        """The most pages the pool takes while garbage collection cannot trigger.

        Pages fill the active block, then open free blocks.  Up to this
        many leave more than ``threshold`` blocks free after every open,
        so garbage collection cannot trigger and allocation cannot fail,
        whatever the victims.  Each page programmed lowers the budget by
        one, until garbage collection or an erase changes the free list.
        """
        active = self.active
        available = 0 if active is None else self.pages - self.write_ptr[active]
        return max(0, available + (len(self.free) - threshold - 1) * self.pages)

    def total_free_pages(self) -> int:
        """Pages still programmable without reclaiming anything."""
        pages = len(self.free) * self.pages
        if self.active is not None:
            pages += self.pages - self.write_ptr[self.active]
        return pages

    # -- state changes ------------------------------------------------------------

    def program(self, block: int, columns: Sequence[Sequence]) -> int:
        """Write pages at ``block``'s write pointer; returns the first page.

        ``columns`` holds one sequence per slot, each with one entry per
        page: ``columns[s][i]`` is the LPN for slot ``s`` of the ``i``-th
        page, or ``None`` for padding.  Advances the write pointer and
        counts every non-padding slot as valid.  The mapping is the
        caller's (:meth:`Ftl.program`).
        """
        slots = self.slots
        if self.bad[block]:
            raise RuntimeError(f"block {block} is retired (bad)")
        if len(columns) != slots:
            raise ValueError(f"expected {slots} slots, got {len(columns)}")
        count = len(columns[0])
        page = self.write_ptr[block]
        if page + count > self.pages:
            raise RuntimeError(f"block {block} is full")
        contents = self.contents[block]
        if contents is None:
            raise RuntimeError(f"block {block} is not open")
        start = page * slots
        stop = start + count * slots
        padding = 0
        for slot, column in enumerate(columns):
            contents[start + slot : stop : slots] = column
            if type(column) is not range and None in column:
                padding += column.count(None)
        self.write_ptr[block] = page + count
        self.valid_count[block] += count * slots - padding
        return page

    def invalidate(self, block: int, page: int, slot: int) -> None:
        """Mark one slot stale (its LPN was overwritten or moved)."""
        contents = self.contents[block]
        index = page * self.slots + slot
        if contents is None or contents[index] is None:
            raise RuntimeError(
                f"slot {slot} of page {page} in block {block} already invalid"
            )
        contents[index] = None
        self.valid_count[block] -= 1

    def erase(self, block: int) -> None:
        """Erase ``block`` (it must hold no valid data); bumps its cycle count."""
        if self.valid_count[block]:
            raise RuntimeError(
                f"erasing block {block} with {self.valid_count[block]} valid slots"
            )
        self.contents[block] = None
        self.write_ptr[block] = 0
        self.erase_count[block] += 1

    def gc_candidates(self) -> List[int]:
        """Blocks eligible as GC victims: full, not free, not active, not bad."""
        full = self.pages
        active = self.active
        free = set(self.free)
        return [
            block
            for block, (written, bad) in enumerate(zip(self.write_ptr, self.bad))
            if written == full and not bad and block != active and block not in free
        ]

    def add_spare(self) -> int:
        """Grow the pool by one fresh spare block (bad-block remap).

        The spare takes the next id and goes straight to the free list.
        """
        block = len(self)
        self.erase_count.append(0)
        self.write_ptr.append(0)
        self.valid_count.append(0)
        self.bad.append(False)
        self.contents.append(None)
        self.free.append(block)
        return block

    def retire(self, block: int) -> None:
        """Mark ``block`` bad and detach it from the free list and active slot.

        The caller must already have migrated any valid data; a retired
        block is never erased and never rejoins the pool.
        """
        if self.valid_count[block]:
            raise RuntimeError(
                f"retiring block {block} with {self.valid_count[block]} valid slots"
            )
        self.bad[block] = True
        if block in self.free:
            self.free.remove(block)
        if self.active == block:
            self.active = None

    # -- invariants -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`InvariantError` at the first broken invariant of the pool.

        * Every free block is erased and empty, not bad, not active, and
          listed once.
        * At most one block is active (the only partly written block
          outside the free list), and it is neither free nor bad.
        * Each block's valid count equals the slots it holds, it holds
          nothing past its write pointer, and a bad block holds nothing.
        """
        where = f"plane {self.plane} {self.kind} pool"
        free = set(self.free)
        if len(free) != len(self.free):
            raise InvariantError(f"{where}: free list repeats a block")
        active = self.active
        if active is not None and (active in free or self.bad[active]):
            raise InvariantError(f"{where}: active block {active} is free or bad")
        slots = self.slots
        for block in range(len(self)):
            written = self.write_ptr[block]
            contents = self.contents[block]
            bad = self.bad[block]
            if block in free:
                if written or self.valid_count[block] or contents is not None:
                    raise InvariantError(f"{where}: free block {block} is not erased")
                if bad:
                    raise InvariantError(f"{where}: free block {block} is bad")
                continue
            if 0 < written < self.pages and block != active and not bad:
                raise InvariantError(
                    f"{where}: block {block} is partly written but not active"
                )
            held = 0
            if contents is None:
                if written:
                    raise InvariantError(f"{where}: block {block} lost its contents")
            else:
                if any(lpn is not None for lpn in contents[written * slots :]):
                    raise InvariantError(
                        f"{where}: block {block} holds data past its write pointer"
                    )
                held = len(contents) - contents.count(None)
            if held != self.valid_count[block]:
                raise InvariantError(
                    f"{where}: block {block} counts {self.valid_count[block]} "
                    f"valid slots but holds {held}"
                )
            if held and bad:
                raise InvariantError(f"{where}: bad block {block} holds valid data")
