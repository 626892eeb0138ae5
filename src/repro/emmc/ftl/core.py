"""FTL façade: page-mapped address translation, allocation and GC.

This is the controller logic the paper says an eMMC hides behind its block
interface ("its controller locally processes address mapping, wear-leveling,
and garbage collection").  The device timing engine feeds it logical-page
reads and distributor-produced write groups; the FTL returns the flash
operations (with their plane placement) the request expands to.

State is flat: the mapping holds one packed location code per LPN
(:mod:`.mapping`), and each (plane, kind) block pool keeps its block
metadata in columns (:mod:`.blocks`).  Every page program goes through
one primitive, :meth:`Ftl.program`, whether it comes from a host write
group, a GC or bad-block migration, or a run of pages the replay planner
lays out; every pre-trace location comes from :meth:`Ftl.preload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Geometry, PageKind
from ..ops import FlashOp, FlashOpType, WriteGroup
from .badblocks import BadBlockManager
from .blocks import InvariantError, OutOfSpaceError, Pool
from .gc import GcResult, GreedyGC
from .mapping import (
    PageMapping,
    check_widths,
    in_block,
    in_flash,
    page_reads,
    pool_index,
    preload_codes,
)
from .wear_leveling import StaticWearLeveler

_READ = FlashOpType.READ
_PROGRAM = FlashOpType.PROGRAM


@dataclass(frozen=True)
class WriteOutcome:
    """Flash ops for one host write, plus accounting."""

    ops: List[FlashOp]
    flash_bytes: int
    gc_results: List[GcResult] = field(default_factory=list)


@dataclass(frozen=True)
class ReadOutcome:
    """Flash ops for one host read, plus accounting."""

    ops: List[FlashOp]
    preloaded_pages: int


class Ftl:
    """Page-mapping flash translation layer over per-(plane, kind) pools."""

    def __init__(
        self,
        geometry: Geometry,
        gc: Optional[GreedyGC] = None,
        preload_kind: Optional[PageKind] = None,
        wear_leveler: Optional[StaticWearLeveler] = None,
        faults=None,
    ) -> None:
        self.geometry = geometry
        kinds = geometry.kinds()
        #: Page kinds, smallest first; a kind's position is its kind index.
        self.kinds: List[PageKind] = kinds
        self.num_planes = geometry.num_planes
        # Fault injection: ``faults`` is a duck-typed
        # :class:`repro.faults.plan.FaultInjector` (no import -- the faults
        # package sits above repro.emmc).  Kept only when the plan can
        # actually fail a program or erase, so a no-fault FTL carries no
        # injection state at all.
        self.faults = (
            faults
            if faults is not None and (faults.program_active or faults.erase_active)
            else None
        )
        spares = 0 if self.faults is None else self.faults.plan.spare_blocks_per_plane
        check_widths(
            self.num_planes,
            len(kinds),
            max(kind.slots for kind in kinds),
            max(geometry.blocks_per_plane.values()) + spares,
        )
        #: Every pool, plane-major, kinds in kind-index order.
        self.pools: List[Pool] = [
            Pool(plane, kind, index, geometry.blocks_per_plane[kind], geometry.pages_for(kind))
            for plane in range(self.num_planes)
            for index, kind in enumerate(kinds)
        ]
        # Pools by their code index (the plane and kind fields of a code).
        self._pool_at: List[Optional[Pool]] = [None] * (
            pool_index(self.num_planes - 1, len(kinds) - 1) + 1
        )
        for pool in self.pools:
            self._pool_at[pool.index] = pool
        #: Plane index the next write group goes to (round-robin striping).
        self.cursor = 0
        self.mapping = PageMapping(kinds)
        self.gc = gc or GreedyGC()
        # Pre-existing data is assumed to have been written by large
        # sequential writes, so it lives in the largest pages available.
        self.preload_kind = preload_kind or kinds[-1]
        if self.preload_kind not in kinds:
            raise ValueError(f"{self.preload_kind} pages not present in geometry")
        self._preload_slots = self.preload_kind.slots
        self._preload_index = kinds.index(self.preload_kind)
        self.wear_leveler = wear_leveler
        self.gc_results_total = 0
        self.gc_migrated_slots = 0
        self.bad_blocks: Optional[BadBlockManager] = None
        self.program_failures = 0
        if self.faults is not None:
            self.bad_blocks = BadBlockManager(spares)
            self.gc.faults = self.faults
            self.gc.bad_blocks = self.bad_blocks
        # Telemetry (structurally absent by default): the owning device
        # attaches its sink plus the kernel clock so FTL-internal moments
        # (GC victims, bad-block retirements) surface as instant events
        # stamped with the sim time of the request being served.
        self.telemetry = None
        self._telemetry_clock = None

    def attach_telemetry(self, sink, clock) -> None:
        """Record FTL instants (GC, remap) into ``sink``, timed by ``clock``."""
        self.telemetry = sink
        self._telemetry_clock = clock

    def pool(self, plane: int, kind: PageKind) -> Pool:
        """The pool of ``kind`` blocks in ``plane``."""
        return self._pool_at[pool_index(plane, self.kinds.index(kind))]

    def advance(self, groups: int) -> None:
        """Move the striping cursor past ``groups`` write groups.

        The replay planner stripes a whole window of requests
        arithmetically and settles the cursor in one call.
        """
        self.cursor = (self.cursor + groups) % self.num_planes

    # -- the program primitive -----------------------------------------------------

    def program(self, pool: Pool, block: int, columns: Sequence[Sequence]) -> None:
        """Program pages at ``block``'s write pointer: the one program path.

        ``columns`` is as for :meth:`Pool.program`, and its LPNs must be
        distinct.  This writes the slot contents and valid count
        (:meth:`Pool.program`), maps every LPN to its new code
        (:meth:`PageMapping.assign`, one ``dict.update`` per slot
        column), and invalidates each LPN's stale copy in flash.
        """
        page = pool.program(block, columns)
        pool_at = self._pool_at
        for index, owner, old_page, slot in self.mapping.assign(
            columns, pool.index, block, page
        ):
            pool_at[index].invalidate(owner, old_page, slot)

    def program_run(self, pool: Pool, columns: Sequence[Sequence]) -> None:
        """Program a run of pages into ``pool``'s active blocks.

        ``columns`` is as for :meth:`program`.  Blocks are opened as the
        run fills them; no GC runs, so the run's page count must stay
        within the pool's :meth:`Pool.gc_budget`.
        """
        count = len(columns[0])
        done = 0
        while done < count:
            block = pool.ensure_active()
            take = min(count - done, pool.pages - pool.write_ptr[block])
            if take == count:
                self.program(pool, block, columns)
                return
            self.program(pool, block, [column[done : done + take] for column in columns])
            done += take

    def migrate(self, pool: Pool, victim: int, mover: str) -> Tuple[List[FlashOp], int]:
        """Move ``victim``'s valid slots into fresh pages of its own pool.

        GC and bad-block retirement share this loop.  It emits one read
        per page that still holds valid data, then re-packs the LPNs in
        program order, ``slots`` to a page, and programs each page.  The
        programs invalidate the victim's copies.  Returns the ops (all
        ``gc=True``) and the number of slots moved.
        """
        plane, kind, slots = pool.plane, pool.kind, pool.slots
        ops: List[FlashOp] = []
        lpns: List[int] = []
        slot_bytes = pool.slot_bytes
        for valid in pool.valid_pages(victim):
            ops.append(FlashOp(_READ, plane, kind, len(valid) * slot_bytes, gc=True))
            lpns.extend(valid)
        if not in_block(map(self.mapping.codes.get, lpns), pool.index, victim):
            raise RuntimeError(f"{mover} migrated an LPN that moved underneath it")
        for start in range(0, len(lpns), slots):
            page = lpns[start : start + slots]
            page += [None] * (slots - len(page))
            self.program(pool, pool.ensure_active(), list(zip(page)))
            ops.append(FlashOp(_PROGRAM, plane, kind, pool.page_bytes, gc=True))
        return ops, len(lpns)

    # -- write path ----------------------------------------------------------

    def write(self, groups: Sequence[WriteGroup]) -> WriteOutcome:
        """Program the given write groups, running GC where needed."""
        ops: List[FlashOp] = []
        gc_results: List[GcResult] = []
        flash_bytes = 0
        kinds = self.kinds
        pool_at = self._pool_at
        for group in groups:
            kind = group.kind
            plane = self.cursor
            self.cursor = (plane + 1) % self.num_planes
            pool = pool_at[pool_index(plane, kinds.index(kind))]
            while True:
                block = self._allocate_with_gc(pool, ops, gc_results)
                if (
                    self.faults is None
                    or not self.faults.program_active
                    or not self.faults.program_fails()
                ):
                    break
                # Program failure: the attempt still consumed a program
                # cycle (the op below), then the block is retired and the
                # group redone on a freshly mapped block.  Each failure
                # burns one spare, so the loop is bounded by the spare
                # budget (SparePoolExhausted ends it).
                self.program_failures += 1
                ops.append(FlashOp(_PROGRAM, plane, kind, pool.page_bytes))
                ops.extend(self.bad_blocks.retire(pool, block, self))
                if self.telemetry is not None:
                    self.telemetry.add_event(
                        "bad-block-remap",
                        self._telemetry_clock.now_us,
                        cat="ftl",
                        track="ftl",
                        args=(plane, block),
                    )
            self.program(pool, block, list(zip(group.lpns)))
            ops.append(FlashOp(_PROGRAM, plane, kind, pool.page_bytes))
            flash_bytes += pool.page_bytes
        if self.telemetry is not None:
            self.telemetry.add_event(
                "ftl-write",
                self._telemetry_clock.now_us,
                cat="ftl",
                track="ftl",
                args=(len(ops), flash_bytes),
            )
        return WriteOutcome(ops=ops, flash_bytes=flash_bytes, gc_results=gc_results)

    def _allocate_with_gc(
        self, pool: Pool, ops: List[FlashOp], gc_results: List[GcResult]
    ) -> int:
        """A block with a free page, reclaiming space first when the pool runs low."""
        if self.gc.needs_gc(pool):
            self._run_gc(pool, ops, gc_results)
        try:
            return pool.ensure_active()
        except OutOfSpaceError:
            self._run_gc(pool, ops, gc_results)
            return pool.ensure_active()

    def _run_gc(self, pool: Pool, ops: List[FlashOp], gc_results: List[GcResult]) -> None:
        for result in self.gc.reclaim_until_safe(pool, self):
            ops.extend(result.ops)
            gc_results.append(result)
            self.gc_results_total += 1
            self.gc_migrated_slots += result.migrated_slots
            if self.telemetry is not None:
                self.telemetry.add_event(
                    "gc-collect",
                    self._telemetry_clock.now_us,
                    cat="gc",
                    track="ftl",
                    args=(pool.plane, result.migrated_slots),
                )
        if self.wear_leveler is not None:
            leveled = self.wear_leveler.maybe_level(pool, self.gc, self)
            if leveled is not None:
                ops.extend(leveled.ops)
                gc_results.append(leveled)
                self.gc_migrated_slots += leveled.migrated_slots

    # -- read path -------------------------------------------------------------

    def read(self, lpns: Sequence[int]) -> ReadOutcome:
        """Look up (pre-loading unmapped data) and emit page reads.

        LPNs sharing a physical page produce a single read op whose payload
        covers only the requested slots, in first-seen page order.
        """
        codes = self.mapping.codes
        found = list(map(codes.get, lpns))
        preloaded = 0
        if None in found:
            missing = list(
                dict.fromkeys(lpn for lpn, code in zip(lpns, found) if code is None)
            )
            self.preload(missing)
            preloaded = len(missing)
            found = list(map(codes.get, lpns))
        pool_at = self._pool_at
        ops = []
        for index, count in page_reads(found):
            pool = pool_at[index]
            ops.append(FlashOp(_READ, pool.plane, pool.kind, count * pool.slot_bytes))
        if self.telemetry is not None:
            self.telemetry.add_event(
                "ftl-read",
                self._telemetry_clock.now_us,
                cat="ftl",
                track="ftl",
                args=(len(ops), preloaded),
            )
        return ReadOutcome(ops=ops, preloaded_pages=preloaded)

    def preload(self, lpns: Sequence[int]) -> None:
        """Map never-written ``lpns`` to their pre-trace locations.

        Placement is deterministic: adjacent LPNs share a physical page
        (for multi-slot kinds) and consecutive page groups stripe over
        planes, matching what the device's own allocator would have
        produced for a large sequential write.  The locations carry no
        block, so they never enter a GC pool.
        """
        codes = preload_codes(
            lpns, self._preload_slots, self.num_planes, self._preload_index
        )
        self.mapping.codes.update(zip(lpns, codes))

    # -- idle-time GC (Implication 2) -----------------------------------------

    def idle_collect(self, soft_threshold: int) -> List[GcResult]:
        """Collect one victim in every pool at or below ``soft_threshold``.

        Used by the device during long inter-arrival gaps so foreground
        writes rarely stall on GC.  Returns the collections performed.
        """
        results: List[GcResult] = []
        for pool in self.pools:
            if len(pool.free) <= soft_threshold:
                result = self.gc.collect(pool, self)
                if result is not None:
                    results.append(result)
                    self.gc_results_total += 1
                    self.gc_migrated_slots += result.migrated_slots
        return results

    # -- power-loss recovery ----------------------------------------------------

    def rebuild_mapping(self) -> int:
        """Rebuild the RAM mapping table by scanning flash (recovery path).

        Power loss wipes the controller's RAM; block contents (which
        model programmed pages plus their out-of-band validity) survive.
        The scan re-derives the LPN table from every non-bad block,
        recomputes each pool's active block (the at-most-one partially
        written block outside the free list) and resets the striping
        cursor.  Pre-loaded locations (data that predates the trace) are
        deliberately dropped: :meth:`preload` re-derives them on demand,
        deterministically.

        Returns the number of LPNs recovered.  Raises ``RuntimeError`` if
        the scan finds an inconsistent image (an LPN valid in two places,
        or two in-flight active blocks) -- states the event-granular
        power-loss model can never produce.
        """
        codes = self.mapping.codes
        codes.clear()
        for pool in self.pools:
            for block in range(len(pool)):
                if pool.bad[block]:
                    continue
                for lpn, code in pool.valid_codes(block):
                    if lpn in codes:
                        raise RuntimeError(f"recovery scan found LPN {lpn} valid twice")
                    codes[lpn] = code
        for pool in self.pools:
            free = set(pool.free)
            partial = [
                block
                for block in range(len(pool))
                if not pool.bad[block]
                and 0 < pool.write_ptr[block] < pool.pages
                and block not in free
            ]
            if len(partial) > 1:
                raise RuntimeError(
                    f"recovery scan found {len(partial)} in-flight blocks "
                    f"in plane {pool.plane} {pool.kind} pool"
                )
            pool.active = partial[0] if partial else None
        self.cursor = 0
        return len(codes)

    # -- invariants -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`InvariantError` at the first broken FTL invariant.

        Every pool must pass :meth:`Pool.check_invariants` (free, active
        and bad blocks, valid counts).  Across pools, no LPN is valid in
        two places, and each flash-resident mapping entry points at a
        valid slot holding that LPN.
        """
        codes = self.mapping.codes
        held = set()
        for pool in self.pools:
            pool.check_invariants()
            for block in range(len(pool)):
                for lpn, code in pool.valid_codes(block):
                    if lpn in held:
                        raise InvariantError(f"LPN {lpn} is valid in two places")
                    held.add(lpn)
                    if codes.get(lpn) != code:
                        raise InvariantError(
                            f"LPN {lpn} is valid in plane {pool.plane} {pool.kind} "
                            f"pool block {block} but maps elsewhere"
                        )
        for lpn, code in codes.items():
            if in_flash(code) and lpn not in held:
                raise InvariantError(
                    f"LPN {lpn} maps to {self.mapping.lookup(lpn)}, "
                    "which does not hold it"
                )

    # -- state views (tests and tools) -------------------------------------------

    def block_rows(self):
        """One ``(plane, kind, block, erase_count, write_ptr, valid_count,
        is_bad, slots)`` row per block, where ``slots`` holds one tuple of
        slot contents per written page."""
        return [
            (pool.plane, pool.kind, block, pool.erase_count[block],
             pool.write_ptr[block], pool.valid_count[block], pool.bad[block],
             pool.written_slots(block))
            for pool in self.pools
            for block in range(len(pool))
        ]

    def pool_rows(self):
        """One ``(plane, kind, free_list, active_block)`` row per pool."""
        return [
            (pool.plane, pool.kind, tuple(pool.free), pool.active)
            for pool in self.pools
        ]

    # -- capacity accounting ----------------------------------------------------

    def free_pages_by_kind(self) -> Dict[PageKind, int]:
        """Programmable pages remaining, per page kind."""
        totals = {kind: 0 for kind in self.kinds}
        for pool in self.pools:
            totals[pool.kind] += pool.total_free_pages()
        return totals
