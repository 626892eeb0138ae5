"""Planning pass: a slimmed sequential FTL walk over the trace columns.

The planner walks the trace once, in arrival order, and does two things
per request:

* mutates the device's **real** FTL structures (planes, blocks, free
  lists, mapping table, allocator cursor) to exactly the state the event
  kernel's expansion would leave, and
* emits the request's flash operations -- kind, busy unit, channel, unit
  latency, channel transfer latency -- appended to flat per-op arrays,
  with a per-request offset table.

Two walk speeds coexist.  The *slim* path handles the overwhelmingly
common cases arithmetically: a write whose groups cannot trigger GC
(free-block pools stay above the threshold even after every block this
request opens), and a read that touches only pre-trace data (the
closed-form preload placement).  Everything else -- GC-risky writes,
reads of rewritten data -- goes through the real :meth:`Ftl.write` /
:meth:`Ftl.read` for that one request, so state stays exact without the
planner re-implementing GC, wear leveling or victim policies.

The slim paths are proven equivalent to the kernel's:

* write groups are emitted in :meth:`RequestDistributor.pack`
  order (full large groups, then the tail), and planes advance
  round-robin from the allocator cursor -- so the op sequence, the block
  opens (lowest-erase-count pop) and the mapping updates are the ones
  ``Ftl.write`` performs group by group;
* a read of never-written data produces one op per preload page group in
  ascending group order, which is ``Ftl.read``'s first-seen grouping for
  ascending LPNs, with the same per-group payloads.

The planner never touches ``DeviceStats`` -- accounting rides in the
returned :class:`ReplayPlan` and is applied once by the engine, after
the timing pass, in the same order the kernel would have accumulated it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.emmc.ftl.mapping import PRELOADED_BLOCK, PhysicalLocation
from repro.emmc.ops import FlashOpType
from repro.trace import SECTOR

#: ``op_kind`` codes in the plan arrays (order-of-dispatch semantics
#: follow :meth:`EmmcDevice._schedule`): read, program, erase.
PLAN_READ = 0
PLAN_PROGRAM = 1
PLAN_ERASE = 2

#: The planner creates one :class:`PhysicalLocation` per written page --
#: the hottest allocation in the whole pass.  A frozen dataclass pays five
#: guarded ``object.__setattr__`` calls in its generated ``__init__``;
#: building the instance via ``__new__`` and filling ``__dict__`` directly
#: yields an *identical* object (same fields, same dataclass
#: ``__eq__``/``__hash__``/``repr``) about 25 % faster.
_NEW_LOCATION = PhysicalLocation.__new__


@dataclass
class ReplayPlan:
    """Per-request flash-op schedule plus accounting deltas for one trace."""

    #: One row per flash op, in dispatch order (uint8 PLAN_* codes).
    op_kind: np.ndarray
    #: Busy-unit index per op (die, or plane with ``multi_plane``).
    op_unit: np.ndarray
    #: Channel index per op (unused for erases, kept aligned).
    op_channel: np.ndarray
    #: Unit occupation per op: read/program/erase latency, microseconds.
    op_unit_us: np.ndarray
    #: Channel occupation per op (0.0 for erases), microseconds.
    op_transfer_us: np.ndarray
    #: Length ``n_requests + 1``: ops of request ``i`` are rows
    #: ``req_ops[i]:req_ops[i+1]``.
    req_ops: np.ndarray

    # -- accounting deltas (applied to DeviceStats by the engine) ----------
    data_bytes_written: int
    flash_bytes_consumed: int
    data_bytes_read: int
    gc_collections: int
    gc_migrated_slots: int
    preloaded_pages: int
    #: Per-kind op-count deltas, insertion-ordered by first op occurrence
    #: (merging them preserves the kernel's dict insertion order).
    page_reads: Dict
    page_programs: Dict

    # -- telemetry ----------------------------------------------------------
    slim_writes: int
    slim_reads: int
    fallback_requests: int


def plan_trace(device, columns) -> ReplayPlan:
    """Run the planning pass for ``columns`` on ``device`` (mutates its FTL)."""
    return _Planner(device, columns).run()


class _Planner:
    """One planning pass; see the module docstring for the contract."""

    def __init__(self, device, columns) -> None:
        self.device = device
        self.columns = columns
        ftl = device.ftl
        geometry = device.geometry
        latency = device.latency
        self.ftl = ftl
        self.planes = ftl.planes
        self.num_planes = geometry.num_planes
        multi_plane = device.config.multi_plane
        self.unit_of = [
            plane if multi_plane else geometry.die_of(plane)
            for plane in range(self.num_planes)
        ]
        self.chan_of = [geometry.channel_of(plane) for plane in range(self.num_planes)]
        # Rotated plane patterns: groups starting at cursor ``c`` land on
        # planes ``c, c+1, ... (mod P)``; tiling these lists reproduces
        # the allocator's round-robin without a per-group call.
        planes_range = range(self.num_planes)
        self.unit_rot = [
            [self.unit_of[(c + i) % self.num_planes] for i in planes_range]
            for c in planes_range
        ]
        self.chan_rot = [
            [self.chan_of[(c + i) % self.num_planes] for i in planes_range]
            for c in planes_range
        ]
        kinds = geometry.kinds()
        self.read_us = {kind: latency.timing(kind).read_us for kind in kinds}
        self.program_us = {kind: latency.timing(kind).program_us for kind in kinds}
        self.erase_us = latency.erase_us
        self.pages_per_block = {kind: geometry.pages_for(kind) for kind in kinds}
        self._latency = latency
        self._transfer_memo: Dict[int, float] = {}
        distributor = device.distributor
        self.distributor = distributor
        self.large = distributor.largest
        self.small = distributor.smallest
        self.hybrid = distributor.hybrid
        self.slots_per_large = self.large.slots
        # PageKind.bytes/.slots are computed properties and the per-write
        # latencies are constants of the kind -- hoist them all out of the
        # per-request paths.
        self.large_bytes = self.large.bytes
        self.small_bytes = self.small.bytes
        self.large_program_us = self.program_us[self.large]
        self.small_program_us = self.program_us[self.small]
        self.large_transfer_us = latency.transfer_us(self.large_bytes)
        self.small_transfer_us = latency.transfer_us(self.small_bytes)
        self.preload_kind = ftl.preload_kind
        self.preload_slots = self.preload_kind.slots
        self.preload_slot_bytes = self.preload_kind.bytes // self.preload_slots
        self.preload_read_us = self.read_us[self.preload_kind]
        self.preload_full_transfer_us = latency.transfer_us(
            self.preload_slots * self.preload_slot_bytes
        )
        self.gc_threshold = ftl.gc.threshold_blocks
        self.table = ftl.mapping.bulk_table()
        self.allocator = ftl.allocator

        # Written/mapped bitmaps over the LPN range the trace touches
        # (index ``lpn - base``), seeded from any pre-existing mapping
        # state (reused devices).  Starting at the lowest LPN, not LPN 0,
        # keeps them the size of the app's footprint rather than of its
        # offset on the device.  bytearrays, not ndarrays: the per-request
        # probes are tiny slices where ``b"\x01" in view`` beats a ufunc
        # reduction by an order of magnitude.
        if len(columns):
            base = int(columns.lba.min()) // SECTOR
            cap = int((columns.lba + columns.size).max()) // SECTOR
        else:
            base = cap = 0
        self.base = base
        self.written = bytearray(cap - base)
        self.mapped = bytearray(cap - base)
        # Shared all-ones buffer for range sets (sliced, never copied).
        max_pages = int(columns.size.max()) // SECTOR if len(columns) else 0
        self._ones = memoryview(b"\x01" * max_pages)
        for lpn, location in ftl.mapping.items():
            if base <= lpn < cap:
                self.mapped[lpn - base] = 1
                if location.block_id != PRELOADED_BLOCK:
                    self.written[lpn - base] = 1

        # Per-op output columns (lists; converted once at the end).
        self.op_kind: List[int] = []
        self.op_unit: List[int] = []
        self.op_channel: List[int] = []
        self.op_unit_us: List[float] = []
        self.op_transfer_us: List[float] = []
        self.req_ops: List[int] = [0]

        # Accounting deltas.
        self.data_bytes_written = 0
        self.flash_bytes_consumed = 0
        self.data_bytes_read = 0
        self.gc_collections = 0
        self.gc_migrated_slots = 0
        self.preloaded_pages = 0
        self.page_reads: Dict = {}
        self.page_programs: Dict = {}
        self.slim_writes = 0
        self.slim_reads = 0
        self.fallback_requests = 0

    # -- helpers -----------------------------------------------------------

    def _transfer_of(self, payload_bytes: int) -> float:
        memo = self._transfer_memo
        duration = memo.get(payload_bytes)
        if duration is None:
            duration = self._latency.transfer_us(payload_bytes)
            memo[payload_bytes] = duration
        return duration

    def _extend_planes(self, cursor: int, count: int) -> None:
        """Append ``count`` unit/channel rows striped from ``cursor``."""
        unit_pattern = self.unit_rot[cursor]
        chan_pattern = self.chan_rot[cursor]
        P = self.num_planes
        if count <= P:
            self.op_unit.extend(unit_pattern[:count])
            self.op_channel.extend(chan_pattern[:count])
        else:
            full, rem = divmod(count, P)
            self.op_unit.extend(unit_pattern * full + unit_pattern[:rem])
            self.op_channel.extend(chan_pattern * full + chan_pattern[:rem])

    # -- the walk ----------------------------------------------------------

    def run(self) -> ReplayPlan:
        columns = self.columns
        lba_list = columns.lba.tolist()
        size_list = columns.size.tolist()
        op_list = columns.op.tolist()
        req_ops_append = self.req_ops.append
        for i, lba in enumerate(lba_list):
            first = lba // SECTOR
            pages = size_list[i] // SECTOR
            if op_list[i]:
                self._plan_write(first, pages)
            else:
                self._plan_read(first, pages, size_list[i])
            req_ops_append(len(self.op_kind))
        return ReplayPlan(
            op_kind=np.array(self.op_kind, dtype=np.uint8),
            op_unit=np.array(self.op_unit, dtype=np.int32),
            op_channel=np.array(self.op_channel, dtype=np.int32),
            op_unit_us=np.array(self.op_unit_us, dtype=np.float64),
            op_transfer_us=np.array(self.op_transfer_us, dtype=np.float64),
            req_ops=np.array(self.req_ops, dtype=np.int64),
            data_bytes_written=self.data_bytes_written,
            flash_bytes_consumed=self.flash_bytes_consumed,
            data_bytes_read=self.data_bytes_read,
            gc_collections=self.gc_collections,
            gc_migrated_slots=self.gc_migrated_slots,
            preloaded_pages=self.preloaded_pages,
            page_reads=self.page_reads,
            page_programs=self.page_programs,
            slim_writes=self.slim_writes,
            slim_reads=self.slim_reads,
            fallback_requests=self.fallback_requests,
        )

    # -- writes ------------------------------------------------------------

    def _plan_write(self, first: int, pages: int) -> None:
        L = self.slots_per_large
        if L == 1:
            n_full, tail = pages, 0
        else:
            n_full, tail = divmod(pages, L)
        if tail and self.hybrid:
            n_large, n_small = n_full, tail
        elif tail:
            n_large, n_small = n_full + 1, 0  # padded trailing large group
        else:
            n_large, n_small = n_full, 0
        cursor = self.allocator.cursor
        if not self._write_fits(cursor, n_large, n_small):
            self._fallback_write(first, pages)
            return
        self.slim_writes += 1
        total_groups = n_large + n_small
        end = first + pages
        span = slice(first - self.base, end - self.base)  # bitmap indices

        # Op emission, in RequestDistributor.pack group order.
        self.op_kind.extend([PLAN_PROGRAM] * total_groups)
        self._extend_planes(cursor, total_groups)
        large, small = self.large, self.small
        if n_large:
            self.op_unit_us.extend([self.large_program_us] * n_large)
            self.op_transfer_us.extend([self.large_transfer_us] * n_large)
            self.page_programs[large] = self.page_programs.get(large, 0) + n_large
        if n_small:
            self.op_unit_us.extend([self.small_program_us] * n_small)
            self.op_transfer_us.extend([self.small_transfer_us] * n_small)
            self.page_programs[small] = self.page_programs.get(small, 0) + n_small
        self.data_bytes_written += pages * SECTOR
        self.flash_bytes_consumed += (
            n_large * self.large_bytes + n_small * self.small_bytes
        )

        # State mutation: fill each touched plane's active blocks with the
        # LPN tuples the per-group walk would have programmed there.
        stale_possible = 1 in self.written[span]
        P = self.num_planes
        planes = self.planes
        if n_full:
            base, extra = divmod(n_full, P)
            for offset in range(P if n_full >= P else n_full):
                count = base + 1 if offset < extra else base
                if not count:
                    continue
                start_lpn = first + offset * L
                step = P * L
                stop = start_lpn + count * step
                if L == 1:
                    tuples = [(lpn,) for lpn in range(start_lpn, stop, step)]
                elif L == 2:
                    tuples = [(lpn, lpn + 1) for lpn in range(start_lpn, stop, step)]
                else:
                    tuples = [
                        tuple(range(lpn, lpn + L)) for lpn in range(start_lpn, stop, step)
                    ]
                self._fill_plane(
                    planes[(cursor + offset) % P],
                    large,
                    tuples,
                    stale_possible,
                    singles=L == 1,
                )
        if tail:
            tail_first = first + n_full * L
            if self.hybrid:
                for offset in range(tail):
                    self._fill_plane(
                        planes[(cursor + n_full + offset) % P],
                        small,
                        [(tail_first + offset,)],
                        stale_possible,
                        singles=True,
                    )
            else:
                padded = tuple(range(tail_first, end)) + (None,) * (L - tail)
                self._fill_plane(
                    planes[(cursor + n_full) % P], large, [padded], stale_possible
                )
        self.allocator.advance(total_groups)
        ones = self._ones[:pages]
        self.written[span] = ones
        self.mapped[span] = ones

    def _write_fits(self, cursor: int, n_large: int, n_small: int) -> bool:
        """Conservative GC-safety check: no pool may near its threshold.

        The kernel runs GC when a group's allocation finds the free pool
        at or below ``threshold_blocks`` *with a reclaimable victim*.
        The slim path requires every touched (plane, kind) pool to stay
        strictly above the threshold even after all the blocks this
        request opens -- then ``needs_gc`` is False at every allocation
        regardless of victim availability, and allocation cannot raise.
        Pools that merely *might* GC go through the real write path.
        """
        P = self.num_planes
        planes = self.planes
        if n_large:
            base, extra = divmod(n_large, P)
            for offset in range(P if n_large >= P else n_large):
                count = base + 1 if offset < extra else base
                if count and not self._pool_fits(
                    planes[(cursor + offset) % P], self.large, count
                ):
                    return False
        if n_small:
            base, extra = divmod(n_small, P)
            tail_cursor = cursor + n_large
            for offset in range(P if n_small >= P else n_small):
                count = base + 1 if offset < extra else base
                if count and not self._pool_fits(
                    planes[(tail_cursor + offset) % P], self.small, count
                ):
                    return False
        return True

    def _pool_fits(self, plane, kind, groups: int) -> bool:
        active_id = plane.active_block[kind]
        available = 0
        if active_id is not None:
            block = plane.blocks[kind][active_id]
            available = block.pages_per_block - block.write_ptr
        if groups <= available:
            opens = 0
        else:
            per_block = self.pages_per_block[kind]
            opens = -(-(groups - available) // per_block)
        return len(plane.free_blocks[kind]) - opens > self.gc_threshold

    def _fill_plane(
        self, plane, kind, tuples, stale_possible: bool, singles: bool = False
    ) -> None:
        """Program ``tuples`` into ``plane``'s active ``kind`` blocks.

        ``singles`` promises every entry is a padding-free 1-tuple (full
        1-slot groups, hybrid-tail singles), letting the hottest shape
        skip the per-slot loop.
        """
        allocate = self.allocator.allocate
        table = self.table
        plane_id = plane.plane_id
        planes = self.planes
        new = _NEW_LOCATION
        index = 0
        total = len(tuples)
        while index < total:
            block, _ = allocate(plane, kind)
            take = block.pages_per_block - block.write_ptr
            if take > total - index:
                take = total - index
            chunk = tuples[index : index + take]
            page = block.write_ptr
            block.slots.extend(chunk)
            block.write_ptr += take
            block_id = block.block_id
            if singles and not stale_possible:
                for entry in chunk:
                    location = new(PhysicalLocation)
                    location.__dict__.update(
                        plane=plane_id, kind=kind, block_id=block_id,
                        page=page, slot=0,
                    )
                    table[entry[0]] = location
                    page += 1
                block.valid_count += take
                index += take
                continue
            valid = 0
            if stale_possible:
                get = table.get
                for entry in chunk:
                    for slot, lpn in enumerate(entry):
                        if lpn is None:
                            continue
                        valid += 1
                        old = get(lpn)
                        location = new(PhysicalLocation)
                        location.__dict__.update(
                            plane=plane_id, kind=kind, block_id=block_id,
                            page=page, slot=slot,
                        )
                        table[lpn] = location
                        if old is not None and old.block_id != PRELOADED_BLOCK:
                            planes[old.plane].blocks[old.kind][old.block_id].invalidate(
                                old.page, old.slot
                            )
                    page += 1
            else:
                for entry in chunk:
                    for slot, lpn in enumerate(entry):
                        if lpn is None:
                            continue
                        valid += 1
                        location = new(PhysicalLocation)
                        location.__dict__.update(
                            plane=plane_id, kind=kind, block_id=block_id,
                            page=page, slot=slot,
                        )
                        table[lpn] = location
                    page += 1
            block.valid_count += valid
            index += take

    def _fallback_write(self, first: int, pages: int) -> None:
        """GC possible: run the real FTL write for this one request."""
        self.fallback_requests += 1
        outcome = self.ftl.write(self.distributor.pack(range(first, first + pages)))
        self.data_bytes_written += outcome.data_bytes
        self.flash_bytes_consumed += outcome.flash_bytes
        self.gc_collections += len(outcome.gc_results)
        self.gc_migrated_slots += sum(
            result.migrated_slots for result in outcome.gc_results
        )
        self._emit_flash_ops(outcome.ops)
        span = slice(first - self.base, first + pages - self.base)
        ones = self._ones[:pages]
        self.written[span] = ones
        self.mapped[span] = ones

    def _emit_flash_ops(self, ops) -> None:
        """Convert real FlashOps (fallback paths) into plan rows, in order."""
        unit_of = self.unit_of
        chan_of = self.chan_of
        read_type = FlashOpType.READ
        program_type = FlashOpType.PROGRAM
        for op in ops:
            plane = op.plane
            self.op_unit.append(unit_of[plane])
            self.op_channel.append(chan_of[plane])
            kind = op.kind
            if op.op_type is read_type:
                self.op_kind.append(PLAN_READ)
                self.op_unit_us.append(self.read_us[kind])
                self.op_transfer_us.append(self._transfer_of(op.payload_bytes))
                self.page_reads[kind] = self.page_reads.get(kind, 0) + 1
            elif op.op_type is program_type:
                self.op_kind.append(PLAN_PROGRAM)
                self.op_unit_us.append(self.program_us[kind])
                self.op_transfer_us.append(self._transfer_of(op.payload_bytes))
                self.page_programs[kind] = self.page_programs.get(kind, 0) + 1
            else:
                self.op_kind.append(PLAN_ERASE)
                self.op_unit_us.append(self.erase_us)
                self.op_transfer_us.append(0.0)

    # -- reads -------------------------------------------------------------

    def _plan_read(self, first: int, pages: int, size: int) -> None:
        self.data_bytes_read += size
        end = first + pages
        span = slice(first - self.base, end - self.base)  # bitmap indices
        if 1 in self.written[span]:
            self._fallback_read(first, end)
            return
        self.slim_reads += 1
        # Closed-form preload: ascending LPNs group into ascending preload
        # page groups, one read op per group (Ftl.read's first-seen order).
        S = self.preload_slots
        group_first = first // S
        group_last = (end - 1) // S
        n_ops = group_last - group_first + 1
        kind = self.preload_kind
        slot_bytes = self.preload_slot_bytes
        if n_ops == 1:
            # Fast lane for the dominant shape: one preload group.
            plane = group_first % self.num_planes
            self.op_kind.append(PLAN_READ)
            self.op_unit.append(self.unit_of[plane])
            self.op_channel.append(self.chan_of[plane])
            self.op_unit_us.append(self.preload_read_us)
            self.op_transfer_us.append(self._transfer_of(pages * slot_bytes))
        else:
            self.op_kind.extend([PLAN_READ] * n_ops)
            self._extend_planes(group_first % self.num_planes, n_ops)
            self.op_unit_us.extend([self.preload_read_us] * n_ops)
            first_count = (group_first + 1) * S - first
            last_count = end - group_last * S
            transfers = [self.preload_full_transfer_us] * n_ops
            transfers[0] = self._transfer_of(first_count * slot_bytes)
            transfers[-1] = self._transfer_of(last_count * slot_bytes)
            self.op_transfer_us.extend(transfers)
        self.page_reads[kind] = self.page_reads.get(kind, 0) + n_ops
        # First-touch LPNs get their preload mapping entry, exactly as
        # Ftl._preload would have inserted it.
        segment = self.mapped[span]
        if 0 in segment:
            table = self.table
            P = self.num_planes
            new = _NEW_LOCATION
            touched = 0
            for offset, seen in enumerate(segment):
                if seen:
                    continue
                touched += 1
                lpn = first + offset
                group = lpn // S
                location = new(PhysicalLocation)
                location.__dict__.update(
                    plane=group % P,
                    kind=kind,
                    block_id=PRELOADED_BLOCK,
                    page=group // P,
                    slot=lpn - group * S,
                )
                table[lpn] = location
            self.preloaded_pages += touched
            self.mapped[span] = self._ones[:pages]

    def _fallback_read(self, first: int, end: int) -> None:
        """The segment holds rewritten data: real FTL lookup/grouping."""
        self.fallback_requests += 1
        outcome = self.ftl.read(list(range(first, end)))
        self.preloaded_pages += outcome.preloaded_pages
        self._emit_flash_ops(outcome.ops)
        self.mapped[first - self.base : end - self.base] = self._ones[: end - first]
