"""Planning pass: a slimmed sequential FTL walk over the trace columns.

The planner walks the trace once, in arrival order, and does two things
per request:

* drives the device's **real** FTL to exactly the state the event
  kernel's expansion would leave -- through the FTL's own entries, never
  by touching its mapping, blocks or free lists itself, and
* emits the request's flash operations -- kind, busy unit, channel, unit
  latency, channel transfer latency, GC flag: the op rows of
  :mod:`repro.emmc.reserve` -- appended to flat per-op columns, with a
  per-request offset table.

Two walk speeds coexist.  The *slim* path handles the overwhelmingly
common cases arithmetically: a write whose groups cannot trigger GC
(every touched pool stays above the threshold even after every block
this request opens, :meth:`Pool.gc_safe`), and a read that touches only
pre-trace data (the closed-form preload placement).  Everything else --
GC-risky writes, every write of a device whose program failures are
armed, reads of rewritten data -- goes through the device's own write
and read steps (:meth:`EmmcDevice.write_step` / :meth:`EmmcDevice.read_step`,
the ones the event kernel's expansion calls, around :meth:`Ftl.write` /
:meth:`Ftl.read`) for that one request, so state, accounting and fault
draws stay exact without the planner re-implementing GC, wear leveling,
victim policies or bad-block retirement.  Erase failures need no such
rule: they fire only inside GC, which a slim write never runs.

The slim paths are proven equivalent to the kernel's:

* write groups are emitted in :meth:`RequestDistributor.pack`
  order (full large groups, then the tail), and planes advance
  round-robin from the FTL's cursor.  Each plane's share of a request is
  one run of pages with evenly spaced LPNs, so the planner hands it to
  :meth:`Ftl.program_run` as ``range`` slot columns; that programs,
  opens blocks (lowest erase count first) and maps the LPNs through the
  same primitive ``Ftl.write`` uses group by group;
* a read of never-written data produces one op per preload page group in
  ascending group order, which is ``Ftl.read``'s first-seen grouping for
  ascending LPNs, with the same per-group payloads; its first-touch LPNs
  are mapped by :meth:`Ftl.preload`, the routine ``Ftl.read`` uses.

The device's steps account their own requests.  The planner adds the
rest -- host bytes, and the slim walks' flash bytes, preloaded pages and
per-kind op counts -- to ``device.stats`` once, at the end of the pass.
The timing pass accounts the reservations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.emmc.reserve import PROGRAM, READ
from repro.trace import SECTOR


@dataclass
class ReplayPlan:
    """The op rows of one trace, plus the planner's decision counts."""

    #: One entry per flash op, in dispatch order: the row kind
    #: (:mod:`repro.emmc.reserve` codes).
    op_kind: List[int]
    #: Busy-unit index per op (die, or plane with ``multi_plane``).
    op_unit: List[int]
    #: Channel index per op (unused for erases, kept aligned).
    op_channel: List[int]
    #: Unit occupation per op: read/program/erase latency, microseconds.
    op_unit_us: List[float]
    #: Channel occupation per op (0.0 for erases), microseconds.
    op_transfer_us: List[float]
    #: True for ops garbage collection generated (copy-back skips their
    #: channel transfers).
    op_gc: List[bool]
    #: Length ``n_requests + 1``: ops of request ``i`` are rows
    #: ``req_ops[i]:req_ops[i+1]``.
    req_ops: List[int]
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
        self.write_step = device.write_step
        self.read_step = device.read_step
        #: Program failures are drawn per write group inside Ftl.write, so
        #: no write may take the slim path.
        self.program_faults = ftl.faults is not None and ftl.faults.program_active
        self.num_planes = geometry.num_planes
        # The device's op-row tables: per-plane unit/channel, per-kind
        # latencies and the memoised transfer times.
        op_rows = device.op_rows
        self.unit_of = op_rows.unit_of
        self.chan_of = op_rows.chan_of
        self._transfer_of = op_rows.transfer_us
        # Rotated plane patterns: groups starting at cursor ``c`` land on
        # planes ``c, c+1, ... (mod P)``; tiling these lists reproduces
        # the FTL's round-robin without a per-group call.
        planes_range = range(self.num_planes)
        self.unit_rot = [
            [self.unit_of[(c + i) % self.num_planes] for i in planes_range]
            for c in planes_range
        ]
        self.chan_rot = [
            [self.chan_of[(c + i) % self.num_planes] for i in planes_range]
            for c in planes_range
        ]
        kinds = ftl.kinds
        distributor = device.distributor
        large = distributor.largest
        small = distributor.smallest
        self.large_kind = large
        self.small_kind = small
        self.hybrid = distributor.hybrid
        self.slots_per_large = large.slots
        self.large_pools = [ftl.pool(plane, large) for plane in planes_range]
        self.small_pools = [ftl.pool(plane, small) for plane in planes_range]
        # PageKind.bytes/.slots are computed properties and the per-write
        # latencies are constants of the kind -- hoist them all out of the
        # per-request paths.
        self.large_bytes = large.bytes
        self.small_bytes = small.bytes
        self.large_program_us = op_rows.program_us[kinds.index(large)]
        self.small_program_us = op_rows.program_us[kinds.index(small)]
        self.large_transfer_us = latency.transfer_us(self.large_bytes)
        self.small_transfer_us = latency.transfer_us(self.small_bytes)
        preload_kind = ftl.preload_kind
        self.preload_kind = preload_kind
        self.preload_slots = preload_kind.slots
        self.preload_slot_bytes = preload_kind.bytes // self.preload_slots
        self.preload_read_us = op_rows.read_us[kinds.index(preload_kind)]
        self.preload_full_transfer_us = latency.transfer_us(
            self.preload_slots * self.preload_slot_bytes
        )
        self.gc_threshold = ftl.gc.threshold_blocks

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
        mapped, written = ftl.mapping.partition(base, cap)
        for lpn in mapped:
            self.mapped[lpn - base] = 1
        for lpn in written:
            self.written[lpn - base] = 1

        # Per-op output columns.
        self.op_kind: List[int] = []
        self.op_unit: List[int] = []
        self.op_channel: List[int] = []
        self.op_unit_us: List[float] = []
        self.op_transfer_us: List[float] = []
        self.op_gc: List[bool] = []
        self.req_ops: List[int] = [0]

        # The slim walks' accounting, added to the stats once per pass.
        self.flash_bytes = 0
        self.preloaded_pages = 0
        self.large_programs = 0
        self.small_programs = 0
        self.preload_reads = 0
        self.slim_writes = 0
        self.slim_reads = 0
        self.fallback_requests = 0

    # -- helpers -----------------------------------------------------------

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

    def _extend_rows(self, rows) -> None:
        """Append the op rows a device step returned (never empty)."""
        kind, unit, channel, unit_us, transfer_us, gc = zip(*rows)
        self.op_kind.extend(kind)
        self.op_unit.extend(unit)
        self.op_channel.extend(channel)
        self.op_unit_us.extend(unit_us)
        self.op_transfer_us.extend(transfer_us)
        self.op_gc.extend(gc)

    # -- the walk ----------------------------------------------------------

    def run(self) -> ReplayPlan:
        columns = self.columns
        req_ops_append = self.req_ops.append
        op_kind = self.op_kind
        for lba, size, write in zip(
            columns.lba.tolist(), columns.size.tolist(), columns.op.tolist()
        ):
            if write:
                self._plan_write(lba // SECTOR, size // SECTOR)
            else:
                self._plan_read(lba // SECTOR, size // SECTOR)
            req_ops_append(len(op_kind))
        self._account()
        return ReplayPlan(
            op_kind=op_kind,
            op_unit=self.op_unit,
            op_channel=self.op_channel,
            op_unit_us=self.op_unit_us,
            op_transfer_us=self.op_transfer_us,
            op_gc=self.op_gc,
            req_ops=self.req_ops,
            slim_writes=self.slim_writes,
            slim_reads=self.slim_reads,
            fallback_requests=self.fallback_requests,
        )

    def _account(self) -> None:
        """Add the host bytes and the slim walks' accounting to the stats."""
        columns = self.columns
        stats = self.device.stats
        writes = columns.op != 0
        stats.data_bytes_written += int(columns.size[writes].sum())
        stats.data_bytes_read += int(columns.size[~writes].sum())
        stats.flash_bytes_consumed += self.flash_bytes
        stats.preloaded_pages += self.preloaded_pages
        stats.record_op_counts(self.large_kind, programs=self.large_programs)
        stats.record_op_counts(self.small_kind, programs=self.small_programs)
        stats.record_op_counts(self.preload_kind, reads=self.preload_reads)

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
        ftl = self.ftl
        cursor = ftl.cursor
        if self.program_faults or not self._write_fits(cursor, n_large, n_small):
            self._fallback_write(first, pages)
            return
        self.slim_writes += 1
        total_groups = n_large + n_small
        end = first + pages

        # Op emission, in RequestDistributor.pack group order.
        self.op_kind.extend([PROGRAM] * total_groups)
        self.op_gc.extend([False] * total_groups)
        self._extend_planes(cursor, total_groups)
        if n_large:
            self.op_unit_us.extend([self.large_program_us] * n_large)
            self.op_transfer_us.extend([self.large_transfer_us] * n_large)
            self.large_programs += n_large
        if n_small:
            self.op_unit_us.extend([self.small_program_us] * n_small)
            self.op_transfer_us.extend([self.small_transfer_us] * n_small)
            self.small_programs += n_small
        self.flash_bytes += n_large * self.large_bytes + n_small * self.small_bytes

        # State: each plane's full large groups are one run whose slot
        # columns are evenly spaced LPNs, then the tail's groups.
        P = self.num_planes
        program = ftl.program_run
        large_pools = self.large_pools
        if n_full:
            step = P * L
            base, extra = divmod(n_full, P)
            for offset in range(P if n_full >= P else n_full):
                start = first + offset * L
                stop = start + (base + 1 if offset < extra else base) * step
                program(
                    large_pools[(cursor + offset) % P],
                    [range(start + slot, stop + slot, step) for slot in range(L)],
                )
        if tail:
            tail_first = first + n_full * L
            if self.hybrid:
                small_pools = self.small_pools
                for offset in range(tail):
                    program(
                        small_pools[(cursor + n_full + offset) % P],
                        ((tail_first + offset,),),
                    )
            else:
                padded = list(range(tail_first, end)) + [None] * (L - tail)
                program(large_pools[(cursor + n_full) % P], list(zip(padded)))
        ftl.advance(total_groups)
        span = slice(first - self.base, end - self.base)  # bitmap indices
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
        threshold = self.gc_threshold
        for pools, groups, start in (
            (self.large_pools, n_large, cursor),
            (self.small_pools, n_small, cursor + n_large),
        ):
            if not groups:
                continue
            base, extra = divmod(groups, P)
            for offset in range(P if groups >= P else groups):
                count = base + 1 if offset < extra else base
                if not pools[(start + offset) % P].gc_safe(count, threshold):
                    return False
        return True

    def _fallback_write(self, first: int, pages: int) -> None:
        """The device's write step for this one request."""
        self.fallback_requests += 1
        self._extend_rows(self.write_step(range(first, first + pages)))
        span = slice(first - self.base, first + pages - self.base)
        ones = self._ones[:pages]
        self.written[span] = ones
        self.mapped[span] = ones

    # -- reads -------------------------------------------------------------

    def _plan_read(self, first: int, pages: int) -> None:
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
        slot_bytes = self.preload_slot_bytes
        if n_ops == 1:
            # Fast lane for the dominant shape: one preload group.
            plane = group_first % self.num_planes
            self.op_kind.append(READ)
            self.op_unit.append(self.unit_of[plane])
            self.op_channel.append(self.chan_of[plane])
            self.op_unit_us.append(self.preload_read_us)
            self.op_transfer_us.append(self._transfer_of(pages * slot_bytes))
            self.op_gc.append(False)
        else:
            self.op_kind.extend([READ] * n_ops)
            self.op_gc.extend([False] * n_ops)
            self._extend_planes(group_first % self.num_planes, n_ops)
            self.op_unit_us.extend([self.preload_read_us] * n_ops)
            first_count = (group_first + 1) * S - first
            last_count = end - group_last * S
            transfers = [self.preload_full_transfer_us] * n_ops
            transfers[0] = self._transfer_of(first_count * slot_bytes)
            transfers[-1] = self._transfer_of(last_count * slot_bytes)
            self.op_transfer_us.extend(transfers)
        self.preload_reads += n_ops
        # First-touch LPNs get their preload mapping entry, exactly as
        # Ftl.read would have inserted it.
        segment = self.mapped[span]
        if 0 in segment:
            if 1 in segment:
                fresh = [first + offset for offset, seen in enumerate(segment) if not seen]
            else:
                fresh = range(first, end)
            self.ftl.preload(fresh)
            self.preloaded_pages += len(fresh)
            self.mapped[span] = self._ones[:pages]

    def _fallback_read(self, first: int, end: int) -> None:
        """The segment holds rewritten data: the device's read step."""
        self.fallback_requests += 1
        self._extend_rows(self.read_step(range(first, end)))
        self.mapped[first - self.base : end - self.base] = self._ones[: end - first]
