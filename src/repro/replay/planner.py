"""Planning pass: the trace's FTL decisions as arrays, applied window by window.

The planner drives the device's **real** FTL to exactly the state the
event kernel's expansion would leave -- through the FTL's own entries,
never by touching its mapping, blocks or free lists itself -- and emits
every request's flash operations -- kind, busy unit, channel, unit
latency, channel transfer latency, GC flag: the op rows of
:mod:`repro.emmc.reserve` -- as flat per-op columns, with a per-request
offset table.

Every decision but GC safety depends only on the trace and on the
mapping the device holds before it (:meth:`PageMapping.partition`), so
the planner makes them once per trace, with array arithmetic:

* The striping cursor before each request is the starting cursor plus
  the write groups before it.  A fallback write moves the cursor inside
  :meth:`Ftl.write` by the group count :meth:`RequestDistributor.pack`
  gives, and the slim path by the same count.
* A read falls back iff some LPN of it was written before it: by any
  earlier write, slim or fallback, or before the replay.
* A slim read preloads its *first-touch* LPNs: the ones no earlier
  request touched and the device did not map before the replay.
* A slim request's op rows follow from its cursor -- write groups in
  ``pack`` order (full large groups, then the tail), planes round-robin
  -- or from its preload page groups (one read per group, ascending,
  which is ``Ftl.read``'s first-seen grouping for ascending LPNs), plus
  the per-kind latencies and the per-payload transfer times.

GC safety is a budget.  :meth:`Pool.gc_budget` is the most pages a pool
can take while its free list stays above the GC threshold after every
block it opens; then ``needs_gc`` is False at every allocation whatever
the victims, and allocation cannot fail.  No GC runs between two
fallbacks and each page lowers a budget by one, so a write is slim iff
every pool it touches stays within the budget read when its window
started.

A *window* is a run of slim requests.  It ends before a fallback -- a
read of rewritten data, any write of a device whose program failures
are armed (they are drawn per write group inside ``Ftl.write``), the
first write past some pool's budget -- and before a write that rewrites
an LPN written earlier in the window, so programming each pool's share
at once cannot reorder two copies of one LPN.  A window is applied in
this order:

1. :meth:`Ftl.preload` maps its first-touch LPNs.  Preloads come first:
   an LPN a read first-touches and a later write in the window rewrites
   must end up in flash.  (A read after an in-window write of its LPN is
   a fallback, and ends the window.)
2. :meth:`Ftl.program_run` runs once per pool the window writes, with
   that pool's slot columns in request order; it opens blocks (lowest
   erase count first) and maps the LPNs through the primitive
   ``Ftl.write`` uses group by group.
3. :meth:`Ftl.advance` moves the cursor past the window's groups.

A fallback goes through the device's own write or read step
(:meth:`EmmcDevice.write_step` / :meth:`EmmcDevice.read_step`, the ones
the event kernel's expansion calls, around :meth:`Ftl.write` /
:meth:`Ftl.read`) for that one request, so state, accounting and fault
draws stay exact without the planner re-implementing GC, wear leveling,
victim policies or bad-block retirement.  Erase failures need no rule of
their own: they fire only inside GC, which no window runs.

The device's steps account their own requests.  The planner adds the
rest -- host bytes, and the windows' flash bytes, preloaded pages and
per-kind op counts -- to ``device.stats`` once, at the end of the pass.
The timing pass accounts the reservations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

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


def _starts(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each owner's share of a flat column starts."""
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


def _expand(counts, starts):
    """The owner of each element of a flat column, and its offset within the owner."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(starts[-1]) - starts[owner]


def _touches(first, pages, write, mapped, written):
    """What the LPNs each request touches decide.

    Returns, per request, whether it is a read of an LPN written before it
    (by an earlier write, or before the replay), and the first later write
    that rewrites one of a write's LPNs (``n`` for none); then the reads'
    first-touch LPNs in request order, ascending within a request, and
    each request's start in them.
    """
    n = len(first)
    owner, offset = _expand(pages, _starts(pages))
    lpn = first[owner] + offset
    # All touches of one LPN together, in request order.
    order = np.argsort(lpn, kind="stable")
    lpn, owner = lpn[order], owner[order]
    writes = write[owner]
    position = np.arange(len(lpn))
    # The write touch before each touch, and the one after it.
    before = np.roll(np.maximum.accumulate(np.where(writes, position, -1)), 1)
    before[:1] = -1
    after = np.roll(np.minimum.accumulate(np.where(writes, position, len(lpn))[::-1])[::-1], -1)
    after[-1:] = len(lpn)
    rewritten = (before >= 0) & (lpn[before] == lpn)
    if len(written):
        rewritten |= np.isin(lpn, written)
    fallback_read = np.zeros(n, dtype=bool)
    fallback_read[owner[rewritten & ~writes]] = True
    again = writes & (after < len(lpn))
    again[again] = lpn[after[again]] == lpn[again]
    rewrite_at = np.full(n, n, dtype=np.int64)
    np.minimum.at(rewrite_at, owner[again], owner[after[again]])
    fresh = ~writes
    fresh[1:] &= lpn[1:] != lpn[:-1]
    if len(mapped):
        fresh &= ~np.isin(lpn, mapped)
    fresh_owner = owner[fresh]
    fresh_lpn = lpn[fresh][np.argsort(fresh_owner, kind="stable")]
    return fallback_read, rewrite_at, fresh_lpn, _starts(np.bincount(fresh_owner, minlength=n))


class _Planner:
    """One planning pass; see the module docstring for the contract."""

    def __init__(self, device, columns) -> None:
        self.device = device
        self.columns = columns
        ftl = device.ftl
        self.ftl = ftl
        self.write_step = device.write_step
        self.read_step = device.read_step
        self.program_faults = ftl.faults is not None and ftl.faults.program_active
        self.num_planes = device.geometry.num_planes
        planes = range(self.num_planes)
        distributor = device.distributor
        self.large_kind = large = distributor.largest
        self.small_kind = small = distributor.smallest
        self.hybrid = distributor.hybrid
        # Planner pool ids: the large pool of each plane, then (HPS) the
        # small ones.
        self.pools = [ftl.pool(plane, large) for plane in planes]
        if self.hybrid:
            self.pools += [ftl.pool(plane, small) for plane in planes]
        self.gc_threshold = ftl.gc.threshold_blocks
        self.preload_kind = preload = ftl.preload_kind
        self.preload_slots = preload.slots
        # Row codes: 0 a large program, 1 a small program, 1 + k a read of
        # k preloaded slots.  Each code's latencies are one shared float.
        op_rows = device.op_rows
        kinds = ftl.kinds
        slot_bytes = preload.bytes // preload.slots
        slots = range(1, preload.slots + 1)
        self.unit_us = [
            op_rows.program_us[kinds.index(large)],
            op_rows.program_us[kinds.index(small)],
        ] + [op_rows.read_us[kinds.index(preload)]] * preload.slots
        self.transfer_us = [
            op_rows.transfer_us(large.bytes), op_rows.transfer_us(small.bytes)
        ] + [op_rows.transfer_us(count * slot_bytes) for count in slots]

        # Per-op output columns.
        self.op_kind: List[int] = []
        self.op_unit: List[int] = []
        self.op_channel: List[int] = []
        self.op_unit_us: List[float] = []
        self.op_transfer_us: List[float] = []
        self.op_gc: List[bool] = []
        self.preloaded_pages = 0
        #: Per-pool GC budgets at the current window, ``None`` after a
        #: fallback write (its GC may have freed blocks).
        self.budgets = None

    # -- decisions ---------------------------------------------------------

    def _layout(self, first, pages, write) -> None:
        """Every request's write groups, slim op rows and pool sequences."""
        P = self.num_planes
        L = self.large_kind.slots
        S = self.preload_slots
        cursor = self.ftl.cursor
        full, tail = np.divmod(pages, L)
        if self.hybrid:
            large, small = full, tail
        else:
            large, small = full + (tail > 0), np.zeros_like(tail)
        self.n_large = large = np.where(write, large, 0)
        self.n_small = np.where(write, small, 0)
        groups = large + self.n_small
        group_starts = _starts(groups)
        group_first = first // S
        self.read_ops = np.where(write, 0, (first + pages - 1) // S - group_first + 1)
        self.rows = groups + self.read_ops
        row_starts = _starts(self.rows)

        # Slim op rows: a write's groups stripe from its cursor; a read's
        # preload groups stripe from their own index.
        owner, offset = _expand(self.rows, row_starts)
        is_write = write[owner]
        plane = (np.where(write, cursor + group_starts[:-1], group_first)[owner] + offset) % P
        group = group_first[owner] + offset
        read_slots = np.minimum((first + pages)[owner], (group + 1) * S) - np.maximum(
            first[owner], group * S
        )
        code = np.where(is_write, offset >= large[owner], 1 + read_slots).astype(np.int8)
        op_rows = self.device.op_rows
        self.row_kind = np.array([PROGRAM, PROGRAM] + [READ] * S, dtype=np.int8)[code]
        self.row_unit = np.array(op_rows.unit_of, dtype=np.int16)[plane]
        self.row_chan = np.array(op_rows.chan_of, dtype=np.int16)[plane]
        self.row_code = code

        # Each pool's groups in request order, as one array sorted by
        # (pool, global group index): ``keys`` holds ``pool * G + group``.
        total = int(group_starts[-1])
        self.group_starts = group_starts
        self.pool_keys = np.arange(len(self.pools), dtype=np.int64) * total
        self.group_valid = None
        if not total or self.program_faults:
            return
        owner, offset = _expand(groups, group_starts)
        is_small = offset >= large[owner]
        lpn = first[owner] + np.where(is_small, offset + large[owner] * (L - 1), offset * L)
        pool = (cursor + np.arange(total)) % P + P * is_small
        order = np.argsort(pool, kind="stable")
        self.keys = pool[order] * total + order
        self.group_lpn = lpn[order]
        if not self.hybrid and L > 1:
            # Valid slots per group: fewer than L only in a padded 8PS tail.
            self.group_valid = np.minimum(L, pages[owner] - offset * L)[order]

    # -- the walk ----------------------------------------------------------

    def run(self) -> ReplayPlan:
        columns = self.columns
        n = len(columns)
        first = columns.lba // SECTOR
        pages = columns.size // SECTOR
        write = columns.op != 0
        mapped, written = (
            self.ftl.mapping.partition(int(first.min()), int((first + pages).max()))
            if n
            else ([], [])
        )
        fallback_read, rewrite_at, self.fresh_lpn, fresh_starts = _touches(
            first, pages, write,
            np.array(mapped, dtype=np.int64), np.array(written, dtype=np.int64),
        )
        self._layout(first, pages, write)
        # A window from request i ends by limit[i]: the next forced
        # fallback, or the next write that rewrites an LPN of the window.
        forced = np.where(fallback_read | (write & self.program_faults), np.arange(n), n)
        limit = np.minimum.accumulate(np.minimum(forced, rewrite_at)[::-1])[::-1].tolist()
        self.fresh_start = fresh_starts.tolist()
        self.group_start = self.group_starts.tolist()
        self.row_start = _starts(self.rows).tolist()

        first_lpn, page_count, is_write = first.tolist(), pages.tolist(), write.tolist()
        fallbacks = {}  # request index -> its op-row count
        start = 0
        while start < n:
            if limit[start] > start:
                end = self._window(start, limit[start])
                if end > start:
                    start = end
                    continue
            lpns = range(first_lpn[start], first_lpn[start] + page_count[start])
            if is_write[start]:
                rows = self.write_step(lpns)
                self.budgets = None
            else:
                rows = self.read_step(lpns)
            self._extend_rows(rows)
            fallbacks[start] = len(rows)
            start += 1
        return self._finish(write, fallbacks)

    def _window(self, start: int, end: int) -> int:
        """Apply the slim requests from ``start`` on; returns where they end.

        They end at ``end``, or earlier at the first write past a GC
        budget (the returned index, a fallback; ``start`` itself when
        that is the first request).
        """
        ftl = self.ftl
        low, high = self.group_start[start], self.group_start[end]
        if high > low:
            if self.budgets is None:
                threshold = self.gc_threshold
                self.budgets = np.array([pool.gc_budget(threshold) for pool in self.pools])
            keys, pool_keys = self.keys, self.pool_keys
            begin = keys.searchsorted(pool_keys + low)
            stop = keys.searchsorted(pool_keys + high)
            over = begin + self.budgets
            past = over < stop
            if past.any():
                # Each pool's first group past its budget; the earliest
                # one's request falls back.
                group = int((keys[over[past]] - pool_keys[past]).min())
                end = int(self.group_starts.searchsorted(group, "right")) - 1
                if end == start:
                    return start
                high = self.group_start[end]
                stop = keys.searchsorted(pool_keys + high)
        fresh_low, fresh_high = self.fresh_start[start], self.fresh_start[end]
        if fresh_high > fresh_low:
            ftl.preload(self.fresh_lpn[fresh_low:fresh_high].tolist())
            self.preloaded_pages += fresh_high - fresh_low
        if high > low:
            self.budgets -= stop - begin
            for pool, lo, hi in zip(self.pools, begin.tolist(), stop.tolist()):
                if hi > lo:
                    self._program(pool, lo, hi)
            ftl.advance(high - low)
        self._extend_slim(self.row_start[start], self.row_start[end])
        return end

    def _program(self, pool, lo: int, hi: int) -> None:
        """``Ftl.program_run`` of the pool's groups at ``keys[lo:hi]``."""
        lpns = self.group_lpn[lo:hi]
        slots = pool.slots
        columns = [(lpns + slot).tolist() for slot in range(slots)]
        if self.group_valid is not None:
            valid = self.group_valid[lo:hi]
            for index in np.flatnonzero(valid < slots).tolist():
                for slot in range(int(valid[index]), slots):
                    columns[slot][index] = None
        self.ftl.program_run(pool, columns)

    def _extend_slim(self, low: int, high: int) -> None:
        """Append the slim op rows ``low:high``."""
        codes = self.row_code[low:high].tolist()
        self.op_kind.extend(self.row_kind[low:high].tolist())
        self.op_unit.extend(self.row_unit[low:high].tolist())
        self.op_channel.extend(self.row_chan[low:high].tolist())
        self.op_unit_us.extend(map(self.unit_us.__getitem__, codes))
        self.op_transfer_us.extend(map(self.transfer_us.__getitem__, codes))
        self.op_gc.extend([False] * (high - low))

    def _extend_rows(self, rows) -> None:
        """Append the op rows a device step returned (never empty)."""
        kind, unit, channel, unit_us, transfer_us, gc = zip(*rows)
        self.op_kind.extend(kind)
        self.op_unit.extend(unit)
        self.op_channel.extend(channel)
        self.op_unit_us.extend(unit_us)
        self.op_transfer_us.extend(transfer_us)
        self.op_gc.extend(gc)

    def _finish(self, write, fallbacks) -> ReplayPlan:
        """Account the host bytes and the windows' work; build the plan."""
        rows = self.rows
        slim = np.ones(len(write), dtype=bool)
        if fallbacks:
            index = np.fromiter(fallbacks, dtype=np.int64, count=len(fallbacks))
            slim[index] = False
            rows[index] = list(fallbacks.values())
        slim_writes = slim & write
        slim_reads = slim & ~write
        large_programs = int(self.n_large[slim_writes].sum())
        small_programs = int(self.n_small[slim_writes].sum())
        size = self.columns.size
        stats = self.device.stats
        stats.data_bytes_written += int(size[write].sum())
        stats.data_bytes_read += int(size[~write].sum())
        stats.flash_bytes_consumed += (
            large_programs * self.large_kind.bytes + small_programs * self.small_kind.bytes
        )
        stats.preloaded_pages += self.preloaded_pages
        stats.record_op_counts(self.large_kind, programs=large_programs)
        stats.record_op_counts(self.small_kind, programs=small_programs)
        stats.record_op_counts(
            self.preload_kind, reads=int(self.read_ops[slim_reads].sum())
        )
        return ReplayPlan(
            op_kind=self.op_kind,
            op_unit=self.op_unit,
            op_channel=self.op_channel,
            op_unit_us=self.op_unit_us,
            op_transfer_us=self.op_transfer_us,
            op_gc=self.op_gc,
            req_ops=_starts(rows).tolist(),
            slim_writes=int(slim_writes.sum()),
            slim_reads=int(slim_reads.sum()),
            fallback_requests=len(fallbacks),
        )
