"""A hybrid log-block FTL (BAST-style) as an alternative mapping scheme.

The paper notes an eMMC "has a simpler FTL and architecture as well as a
smaller RAM buffer compared to an SSD".  The classic simple FTL is *block
mapping* with a small pool of page-mapped **log blocks**:

* logical block ``n`` maps to one physical **data block**; page ``i`` of
  the logical block lives at page ``i`` of the data block (no per-page
  table);
* an overwrite cannot rewrite in place, so it goes to a **log block**
  associated with the logical block;
* when no log block is free, one is reclaimed by a **merge**:

  - *switch merge*: the log block was written exactly sequentially from
    page 0 -- it simply becomes the new data block (one erase);
  - *full merge*: valid pages are gathered from the data block and the log
    block into a fresh block (reads + programs + two erases).

Under the smartphone workloads' small random writes this FTL pays heavy
full merges -- the measurable reason page-mapped FTLs (the default
:class:`~repro.emmc.ftl.core.Ftl`) are worth their RAM, which the
``ftl_study`` experiment quantifies.

Scope: single page kind (4 KB) geometries; the HPS distributor needs the
page-mapped FTL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..geometry import Geometry, PageKind
from ..ops import FlashOp, FlashOpType, WriteGroup
from .core import ReadOutcome, WriteOutcome
from .gc import GcResult


@dataclass
class _LogBlock:
    """A log block: page-mapped journal of overwrites for one logical block."""

    physical: int
    logical_block: int
    write_ptr: int = 0
    page_map: Dict[int, int] = field(default_factory=dict)  # logical page -> log page

    def is_sequential(self, pages_per_block: int) -> bool:
        """Switch-merge eligible: pages 0..k-1 written exactly in order."""
        return all(
            self.page_map.get(i) == i for i in range(self.write_ptr)
        )


@dataclass
class HybridFtlStats:
    """Merge and erase counters of the hybrid FTL."""
    switch_merges: int = 0
    full_merges: int = 0
    merge_page_copies: int = 0
    erases: int = 0


class BlockMappedFtl:
    """Block mapping + log blocks, behind the same interface as ``Ftl``.

    The physical space is modelled as a flat pool of blocks (plane
    placement round-robin by physical block id, so parallelism matches the
    page-mapped FTL's striping at block granularity).
    """

    def __init__(self, geometry: Geometry, log_blocks: int = 8) -> None:
        kinds = geometry.kinds()
        if kinds != [PageKind.K4]:
            raise ValueError("the hybrid log-block FTL supports 4K-only geometries")
        if log_blocks < 1:
            raise ValueError("need at least one log block")
        self.geometry = geometry
        self.pages_per_block = geometry.pages_per_block
        total_blocks = geometry.num_planes * geometry.blocks_per_plane[PageKind.K4]
        self._free: List[int] = list(range(total_blocks))
        self._data_block: Dict[int, int] = {}  # logical block -> physical
        self._valid: Dict[int, List[bool]] = {}  # data block validity per page
        self._logs: Dict[int, _LogBlock] = {}  # logical block -> log block
        self._max_logs = log_blocks
        self.stats = HybridFtlStats()
        self.gc_results_total = 0
        self.gc_migrated_slots = 0

    # -- placement ------------------------------------------------------------

    def _plane_of(self, physical_block: int) -> int:
        return physical_block % self.geometry.num_planes

    def _take_free(self) -> int:
        if not self._free:
            raise RuntimeError("hybrid FTL ran out of physical blocks")
        return self._free.pop(0)

    def _op(self, op_type: FlashOpType, physical_block: int, gc: bool = False) -> FlashOp:
        payload = 0 if op_type is FlashOpType.ERASE else PageKind.K4.bytes
        return FlashOp(op_type, self._plane_of(physical_block), PageKind.K4, payload, gc=gc)

    # -- write path -------------------------------------------------------------

    def write(self, groups: Sequence[WriteGroup]) -> WriteOutcome:
        """Program the given 4K write groups, merging logs as needed."""
        ops: List[FlashOp] = []
        gc_results: List[GcResult] = []
        flash_bytes = 0
        for group in groups:
            if group.kind is not PageKind.K4:
                raise ValueError("hybrid FTL accepts 4K write groups only")
            (lpn,) = group.lpns
            assert lpn is not None
            ops.extend(self._write_page(lpn, gc_results))
            flash_bytes += PageKind.K4.bytes
        return WriteOutcome(ops=ops, flash_bytes=flash_bytes, gc_results=gc_results)

    def _write_page(self, lpn: int, gc_results: List[GcResult]) -> List[FlashOp]:
        logical_block, page = divmod(lpn, self.pages_per_block)
        ops: List[FlashOp] = []
        data = self._data_block.get(logical_block)
        if data is None:
            # First touch of this logical block: allocate its data block.
            data = self._take_free()
            self._data_block[logical_block] = data
            self._valid[data] = [False] * self.pages_per_block
        valid = self._valid[data]
        if not valid[page] and logical_block not in self._logs:
            # Page never written (and no log shadowing it): write in place.
            valid[page] = True
            ops.append(self._op(FlashOpType.PROGRAM, data))
            return ops
        # Overwrite (or block already has a log): append to the log block.
        log = self._logs.get(logical_block)
        if log is None or log.write_ptr >= self.pages_per_block:
            if log is not None:
                ops.extend(self._merge(logical_block, gc_results))
            if len(self._logs) >= self._max_logs:
                victim = next(iter(self._logs))
                ops.extend(self._merge(victim, gc_results))
            log = _LogBlock(physical=self._take_free(), logical_block=logical_block)
            self._logs[logical_block] = log
        log.page_map[page] = log.write_ptr
        log.write_ptr += 1
        ops.append(self._op(FlashOpType.PROGRAM, log.physical))
        return ops

    # -- merges ---------------------------------------------------------------------

    def _merge(self, logical_block: int, gc_results: List[GcResult]) -> List[FlashOp]:
        """Fold a log block back into its data block."""
        log = self._logs.pop(logical_block)
        data = self._data_block[logical_block]
        valid = self._valid[data]
        ops: List[FlashOp] = []
        data_written = any(valid)
        if log.is_sequential(self.pages_per_block) and not data_written:
            # Switch merge: the log simply becomes the data block.
            self.stats.switch_merges += 1
            self._data_block[logical_block] = log.physical
            new_valid = [False] * self.pages_per_block
            for page in log.page_map:
                new_valid[page] = True
            self._valid[log.physical] = new_valid
            del self._valid[data]
            ops.append(self._op(FlashOpType.ERASE, data, gc=True))
            self._recycle(data)
            self.stats.erases += 1
            copies = 0
        else:
            # Full merge: gather the freshest copy of every page.
            self.stats.full_merges += 1
            fresh = self._take_free()
            fresh_valid = [False] * self.pages_per_block
            copies = 0
            for page in range(self.pages_per_block):
                source: Optional[int] = None
                if page in log.page_map:
                    source = log.physical
                elif valid[page]:
                    source = data
                if source is None:
                    continue
                ops.append(self._op(FlashOpType.READ, source, gc=True))
                ops.append(self._op(FlashOpType.PROGRAM, fresh, gc=True))
                fresh_valid[page] = True
                copies += 1
            self._data_block[logical_block] = fresh
            self._valid[fresh] = fresh_valid
            del self._valid[data]
            for physical in (data, log.physical):
                ops.append(self._op(FlashOpType.ERASE, physical, gc=True))
                self._recycle(physical)
                self.stats.erases += 1
            self.stats.merge_page_copies += copies
        self.gc_results_total += 1
        self.gc_migrated_slots += copies
        gc_results.append(
            GcResult(ops=list(ops), migrated_slots=copies, erased_block=data)
        )
        return ops

    def _recycle(self, physical: int) -> None:
        self._free.append(physical)

    # -- read path --------------------------------------------------------------------

    def read(self, lpns: Sequence[int]) -> ReadOutcome:
        """Emit page reads, resolving log blocks and pre-existing data."""
        ops: List[FlashOp] = []
        preloaded = 0
        for lpn in lpns:
            logical_block, page = divmod(lpn, self.pages_per_block)
            log = self._logs.get(logical_block)
            if log is not None and page in log.page_map:
                ops.append(self._op(FlashOpType.READ, log.physical))
                continue
            data = self._data_block.get(logical_block)
            if data is None:
                # Pre-existing data (written before the trace): under block
                # mapping it lives in place; materialize the data block.
                data = self._take_free()
                self._data_block[logical_block] = data
                self._valid[data] = [False] * self.pages_per_block
            if not self._valid[data][page]:
                preloaded += 1
                self._valid[data][page] = True  # the data existed already
            ops.append(self._op(FlashOpType.READ, data))
        return ReadOutcome(ops=ops, preloaded_pages=preloaded)

    # -- interface parity with Ftl ----------------------------------------------------

    def idle_collect(self, soft_threshold: int) -> List[GcResult]:
        """Merge one log block during idle time when logs run low on room."""
        results: List[GcResult] = []
        if len(self._logs) >= max(1, self._max_logs - soft_threshold):
            victim = next(iter(self._logs))
            self._merge(victim, results)
        return results

    @property
    def mapping_entries(self) -> int:
        """RAM cost proxy: block-map entries + per-log page entries."""
        return len(self._data_block) + sum(len(l.page_map) for l in self._logs.values())
