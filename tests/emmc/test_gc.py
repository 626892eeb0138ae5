"""Unit tests for the greedy garbage collector."""

import pytest

from repro.emmc import Geometry, PageKind
from repro.emmc.ftl import Ftl, GreedyGC
from repro.emmc.ops import FlashOpType


def _pool(blocks=4, pages=2, kind=PageKind.K4):
    """A one-plane FTL and its one pool."""
    geometry = Geometry(
        channels=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={kind: blocks}, pages_per_block=pages,
    )
    ftl = Ftl(geometry)
    return ftl, ftl.pools[0]


def _fill_block(ftl, pool, lpn_base, invalid_slots=0):
    """Open a free block, fill it, optionally invalidate some slots.

    The block is left full and no longer active, as once the allocator
    has moved past it.
    """
    block = pool.open_block()
    lpns = range(lpn_base, lpn_base + pool.pages * pool.slots)
    ftl.program(pool, block, [lpns[slot :: pool.slots] for slot in range(pool.slots)])
    for page, slot, _ in pool.valid_entries(block)[:invalid_slots]:
        pool.invalidate(block, page, slot)
    pool.active = None
    return block


class TestVictimSelection:
    def test_prefers_most_invalid(self):
        ftl, pool = _pool()
        _fill_block(ftl, pool, 0, invalid_slots=1)
        dirtier = _fill_block(ftl, pool, 10, invalid_slots=2)
        gc = GreedyGC()
        assert gc.select_victim(pool) == dirtier

    def test_no_victim_when_all_valid(self):
        ftl, pool = _pool()
        _fill_block(ftl, pool, 0, invalid_slots=0)
        assert GreedyGC().select_victim(pool) is None

    def test_needs_gc_threshold(self):
        ftl, pool = _pool(blocks=4)
        _fill_block(ftl, pool, 0, invalid_slots=1)
        gc = GreedyGC(threshold_blocks=2)
        # 3 free blocks left > threshold 2: no GC needed yet.
        assert not gc.needs_gc(pool)
        _fill_block(ftl, pool, 10, invalid_slots=1)
        # 2 free <= 2 and a victim exists.
        assert gc.needs_gc(pool)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            GreedyGC(threshold_blocks=0)


class TestCollect:
    def test_collect_migrates_and_erases(self):
        ftl, pool = _pool()
        victim = _fill_block(ftl, pool, 0, invalid_slots=1)
        result = GreedyGC().collect(pool, ftl)
        assert result is not None
        assert result.migrated_slots == 1
        assert result.erased_block == victim
        # Victim is back in the free pool, erased once.
        assert victim in pool.free
        assert pool.erase_count[victim] == 1
        # Ops: one read (page with valid data), one program, one erase.
        op_types = [op.op_type for op in result.ops]
        assert op_types == [FlashOpType.READ, FlashOpType.PROGRAM, FlashOpType.ERASE]
        assert all(op.gc for op in result.ops)
        # The surviving LPN is still mapped, elsewhere.
        survivor = ftl.mapping.lookup(1)
        assert survivor is not None
        assert survivor.block_id != victim or survivor.page != 0

    def test_collect_repacks_8k_pages(self):
        ftl, pool = _pool(kind=PageKind.K8)
        block = _fill_block(ftl, pool, 0, invalid_slots=1)
        assert pool.valid_count[block] == 3
        result = GreedyGC().collect(pool, ftl)
        # Three valid slots re-packed into two 8K pages (2 + 1 padded).
        programs = [op for op in result.ops if op.op_type is FlashOpType.PROGRAM]
        assert len(programs) == 2

    def test_collect_returns_none_without_victim(self):
        ftl, pool = _pool()
        assert GreedyGC().collect(pool, ftl) is None

    def test_collect_reads_once_per_page_with_valid_data(self):
        # Pages of 2 slots holding 2, 1 and 0 valid slots: two reads with
        # payloads of 2 and 1 slots, from one counting pass.
        ftl, pool = _pool(pages=3, kind=PageKind.K8)
        block = _fill_block(ftl, pool, 0)
        pool.invalidate(block, 1, 0)
        pool.invalidate(block, 2, 0)
        pool.invalidate(block, 2, 1)
        result = GreedyGC().collect(pool, ftl)
        reads = [op.payload_bytes for op in result.ops if op.op_type is FlashOpType.READ]
        assert reads == [8192, 4096]
        assert result.migrated_slots == 3
