"""Unit tests for flash block state: the pool columns and the program path."""

import pytest

from repro.emmc import Geometry, PageKind
from repro.emmc.ftl import Ftl, OutOfSpaceError


def _ftl(kind=PageKind.K4, pages=4, blocks=4):
    geometry = Geometry(
        channels=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane={kind: blocks}, pages_per_block=pages,
    )
    return Ftl(geometry)


def _block(kind=PageKind.K4, pages=4):
    """An FTL, its one pool, and a freshly opened block of that pool."""
    ftl = _ftl(kind, pages)
    pool = ftl.pools[0]
    return ftl, pool, pool.open_block()


def _program(ftl, pool, block, lpns):
    """Program one page holding ``lpns`` (one entry per slot)."""
    ftl.program(pool, block, list(zip(lpns)))


class TestBlock:
    def test_program_advances_pointer(self):
        ftl, pool, block = _block()
        _program(ftl, pool, block, (7,))
        assert ftl.mapping.lookup(7).page == 0
        _program(ftl, pool, block, (8,))
        assert ftl.mapping.lookup(8).page == 1
        assert pool.write_ptr[block] == 2
        assert pool.valid_count[block] == 2
        assert pool.pages - pool.write_ptr[block] == 2  # free pages

    def test_program_with_padding(self):
        ftl, pool, block = _block(kind=PageKind.K8)
        _program(ftl, pool, block, (7, None))
        assert pool.valid_count[block] == 1
        # The padding slot counts as wasted: programmed but not valid.
        assert pool.write_ptr[block] * pool.slots - pool.valid_count[block] == 1
        assert None not in ftl.mapping

    def test_program_full_block_rejected(self):
        ftl, pool, block = _block(pages=1)
        _program(ftl, pool, block, (1,))
        with pytest.raises(RuntimeError, match="full"):
            _program(ftl, pool, block, (2,))

    def test_program_bad_block_rejected(self):
        ftl, pool, block = _block()
        pool.retire(block)
        with pytest.raises(RuntimeError, match="bad"):
            _program(ftl, pool, block, (1,))

    def test_program_wrong_slot_count_rejected(self):
        ftl, pool, block = _block(kind=PageKind.K8)
        with pytest.raises(ValueError, match="slots"):
            _program(ftl, pool, block, (1,))

    def test_program_invalidates_stale_copy(self):
        ftl, pool, block = _block()
        _program(ftl, pool, block, (7,))
        _program(ftl, pool, block, (7,))
        assert pool.valid_entries(block) == [(1, 0, 7)]
        assert pool.valid_count[block] == 1
        ftl.check_invariants()

    def test_invalidate(self):
        ftl, pool, block = _block()
        _program(ftl, pool, block, (7,))
        pool.invalidate(block, 0, 0)
        assert pool.valid_count[block] == 0
        assert pool.write_ptr[block] * pool.slots - pool.valid_count[block] == 1

    def test_double_invalidate_rejected(self):
        ftl, pool, block = _block()
        _program(ftl, pool, block, (7,))
        pool.invalidate(block, 0, 0)
        with pytest.raises(RuntimeError, match="already invalid"):
            pool.invalidate(block, 0, 0)

    def test_valid_entries(self):
        ftl, pool, block = _block(kind=PageKind.K8)
        _program(ftl, pool, block, (10, 11))
        _program(ftl, pool, block, (12, None))
        pool.invalidate(block, 0, 1)
        assert pool.valid_entries(block) == [(0, 0, 10), (1, 0, 12)]

    def test_erase_resets_and_counts(self):
        ftl, pool, block = _block()
        _program(ftl, pool, block, (7,))
        pool.invalidate(block, 0, 0)
        pool.erase(block)
        assert pool.write_ptr[block] == 0
        assert pool.erase_count[block] == 1
        assert pool.pages - pool.write_ptr[block] == 4  # free pages
        assert pool.contents[block] is None  # dropped until reopened

    def test_erase_with_valid_data_rejected(self):
        ftl, pool, block = _block()
        _program(ftl, pool, block, (7,))
        with pytest.raises(RuntimeError, match="valid slots"):
            pool.erase(block)


class TestPlane:
    @pytest.fixture
    def pool(self):
        return _ftl(pages=2).pools[0]

    def test_create_populates_pools(self, pool):
        assert len(pool.free) == 4
        assert pool.active is None
        assert pool.contents == [None] * 4  # nothing allocated per block

    def test_take_free_block_prefers_low_erase(self, pool):
        pool.erase_count[0] = 5
        pool.erase_count[1] = 1
        taken = pool.open_block()
        assert taken in (2, 3)  # erase count 0 preferred
        assert pool.active == taken

    def test_take_free_exhausts(self, pool):
        for _ in range(4):
            pool.open_block()
        with pytest.raises(OutOfSpaceError):
            pool.open_block()

    def test_gc_candidates_exclude_active_and_free(self):
        ftl = _ftl(pages=2)
        pool = ftl.pools[0]
        block = pool.open_block()
        ftl.program(pool, block, [(1, 2)])
        assert pool.gc_candidates() == []  # full but active
        other = pool.open_block()
        pool.active = block
        ftl.program(pool, other, [(3, 4)])
        assert pool.gc_candidates() == [other]

    def test_total_free_pages(self):
        ftl = _ftl(pages=2)
        pool = ftl.pools[0]
        assert pool.total_free_pages() == 8
        block = pool.open_block()
        _program(ftl, pool, block, (1,))
        assert pool.total_free_pages() == 7

    def test_gc_budget_counts_the_blocks_a_run_opens(self, pool):
        # 4 free blocks of 2 pages, threshold 1: a run of 4 pages opens 2
        # blocks (2 left > 1), a run of 5 opens 3 (1 left, not > 1).
        assert pool.gc_budget(1) == 4
        # No block free above the threshold: not one page fits.
        assert pool.gc_budget(4) == 0

    @pytest.mark.parametrize("pages", [1, 2, 3])
    @pytest.mark.parametrize("threshold", [1, 2])
    @pytest.mark.parametrize("written", [0, 1, 2, 4])
    def test_gc_budget_is_the_longest_run_that_stays_above_the_threshold(
        self, pages, threshold, written
    ):
        def after(count):
            ftl = _ftl(pages=pages, blocks=8)
            pool = ftl.pools[0]
            for lpn in range(written + count):
                ftl.program_run(pool, [[lpn]])
            return pool

        budget = after(0).gc_budget(threshold)
        for count in range(1, budget + 3):
            assert (len(after(count).free) > threshold) == (count <= budget)
        for count in range(budget + 1):
            assert after(count).gc_budget(threshold) == budget - count
