"""Unit tests for the FTL core (mapping, allocation, GC orchestration)."""

import pytest

from repro.emmc import Geometry, PageKind
from repro.emmc.ftl import Ftl, GreedyGC, OutOfSpaceError, PRELOADED_BLOCK
from repro.emmc.ops import FlashOpType, WriteGroup


def _small_ftl(kinds=None, blocks=8, pages=4, planes=2, gc_threshold=1):
    geometry = Geometry(
        channels=planes,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=kinds or {PageKind.K4: blocks},
        pages_per_block=pages,
    )
    return Ftl(geometry, gc=GreedyGC(gc_threshold))


def _write_one(ftl, lpn, kind=PageKind.K4):
    lpns = (lpn,) if kind.slots == 1 else (lpn, lpn + 1)
    return ftl.write([WriteGroup(kind, lpns)])


class TestWritePath:
    def test_write_updates_mapping(self):
        ftl = _small_ftl()
        outcome = _write_one(ftl, 7)
        assert len(outcome.ops) == 1
        assert outcome.ops[0].op_type is FlashOpType.PROGRAM
        location = ftl.mapping.lookup(7)
        assert location is not None
        assert location.kind is PageKind.K4

    def test_overwrite_invalidates_old(self):
        ftl = _small_ftl()
        _write_one(ftl, 7)
        old = ftl.mapping.lookup(7)
        _write_one(ftl, 7)
        new = ftl.mapping.lookup(7)
        assert (old.block_id, old.page) != (new.block_id, new.page) or old.plane != new.plane
        pool = ftl.pool(old.plane, old.kind)
        invalid = pool.write_ptr[old.block_id] * pool.slots - pool.valid_count[old.block_id]
        assert invalid >= 1

    def test_round_robin_striping(self):
        ftl = _small_ftl(planes=2)
        first = _write_one(ftl, 1).ops[0].plane
        second = _write_one(ftl, 2).ops[0].plane
        assert first != second

    def test_accounting(self):
        ftl = _small_ftl(kinds={PageKind.K4: 4, PageKind.K8: 4})
        outcome = ftl.write([WriteGroup(PageKind.K8, (1, None))])
        assert outcome.flash_bytes == 8192


class TestGcIntegration:
    def test_gc_triggers_when_pool_low(self):
        ftl = _small_ftl(blocks=3, pages=2, planes=1, gc_threshold=1)
        # Fill blocks with overwrites of a small working set so invalid
        # slots accumulate and GC can reclaim.
        gc_seen = 0
        for i in range(12):
            outcome = _write_one(ftl, i % 3)
            gc_seen += len(outcome.gc_results)
        assert gc_seen > 0
        assert ftl.gc_results_total == gc_seen

    def test_out_of_space_when_all_valid(self):
        ftl = _small_ftl(blocks=2, pages=2, planes=1, gc_threshold=1)
        with pytest.raises(OutOfSpaceError):
            for lpn in range(100):  # all distinct: nothing reclaimable
                _write_one(ftl, lpn)


class TestReadPath:
    def test_read_after_write_finds_data(self):
        ftl = _small_ftl()
        _write_one(ftl, 7)
        outcome = ftl.read([7])
        assert outcome.preloaded_pages == 0
        assert len(outcome.ops) == 1
        assert outcome.ops[0].op_type is FlashOpType.READ
        assert outcome.ops[0].payload_bytes == 4096

    def test_unmapped_read_preloads(self):
        ftl = _small_ftl()
        outcome = ftl.read([100])
        assert outcome.preloaded_pages == 1
        assert ftl.mapping.lookup(100).block_id == PRELOADED_BLOCK

    def test_preload_pairs_share_pages(self):
        ftl = _small_ftl(kinds={PageKind.K4: 4, PageKind.K8: 4})
        assert ftl.preload_kind is PageKind.K8
        outcome = ftl.read([10, 11])  # one aligned pair
        assert len(outcome.ops) == 1
        assert outcome.ops[0].payload_bytes == 8192

    def test_grouped_reads_one_op_per_physical_page(self):
        ftl = _small_ftl(kinds={PageKind.K8: 8})
        ftl.write([WriteGroup(PageKind.K8, (20, 21))])
        outcome = ftl.read([20, 21])
        assert len(outcome.ops) == 1

    def test_preload_deterministic(self):
        first = _small_ftl().read([42]).ops[0]
        second = _small_ftl().read([42]).ops[0]
        assert first.plane == second.plane


class TestIdleCollect:
    def test_idle_collect_reclaims(self):
        ftl = _small_ftl(blocks=4, pages=2, planes=1, gc_threshold=1)
        for i in range(6):
            _write_one(ftl, i % 2)
        free_before = len(ftl.pools[0].free)
        results = ftl.idle_collect(soft_threshold=4)
        assert results
        assert len(ftl.pools[0].free) > free_before

    def test_idle_collect_noop_when_healthy(self):
        ftl = _small_ftl(blocks=8)
        assert ftl.idle_collect(soft_threshold=1) == []


class TestCapacity:
    def test_free_pages_by_kind(self):
        ftl = _small_ftl(kinds={PageKind.K4: 2, PageKind.K8: 2}, pages=4, planes=2)
        free = ftl.free_pages_by_kind()
        assert free[PageKind.K4] == 2 * 2 * 4
        assert free[PageKind.K8] == 2 * 2 * 4

    def test_preload_kind_must_exist(self):
        geometry = Geometry(blocks_per_plane={PageKind.K4: 2}, pages_per_block=2)
        with pytest.raises(ValueError):
            Ftl(geometry, preload_kind=PageKind.K8)
