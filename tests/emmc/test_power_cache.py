"""Unit tests for the optional RAM buffer."""

import pytest

from repro.emmc import RamBuffer


class TestRamBuffer:
    def test_needs_one_page(self):
        with pytest.raises(ValueError):
            RamBuffer(capacity_bytes=100)

    def test_read_miss_then_write_hit(self):
        buffer = RamBuffer(capacity_bytes=16 * 4096)
        assert buffer.read([1, 2]) == [1, 2]  # cold: all miss
        buffer.write([1])
        assert buffer.read([1, 2]) == [2]  # 1 now cached (dirty)
        assert buffer.stats.read_hits == 1
        assert buffer.stats.read_misses == 3

    def test_eviction_returns_dirty_lru(self):
        buffer = RamBuffer(capacity_bytes=2 * 4096)
        assert buffer.write([1, 2]) == []
        evicted = buffer.write([3])
        assert evicted == [1]  # LRU dirty page flushed
        assert buffer.stats.flushed_pages == 1

    def test_rewrite_refreshes_lru(self):
        buffer = RamBuffer(capacity_bytes=2 * 4096)
        buffer.write([1, 2])
        buffer.write([1])  # refresh 1
        assert buffer.write([3]) == [2]

    def test_flush_all(self):
        buffer = RamBuffer(capacity_bytes=8 * 4096)
        buffer.write([1, 2, 3])
        assert sorted(buffer.flush_all()) == [1, 2, 3]
        assert len(buffer) == 0

    def test_hit_rate(self):
        buffer = RamBuffer(capacity_bytes=8 * 4096)
        assert buffer.stats.read_hit_rate == 0.0
        buffer.write([1])
        buffer.read([1])
        assert buffer.stats.read_hit_rate == 1.0
