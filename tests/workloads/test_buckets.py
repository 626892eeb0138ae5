"""Unit tests for the paper's histogram buckets."""

import pytest

from repro.trace import KIB
from repro.metrics.buckets import (
    Bucket,
    INTERARRIVAL_BUCKETS_MS,
    RESPONSE_BUCKETS_MS,
    SIZE_BUCKETS,
    bucket_labels,
    histogram,
    pages_to_bucket_index,
    size_histogram,
)


class TestBucket:
    def test_half_open_semantics(self):
        bucket = Bucket("b", 4, 8)
        assert not bucket.contains(4)
        assert bucket.contains(5)
        assert bucket.contains(8)
        assert not bucket.contains(9)


class TestBucketSets:
    def test_size_buckets_cover_positive_axis(self):
        edges = [(b.low, b.high) for b in SIZE_BUCKETS]
        for (lo1, hi1), (lo2, _) in zip(edges, edges[1:]):
            assert hi1 == lo2  # contiguous
        assert SIZE_BUCKETS[0].low == 0
        assert SIZE_BUCKETS[-1].high == float("inf")

    def test_response_and_gap_buckets_contiguous(self):
        for buckets in (RESPONSE_BUCKETS_MS, INTERARRIVAL_BUCKETS_MS):
            for first, second in zip(buckets, buckets[1:]):
                assert first.high == second.low

    def test_labels(self):
        assert bucket_labels(SIZE_BUCKETS)[0] == "<=4K"
        assert len(bucket_labels(SIZE_BUCKETS)) == 6


class TestHistogram:
    def test_fractions_sum_to_one(self):
        values = [1 * KIB, 4 * KIB, 8 * KIB, 100 * KIB, 5000 * KIB]
        result = histogram(values, SIZE_BUCKETS)
        assert sum(result.values()) == pytest.approx(1.0)

    def test_empty_input_gives_zeros(self):
        result = histogram([], SIZE_BUCKETS)
        assert all(v == 0.0 for v in result.values())

    def test_size_histogram_4k_class(self):
        result = size_histogram([4096, 4096, 8192, 65536])
        assert result["<=4K"] == pytest.approx(0.5)
        assert result["8K"] == pytest.approx(0.25)
        assert result["(16K,64K]"] == pytest.approx(0.25)


class TestPagesToBucketIndex:
    @pytest.mark.parametrize(
        "pages,expected",
        [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (16, 3), (17, 4), (64, 4), (65, 5), (10000, 5)],
    )
    def test_mapping(self, pages, expected):
        assert pages_to_bucket_index(pages) == expected
