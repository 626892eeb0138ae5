"""Unit tests for the request distributor (the HPS splitting policy)."""

import pytest

from repro.trace import KIB, Op, Request
from repro.emmc import PageKind, RequestDistributor


def _write(size_kib, lba=0):
    return Request(arrival_us=0.0, lba=lba, size=size_kib * KIB, op=Op.WRITE)


HPS = RequestDistributor([PageKind.K4, PageKind.K8])
PS4 = RequestDistributor([PageKind.K4])
PS8 = RequestDistributor([PageKind.K8])


class TestPaperExample:
    """Section V-A's worked example: a 20 KB write."""

    def test_hps_two_8k_plus_one_4k(self):
        groups = HPS.split_write(_write(20))
        kinds = [group.kind for group in groups]
        assert kinds == [PageKind.K8, PageKind.K8, PageKind.K4]
        assert HPS.flash_bytes_for(_write(20)) == 20 * KIB  # no waste

    def test_8ps_three_8k_wastes_4k(self):
        groups = PS8.split_write(_write(20))
        assert [group.kind for group in groups] == [PageKind.K8] * 3
        assert PS8.flash_bytes_for(_write(20)) == 24 * KIB
        assert groups[-1].lpns.count(None) == 1  # one 4 KiB slot of padding
        # Space utilization of the request: 20/24 = 83.3 % (paper's number).
        assert 20 / 24 == pytest.approx(0.833, abs=1e-3)

    def test_4ps_five_4k(self):
        groups = PS4.split_write(_write(20))
        assert len(groups) == 5
        assert all(group.kind is PageKind.K4 for group in groups)
        assert PS4.flash_bytes_for(_write(20)) == 20 * KIB


class TestSplitDetails:
    def test_lpns_are_consecutive(self):
        request = _write(16, lba=8 * KIB)
        assert HPS.lpns_of(request) == [2, 3, 4, 5]

    def test_hps_even_write_all_8k(self):
        groups = HPS.split_write(_write(16))
        assert [group.kind for group in groups] == [PageKind.K8, PageKind.K8]

    def test_hps_single_page_uses_4k(self):
        groups = HPS.split_write(_write(4))
        assert [group.kind for group in groups] == [PageKind.K4]

    def test_8ps_single_page_padded(self):
        groups = PS8.split_write(_write(4))
        assert groups[0].lpns == (0, None)
        assert groups[0].lpns.count(None) == 1

    def test_groups_cover_all_lpns_once(self):
        request = _write(36, lba=12 * KIB)
        for distributor in (HPS, PS4, PS8):
            lpns = [
                lpn
                for group in distributor.split_write(request)
                for lpn in group.lpns
                if lpn is not None
            ]
            assert sorted(lpns) == distributor.lpns_of(request)

    def test_read_rejected(self):
        read = Request(arrival_us=0.0, lba=0, size=4 * KIB, op=Op.READ)
        with pytest.raises(ValueError):
            HPS.split_write(read)

    def test_properties(self):
        assert HPS.hybrid
        assert not PS4.hybrid
        assert PS8.largest is PageKind.K8
        assert HPS.smallest is PageKind.K4

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValueError):
            RequestDistributor([])
