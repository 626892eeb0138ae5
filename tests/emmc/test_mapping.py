"""The location-code helpers agree with :func:`decode` on every field."""

import pytest

from repro.emmc import PageKind
from repro.emmc.ftl.mapping import (
    PageMapping,
    check_widths,
    decode,
    in_block,
    in_flash,
    page_reads,
    pool_index,
    preload_codes,
    slot_code,
)

KINDS = [PageKind.K4_SLC, PageKind.K4, PageKind.K8]

#: ``(plane, kind index, block, page, slot)``, edges of each field included.
PLACES = [
    (0, 0, 0, 0, 0),
    (3, 1, 17, 5, 1),
    (255, 2, (1 << 20) - 2, 10**6, 3),
]


@pytest.mark.parametrize("plane, kind_index, block, page, slot", PLACES)
def test_slot_code_round_trips(plane, kind_index, block, page, slot):
    pool = pool_index(plane, kind_index)
    code = slot_code(pool, block, page, slot)
    location = decode(code, KINDS)
    assert (location.plane, location.kind, location.block_id, location.page, location.slot) == (
        plane, KINDS[kind_index], block, page, slot,
    )
    assert in_flash(code)
    mapping = PageMapping(KINDS)
    mapping.codes[7] = code
    assert mapping.assign([[7]], pool_index(0, 0), 0, 0) == [(pool, block, page, slot)]


def test_assign_maps_consecutive_pages_and_returns_stale_slots():
    mapping = PageMapping(KINDS)
    mapping.codes[5] = preload_codes([5], 2, 1, 2)[0]
    pool = pool_index(2, 1)
    assert mapping.assign([[1, 2, 3], [4, None, 5]], pool, 9, 4) == []
    assert mapping.codes == {
        1: slot_code(pool, 9, 4, 0), 2: slot_code(pool, 9, 5, 0), 3: slot_code(pool, 9, 6, 0),
        4: slot_code(pool, 9, 4, 1), 5: slot_code(pool, 9, 6, 1),
    }
    other = pool_index(0, 1)
    assert mapping.assign([[4, 3]], other, 0, 0) == [(pool, 9, 4, 1), (pool, 9, 6, 0)]
    assert mapping.lookup(3) == decode(slot_code(other, 0, 1, 0), KINDS)


def test_page_reads_group_slots_by_page_in_first_seen_order():
    low, high = pool_index(0, 2), pool_index(1, 2)
    codes = [
        slot_code(high, 3, 7, 1),
        slot_code(low, 3, 7, 0),
        slot_code(high, 3, 7, 0),
        slot_code(high, 3, 8, 0),
    ]
    assert page_reads(codes) == [(high, 2), (low, 1), (high, 1)]


def test_in_block_accepts_only_the_blocks_own_slots():
    pool = pool_index(1, 0)
    own = [slot_code(pool, 4, page, 0) for page in range(3)]
    assert in_block(own, pool, 4)
    assert not in_block(own + [None], pool, 4)
    assert not in_block(own + [slot_code(pool, 5, 0, 0)], pool, 4)
    assert not in_block(own + [slot_code(pool_index(0, 0), 4, 0, 0)], pool, 4)
    assert not in_block(preload_codes([0], 1, 1, 0), pool, 4)


def test_preload_codes_hold_no_block_and_stripe_pages_over_planes():
    codes = preload_codes(range(8), 2, 2, 2)
    locations = [decode(code, KINDS) for code in codes]
    assert all(location.preloaded for location in locations)
    assert all(location.kind is PageKind.K8 for location in locations)
    assert [(l.plane, l.page, l.slot) for l in locations] == [
        (0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1),
        (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1),
    ]
    assert not any(in_flash(code) for code in codes)


def test_check_widths_rejects_geometries_the_fields_cannot_hold():
    check_widths(256, 4, 4, (1 << 20) - 1)
    for arguments in [(257, 1, 1, 1), (1, 5, 1, 1), (1, 1, 5, 1), (1, 1, 1, 1 << 20)]:
        with pytest.raises(ValueError, match="exceed the location code"):
            check_widths(*arguments)
