"""Property-based tests: FTL consistency under random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import KIB, Op, Request
from repro.emmc import EmmcDevice, Geometry, PageKind
from repro.emmc.device import DeviceConfig
from repro.emmc.ftl import PRELOADED_BLOCK


def _tiny_device(kinds):
    geometry = Geometry(
        channels=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=kinds,
        pages_per_block=16,
    )
    return EmmcDevice(DeviceConfig(name="prop", geometry=geometry))


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from([Op.READ, Op.WRITE]),
        st.integers(min_value=0, max_value=40),  # lpn
        st.integers(min_value=1, max_value=6),  # pages
    ),
    min_size=1,
    max_size=120,
)


@given(ops=ops_strategy, scheme=st.sampled_from(["4PS", "8PS", "HPS"]))
@settings(max_examples=40, deadline=None)
def test_mapping_stays_consistent(ops, scheme):
    """After any request sequence: every written LPN is mapped into flash,
    and the FTL's invariants hold."""
    kinds = {
        "4PS": {PageKind.K4: 8},
        "8PS": {PageKind.K8: 4},
        "HPS": {PageKind.K4: 4, PageKind.K8: 2},
    }[scheme]
    device = _tiny_device(kinds)
    at = 0.0
    written = set()
    for op, lpn, pages in ops:
        request = Request(arrival_us=at, lba=lpn * 4 * KIB, size=pages * 4 * KIB, op=op)
        done = device.submit(request)
        at = done.finish_us + 1.0
        if op is Op.WRITE:
            written.update(range(lpn, lpn + pages))
    ftl = device.ftl
    for lpn in written:
        location = ftl.mapping.lookup(lpn)
        assert location is not None
        assert location.block_id != PRELOADED_BLOCK
    # Every flash-resident mapping entry points at a valid slot holding
    # exactly that LPN, and every block's valid count equals the slots
    # it holds (plus the free-list, active-block and bad-block rules).
    ftl.check_invariants()


@given(ops=ops_strategy)
@settings(max_examples=30, deadline=None)
def test_timestamps_always_well_formed(ops):
    device = _tiny_device({PageKind.K4: 8})
    at = 0.0
    previous_finish = 0.0
    for op, lpn, pages in ops:
        done = device.submit(
            Request(arrival_us=at, lba=lpn * 4 * KIB, size=pages * 4 * KIB, op=op)
        )
        assert done.service_start_us >= done.arrival_us
        assert done.finish_us > done.service_start_us
        # FIFO: service never starts before the previous request finished.
        assert done.service_start_us >= previous_finish - 1e-6
        previous_finish = done.finish_us
        at += 500.0


@given(sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_space_utilization_invariants(sizes):
    """4PS/HPS never pad; 8PS utilization equals pages/ceil-to-even."""
    devices = {
        "4PS": _tiny_device({PageKind.K4: 16}),
        "8PS": _tiny_device({PageKind.K8: 8}),
        "HPS": _tiny_device({PageKind.K4: 8, PageKind.K8: 4}),
    }
    at = 0.0
    total_pages = 0
    consumed_8ps_pages = 0
    for pages in sizes:
        total_pages += pages
        consumed_8ps_pages += 2 * ((pages + 1) // 2)
        for device in devices.values():
            device.submit(Request(arrival_us=at, lba=0, size=pages * 4 * KIB, op=Op.WRITE))
        at += 100_000.0
    assert devices["4PS"].stats.space_utilization == 1.0
    assert devices["HPS"].stats.space_utilization == 1.0
    expected = total_pages / consumed_8ps_pages
    assert abs(devices["8PS"].stats.space_utilization - expected) < 1e-9
