"""Property-based hardening of the stores' round-trip and integrity
contracts.

* pack -> open -> ``to_trace`` is the identity for arbitrary request
  lists and arbitrary chunk sizes;
* ``verify()`` catches *any* single flipped byte anywhere in any chunk
  file of a store of any schema and names the damaged chunk.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import StoreError, open_store, pack
from repro.trace import Op, Request, SECTOR, Trace

from .kinds import KINDS

requests_strategy = st.lists(
    st.builds(
        Request,
        arrival_us=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        lba=st.integers(min_value=0, max_value=2**20).map(lambda n: n * SECTOR),
        size=st.integers(min_value=1, max_value=64).map(lambda n: n * SECTOR),
        op=st.sampled_from([Op.READ, Op.WRITE]),
    ),
    min_size=1,
    max_size=60,
)


@given(requests=requests_strategy, chunk_rows=st.integers(min_value=1, max_value=80))
@settings(max_examples=40, deadline=None)
def test_pack_round_trip_is_identity(requests, chunk_rows):
    trace = Trace("prop", requests, metadata={"k": "v"})
    root = Path(tempfile.mkdtemp())
    try:
        pack(trace, root / "store", chunk_rows=chunk_rows)
        restored = open_store(root / "store").to_trace()
        assert restored.name == trace.name
        assert restored.metadata == trace.metadata
        assert list(restored) == list(trace)
    finally:
        shutil.rmtree(root)


@pytest.fixture(scope="module", params=KINDS, ids=str)
def multi_chunk_store(request, tmp_path_factory):
    """One store per schema, shared by every example: the property
    quantifies over damage positions, and each example restores the byte
    it flipped."""
    path = tmp_path_factory.mktemp(request.param.name) / "store"
    request.param.pack(path, 900, 250)
    store = request.param.open(path)
    layout = [(path / info["file"], info["nbytes"]) for info in store.chunk_infos]
    assert len(layout) > 1  # the property should span chunk files
    return request.param, path, layout


class TestVerifyCatchesEveryFlippedByte:
    """Flip one byte at an arbitrary position; verify must notice."""

    @staticmethod
    def _locate(layout, position):
        for path, nbytes in layout:
            if position < nbytes:
                return path, position
            position -= nbytes
        raise AssertionError("position beyond store payload")

    @given(position=st.integers(min_value=0), flip=st.integers(min_value=1, max_value=255))
    @settings(max_examples=80, deadline=None)
    def test_single_flipped_byte_is_caught(self, multi_chunk_store, position, flip):
        kind, store_dir, layout = multi_chunk_store
        position %= sum(nbytes for _, nbytes in layout)
        path, offset = self._locate(layout, position)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            original = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([original ^ flip]))
        try:
            store = kind.open(store_dir)
            result = store.verify(strict=False)
            assert not result.ok
            assert [bad.file for bad in result.bad_chunks] == [path.name]
            assert result.bad_chunks[0].reason == "corrupt"
            with pytest.raises(StoreError, match="checksum mismatch"):
                store.verify()
        finally:
            with open(path, "r+b") as handle:
                handle.seek(offset)
                handle.write(bytes([original]))
        assert kind.open(store_dir).verify().ok
