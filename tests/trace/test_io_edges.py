"""Edge cases for trace serialization and the container."""

import pytest

from repro.trace import Op, Request, Trace, dumps, loads


class TestSerializationEdges:
    def test_empty_trace_round_trip(self):
        trace = Trace("empty", metadata={"note": "nothing here"})
        restored = loads(dumps(trace))
        assert restored.name == "empty"
        assert len(restored) == 0
        assert restored.metadata["note"] == "nothing here"

    def test_metadata_value_containing_equals(self):
        trace = Trace("t", [Request(0.0, 0, 4096, Op.READ)],
                      metadata={"cmdline": "a=b=c"})
        restored = loads(dumps(trace))
        assert restored.metadata["cmdline"] == "a=b=c"

    def test_huge_timestamps_survive(self):
        request = Request(1e12 + 0.5, 0, 4096, Op.WRITE)
        restored = loads(dumps(Trace("t", [request])))
        assert restored[0].arrival_us == 1e12 + 0.5

    def test_identical_arrivals_preserved(self):
        requests = [Request(5.0, i * 4096, 4096, Op.WRITE) for i in range(3)]
        restored = loads(dumps(Trace("t", requests)))
        assert len(restored) == 3
        assert all(r.arrival_us == 5.0 for r in restored)


_HEADER = "arrival_us,lba,size,op,service_start_us,finish_us\r\n"


class TestRowsFromOutsideAreChecked:
    """A CSV row is checked as ``Request`` checks it, with its message."""

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.0,100,4096,W,,", "lba must be a non-negative multiple of 4096"),
            ("0.0,4096,0,W,,", "size must be a positive multiple of 4096"),
            ("-1.0,4096,4096,R,,", "arrival_us must be >= 0, got -1.0"),
            ("0.0,4096,4096,R,,5.0", "finish_us set without service_start_us"),
            ("0.0,4096,4096,R,5.0,4.0", "finish_us precedes service_start_us"),
        ],
    )
    def test_invalid_row_raises_the_request_error(self, row, message):
        with pytest.raises(ValueError) as caught:
            loads(_HEADER + "0.0,0,4096,R,,\r\n" + row + "\r\n")
        assert str(caught.value) == message

    def test_unsorted_rows_load_in_stable_arrival_order(self):
        rows = ["5.0,0,4096,W,,", "1.0,4096,4096,R,,", "5.0,8192,4096,W,,",
                "1.0,12288,4096,R,,"]
        trace = loads(_HEADER + "".join(row + "\r\n" for row in rows))
        assert [(r.arrival_us, r.lba) for r in trace] == [
            (1.0, 4096), (1.0, 12288), (5.0, 0), (5.0, 8192)
        ]


class TestContainerEdges:
    def test_rebased_empty(self):
        assert len(Trace("e").rebased()) == 0

    def test_window_empty_result(self):
        trace = Trace("t", [Request(100.0, 0, 4096, Op.READ)])
        assert len(trace.window(0.0, 50.0)) == 0

    def test_only_on_empty(self):
        assert len(Trace("e").only(Op.READ)) == 0

    def test_single_request_interarrival(self):
        trace = Trace("t", [Request(0.0, 0, 4096, Op.READ)])
        assert trace.inter_arrival_us() == []
        assert trace.duration_us == 0.0
