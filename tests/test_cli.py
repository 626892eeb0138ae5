"""Tests for the repro-trace command-line interface."""

import pytest

from repro.cli import main
from repro.trace import read_trace


class TestList:
    def test_lists_all_apps(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Twitter" in out
        assert "Music/WB" in out


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        assert main(["generate", "Email", "-o", str(path), "--requests", "50"]) == 0
        trace = read_trace(path)
        assert len(trace) == 50
        assert not trace.completed

    def test_rejects_unknown_app(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "Nope", "-o", str(tmp_path / "t.csv")])


class TestCollect:
    def test_writes_completed_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        assert main(["collect", "Email", "-o", str(path), "--requests", "60"]) == 0
        trace = read_trace(path)
        assert len(trace) == 60
        assert trace.completed


class TestStack:
    def test_writes_mechanistic_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        assert main(["stack", "Messaging", "-o", str(path), "--duration", "60"]) == 0
        assert len(read_trace(path)) > 0


class TestConvert:
    def test_blkparse_to_csv(self, tmp_path, capsys):
        source = tmp_path / "blk.txt"
        source.write_text(
            "8,16 1 1 0.000100000 1 Q W 8 + 8 [x]\n"
            "8,16 1 2 0.000200000 1 D W 8 + 8 [x]\n"
            "8,16 1 3 0.001000000 0 C W 8 + 8 [0]\n"
        )
        out = tmp_path / "trace.csv"
        assert main(["convert", str(source), "-o", str(out)]) == 0
        trace = read_trace(out)
        assert len(trace) == 1
        assert trace[0].completed
        assert "1 with full timestamps" in capsys.readouterr().out


class TestStats:
    def test_prints_statistics(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        main(["collect", "Email", "-o", str(path), "--requests", "40"])
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "No-wait" in out
        assert "Arrival rate" in out

    def test_engines_print_byte_identical_tables(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        main(["collect", "Email", "-o", str(path), "--requests", "40"])
        capsys.readouterr()
        assert main(["stats", str(path), "--engine", "batch"]) == 0
        batch = capsys.readouterr()
        assert main(["stats", str(path), "--engine", "streaming"]) == 0
        streaming = capsys.readouterr()
        assert streaming.out == batch.out  # stdout byte-identical
        assert "[engine: batch]" in batch.err
        assert "[engine: streaming]" in streaming.err

    def test_engine_note_not_on_stdout(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        main(["generate", "Email", "-o", str(path), "--requests", "20"])
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        assert "engine" not in capsys.readouterr().out


class TestMetricsList:
    def test_lists_every_registered_metric(self, capsys):
        from repro.metrics import metric_names

        assert main(["metrics", "list"]) == 0
        out = capsys.readouterr().out
        for name in metric_names():
            assert name in out
        assert "out-of-core" in out
        assert "last_arrival_us" in out  # carry state is documented


class TestExperimentsPassthrough:
    def test_forwards_to_experiment_runner(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        code = main(
            ["experiments", "fig4", "--quick", "--seed", "3", "--jobs", "1",
             "--no-cache", "--output", str(output)]
        )
        assert code == 0
        assert "fig4" in capsys.readouterr().out
        assert "Request size distributions" in output.read_text()

    def test_forwards_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "shards" in out


class TestStore:
    def _packed(self, tmp_path, capsys):
        path = tmp_path / "email.store"
        assert main(
            ["store", "pack", "--app", "Email", "-o", str(path),
             "--requests", "60", "--chunk-rows", "16"]
        ) == 0
        capsys.readouterr()
        return path

    def test_pack_from_app(self, tmp_path, capsys):
        path = tmp_path / "email.store"
        code = main(
            ["store", "pack", "--app", "Email", "-o", str(path),
             "--requests", "60", "--chunk-rows", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "packed 60 requests into 4 chunk(s)" in out

    def test_pack_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["store", "pack", "-o", str(tmp_path / "s")]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_pack_from_csv_round_trips(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        main(["collect", "Email", "-o", str(csv), "--requests", "40"])
        store = tmp_path / "t.store"
        assert main(["store", "pack", str(csv), "-o", str(store)]) == 0
        from repro.store import open_store

        assert list(open_store(store).to_trace()) == list(read_trace(csv))

    def test_pack_from_blkparse(self, tmp_path, capsys):
        log = tmp_path / "blk.txt"
        log.write_text(
            "8,16 1 1 0.000100000 1 Q W 8 + 8 [x]\n"
            "8,16 1 2 0.001000000 0 C W 8 + 8 [0]\n"
        )
        store = tmp_path / "blk.store"
        assert main(["store", "pack", "--blkparse", str(log), "-o", str(store)]) == 0
        from repro.store import open_store

        opened = open_store(store)
        assert len(opened) == 1
        assert opened.metadata["source"] == "blkparse"

    def test_info_reports_manifest(self, tmp_path, capsys):
        path = self._packed(tmp_path, capsys)
        assert main(["store", "info", str(path), "--verify", "--chunks"]) == 0
        out = capsys.readouterr().out
        assert "Email" in out
        assert "Requests" in out and "60" in out
        assert "chunk-000003.bin" in out
        assert "verified" in out.lower()

    def test_cat_writes_identical_csv(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        main(["generate", "Email", "-o", str(csv), "--requests", "60"])
        store = tmp_path / "t.store"
        main(["store", "pack", str(csv), "-o", str(store)])
        capsys.readouterr()
        out = tmp_path / "restored.csv"
        assert main(["store", "cat", str(store), "-o", str(out)]) == 0
        assert out.read_bytes() == csv.read_bytes()

    def test_stats_matches_csv_stats(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        main(["collect", "Email", "-o", str(csv), "--requests", "50"])
        store = tmp_path / "t.store"
        main(["store", "pack", str(csv), "-o", str(store)])
        capsys.readouterr()
        assert main(["stats", str(csv)]) == 0
        batch = capsys.readouterr().out
        assert main(["store", "stats", str(store)]) == 0
        captured = capsys.readouterr()
        assert captured.out == batch
        assert "[engine: streaming (out-of-core)]" in captured.err
        # Seven-row chunks: the fold carries state across chunk boundaries.
        assert main(["store", "stats", str(store), "--chunk-rows", "7"]) == 0
        assert capsys.readouterr().out == batch


class TestReplay:
    def test_prints_the_engine_and_why_it_served(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        assert main(["replay", "Twitter", "--requests", "60"]) == 0
        out = capsys.readouterr().out
        # The telemetry sink pins the event kernel; the row says so.
        assert "Engine" in out
        assert "kernel: telemetry sink attached" in out
