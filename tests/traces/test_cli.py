"""Trace CLI tests (``python -m repro.traces``)."""

import pytest

from repro.traces.__main__ import main
from repro.traces.io import read_downlink_measurements, read_upload_trace
from repro.util.errors import EXIT_CORRUPT_STATE, run_cli


class TestUploadCommand:
    def test_generates_readable_trace(self, tmp_path, capsys):
        out = tmp_path / "building.jsonl"
        rc = main(["upload", "--out", str(out), "--days", "0.5",
                   "--seed", "3"])
        assert rc == 0
        trace = read_upload_trace(out)
        assert len(trace) > 0
        assert "wrote" in capsys.readouterr().out

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["upload", "--out", str(a), "--days", "0.25", "--seed", "9"])
        main(["upload", "--out", str(b), "--days", "0.25", "--seed", "9"])
        assert read_upload_trace(a) == read_upload_trace(b)


    def test_progress_and_timing_reported(self, tmp_path, capsys):
        out = tmp_path / "building.jsonl"
        rc = main(["upload", "--out", str(out), "--days", "0.25",
                   "--seed", "3", "--progress"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "generated in" in captured.out  # PhaseTimer summary line
        assert "draw" in captured.out and "rss" in captured.out
        assert "snapshots: 24/24" in captured.err


class TestDownlinkCommand:
    def test_generates_readable_campaign(self, tmp_path, capsys):
        out = tmp_path / "campaign.jsonl"
        rc = main(["downlink", "--out", str(out), "--locations", "10",
                   "--seed", "3"])
        assert rc == 0
        measurements = read_downlink_measurements(out)
        assert len(measurements) == 10

    def test_progress_and_timing_reported(self, tmp_path, capsys):
        out = tmp_path / "campaign.jsonl"
        rc = main(["downlink", "--out", str(out), "--locations", "8",
                   "--seed", "3", "--progress"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "generated in" in captured.out
        assert "measure" in captured.out
        assert "locations: 8/8" in captured.err


class TestInspectCommand:
    def test_inspect_upload(self, tmp_path, capsys):
        out = tmp_path / "building.jsonl"
        main(["upload", "--out", str(out), "--days", "0.25", "--seed", "3"])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        assert "upload trace" in capsys.readouterr().out

    def test_inspect_downlink(self, tmp_path, capsys):
        out = tmp_path / "campaign.jsonl"
        main(["downlink", "--out", str(out), "--locations", "5",
              "--seed", "3"])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        assert "downlink campaign" in capsys.readouterr().out

    def test_inspect_unknown_kind_is_corrupt_state(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "mystery"}\n')
        rc = run_cli("repro-traces", lambda: main(["inspect", str(bad)]))
        assert rc == EXIT_CORRUPT_STATE
        assert "corrupt-state" in capsys.readouterr().err

    def test_inspect_empty_file_is_corrupt_state(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = run_cli("repro-traces", lambda: main(["inspect", str(empty)]))
        assert rc == EXIT_CORRUPT_STATE
        assert "hint" in capsys.readouterr().err

    def test_inspect_truncated_campaign_is_corrupt_state(self, tmp_path,
                                                         capsys):
        out = tmp_path / "campaign.jsonl"
        main(["downlink", "--out", str(out), "--locations", "5",
              "--seed", "3"])
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines[:-1]))
        capsys.readouterr()
        rc = run_cli("repro-traces", lambda: main(["inspect", str(out)]))
        assert rc == EXIT_CORRUPT_STATE
        assert "promises 5 locations, found 4" in capsys.readouterr().err

    def test_inspect_truncated_upload_is_corrupt_state(self, tmp_path,
                                                       capsys):
        out = tmp_path / "building.jsonl"
        main(["upload", "--out", str(out), "--days", "1", "--seed", "3"])
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(out.read_text().splitlines(
            keepends=True)[:40]))
        capsys.readouterr()
        rc = run_cli("repro-traces", lambda: main(["inspect", str(torn)]))
        assert rc == EXIT_CORRUPT_STATE
        assert "promises 557 snapshots, found 39" in capsys.readouterr().err

    def test_inspect_headerless_upload_is_corrupt_state(self, tmp_path,
                                                        capsys):
        bare = tmp_path / "bare.jsonl"
        bare.write_text('{"kind": "upload-trace"}\n')
        rc = run_cli("repro-traces", lambda: main(["inspect", str(bare)]))
        assert rc == EXIT_CORRUPT_STATE
        assert "lacks building" in capsys.readouterr().err

    def test_inspect_non_numeric_interval_is_corrupt_state(self, tmp_path,
                                                           capsys):
        odd = tmp_path / "odd.jsonl"
        odd.write_text('{"kind": "upload-trace", "building": "b", '
                       '"snapshot_interval_s": [900]}\n')
        rc = run_cli("repro-traces", lambda: main(["inspect", str(odd)]))
        assert rc == EXIT_CORRUPT_STATE
        assert "malformed trace header" in capsys.readouterr().err

    def test_inspect_torn_header_is_corrupt_state(self, tmp_path, capsys):
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"kind": "upload-tr')  # half a JSON header
        rc = run_cli("repro-traces", lambda: main(["inspect", str(torn)]))
        assert rc == EXIT_CORRUPT_STATE
        assert "torn" in capsys.readouterr().err
