"""Trace JSONL round-trip tests."""

import json

import pytest

from repro.traces.downlink import DownlinkTraceConfig, DownlinkTraceGenerator
from repro.traces.io import (
    read_downlink_measurements,
    read_upload_trace,
    write_downlink_measurements,
    write_upload_trace,
)
from repro.traces.records import ApSnapshot, ClientObservation, UploadTrace
from repro.traces.synthetic import UploadTraceConfig, UploadTraceGenerator
from repro.util import iofaults
from repro.util.iofaults import CRASH, SimulatedCrash, single_fault


@pytest.fixture
def upload_trace():
    config = UploadTraceConfig(duration_days=0.25)
    return UploadTraceGenerator(config).generate(seed=9)


@pytest.fixture
def campaign():
    config = DownlinkTraceConfig(n_locations=6)
    return DownlinkTraceGenerator(config).generate(seed=9)


class TestUploadRoundTrip:
    def test_lossless(self, upload_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_upload_trace(upload_trace, path)
        assert read_upload_trace(path) == upload_trace

    def test_empty_trace(self, tmp_path):
        trace = UploadTrace(building="x", snapshot_interval_s=900.0,
                            snapshots=())
        path = tmp_path / "empty.jsonl"
        write_upload_trace(trace, path)
        assert read_upload_trace(path) == trace

    def test_header_is_first_line(self, upload_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_upload_trace(upload_trace, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "upload-trace"

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "other"}) + "\n")
        with pytest.raises(ValueError, match="not an upload trace"):
            read_upload_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_upload_trace(path)

    def test_list_header_rejected(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text(json.dumps(["upload-trace"]) + "\n")
        with pytest.raises(ValueError, match=":1: trace header is not"):
            read_upload_trace(path)

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "upload-trace", "building": "b",
                        "snapshot_interval_s": 900.0}) + "\n"
            + json.dumps({"ap": "AP1"}) + "\n")
        with pytest.raises(ValueError, match=":2"):
            read_upload_trace(path)

    def test_blank_lines_ignored(self, upload_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_upload_trace(upload_trace, path)
        path.write_text(path.read_text() + "\n\n")
        assert read_upload_trace(path) == upload_trace

    def test_truncated_upload_trace_rejected(self, upload_trace, tmp_path):
        # The upload trace's header counts its snapshots the same way.
        path = tmp_path / "trace.jsonl"
        write_upload_trace(upload_trace, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        n = len(upload_trace)
        with pytest.raises(ValueError, match=rf"promises {n} snapshots, "
                                             rf"found {n - 1}"):
            read_upload_trace(path)

    @pytest.mark.parametrize("field", ["building", "snapshot_interval_s"])
    def test_upload_header_field_missing_rejected(self, field, tmp_path):
        header = {"kind": "upload-trace", "building": "b",
                  "snapshot_interval_s": 900.0}
        del header[field]
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match=rf"header lacks {field}"):
            read_upload_trace(path)

    @pytest.mark.parametrize("interval", [[900], {"s": 900}, None, "soon"],
                             ids=["list", "dict", "null", "text"])
    def test_upload_header_interval_not_a_number_rejected(self, interval,
                                                          tmp_path):
        header = {"kind": "upload-trace", "building": "b",
                  "snapshot_interval_s": interval}
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError,
                           match="malformed trace header snapshot_interval_s"):
            read_upload_trace(path)

    def test_upload_header_without_count_loads(self, upload_trace, tmp_path):
        # Traces written before the header carried a count still load.
        path = tmp_path / "trace.jsonl"
        write_upload_trace(upload_trace, path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["count"]
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        assert read_upload_trace(path) == upload_trace


class TestDownlinkRoundTrip:
    def test_lossless(self, campaign, tmp_path):
        path = tmp_path / "campaign.jsonl"
        write_downlink_measurements(campaign, path)
        assert read_downlink_measurements(path) == campaign

    def test_pair_keys_encoded(self, campaign, tmp_path):
        path = tmp_path / "campaign.jsonl"
        write_downlink_measurements(campaign, path)
        line = json.loads(path.read_text().splitlines()[1])
        assert all("|" in key for key in line["interfered_rate_bps"])

    def test_wrong_kind_rejected(self, campaign, tmp_path):
        upload_path = tmp_path / "upload.jsonl"
        trace = UploadTrace(
            building="b", snapshot_interval_s=900.0,
            snapshots=(ApSnapshot("AP1", 0.0,
                                  (ClientObservation("c", -50.0),)),))
        write_upload_trace(trace, upload_path)
        with pytest.raises(ValueError, match="not a downlink"):
            read_downlink_measurements(upload_path)

    def test_list_header_rejected(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text(json.dumps(["downlink-measurements"]) + "\n")
        with pytest.raises(ValueError, match=":1: campaign header is not"):
            read_downlink_measurements(path)

    @pytest.mark.parametrize("field", ["snr_db", "clean_rate_bps",
                                       "interfered_rate_bps"])
    def test_map_field_given_as_list_rejected(self, field, campaign,
                                              tmp_path):
        path = tmp_path / "campaign.jsonl"
        write_downlink_measurements(campaign, path)
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record[field] = [1, 2]
        lines[1] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=":2: malformed measurement"):
            read_downlink_measurements(path)

    def test_empty_campaign(self, tmp_path):
        path = tmp_path / "none.jsonl"
        write_downlink_measurements([], path)
        assert read_downlink_measurements(path) == []

    def test_truncated_campaign_rejected(self, campaign, tmp_path):
        # Cut at a line boundary: every remaining record parses, so
        # only the header's count can tell the campaign is torn.
        path = tmp_path / "campaign.jsonl"
        write_downlink_measurements(campaign, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match=r"promises 6 locations, "
                                             r"found 5"):
            read_downlink_measurements(path)


class TestMalformedRecordsNameTheirLine:
    """A record that does not parse or convert is reported by file line."""

    READERS = {"upload": (write_upload_trace, read_upload_trace,
                          "snapshot", "timestamp_s"),
               "downlink": (write_downlink_measurements,
                            read_downlink_measurements,
                            "measurement", "snr_db")}

    @pytest.fixture(params=["upload", "downlink"])
    def written(self, request, upload_trace, campaign, tmp_path):
        write, read, what, field = self.READERS[request.param]
        path = tmp_path / f"{request.param}.jsonl"
        write(upload_trace if request.param == "upload" else campaign, path)
        return path, read, what, field

    def test_torn_record(self, written):
        path, read, what, _ = written
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]) + lines[2][:30])
        with pytest.raises(ValueError,
                           match=rf":3: malformed {what} record"):
            read(path)

    def test_non_numeric_field(self, written):
        path, read, what, field = written
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        if isinstance(record[field], dict):  # a per-AP map
            record[field] = {ap: "abc" for ap in record[field]}
        else:
            record[field] = "abc"
        lines[1] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError,
                           match=rf":2: malformed {what} record"):
            read(path)

    def test_torn_header(self, written):
        path, read, _, _ = written
        path.write_text(path.read_text()[:10])
        with pytest.raises(ValueError, match=r":1: malformed \w+ header"):
            read(path)


class TestAtomicPublish:
    def test_trace_write_goes_through_the_fault_sites(self, upload_trace,
                                                      tmp_path):
        path = tmp_path / "trace.jsonl"
        write_upload_trace(upload_trace, path)
        before = path.read_bytes()
        other = UploadTrace(building="other", snapshot_interval_s=60.0,
                            snapshots=())
        with pytest.raises(SimulatedCrash):
            with iofaults.inject(single_fault("trace.replace", CRASH)):
                write_upload_trace(other, path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp*"))
