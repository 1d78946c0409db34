"""JSONL serialisation of traces.

One JSON object per line: upload traces carry a header line followed by
one line per AP snapshot; downlink campaigns carry one line per
location.  JSONL keeps multi-week traces streamable and diff-friendly.

Writers stream into a tmp file and publish with ``os.replace``, so a
process dying mid-write never leaves a torn trace under the final
name — readers either see the previous complete file or the new one.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, TextIO, Union

from repro.traces.records import (
    ApSnapshot,
    ClientObservation,
    DownlinkMeasurement,
    UploadTrace,
)

PathLike = Union[str, Path]


@contextmanager
def _atomic_open(path: Path) -> Iterator[TextIO]:
    """Stream text into ``path`` via tmp file + atomic ``os.replace``."""
    tmp_path = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        # The tmp half of an atomic publish is the legitimate raw write.
        with tmp_path.open("w", encoding="utf-8") as fh:  # repro-lint: disable=RPR306
            yield fh
        os.replace(tmp_path, path)
    finally:
        try:
            tmp_path.unlink()
        except OSError:
            pass


def write_upload_trace(trace: UploadTrace, path: PathLike) -> None:
    """Write an upload trace as JSONL (header + one line per snapshot)."""
    path = Path(path)
    with _atomic_open(path) as fh:
        header = {
            "kind": "upload-trace",
            "building": trace.building,
            "snapshot_interval_s": trace.snapshot_interval_s,
            "count": len(trace),
        }
        fh.write(json.dumps(header) + "\n")
        for snap in trace.snapshots:
            record = {
                "ap": snap.ap,
                "timestamp_s": snap.timestamp_s,
                "clients": [[c.client, c.rssi_dbm] for c in snap.clients],
            }
            fh.write(json.dumps(record) + "\n")


def read_upload_trace(path: PathLike) -> UploadTrace:
    """Read an upload trace written by :func:`write_upload_trace`.

    Raises ``ValueError`` on a malformed record, on a header without
    ``building`` or with a ``snapshot_interval_s`` that is missing or
    not a number, and on a record count that differs from the header's
    ``count`` (headers written before it existed carry none and are not
    checked).
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty trace file")
        header = json.loads(header_line)
        if header.get("kind") != "upload-trace":
            raise ValueError(f"{path}: not an upload trace "
                             f"(kind={header.get('kind')!r})")
        missing = [key for key in ("building", "snapshot_interval_s")
                   if key not in header]
        if missing:
            raise ValueError(f"{path}: trace header lacks "
                             f"{', '.join(missing)}")
        try:
            snapshot_interval_s = float(header["snapshot_interval_s"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed trace header "
                             f"snapshot_interval_s") from exc
        snapshots = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            try:
                snapshots.append(ApSnapshot(
                    ap=record["ap"],
                    timestamp_s=float(record["timestamp_s"]),
                    clients=tuple(
                        ClientObservation(client=c[0], rssi_dbm=float(c[1]))
                        for c in record["clients"]),
                ))
            except (KeyError, IndexError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed snapshot "
                                 f"record") from exc
    count = header.get("count")
    if count is not None and count != len(snapshots):
        raise ValueError(f"{path}: header promises {count} snapshots, "
                         f"found {len(snapshots)}")
    return UploadTrace(
        building=header["building"],
        snapshot_interval_s=snapshot_interval_s,
        snapshots=tuple(snapshots),
    )


def write_downlink_measurements(measurements: List[DownlinkMeasurement],
                                path: PathLike) -> None:
    """Write a downlink campaign as JSONL (one line per location)."""
    path = Path(path)
    with _atomic_open(path) as fh:
        header = {"kind": "downlink-measurements", "count": len(measurements)}
        fh.write(json.dumps(header) + "\n")
        for m in measurements:
            record = {
                "location": m.location,
                "snr_db": m.snr_db,
                "clean_rate_bps": m.clean_rate_bps,
                # JSON keys must be strings: encode the AP pair as "a|b".
                "interfered_rate_bps": {
                    f"{serving}|{interferer}": rate
                    for (serving, interferer), rate
                    in m.interfered_rate_bps.items()
                },
            }
            fh.write(json.dumps(record) + "\n")


def read_downlink_measurements(path: PathLike) -> List[DownlinkMeasurement]:
    """Read a campaign written by :func:`write_downlink_measurements`.

    Raises ``ValueError`` on a malformed record, and on a record count
    that differs from the header's ``count``: a campaign cut at a line
    boundary parses cleanly, so only the count shows it is torn.
    """
    path = Path(path)
    measurements: List[DownlinkMeasurement] = []
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty measurement file")
        header = json.loads(header_line)
        if header.get("kind") != "downlink-measurements":
            raise ValueError(f"{path}: not a downlink campaign "
                             f"(kind={header.get('kind')!r})")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            try:
                interfered = {}
                for key, rate in record["interfered_rate_bps"].items():
                    serving, _, interferer = key.partition("|")
                    interfered[(serving, interferer)] = float(rate)
                measurements.append(DownlinkMeasurement(
                    location=record["location"],
                    snr_db={k: float(v) for k, v in record["snr_db"].items()},
                    clean_rate_bps={k: float(v) for k, v
                                    in record["clean_rate_bps"].items()},
                    interfered_rate_bps=interfered,
                ))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed measurement "
                                 f"record") from exc
    count = header.get("count")
    if count is not None and count != len(measurements):
        raise ValueError(f"{path}: header promises {count} locations, "
                         f"found {len(measurements)}")
    return measurements
