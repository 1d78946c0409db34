"""Command-line trace generation.

Generate the synthetic trace files the Section-7 evaluations consume::

    python -m repro.traces upload --out building.jsonl --days 14
    python -m repro.traces downlink --out campaign.jsonl --locations 100
    python -m repro.traces inspect building.jsonl

Exit codes follow the operator taxonomy of :mod:`repro.util.errors`:
``0`` ok, ``1`` fatal, ``2`` usage, ``4`` corrupt-state (a torn or
malformed trace file — inspect it before regenerating), ``5``
resumable (interrupted cleanly).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.traces.downlink import DownlinkTraceConfig, DownlinkTraceGenerator
from repro.traces.io import (
    read_downlink_measurements,
    read_upload_trace,
    write_downlink_measurements,
    write_upload_trace,
)
from repro.traces.synthetic import UploadTraceConfig, UploadTraceGenerator
from repro.util.errors import CorruptStateError, run_cli
from repro.util.timing import PhaseTimer


def _progress_printer(kind: str):
    """A ``progress(done, total)`` hook printing coarse milestones."""
    def progress(done: int, total: int) -> None:
        if done == total or done % max(1, total // 4) == 0:
            print(f"  {kind}: {done}/{total}", file=sys.stderr)

    return progress


def _timing_line(timer: PhaseTimer) -> str:
    total = sum(timer.phases.values())
    phases = ", ".join(f"{name} {seconds * 1e3:.0f} ms"
                       for name, seconds in timer.phases.items())
    return f"generated in {total * 1e3:.0f} ms ({phases})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traces",
        description="Generate or inspect synthetic SIC evaluation traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    upload = sub.add_parser("upload",
                            help="generate a building upload RSSI trace")
    upload.add_argument("--out", required=True, type=Path)
    upload.add_argument("--days", type=float, default=14.0)
    upload.add_argument("--peak-clients", type=float, default=24.0)
    upload.add_argument("--alpha", type=float, default=3.5,
                        help="path-loss exponent")
    upload.add_argument("--shadowing-db", type=float, default=6.0)
    upload.add_argument("--seed", type=int, default=2010)
    upload.add_argument("--progress", action="store_true",
                        help="print generation progress to stderr")

    downlink = sub.add_parser("downlink",
                              help="generate a downlink measurement "
                                   "campaign")
    downlink.add_argument("--out", required=True, type=Path)
    downlink.add_argument("--locations", type=int, default=100)
    downlink.add_argument("--aps", type=int, default=5)
    downlink.add_argument("--alpha", type=float, default=3.5)
    downlink.add_argument("--seed", type=int, default=2010)
    downlink.add_argument("--progress", action="store_true",
                          help="print generation progress to stderr")

    inspect = sub.add_parser("inspect",
                             help="summarise an existing trace file")
    inspect.add_argument("path", type=Path)

    return parser


def _cmd_upload(args: argparse.Namespace) -> int:
    config = UploadTraceConfig(duration_days=args.days,
                               peak_clients=args.peak_clients,
                               pathloss_exponent=args.alpha,
                               shadowing_sigma_db=args.shadowing_db)
    timer = PhaseTimer()
    trace = UploadTraceGenerator(config).generate(
        args.seed, timer=timer,
        progress=_progress_printer("snapshots") if args.progress else None)
    write_upload_trace(trace, args.out)
    busy = len(trace.busy_snapshots(2))
    print(f"wrote {args.out}: {len(trace)} snapshots over "
          f"{trace.duration_s / 86400:.1f} days ({busy} with >= 2 clients)")
    print(_timing_line(timer))
    return 0


def _cmd_downlink(args: argparse.Namespace) -> int:
    config = DownlinkTraceConfig(n_locations=args.locations,
                                 n_aps=args.aps,
                                 pathloss_exponent=args.alpha)
    timer = PhaseTimer()
    measurements = DownlinkTraceGenerator(config).generate(
        args.seed, timer=timer,
        progress=_progress_printer("locations") if args.progress else None)
    write_downlink_measurements(measurements, args.out)
    print(f"wrote {args.out}: {len(measurements)} locations x "
          f"{args.aps} APs")
    print(_timing_line(timer))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    with args.path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
    if not header_line:
        raise CorruptStateError(
            f"{args.path}: empty trace file",
            hint="regenerate it with 'python -m repro.traces upload/"
                 "downlink'")
    try:
        header = json.loads(header_line)
    except ValueError as exc:
        raise CorruptStateError(
            f"{args.path}: unreadable trace header ({exc})",
            hint="the file is torn or not a trace; regenerate it") from exc
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind == "upload-trace":
        trace = _read_or_corrupt(read_upload_trace, args.path)
        sizes = [s.n_clients for s in trace.busy_snapshots(2)]
        print(f"upload trace '{trace.building}': {len(trace)} snapshots, "
              f"{trace.duration_s / 86400:.1f} days, APs: "
              f"{', '.join(trace.ap_names)}")
        if sizes:
            print(f"busy snapshots: {len(sizes)} "
                  f"(clients per AP: min {min(sizes)}, max {max(sizes)})")
        return 0
    if kind == "downlink-measurements":
        measurements = _read_or_corrupt(read_downlink_measurements,
                                        args.path)
        n_aps = len(measurements[0].ap_names) if measurements else 0
        print(f"downlink campaign: {len(measurements)} locations x "
              f"{n_aps} APs")
        if measurements:
            snrs = [snr for m in measurements for snr in m.snr_db.values()]
            print(f"SNR range: {min(snrs):.1f} .. {max(snrs):.1f} dB")
        return 0
    raise CorruptStateError(
        f"{args.path}: unknown trace kind {kind!r}",
        hint="expected 'upload-trace' or 'downlink-measurements'")


def _read_or_corrupt(reader, path: Path):
    """Run a trace reader, reclassifying parse failures as corrupt-state."""
    try:
        return reader(path)
    except ValueError as exc:
        raise CorruptStateError(
            f"{path}: malformed trace ({exc})",
            hint="the file is torn or hand-edited; regenerate it") from exc


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "upload":
        return _cmd_upload(args)
    if args.command == "downlink":
        return _cmd_downlink(args)
    return _cmd_inspect(args)


def entry() -> int:
    """Console-script entry: :func:`main` under the operator taxonomy."""
    return run_cli("repro-traces", main)


if __name__ == "__main__":
    sys.exit(entry())
