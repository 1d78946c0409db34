"""Command-line entry point: regenerate paper figures.

Examples::

    python -m repro.experiments fig6
    python -m repro.experiments all --quick
    python -m repro.experiments claims --samples 2000

Exit codes follow the operator taxonomy of :mod:`repro.util.errors`:
``0`` ok, ``1`` fatal, ``2`` usage, ``3`` transient, ``4``
corrupt-state, ``5`` resumable (interrupted with checkpoints flushed —
rerun the same command to resume).

What each figure is passed (its ``--quick`` kwargs, what ``--samples``
sets, whether it takes ``--seed``, ``--chunk-size`` and a pool) is read
from its :data:`repro.experiments.registry.REGISTRY` entry.  ``claims``
has no entry: it takes ``--samples`` but no ``--chunk-size`` or pool.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import json

from repro.experiments import claims
from repro.experiments.registry import (
    REGISTRY,
    jsonify,
    ordered_figures,
    run_experiment,
)
from repro.experiments.suite import run_suite
from repro.util.cache import atomic_write_text
from repro.util.errors import run_cli


def positive_int(text: str) -> int:
    """An argparse ``type``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures from the model.",
    )
    parser.add_argument(
        "figure",
        help="figure id (fig2..fig14), 'all', 'claims', or 'list'")
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sample counts / grid sizes (same code paths)")
    parser.add_argument(
        "--samples", type=positive_int, default=None,
        help="override Monte-Carlo sample count where applicable")
    parser.add_argument(
        "--seed", type=int, default=2010,
        help="Monte-Carlo seed (default 2010)")
    parser.add_argument(
        "--workers", type=positive_int, default=None, metavar="N",
        help="worker processes for the Monte-Carlo figures "
             "(results are identical for any count)")
    parser.add_argument(
        "--chunk-size", type=positive_int, default=None, metavar="N",
        help="samples per supervised chunk (the checkpoint granularity); "
             "fig7, fig13 and fig14 give identical results for any size, "
             "fig6 and fig11 seed each chunk separately, so theirs "
             "depend on it")
    parser.add_argument(
        "--report", type=Path, default=None, metavar="FILE",
        help="also write the output as a markdown report to FILE")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also dump the raw figure data as JSON to FILE "
             "(single-figure runs only)")
    return parser


def _kwargs_for(figure: str, args: argparse.Namespace) -> dict:
    experiment = REGISTRY[figure]
    kwargs = dict(experiment.quick) if args.quick else {}
    if experiment.samples is not None and args.samples is not None:
        kwargs.update(experiment.samples(args.samples))
    if experiment.pooled:
        kwargs.setdefault("seed", args.seed)
    if experiment.samples is not None and args.chunk_size is not None:
        kwargs["chunk_size"] = args.chunk_size
    return kwargs


def _note_inapplicable(args: argparse.Namespace, figures: List[str],
                       pooled: bool) -> None:
    """One stderr note per flag the run ignores, instead of silence.

    ``pooled`` says whether any of ``figures`` can put work on a pool.
    A figure without ``samples`` in its entry ignores ``--samples`` and
    ``--chunk-size``; ``claims`` takes ``--samples`` but not
    ``--chunk-size``.
    """
    unchunked = [figure for figure in figures
                 if figure == "claims" or REGISTRY[figure].samples is None]
    notes = [
        ("--samples", args.samples,
         [figure for figure in unchunked if figure != "claims"],
         "closed-form or fixed-size figures"),
        ("--chunk-size", args.chunk_size, unchunked, "no supervised chunks"),
        ("--workers", args.workers, [] if pooled else figures,
         "nothing in this run uses a worker pool"),
    ]
    for flag, value, ignored_by, reason in notes:
        if value is not None and ignored_by:
            print(f"note: {flag} does not apply to "
                  f"{', '.join(ignored_by)} ({reason})", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.figure == "list":
        for figure in ordered_figures():
            print(f"{figure:>6}: {REGISTRY[figure].description}")
        return 0

    if args.figure == "claims":
        _note_inapplicable(args, ["claims"], pooled=False)
        n_samples = args.samples or (500 if args.quick else 4000)
        report = claims.evaluate_all(n_samples=n_samples, seed=args.seed)
        for claim, value in report.items():
            print(f"{claim}: {value}")
        return 0

    figures = ordered_figures() if args.figure == "all" else [args.figure]
    if args.json is not None and len(figures) != 1:
        print("--json needs a single figure, not 'all'", file=sys.stderr)
        return 2
    for figure in figures:
        if figure not in REGISTRY:
            print(f"unknown figure {figure!r}; try 'list'", file=sys.stderr)
            return 2
    pooled = any(REGISTRY[figure].pooled for figure in figures)
    _note_inapplicable(args, figures, pooled)

    summary: Optional[List[str]] = None
    if args.figure == "all" or (args.workers is not None and pooled):
        # `all`, and one figure given --workers that can use a pool,
        # run on one suite pool for the whole invocation: the only pool
        # the CLI opens.  Per-figure kwargs are exactly the in-process
        # ones, so outputs stay bit-identical to an in-process run.
        suite = run_suite(
            figures,
            {figure: _kwargs_for(figure, args) for figure in figures},
            n_workers=args.workers)
        runs = [outcome.run for outcome in suite.outcomes
                if outcome.run is not None]
        if args.figure == "all":
            summary = suite.summary_lines()
    else:
        runs = [run_experiment(figure, **_kwargs_for(figure, args))
                for figure in figures]

    report_sections: List[str] = []
    for run in runs:
        if args.json is not None:
            atomic_write_text(
                args.json,
                json.dumps({"figure": run.figure,
                            "data": jsonify(run.result)},
                           indent=2))
            print(f"json written to {args.json}")
        for line in run.lines:
            print(line)
        print()
        if args.report is not None:
            header, *body = run.lines
            report_sections.append(
                f"## {header.strip('= ')}\n\n```\n"
                + "\n".join(body) + "\n```\n")
    if summary is not None:
        for line in summary:
            print(line)
        print()
        if args.report is not None:
            header, *body = summary
            report_sections.append(
                f"## {header.strip('= ')}\n\n```\n"
                + "\n".join(body) + "\n```\n")
    if args.report is not None:
        mode = "quick" if args.quick else "full-scale"
        atomic_write_text(
            args.report,
            "# SIC reproduction — figure report\n\n"
            f"Generated by `python -m repro.experiments` ({mode} run, "
            f"seed {args.seed}).\n\n"
            + "\n".join(report_sections))
        print(f"report written to {args.report}")
    return 0


def entry() -> int:
    """Console-script entry: :func:`main` under the operator taxonomy."""
    return run_cli("repro-experiments", main)


if __name__ == "__main__":
    sys.exit(entry())
