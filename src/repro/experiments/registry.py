"""Experiment registry: one entry per paper figure, with printers.

Maps figure identifiers to (description, compute function, printer) and
to what each figure is passed: its ``--quick`` kwargs, what
``--samples N`` sets, and whether ``compute`` takes ``seed`` and
``policy``.  The CLI, the suite engine and the benchmark harness share
this single source of truth about what regenerates each figure;
``REGISTRY`` is declared in paper order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.experiments import (
    fig2,
    fig3,
    fig4,
    fig6,
    fig7,
    fig8,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
)
from repro.util.cdf import ascii_cdf
from repro.util.containers import GridResult, SweepResult, ascii_heatmap


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper figure.

    ``quick`` holds the ``--quick`` kwargs (CI-sized, same code paths).
    ``samples`` maps ``--samples N`` to kwargs; a figure with one also
    takes ``chunk_size``, and a closed-form or fixed-size figure has
    none.  ``pooled`` says that ``compute`` takes ``seed`` and
    ``policy``, so it can put work on a pool.
    """

    figure: str
    description: str
    compute: Callable[..., object]
    render: Callable[[object], List[str]]
    quick: Mapping[str, object] = field(default_factory=dict)
    samples: Optional[Callable[[int], Dict[str, int]]] = None
    pooled: bool = False


def _render_sweep(result: SweepResult) -> List[str]:
    return [result.name] + result.row_strings()


def _render_grid(result: GridResult) -> List[str]:
    return result.summary_strings() + ["", ascii_heatmap(result)]


def _render_gain_map(result: Dict[str, Dict[str, object]],
                     plot: bool = True) -> List[str]:
    lines = []
    for label, entry in result.items():
        if label == "meta":
            lines.append(f"meta: {entry}")
            continue
        summary = entry["summary"]
        lines.append(
            f"{label:>28}: no-gain {summary['frac_no_gain']:.1%}, "
            f">10% {summary['frac_gain_over_10pct']:.1%}, "
            f">20% {summary['frac_gain_over_20pct']:.1%}, "
            f"median {summary['median']:.3f}, max {summary['max']:.3f}")
    if plot:
        for label, entry in result.items():
            if label == "meta" or "gains" not in entry:
                continue
            lines.append("")
            lines.append(ascii_cdf(entry["gains"], x_min=1.0, x_max=2.0,
                                   label=f"CDF of gain: {label}"))
    return lines


def _render_fig11(result: Dict[str, Dict[str, object]]) -> List[str]:
    lines = []
    for panel, techniques in result.items():
        lines.append(f"[{panel}]")
        lines.extend("  " + row
                     for row in _render_gain_map(techniques, plot=False))
    return lines


def _render_fig10(result) -> List[str]:
    return result.rows()


def _render_fig12(result) -> List[str]:
    lines = []
    for comparison in result["comparisons"]:
        parts = ", ".join(f"{name} {gain:.3f}x"
                          for name, gain in comparison.mean_gains.items())
        lines.append(f"n={comparison.n_clients:>3}: mean gains {parts}")
    return lines


REGISTRY: Dict[str, Experiment] = {
    "fig2": Experiment(
        "fig2", "Aggregate two-transmitter capacity with SIC",
        fig2.compute, _render_sweep, quick={"n_points": 21}),
    "fig3": Experiment(
        "fig3", "Relative capacity gain heatmap (C+SIC / C-SIC)",
        fig3.compute, _render_grid, quick={"n_points": 21}),
    "fig4": Experiment(
        "fig4", "Same-receiver completion-time gain heatmap",
        fig4.compute, _render_grid, quick={"n_points": 31}),
    "fig6": Experiment(
        "fig6", "Monte-Carlo CDF: two pairs, different receivers",
        fig6.compute, _render_gain_map, quick={"n_samples": 500},
        samples=lambda n: {"n_samples": n}, pooled=True),
    "fig7": Experiment(
        "fig7", "Architectures: EWLAN / residential / mesh (Section 4)",
        fig7.compute, fig7.render,
        quick={"n_ewlan_grids": 20, "n_residential_rows": 60},
        # One EWLAN grid is the unit; residential rows are cheaper, so
        # keep the quick-mode 1:3 ratio.
        samples=lambda n: {"n_ewlan_grids": n, "n_residential_rows": 3 * n},
        pooled=True),
    "fig8": Experiment(
        "fig8", "Download two APs -> one client gain heatmap",
        fig8.compute, _render_grid, quick={"n_points": 21}),
    "fig10": Experiment(
        "fig10", "Worked 4-client pairing example",
        fig10.compute, _render_fig10),
    "fig11": Experiment(
        "fig11", "Technique CDFs (power control, multirate, packing)",
        fig11.compute, _render_fig11, quick={"n_samples": 500},
        samples=lambda n: {"n_samples": n}, pooled=True),
    "fig12": Experiment(
        "fig12", "Scheduler vs baselines",
        fig12.compute, _render_fig12,
        quick={"sizes": (3, 5, 8), "n_trials": 5}, pooled=True),
    "fig13": Experiment(
        "fig13", "Trace-based upload pairing evaluation",
        fig13.compute, _render_gain_map, quick={"max_snapshots": 40},
        samples=lambda n: {"max_snapshots": n}, pooled=True),
    "fig14": Experiment(
        "fig14", "Trace-based two AP-client pairs (arbitrary/discrete)",
        fig14.compute, _render_gain_map, quick={"n_scenarios": 300},
        samples=lambda n: {"n_scenarios": n}, pooled=True),
}


def jsonify(value):
    """Recursively convert a figure result into JSON-compatible data.

    Handles the shapes the figure modules return: numpy arrays/scalars,
    dataclass-like result objects (via ``to_dict`` or ``__dict__``),
    enums, and nested containers.  Dict keys are stringified (tuple
    keys like AP pairs become ``"a|b"``).
    """
    import dataclasses
    import enum

    import numpy as np

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "to_dict"):
        return jsonify(value.to_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: jsonify(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if isinstance(key, tuple):
                key = "|".join(str(part) for part in key)
            elif isinstance(key, enum.Enum):
                key = key.value
            out[str(key)] = jsonify(item)
        return out
    if isinstance(value, (list, tuple, set)):
        return [jsonify(item) for item in value]
    return repr(value)


def ordered_figures() -> List[str]:
    """All registered figure identifiers in paper order."""
    return list(REGISTRY)


@dataclass(frozen=True)
class ExperimentRun:
    """One computed figure: raw result plus its printable rows.

    ``lines`` starts with the ``== figN: description ==`` header the CLI
    has always printed; ``result`` is the figure's native return value
    for ``--json`` dumps and golden comparisons.
    """

    figure: str
    description: str
    result: object
    lines: List[str]


def run_experiment(figure: str, **kwargs) -> ExperimentRun:
    """Compute and render one figure — the single dispatch point.

    Every execution path (single-figure CLI, ``all`` via the suite
    engine, the package smoke test) routes through here, so computing
    and rendering cannot drift apart between paths.
    """
    if figure not in REGISTRY:
        known = ", ".join(ordered_figures())
        raise KeyError(f"unknown figure {figure!r}; known: {known}")
    experiment = REGISTRY[figure]
    result = experiment.compute(**kwargs)
    lines = [f"== {experiment.figure}: {experiment.description} =="] \
        + experiment.render(result)
    return ExperimentRun(figure=experiment.figure,
                         description=experiment.description,
                         result=result, lines=lines)
