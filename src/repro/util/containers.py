"""Result containers shared by the experiment modules.

Each paper figure is regenerated as structured data rather than as a
plot; these containers are the common shapes (a 1-D parameter sweep and a
2-D grid/heatmap) plus pretty-printers used by the benchmark harness to
print the same rows/series the paper reports.  :func:`snr_grid` builds
the two-SNR heatmaps of Figs. 3, 4 and 8 from their gain functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.util.units import ArrayLike, db_to_linear


@dataclass(frozen=True)
class SweepResult:
    """A 1-D parameter sweep: one x-axis, several named y-series."""

    name: str
    x_label: str
    x: np.ndarray
    series: Dict[str, np.ndarray]
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, values in self.series.items():
            if np.shape(values) != np.shape(self.x):
                raise ValueError(
                    f"series {label!r} has shape {np.shape(values)}, "
                    f"expected {np.shape(self.x)} to match the x axis"
                )

    def row_strings(self, max_rows: int = 12) -> List[str]:
        """Human-readable rows, subsampled to at most ``max_rows``."""
        n = len(self.x)
        idx = np.linspace(0, n - 1, min(max_rows, n)).astype(int)
        labels = list(self.series)
        header = f"{self.x_label:>14} | " + " | ".join(f"{label:>14}" for label in labels)
        rows = [header, "-" * len(header)]
        for i in idx:
            cells = " | ".join(f"{self.series[label][i]:14.4g}" for label in labels)
            rows.append(f"{self.x[i]:14.4g} | {cells}")
        return rows

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "x_label": self.x_label,
            "x": self.x.tolist(),
            "series": {k: np.asarray(v).tolist() for k, v in self.series.items()},
            "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class GridResult:
    """A 2-D grid (heatmap): values indexed by two swept axes."""

    name: str
    x_label: str
    y_label: str
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (len(self.y), len(self.x))
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"(len(y), len(x)) = {expected}"
            )

    @property
    def max_value(self) -> float:
        return float(np.nanmax(self.values))

    @property
    def min_value(self) -> float:
        return float(np.nanmin(self.values))

    def argmax(self) -> Dict[str, float]:
        """Coordinates and value of the grid maximum."""
        flat = int(np.nanargmax(self.values))
        iy, ix = np.unravel_index(flat, self.values.shape)
        return {
            self.x_label: float(self.x[ix]),
            self.y_label: float(self.y[iy]),
            "value": float(self.values[iy, ix]),
        }

    def ridge_along_y(self) -> np.ndarray:
        """For each y, the x value that maximises the grid.

        Used to verify claims like "the gain peaks when SNR1(dB) is about
        twice SNR2(dB)" — the ridge should track ``x = 2 * y``.
        """
        return self.x[np.nanargmax(self.values, axis=1)]

    def summary_strings(self) -> List[str]:
        peak = self.argmax()
        return [
            f"{self.name}: grid {len(self.y)}x{len(self.x)} "
            f"({self.y_label} x {self.x_label})",
            f"  value range: [{self.min_value:.4g}, {self.max_value:.4g}]",
            "  peak at " + ", ".join(f"{k}={v:.4g}" for k, v in peak.items()),
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "values": self.values.tolist(),
            "meta": dict(self.meta),
        }


def snr_grid(name: str, noise_w: float,
             gain: Callable[[np.ndarray, np.ndarray], ArrayLike],
             snr_db_min: float, snr_db_max: float, n_points: int,
             meta: Dict[str, object]) -> GridResult:
    """``gain(s1, s2)`` over ``n_points`` x ``n_points`` SNRs (dB).

    Each SNR becomes a linear RSS over ``noise_w``; ``gain`` sees the
    RSSs broadcast with rows = SNR2 (y axis), columns = SNR1 (x axis).
    """
    snr_db = np.linspace(snr_db_min, snr_db_max, n_points)
    s = np.asarray(db_to_linear(snr_db), dtype=float) * noise_w
    values = np.asarray(gain(s[None, :], s[:, None]), dtype=float)
    return GridResult(name, "SNR1 (dB)", "SNR2 (dB)", snr_db, snr_db,
                      values, meta)


def ascii_heatmap(grid: GridResult, width: int = 40, height: int = 16,
                  charset: str = " .:-=+*#%@") -> str:
    """Render a :class:`GridResult` as a small ASCII heatmap.

    Lighter characters = lower values, denser characters = higher values,
    mirroring the shading convention of the paper's Figs. 3, 4 and 8.
    """
    ys = np.linspace(0, len(grid.y) - 1, min(height, len(grid.y))).astype(int)
    xs = np.linspace(0, len(grid.x) - 1, min(width, len(grid.x))).astype(int)
    sub = grid.values[np.ix_(ys, xs)]
    lo, hi = np.nanmin(sub), np.nanmax(sub)
    span = (hi - lo) if hi > lo else 1.0
    lines = []
    for row in sub[::-1]:  # highest y on top, like a plot
        chars = []
        for v in row:
            level = int((v - lo) / span * (len(charset) - 1))
            chars.append(charset[level])
        lines.append("".join(chars))
    return "\n".join(lines)
