"""Bench: Fig. 6 — Monte-Carlo CDF, two pairs to different receivers."""

from conftest import emit, run_once

from repro.experiments import fig6

N_SAMPLES = 10_000


def test_fig6_monte_carlo(benchmark):
    result = run_once(benchmark, fig6.compute,
                      ranges_m=(10.0, 20.0, 40.0), n_samples=N_SAMPLES,
                      seed=2010)

    # Paper headline: "no gain from SIC in 90 % of the cases".
    for label, entry in result.items():
        assert entry["summary"]["frac_no_gain"] >= 0.85, label
        assert entry["summary"]["max"] <= 2.0

    lines = [f"Fig. 6 — two transmitters to different receivers "
             f"({N_SAMPLES} draws per range, alpha = 4)"]
    for label, entry in result.items():
        s = entry["summary"]
        lines.append(
            f"  {label:>12}: no-gain {s['frac_no_gain']:.1%} "
            f"(paper ~90%), >10% gain {s['frac_gain_over_10pct']:.1%}, "
            f">20% gain {s['frac_gain_over_20pct']:.1%}, "
            f"max {s['max']:.3f}")
    emit(lines)
