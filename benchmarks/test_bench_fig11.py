"""Bench: Fig. 11 — technique CDFs for both topology classes."""

from conftest import emit, run_once

from repro.experiments import fig11

N_SAMPLES = 10_000


def test_fig11_technique_cdfs(benchmark):
    result = run_once(benchmark, fig11.compute, n_samples=N_SAMPLES,
                      seed=2010)

    one = result["one_receiver"]
    two = result["two_receivers"]

    # Paper: one-receiver SIC alone is modest; power control /
    # multirate / packing lift the >20 %-gain fraction substantially;
    # two-receiver cases see almost nothing even with packing.
    sic_frac = one["sic"]["summary"]["frac_gain_over_20pct"]
    boosted = max(one[t]["summary"]["frac_gain_over_20pct"]
                  for t in ("power_control", "multirate", "packing"))
    assert boosted >= 0.20
    assert boosted >= 2.0 * sic_frac
    assert two["sic"]["summary"]["frac_no_gain"] > 0.9
    assert two["packing"]["summary"]["frac_gain_over_20pct"] <= 0.25

    lines = [f"Fig. 11 — gain CDF summaries ({N_SAMPLES} draws)"]
    for panel_name, panel in (("(a) two tx -> one rx", one),
                              ("(b) two tx -> two rx", two)):
        lines.append(panel_name)
        for technique, entry in panel.items():
            s = entry["summary"]
            lines.append(
                f"  {technique:>14}: no-gain {s['frac_no_gain']:.1%}, "
                f">20% gain {s['frac_gain_over_20pct']:.1%}, "
                f"median {s['median']:.3f}, max {s['max']:.3f}")
    emit(lines)
