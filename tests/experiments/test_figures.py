"""Per-figure shape tests (reduced sizes; the benches run full scale).

Each test pins the *qualitative* result the paper reports for that
figure — who wins, by roughly what factor, where the peak sits — with
tolerance bands wide enough to be seed-robust at reduced sample sizes.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig2,
    fig3,
    fig4,
    fig6,
    fig8,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
)
from repro.experiments.runner import ExecutionPolicy, SuitePool


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.compute(n_points=41)

    def test_sic_beats_both_individuals(self, result):
        sic = result.series["C with SIC (bps)"]
        assert np.all(sic >= result.series["C1 alone (bps)"])
        assert np.all(sic >= result.series["C2 alone (bps)"])

    def test_closed_form_identity(self, result):
        assert np.allclose(result.series["C with SIC (bps)"],
                           result.series["closed form (bps)"], rtol=1e-9)

    def test_sic_capacity_monotone_in_snr1(self, result):
        sic = result.series["C with SIC (bps)"]
        assert np.all(np.diff(sic) > 0)

    def test_approaches_c1_at_high_snr1(self, result):
        # When S1 dominates, the SIC sum is barely above C1 alone.
        sic = result.series["C with SIC (bps)"][-1]
        c1 = result.series["C1 alone (bps)"][-1]
        assert sic / c1 < 1.01

    def test_region_area_advantage_at_least_one(self, result):
        advantage = result.series["region area advantage"]
        assert np.all(advantage >= 1.0 - 1e-9)


class TestFig3:
    @pytest.fixture(scope="class")
    def grid(self):
        return fig3.compute(n_points=41)

    def test_gain_at_least_one(self, grid):
        assert grid.min_value >= 1.0

    def test_gain_at_most_two(self, grid):
        assert grid.max_value <= 2.0

    def test_peak_at_small_similar_rss(self, grid):
        peak = grid.argmax()
        assert peak["SNR1 (dB)"] <= 5.0
        assert peak["SNR2 (dB)"] <= 5.0

    def test_symmetric_grid(self, grid):
        assert np.allclose(grid.values, grid.values.T, rtol=1e-9)

    def test_gain_not_high_in_general(self, grid):
        # "SIC capacity gains are not high in general": the median cell
        # sits well below the theoretical max of 2.
        assert np.median(grid.values) < 1.2


class TestFig4:
    @pytest.fixture(scope="class")
    def grid(self):
        return fig4.compute(n_points=81)

    def test_ridge_at_twice_the_db(self, grid):
        ratio = fig4.ridge_snr_ratio(grid)
        assert 1.7 < ratio < 2.3

    def test_peak_gain_below_two(self, grid):
        assert grid.max_value <= 2.0

    def test_peak_gain_substantial(self, grid):
        assert grid.max_value > 1.5

    def test_diagonal_loses_at_high_snr(self, grid):
        # Equal strong RSS: SIC loses outright (gain < 1), the dark
        # diagonal of the paper's figure.
        diagonal = np.diag(grid.values)
        assert diagonal[-1] < 1.0

    def test_symmetric_grid(self, grid):
        assert np.allclose(grid.values, grid.values.T, rtol=1e-9)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.compute(ranges_m=(10.0, 20.0, 40.0), n_samples=800,
                            seed=2010)

    def test_no_gain_in_about_90pct(self, result):
        for entry in result.values():
            assert entry["summary"]["frac_no_gain"] >= 0.85

    def test_gains_bounded_by_two(self, result):
        for entry in result.values():
            assert entry["summary"]["max"] <= 2.0

    def test_helper_extracts_fractions(self, result):
        fractions = fig6.fraction_no_gain(result)
        assert set(fractions) == {"range=10m", "range=20m", "range=40m"}

    def test_case_mix_reported(self, result):
        for entry in result.values():
            fractions = entry["case_fractions"]
            assert set(fractions) == {"a", "b", "c", "d", "feasible"}
            total = sum(fractions[c] for c in "abcd")
            assert total == pytest.approx(1.0)
            # Feasible topologies are a subset of the SIC-needing cases.
            assert fractions["feasible"] <= (fractions["b"]
                                             + fractions["c"]
                                             + fractions["d"] + 1e-9)

    def test_lower_exponent_lower_gains(self):
        high = fig6.compute(ranges_m=(20.0,), n_samples=600,
                            pathloss_exponent=4.0, seed=1)
        low = fig6.compute(ranges_m=(20.0,), n_samples=600,
                           pathloss_exponent=2.0, seed=1)
        (high_entry,) = high.values()
        (low_entry,) = low.values()
        assert low_entry["summary"]["frac_no_gain"] >= \
            high_entry["summary"]["frac_no_gain"]


class TestFig8:
    @pytest.fixture(scope="class")
    def grid(self):
        return fig8.compute(n_points=41)

    def test_very_little_benefit(self, grid):
        assert grid.max_value < 1.35

    def test_never_below_one(self, grid):
        assert grid.min_value >= 1.0

    def test_weaker_than_upload_everywhere(self, grid):
        upload = fig4.compute(n_points=41)
        assert np.all(grid.values <= np.maximum(upload.values, 1.0) + 1e-9)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.compute()

    @pytest.fixture(scope="class")
    def detuned(self):
        return fig10.compute(detuned=True)

    def test_serial_is_15_units(self, result):
        assert result.serial_units == pytest.approx(15.0, rel=1e-6)

    def test_adjacent_pairing_is_best(self, result):
        assert result.best_pairing == "(C1|C2, C3|C4)"

    def test_all_pairings_beat_serial(self, result):
        assert all(units < result.serial_units
                   for units in result.pairing_units.values())

    def test_scheduler_finds_the_best(self, result):
        best = min(min(result.pairing_units.values()),
                   result.power_control_units, result.multirate_units)
        assert result.scheduler_units <= best + 1e-9

    def test_detuned_power_control_strictly_helps(self, detuned):
        best_pairing = min(detuned.pairing_units.values())
        assert detuned.power_control_units < min(best_pairing,
                                                 detuned.serial_units)

    def test_detuned_multirate_beats_power_control(self, detuned):
        assert detuned.multirate_units <= detuned.power_control_units + 1e-9

    def test_rows_render(self, result):
        rows = result.rows()
        assert any("serial" in row for row in rows)
        assert any("best" in row for row in rows)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11.compute(n_samples=800, seed=2010)

    def test_one_receiver_techniques_beat_plain_sic(self, result):
        panel = result["one_receiver"]
        sic = panel["sic"]["summary"]["frac_gain_over_20pct"]
        for technique in ("power_control", "multirate"):
            boosted = panel[technique]["summary"]["frac_gain_over_20pct"]
            assert boosted > sic

    def test_two_receiver_sic_almost_no_gain(self, result):
        summary = result["two_receivers"]["sic"]["summary"]
        assert summary["frac_no_gain"] > 0.85

    def test_one_receiver_beats_two_receiver(self, result):
        one = result["one_receiver"]["sic"]["summary"]
        two = result["two_receivers"]["sic"]["summary"]
        assert one["frac_gain_over_10pct"] > two["frac_gain_over_10pct"]

    def test_gains_never_below_one(self, result):
        for panel in ("one_receiver", "two_receivers"):
            for entry in result[panel].values():
                assert entry["summary"]["min"] >= 1.0

    def test_headline_fractions_helper(self, result):
        fractions = fig11.headline_fractions(result)
        assert "one_receiver/sic" in fractions
        assert "two_receivers/packing" in fractions


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        # The defaults: exactly what `python -m repro.experiments all` runs.
        return fig12.compute()

    def test_blossom_equals_brute_force(self, result):
        small = [c for c in result["comparisons"] if c.n_clients <= 8]
        assert [c.n_clients for c in small] == [3, 5, 8]
        for comparison in small:
            assert comparison.mean_times["blossom"] == pytest.approx(
                comparison.mean_times["brute_force"], rel=1e-9)

    def test_brute_force_only_up_to_eight_clients(self, result):
        for comparison in result["comparisons"]:
            policies = ["blossom", "greedy", "random", "serial"]
            if comparison.n_clients <= 8:
                policies.append("brute_force")
            assert list(comparison.mean_times) == policies
            assert list(comparison.mean_gains) == policies

    def test_policy_ordering(self, result):
        for comparison in result["comparisons"]:
            times = comparison.mean_times
            assert times["blossom"] <= times["greedy"] + 1e-12
            assert times["greedy"] <= times["serial"] + 1e-12
            assert times["random"] <= times["serial"] + 1e-12

    def test_gain_grows_with_pool_size(self, result):
        gains = [c.mean_gains["blossom"] for c in result["comparisons"]]
        assert gains[-1] > gains[0]

    def test_result_holds_no_wall_clock(self, result):
        assert list(result) == ["comparisons"]

    @pytest.fixture(scope="class")
    def runtime(self):
        return fig12.runtime_scaling()

    def test_runtime_reported_for_all_sizes(self, runtime):
        assert set(runtime) == {4, 8, 16, 32, 64}

    def test_runtime_carries_phase_split(self, runtime):
        for entry in runtime.values():
            assert set(entry) == {"total_s", "cost_build_s",
                                  "matching_s", "assembly_s"}
            assert all(v >= 0.0 for v in entry.values())
            phase_sum = sum(v for k, v in entry.items() if k != "total_s")
            assert phase_sum <= entry["total_s"]

    @pytest.mark.parametrize("kwargs, message", [
        ({"sizes": (0,)}, "sizes must be >= 1, got 0"),
        ({"sizes": (3, -2)}, "sizes must be >= 1, got -2"),
        ({"sizes": (3,), "n_trials": 0}, "n_trials must be >= 1, got 0"),
    ])
    def test_rejects_bad_inputs(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fig12.compute(**kwargs)

    def test_bad_inputs_rejected_before_any_chunk_runs(self):
        # Raised inside a pooled chunk, the error would be retried and
        # then surface as a transient ChunkExecutionError.
        with SuitePool(1) as pool:
            with pytest.raises(ValueError, match="got 0"):
                fig12.compute(sizes=(3, 0), n_trials=1,
                              policy=ExecutionPolicy(pool=pool))
            assert pool.stats()["tasks_done"] == 0

    def test_generator_seed_draws_one_stream_in_order(self):
        # Every size draws from the caller's one generator, so a pooled
        # call must not fork the stream into per-worker copies.  Values
        # recorded before fig12 ran on the supervised runner.
        kwargs = {"sizes": (3, 5), "n_trials": 2}
        direct = fig12.compute(seed=np.random.default_rng(5), **kwargs)
        with SuitePool(2) as pool:
            pooled = fig12.compute(seed=np.random.default_rng(5),
                                   policy=ExecutionPolicy(pool=pool),
                                   **kwargs)
            assert pool.stats()["tasks_done"] == 0
        assert pooled["comparisons"] == direct["comparisons"]
        small, large = direct["comparisons"]
        assert small.mean_times["blossom"] == 0.0002590936644520132
        assert large.mean_times == {
            "blossom": 0.00044441433590727505,
            "greedy": 0.00044441433590727505,
            "random": 0.0005212604077011835,
            "serial": 0.0005899889978795544,
            "brute_force": 0.00044441433590727505,
        }


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.traces.synthetic import UploadTraceConfig
        return fig13.compute(
            trace_config=UploadTraceConfig(duration_days=1.0),
            seed=2010, max_snapshots=80)

    def test_all_curves_present(self, result):
        assert set(result) == {"pairing", "pairing+power_control",
                               "pairing+multirate", "meta"}

    def test_trends_match_fig11a(self, result):
        # Power control / multirate enhance the pairing gains.
        base = result["pairing"]["summary"]["frac_gain_over_10pct"]
        for label in ("pairing+power_control", "pairing+multirate"):
            assert result[label]["summary"]["frac_gain_over_10pct"] >= base

    def test_real_life_pairing_gains_exist(self, result):
        assert result["pairing+power_control"]["summary"]["median"] > 1.0

    def test_gains_never_below_one(self, result):
        for label, entry in result.items():
            if label == "meta":
                continue
            assert entry["summary"]["min"] >= 1.0 - 1e-12

    def test_meta_counts(self, result):
        assert result["meta"]["n_snapshots"] == 80


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14.compute(n_scenarios=600, seed=2010)

    def test_all_panels_present(self, result):
        assert set(result) == {"arbitrary", "arbitrary+packing",
                               "discrete", "discrete+packing", "meta"}

    def test_packing_improves_both_panels(self, result):
        for base in ("arbitrary", "discrete"):
            plain = result[base]["summary"]["frac_gain_over_20pct"]
            packed = result[f"{base}+packing"]["summary"][
                "frac_gain_over_20pct"]
            assert packed >= plain

    def test_plain_sic_gains_limited(self, result):
        # Fig. 14a's message: without packing the gains are small.
        assert result["arbitrary"]["summary"]["frac_no_gain"] > 0.6
        assert result["discrete"]["summary"]["frac_no_gain"] > 0.6

    def test_discrete_packing_reaches_real_gains(self, result):
        summary = result["discrete+packing"]["summary"]
        assert summary["frac_gain_over_20pct"] > 0.1

    def test_gains_never_below_one(self, result):
        for label, entry in result.items():
            if label == "meta":
                continue
            assert entry["summary"]["min"] >= 1.0
