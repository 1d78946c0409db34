"""Fig. 7 experiment-module tests (reduced sizes)."""

import pytest

from repro.experiments import fig7
from repro.util.timing import PhaseTimer
from tests.conftest import run_pooled


@pytest.fixture(scope="module")
def result():
    return fig7.compute(n_ewlan_grids=30, n_residential_rows=100,
                        seed=2010)


class TestFig7Compute:
    def test_keys(self, result):
        assert set(result) == {"ewlan", "residential", "mesh",
                               "mesh_frontier"}

    def test_ewlan_capture_dominates(self, result):
        assert result["ewlan"].capture_fraction > 0.85

    def test_residential_beats_ewlan_on_opportunities(self, result):
        assert result["residential"].sic_feasible_fraction >= \
            result["ewlan"].sic_feasible_fraction

    def test_mesh_has_both_outcomes(self, result):
        feasible = [a.sic_feasible for a in result["mesh"]]
        assert any(feasible) and not all(feasible)

    def test_deterministic(self):
        a = fig7.compute(n_ewlan_grids=5, n_residential_rows=10, seed=4)
        b = fig7.compute(n_ewlan_grids=5, n_residential_rows=10, seed=4)
        assert a["ewlan"] == b["ewlan"]
        assert a["residential"] == b["residential"]

    def test_bit_identical_to_frozen_scalar_pipeline(self):
        fast = fig7.compute(n_ewlan_grids=8, n_residential_rows=12,
                            seed=2010)
        scalar = fig7.compute_scalar(n_ewlan_grids=8,
                                     n_residential_rows=12, seed=2010)
        assert fast["ewlan"] == scalar["ewlan"]
        assert fast["residential"] == scalar["residential"]
        assert fast["mesh"] == scalar["mesh"]
        assert fast["mesh_frontier"] == scalar["mesh_frontier"]

    def test_timer_charges_one_phase_per_study(self):
        timer = PhaseTimer()
        fig7.compute(n_ewlan_grids=5, n_residential_rows=10, seed=4,
                     timer=timer)
        assert list(timer.phases) == ["ewlan", "residential", "mesh"]
        assert [timer.count(phase) for phase in timer.phases] == [1, 1, 1]

    def test_supervised_knobs_do_not_change_results(self):
        from repro.util.cache import ResultCache
        base = fig7.compute(n_ewlan_grids=8, n_residential_rows=12,
                            seed=3, cache=ResultCache(None))
        tuned = run_pooled(2, fig7.compute, n_ewlan_grids=8,
                           n_residential_rows=12, seed=3, chunk_size=5,
                           cache=ResultCache(None))
        assert tuned["ewlan"] == base["ewlan"]
        assert tuned["residential"] == base["residential"]


class TestFig7Render:
    def test_renders_all_panels(self, result):
        lines = fig7.render(result)
        text = "\n".join(lines)
        assert "7a enterprise" in text
        assert "7b residential" in text
        assert "7c mesh" in text
        assert "frontier" in text
