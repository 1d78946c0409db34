"""Golden parity: batched architecture sweeps vs frozen scalar refs.

The fast paths must reproduce the frozen ``*_scalar`` references bit
for bit — same RNG stream, same floating-point association — for any
seed, chunk size and pool.  Dataclass equality compares every
field exactly (no tolerances anywhere in this file).
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.architectures.ewlan import (
    evaluate_ewlan_cross_pairs,
    evaluate_ewlan_cross_pairs_scalar,
)
from repro.architectures.mesh import (
    sweep_chain_geometries,
    sweep_chain_geometries_scalar,
)
from repro.architectures.residential import (
    evaluate_residential_rows,
    evaluate_residential_rows_scalar,
)
from repro.phy.pathloss import FreeSpace, LogDistancePathLoss
from repro.phy.shannon import Channel
from repro.sic.scenarios import CASE_ORDER
from repro.util.cache import ResultCache
from tests.conftest import run_pooled

#: Timing-free runs must not leak results between parametrisations.
NO_CACHE = ResultCache(None)


@dataclass(frozen=True)
class _ShadowedFreeSpace(FreeSpace):
    """A shadowed model whose fading the batched sweeps do not replay."""

    shadowing_sigma_db: float = 6.0


def assert_rejected_before_any_draw(sweep, **kwargs):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError,
                       match="shadowed _ShadowedFreeSpace is not supported"):
        sweep(propagation=_ShadowedFreeSpace(), seed=rng, cache=NO_CACHE,
              **kwargs)
    assert rng.bit_generator.state == state


def assert_reports_identical(fast, scalar):
    assert fast == scalar
    # Dict equality ignores ordering; the batched reports additionally
    # promise deterministic Fig. 5 letter order.
    assert list(fast.case_fractions) == [case for case in CASE_ORDER
                                         if case in fast.case_fractions]


class TestEwlanGolden:
    @pytest.mark.parametrize("seed", [0, 7, 2010, 123456])
    def test_bit_identical_default_model(self, seed):
        fast = evaluate_ewlan_cross_pairs(n_grids=12, seed=seed,
                                          cache=NO_CACHE)
        scalar = evaluate_ewlan_cross_pairs_scalar(n_grids=12, seed=seed)
        assert_reports_identical(fast, scalar)

    def test_bit_identical_under_shadowing(self):
        shadowed = LogDistancePathLoss(exponent=3.5,
                                       shadowing_sigma_db=6.0)
        fast = evaluate_ewlan_cross_pairs(n_grids=10, propagation=shadowed,
                                          seed=3, cache=NO_CACHE)
        scalar = evaluate_ewlan_cross_pairs_scalar(
            n_grids=10, propagation=shadowed, seed=3)
        assert_reports_identical(fast, scalar)

    def test_bit_identical_off_default_geometry(self):
        fast = evaluate_ewlan_cross_pairs(
            n_grids=6, ap_rows=3, ap_cols=2, ap_spacing_m=25.0,
            clients_per_ap=3, seed=11, cache=NO_CACHE)
        scalar = evaluate_ewlan_cross_pairs_scalar(
            n_grids=6, ap_rows=3, ap_cols=2, ap_spacing_m=25.0,
            clients_per_ap=3, seed=11)
        assert_reports_identical(fast, scalar)

    @pytest.mark.parametrize("chunk_size", [1, 3, 7])
    def test_chunking_invariant(self, chunk_size):
        base = evaluate_ewlan_cross_pairs(n_grids=12, seed=5,
                                          cache=NO_CACHE)
        chunked = evaluate_ewlan_cross_pairs(n_grids=12, seed=5,
                                             chunk_size=chunk_size,
                                             cache=NO_CACHE)
        assert chunked == base

    def test_worker_count_invariant(self):
        base = evaluate_ewlan_cross_pairs(n_grids=12, seed=5,
                                          cache=NO_CACHE)
        # Small chunks, so the pairs span several pool tasks.
        parallel = run_pooled(2, evaluate_ewlan_cross_pairs, n_grids=12,
                              seed=5, chunk_size=3, cache=NO_CACHE)
        assert parallel == base

    def test_rows_are_deterministically_ordered(self):
        report = evaluate_ewlan_cross_pairs(n_grids=12, seed=5,
                                            cache=NO_CACHE)
        labels = [label for label, _ in report.rows()]
        case_labels = [lbl for lbl in labels if lbl.startswith("case_")]
        assert case_labels == sorted(case_labels)
        assert labels[:len(case_labels)] == case_labels
        assert labels[-2:] == ["sic_feasible", "mean_gain"]

    def test_validation_matches_scalar(self):
        with pytest.raises(ValueError, match="at least one grid"):
            evaluate_ewlan_cross_pairs(n_grids=0)
        with pytest.raises(ValueError, match="at least one grid"):
            evaluate_ewlan_cross_pairs_scalar(n_grids=0)

    def test_rejects_unreplayed_shadowed_model(self):
        assert_rejected_before_any_draw(evaluate_ewlan_cross_pairs,
                                        n_grids=4)


class TestResidentialGolden:
    @pytest.mark.parametrize("seed", [1, 42, 2010])
    def test_bit_identical_default_model(self, seed):
        fast = evaluate_residential_rows(n_rows=15, seed=seed,
                                         cache=NO_CACHE)
        scalar = evaluate_residential_rows_scalar(n_rows=15, seed=seed)
        assert_reports_identical(fast, scalar)

    def test_bit_identical_without_shadowing(self):
        clean = LogDistancePathLoss(exponent=3.5)
        fast = evaluate_residential_rows(n_rows=15, propagation=clean,
                                         seed=8, cache=NO_CACHE)
        scalar = evaluate_residential_rows_scalar(n_rows=15,
                                                  propagation=clean,
                                                  seed=8)
        assert_reports_identical(fast, scalar)

    def test_bit_identical_off_default_geometry(self):
        fast = evaluate_residential_rows(
            n_rows=10, n_homes=6, home_width_m=8.0, clients_per_home=3,
            seed=17, cache=NO_CACHE)
        scalar = evaluate_residential_rows_scalar(
            n_rows=10, n_homes=6, home_width_m=8.0, clients_per_home=3,
            seed=17)
        assert_reports_identical(fast, scalar)

    @pytest.mark.parametrize("chunk_size", [1, 5])
    def test_chunking_invariant(self, chunk_size):
        base = evaluate_residential_rows(n_rows=15, seed=9,
                                         cache=NO_CACHE)
        chunked = evaluate_residential_rows(n_rows=15, seed=9,
                                            chunk_size=chunk_size,
                                            cache=NO_CACHE)
        assert chunked == base

    def test_worker_count_invariant(self):
        base = evaluate_residential_rows(n_rows=15, seed=9,
                                         cache=NO_CACHE)
        parallel = run_pooled(2, evaluate_residential_rows, n_rows=15,
                              seed=9, chunk_size=5, cache=NO_CACHE)
        assert parallel == base

    def test_no_clients_matches_scalar_error(self):
        with pytest.raises(RuntimeError, match="no cross-home pairs"):
            evaluate_residential_rows(n_rows=3, clients_per_home=0,
                                      seed=1)
        with pytest.raises(RuntimeError, match="no cross-home pairs"):
            evaluate_residential_rows_scalar(n_rows=3, clients_per_home=0,
                                             seed=1)

    def test_rejects_unreplayed_shadowed_model(self):
        assert_rejected_before_any_draw(evaluate_residential_rows, n_rows=4)


class TestMeshGolden:
    def test_bit_identical_default_grid(self):
        channel = Channel()
        assert sweep_chain_geometries(channel) == \
            sweep_chain_geometries_scalar(channel)

    def test_bit_identical_custom_grid(self):
        channel = Channel()
        long_hops = (15.0, 35.0, 55.0, 75.0, 95.0)
        short_hops = tuple(np.linspace(1.5, 18.0, 7).tolist())
        fast = sweep_chain_geometries(channel, long_hops, short_hops)
        scalar = sweep_chain_geometries_scalar(channel, long_hops,
                                               short_hops)
        assert fast == scalar

    def test_empty_grid(self):
        assert sweep_chain_geometries(Channel(), (), ()) == []

    def test_validation_matches_scalar(self):
        channel = Channel()
        with pytest.raises(ValueError):
            sweep_chain_geometries(channel, (20.0,), (-1.0,))
        with pytest.raises(ValueError):
            sweep_chain_geometries_scalar(channel, (20.0,), (-1.0,))
        # Positive but below the minimum link distance: mesh_chain's
        # range check, replicated by the batched sweep.
        with pytest.raises(ValueError):
            sweep_chain_geometries(channel, (20.0,), (0.5,))
        with pytest.raises(ValueError):
            sweep_chain_geometries_scalar(channel, (20.0,), (0.5,))

    def test_shadowed_model_raises_like_scalar(self):
        # Neither sweep passes an rng, so shadowing cannot be drawn.
        shadowed = LogDistancePathLoss(exponent=3.5, shadowing_sigma_db=6.0)
        with pytest.raises(ValueError, match="requires an rng"):
            sweep_chain_geometries(Channel(), propagation=shadowed)
        with pytest.raises(ValueError, match="requires an rng"):
            sweep_chain_geometries_scalar(Channel(), propagation=shadowed)
