"""CLI tests for ``python -m repro.experiments``."""

import inspect

import pytest

from repro.experiments.__main__ import _kwargs_for, build_parser, main
from repro.experiments.registry import (
    REGISTRY,
    ordered_figures,
    run_experiment,
)
from repro.experiments.runner import SuitePool


class TestRegistry:
    def test_all_paper_figures_registered(self):
        assert set(REGISTRY) == {"fig2", "fig3", "fig4", "fig6", "fig7",
                                 "fig8", "fig10", "fig11", "fig12",
                                 "fig13", "fig14"}

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError, match="unknown figure"):
            run_experiment("fig99")

    def test_run_experiment_renders_rows(self):
        run = run_experiment("fig4", n_points=21)
        assert run.figure == "fig4"
        assert run.lines[0].startswith("== fig4")
        assert len(run.lines) > 3
        assert run.result is not None

    def test_figures_order_numerically(self):
        assert ordered_figures() == [
            "fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
            "fig10", "fig11", "fig12", "fig13", "fig14"]


@pytest.fixture
def pools_opened(monkeypatch):
    """Counts every ``SuitePool`` the code under test opens."""
    opened = []
    original = SuitePool.__init__

    def counting_init(self, *args, **kwargs):
        opened.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SuitePool, "__init__", counting_init)
    return opened


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "fig13" in out

    def test_single_figure_quick(self, capsys):
        assert main(["fig10", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out

    def test_grid_figure_quick(self, capsys):
        assert main(["fig3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig3-capacity-gain" in out

    def test_monte_carlo_figure_with_samples(self, capsys):
        assert main(["fig6", "--quick", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "range=" in out

    def test_unknown_figure_fails(self, capsys):
        assert main(["fig99"]) == 2

    def test_list_in_paper_order(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert 0 < out.index("fig2:") < out.index("fig10:")

    def test_samples_scales_fig7_and_fig13(self):
        args = build_parser().parse_args(["all", "--samples", "7"])
        fig7_kwargs = _kwargs_for("fig7", args)
        assert fig7_kwargs["n_ewlan_grids"] == 7
        assert fig7_kwargs["n_residential_rows"] == 21
        assert _kwargs_for("fig13", args)["max_snapshots"] == 7

    @pytest.mark.parametrize("figure", list(REGISTRY))
    def test_seed_reaches_every_seeded_figure(self, figure):
        args = build_parser().parse_args(
            ["all", "--seed", "7", "--chunk-size", "10"])
        kwargs = _kwargs_for(figure, args)
        experiment = REGISTRY[figure]
        takes = inspect.signature(experiment.compute).parameters
        assert kwargs.get("seed") == (7 if "seed" in takes else None)
        # --chunk-size still reaches only the supervised figures.
        assert ("chunk_size" in kwargs) == ("chunk_size" in takes)
        # The entry's declarations match what compute() takes.
        assert experiment.pooled == ("seed" in takes and "policy" in takes)
        assert (experiment.samples is not None) == ("chunk_size" in takes)
        scaled = experiment.samples(7) if experiment.samples else {}
        assert set(experiment.quick) | set(scaled) <= set(takes)

    def test_fig12_runs_at_the_given_seed(self, capsys):
        assert main(["fig12", "--quick", "--seed", "7"]) == 0
        direct = run_experiment("fig12", sizes=(3, 5, 8), n_trials=5,
                                seed=7)
        assert capsys.readouterr().out.splitlines()[:-1] == direct.lines
        assert "blossom 1.216x" in direct.lines[1]

    def test_samples_note_for_inapplicable_figures(self, capsys):
        assert main(["fig3", "--quick", "--samples", "50"]) == 0
        err = capsys.readouterr().err
        assert "--samples does not apply" in err
        assert "fig3" in err

    def test_samples_no_note_when_applicable(self, capsys):
        assert main(["fig6", "--quick", "--samples", "50"]) == 0
        assert "--samples" not in capsys.readouterr().err

    def test_claims_quick(self, capsys):
        assert main(["claims", "--quick", "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "C3_two_receiver_frac_no_gain" in out

    @pytest.mark.parametrize("argv", [
        ["fig13", "--quick", "--workers", "0"],
        ["fig13", "--quick", "--workers", "-1"],
        ["all", "--quick", "--workers", "0"],
        ["fig6", "--quick", "--chunk-size", "0"],
        ["fig6", "--quick", "--samples", "0"],
        ["fig13", "--quick", "--samples", "-1"],
        ["claims", "--samples", "0"],
    ], ids=" ".join)
    def test_counts_below_one_are_usage_errors(self, argv, capsys,
                                               pools_opened):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert pools_opened == []

    @pytest.mark.parametrize("figure,chunk_size", [("fig6", "100"),
                                                   ("fig13", "10")])
    def test_workers_open_one_pool_and_keep_the_output(
            self, figure, chunk_size, tmp_path, capsys, pools_opened):
        argv = [figure, "--quick", "--chunk-size", chunk_size, "--json"]
        assert main(argv + [str(tmp_path / "inline.json")]) == 0
        assert pools_opened == []
        assert main(argv + [str(tmp_path / "pooled.json"),
                            "--workers", "2"]) == 0
        assert len(pools_opened) == 1
        assert pools_opened[0].workers == 2
        assert (tmp_path / "pooled.json").read_bytes() \
            == (tmp_path / "inline.json").read_bytes()
        assert "== suite:" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv,flags", [
        pytest.param(argv, flags, id=" ".join(argv + flags))
        for argv, flags in [
            (["claims", "--quick", "--samples", "100"],
             ["--workers", "2", "--chunk-size", "10"]),
            (["fig3", "--quick"], ["--workers", "2"]),
            (["fig3", "--quick"], ["--chunk-size", "10"]),
        ]])
    def test_inapplicable_flags_are_noted_and_open_no_pool(
            self, argv, flags, capsys, pools_opened):
        ignored_by = argv[0]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + flags) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        for flag in flags[::2]:
            assert f"note: {flag} does not apply to {ignored_by}" \
                in captured.err
        assert pools_opened == []
