"""RPR4xx — frozen-reference / fast-path parity rules.

Three layers: the drift fixture pins RPR401/403/405 codes and lines,
the index tests pin pair discovery on synthetic trees *and* on the real
``src/repro`` tree (every shipped pair must be found), and the manifest
tests pin the freeze / check / re-freeze lifecycle of RPR402 plus the
golden-test requirement of RPR404.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.index import (
    ProjectIndex,
    discover_parity_pairs,
    frozen_digest,
    parity_def_of,
)
from repro.lint.manifest import ManifestError, load_manifest, save_manifest
from repro.lint.runner import collect_frozen_digests, parse_contexts

from tests.lint.conftest import FIXTURES, expected_markers, lint_found

SRC = Path(__file__).parents[2] / "src" / "repro"
MANIFEST = SRC / "lint" / "frozen_manifest.json"

#: Every frozen reference shipped in ``src/repro`` — the acceptance
#: criterion: the parity index must discover each of these pairs.
SHIPPED_SCALAR_KEYS = {
    "repro.architectures.ewlan::evaluate_ewlan_cross_pairs_scalar",
    "repro.architectures.mesh::sweep_chain_geometries_scalar",
    "repro.architectures.residential::evaluate_residential_rows_scalar",
    "repro.experiments.fig13::compute_scalar",
    "repro.experiments.fig14::compute_scalar",
    "repro.experiments.fig7::compute_scalar",
    "repro.experiments.montecarlo::one_receiver_technique_gains_scalar",
    "repro.experiments.montecarlo::two_receiver_scenarios_scalar",
    "repro.experiments.montecarlo::two_receiver_technique_gains_scalar",
    "repro.scheduling.matching_scalar::max_weight_matching_scalar",
    "repro.scheduling.matching_scalar::min_weight_perfect_matching_scalar",
    "repro.scheduling.scheduler::SicScheduler.build_cost_graph_scalar",
    "repro.scheduling.scheduler::SicScheduler.schedule_scalar",
    "repro.traces.downlink::DownlinkTraceGenerator.generate_scalar",
    "repro.traces.synthetic::UploadTraceGenerator.generate_scalar",
}

#: A minimal fast/frozen pair used by the manifest lifecycle tests.
PAIR_SOURCE = '''\
def gain_scalar(x, n):
    """Frozen reference."""
    total = 0.0
    for k in range(n):
        total += x * k
    return total


def gain(x, n):
    return x * n * (n - 1) / 2.0
'''


def _build_index(paths, **kwargs):
    contexts, errors = parse_contexts(paths)
    assert not errors, [e.format_text() for e in errors]
    return ProjectIndex.build(
        ((ctx.module, ctx.tree) for ctx in contexts), **kwargs
    )


class TestParityDriftFixture:
    def test_exact_codes_and_lines(self):
        path = FIXTURES / "parity_drift.py"
        assert lint_found(path, select=["RPR4"]) == expected_markers(path)

    def test_markers_cover_the_self_contained_codes(self):
        codes = {
            code
            for code, _ in expected_markers(FIXTURES / "parity_drift.py")
        }
        assert codes == {"RPR401", "RPR403", "RPR405"}

    def test_sorted_iteration_never_flags(self, tmp_path):
        target = tmp_path / "sorted_ok.py"
        target.write_text(
            "def tally(pairs: set, costs):\n"
            "    total = 0.0\n"
            "    for pair in sorted(pairs):\n"
            "        total += costs[pair]\n"
            "    return total\n"
        )
        assert lint_found(target, select=["RPR405"]) == set()


class TestParityPairDiscovery:
    def test_same_module_method_pairs(self):
        tree = ast.parse(
            "class Gen:\n"
            "    def generate(self, seed):\n"
            "        return 1\n"
            "    def generate_scalar(self, seed):\n"
            "        return 1\n"
        )
        defs = [
            parity_def_of(node, "mod", "Gen")
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        ]
        pairs = discover_parity_pairs(defs)
        assert len(pairs) == 1
        assert pairs[0].fast.qualname == "Gen.generate"
        assert pairs[0].scalar.qualname == "Gen.generate_scalar"

    def test_cross_module_top_level_pair(self):
        fast = parity_def_of(
            ast.parse("def solve(a):\n    return a\n").body[0], "pkg.solve", ""
        )
        scalar = parity_def_of(
            ast.parse("def solve_scalar(a):\n    return a\n").body[0],
            "pkg.solve_ref",
            "",
        )
        pairs = discover_parity_pairs([fast, scalar])
        assert len(pairs) == 1
        assert pairs[0].fast.module == "pkg.solve"
        assert pairs[0].scalar.module == "pkg.solve_ref"

    def test_ambiguous_cross_module_pair_is_dropped(self):
        # Two candidate fast paths in different modules: matching either
        # would be a guess, so the scalar def pairs with neither.
        defs = [
            parity_def_of(
                ast.parse("def solve(a):\n    return a\n").body[0], "m1", ""
            ),
            parity_def_of(
                ast.parse("def solve(a):\n    return a\n").body[0], "m2", ""
            ),
            parity_def_of(
                ast.parse("def solve_scalar(a):\n    return a\n").body[0],
                "m3",
                "",
            ),
        ]
        assert discover_parity_pairs(defs) == ()

    def test_real_tree_discovers_every_shipped_pair(self):
        index = _build_index([SRC])
        scalar_keys = {pair.scalar.key for pair in index.parity_pairs}
        assert scalar_keys == SHIPPED_SCALAR_KEYS


class TestFrozenDigest:
    def _digest_of(self, source):
        return frozen_digest(ast.parse(source).body[0])

    def test_comments_whitespace_docstrings_do_not_move_the_digest(self):
        base = self._digest_of(
            "def f_scalar(x):\n    return x + 1\n"
        )
        cosmetic = self._digest_of(
            "def f_scalar(x):\n"
            '    """Docstring added later."""\n'
            "    # a comment\n"
            "    return x + 1\n"
        )
        assert base == cosmetic

    def test_any_code_token_moves_the_digest(self):
        base = self._digest_of("def f_scalar(x):\n    return x + 1\n")
        for mutated in (
            "def f_scalar(x):\n    return x + 2\n",
            "def f_scalar(x):\n    return x - 1\n",
            "def f_scalar(y):\n    return y + 1\n",
        ):
            assert self._digest_of(mutated) != base


class TestFrozenManifest:
    def _freeze(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(PAIR_SOURCE)
        manifest = tmp_path / "frozen.json"
        save_manifest(manifest, collect_frozen_digests([mod]))
        return mod, manifest

    def test_round_trip_is_clean_on_untouched_tree(self, tmp_path):
        mod, manifest = self._freeze(tmp_path)
        result = lint_paths(
            [mod], select=["RPR402"], manifest=manifest, check_frozen=True
        )
        assert result.clean

    def test_cosmetic_edit_stays_clean(self, tmp_path):
        mod, manifest = self._freeze(tmp_path)
        mod.write_text(
            PAIR_SOURCE.replace(
                '"""Frozen reference."""',
                '"""Frozen reference (reworded docstring)."""\n'
                "    # clarifying comment",
            )
        )
        result = lint_paths(
            [mod], select=["RPR402"], manifest=manifest, check_frozen=True
        )
        assert result.clean

    def test_one_token_mutation_names_function_and_digests(self, tmp_path):
        mod, manifest = self._freeze(tmp_path)
        mod.write_text(PAIR_SOURCE.replace("total += x * k", "total += x + k"))
        result = lint_paths(
            [mod], select=["RPR402"], manifest=manifest, check_frozen=True
        )
        assert [v.code for v in result.violations] == ["RPR402"]
        message = result.violations[0].message
        assert "gain_scalar" in message and "drifted" in message
        old = load_manifest(manifest)["mod::gain_scalar"]
        assert old[:12] in message  # the manifest digest is quoted

    def test_unregistered_scalar_is_flagged(self, tmp_path):
        mod, manifest = self._freeze(tmp_path)
        mod.write_text(
            PAIR_SOURCE + "\n\ndef extra_scalar(v):\n    return v\n"
        )
        result = lint_paths(
            [mod], select=["RPR402"], manifest=manifest, check_frozen=True
        )
        assert [v.code for v in result.violations] == ["RPR402"]
        assert "extra_scalar" in result.violations[0].message
        assert "--update-frozen" in result.violations[0].message

    def test_stale_manifest_entry_is_flagged_at_the_manifest(self, tmp_path):
        mod, manifest = self._freeze(tmp_path)
        mod.write_text("def gain(x, n):\n    return x * n\n")
        result = lint_paths(
            [mod], select=["RPR402"], manifest=manifest, check_frozen=True
        )
        assert [v.code for v in result.violations] == ["RPR402"]
        assert result.violations[0].path == str(manifest)
        assert "mod::gain_scalar" in result.violations[0].message

    def test_stale_entries_need_check_frozen(self, tmp_path):
        # Without --check-frozen the reverse reconciliation stays off:
        # partial-tree lints must not fail on out-of-tree references.
        mod, manifest = self._freeze(tmp_path)
        mod.write_text("def gain(x, n):\n    return x * n\n")
        result = lint_paths([mod], select=["RPR402"], manifest=manifest)
        assert result.clean

    def test_missing_manifest_fails_closed_under_check_frozen(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(PAIR_SOURCE)
        result = lint_paths(
            [mod],
            select=["RPR402"],
            manifest=tmp_path / "absent.json",
            check_frozen=True,
        )
        assert result.exit_code() == 2
        assert "--update-frozen" in result.errors[0].message

    def test_deliberate_refreeze_recovers(self, tmp_path):
        mod, manifest = self._freeze(tmp_path)
        mod.write_text(PAIR_SOURCE.replace("total += x * k", "total += x + k"))
        save_manifest(manifest, collect_frozen_digests([mod]))
        result = lint_paths(
            [mod], select=["RPR402"], manifest=manifest, check_frozen=True
        )
        assert result.clean

    def test_malformed_manifest_raises(self, tmp_path):
        manifest = tmp_path / "frozen.json"
        manifest.write_text('{"version": 99, "frozen": {}}')
        with pytest.raises(ManifestError):
            load_manifest(manifest)

    def test_committed_manifest_matches_the_shipped_tree(self):
        assert load_manifest(MANIFEST) == collect_frozen_digests([SRC])


class TestMissingGoldenTest:
    def _tree(self, tmp_path, test_body):
        mod = tmp_path / "mod.py"
        mod.write_text(PAIR_SOURCE)
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text(test_body)
        return mod, tests

    def test_unreferenced_frozen_twin_is_flagged(self, tmp_path):
        mod, tests = self._tree(
            tmp_path, "def test_nothing():\n    assert True\n"
        )
        result = lint_paths([mod], select=["RPR404"], tests_dir=tests)
        assert [v.code for v in result.violations] == ["RPR404"]
        assert "gain_scalar" in result.violations[0].message

    def test_golden_test_reference_satisfies(self, tmp_path):
        mod, tests = self._tree(
            tmp_path,
            "from mod import gain, gain_scalar\n"
            "\n"
            "def test_golden():\n"
            "    assert gain(2.0, 5) == gain_scalar(2.0, 5)\n",
        )
        result = lint_paths([mod], select=["RPR404"], tests_dir=tests)
        assert result.clean

    def test_rule_stays_dark_without_a_test_tree(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(PAIR_SOURCE)
        result = lint_paths([mod], select=["RPR404"])
        assert result.clean
