"""Blossom matching tests: brute-force and networkx oracles.

The matching is the load-bearing substrate of the scheduler, so it gets
the heaviest verification in the suite: exact comparison against an
exhaustive oracle on small random graphs (including hypothesis-driven
cases), against networkx on larger ones, and an LP-duality-style
optimality certificate for the perfect-matching wrapper.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.matching import (
    matching_cost,
    max_weight_matching,
    min_weight_perfect_matching,
)
from repro.scheduling.matching_scalar import (
    max_weight_matching_scalar,
    min_weight_perfect_matching_scalar,
)

networkx = pytest.importorskip("networkx")


def brute_force_max_weight(edges, n, maxcardinality):
    """Exhaustive maximum-weight matching value: (cardinality, weight)."""
    best = None
    for r in range(0, n // 2 + 1):
        for combo in itertools.combinations(range(len(edges)), r):
            used = set()
            weight = 0
            ok = True
            for k in combo:
                i, j, w = edges[k]
                if i in used or j in used:
                    ok = False
                    break
                used.update((i, j))
                weight += w
            if ok:
                key = (r, weight) if maxcardinality else (0, weight)
                if best is None or key > best:
                    best = key
    return best


def matching_value(edges, mate, maxcardinality):
    weight = sum(w for (i, j, w) in edges if mate[i] == j)
    cardinality = sum(1 for v in range(len(mate)) if mate[v] >= 0) // 2
    return (cardinality, weight) if maxcardinality else (0, weight)


class TestMaxWeightBasics:
    def test_empty(self):
        assert max_weight_matching([]) == []

    def test_single_edge(self):
        assert max_weight_matching([(0, 1, 5)]) == [1, 0]

    def test_negative_edge_unused(self):
        assert max_weight_matching([(0, 1, -5)]) == [-1, -1]

    def test_negative_edge_used_for_cardinality(self):
        mate = max_weight_matching([(0, 1, -5)], maxcardinality=True)
        assert mate == [1, 0]

    def test_path_prefers_heavy_middle(self):
        # 0-1 (2), 1-2 (5), 2-3 (2): max weight picks the two ends? No:
        # ends sum to 4 < 5, so the middle edge alone wins weight-wise.
        mate = max_weight_matching([(0, 1, 2), (1, 2, 5), (2, 3, 2)])
        assert mate[1] == 2 and mate[2] == 1

    def test_path_maxcardinality_forced_to_ends(self):
        mate = max_weight_matching([(0, 1, 2), (1, 2, 5), (2, 3, 2)],
                                   maxcardinality=True)
        assert mate == [1, 0, 3, 2]

    def test_triangle_blossom(self):
        # Odd cycle: only one edge can be used.
        mate = max_weight_matching([(0, 1, 6), (1, 2, 5), (0, 2, 4)])
        assert mate[0] == 1 and mate[1] == 0 and mate[2] == -1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            max_weight_matching([(1, 1, 3)])

    def test_rejects_negative_vertex(self):
        with pytest.raises(ValueError):
            max_weight_matching([(-1, 2, 3)])

    def test_known_blossom_case(self):
        # Classic nasty case from the literature: needs a blossom to
        # find the optimum.
        edges = [(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8),
                 (4, 5, 10), (5, 6, 6)]
        mate = max_weight_matching(edges)
        assert mate[1:] == [3, 4, 1, 2, 6, 5]

    def test_known_s_blossom_relabel_case(self):
        edges = [(1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20),
                 (3, 5, 20), (4, 5, 25), (5, 6, 10), (6, 7, 10),
                 (7, 8, 8)]
        mate = max_weight_matching(edges)
        assert mate[1:] == [2, 1, 4, 3, 6, 5, 8, 7]

    def test_known_nested_blossom_case(self):
        # Create nested S-blossom, augment, expand recursively.
        edges = [(1, 2, 40), (1, 3, 40), (2, 3, 60), (2, 4, 55),
                 (3, 5, 55), (4, 5, 50), (1, 8, 15), (5, 7, 30),
                 (7, 6, 10), (8, 10, 10), (4, 9, 30)]
        mate = max_weight_matching(edges)
        assert mate[1:] == [2, 1, 5, 9, 3, 7, 6, 10, 4, 8]


class TestAgainstBruteForce:
    def test_randomised_sweep(self):
        rng = random.Random(0)
        for trial in range(150):
            n = rng.randint(2, 7)
            pairs = list(itertools.combinations(range(n), 2))
            rng.shuffle(pairs)
            pairs = pairs[:rng.randint(1, len(pairs))]
            edges = [(i, j, rng.randint(-5, 20)) for (i, j) in pairs]
            for maxcard in (False, True):
                mate = max_weight_matching(edges, maxcard)
                assert matching_value(edges, mate, maxcard) == \
                    brute_force_max_weight(edges, n, maxcard), \
                    (trial, maxcard, edges, mate)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(-10, 30)),
                    min_size=1, max_size=10),
           st.booleans())
    def test_hypothesis_graphs(self, raw_edges, maxcard):
        edges = {}
        for (a, b, w) in raw_edges:
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            edges[key] = w  # last one wins: unique edge per pair
        edges = [(i, j, w) for (i, j), w in edges.items()]
        if not edges:
            return
        n = max(max(i, j) for (i, j, _) in edges) + 1
        mate = max_weight_matching(edges, maxcard)
        assert matching_value(edges, mate, maxcard) == \
            brute_force_max_weight(edges, n, maxcard)


class TestAgainstNetworkx:
    def test_max_weight_on_random_graphs(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randint(4, 14)
            graph = networkx.gnm_random_graph(
                n, rng.randint(n, n * (n - 1) // 2), seed=rng.randint(0, 9999))
            edges = [(u, v, rng.randint(1, 100))
                     for (u, v) in graph.edges()]
            if not edges:
                continue
            nx_graph = networkx.Graph()
            nx_graph.add_weighted_edges_from(edges)
            ours = max_weight_matching(edges)
            ours_weight = sum(w for (i, j, w) in edges if ours[i] == j)
            theirs = networkx.max_weight_matching(nx_graph)
            weights = {(min(u, v), max(u, v)): w for (u, v, w) in edges}
            theirs_weight = sum(weights[(min(u, v), max(u, v))]
                                for (u, v) in theirs)
            assert ours_weight == theirs_weight

    def test_min_weight_perfect_on_complete_graphs(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.choice([4, 6, 8, 10, 12])
            costs = {(i, j): rng.uniform(0.5, 50.0)
                     for i, j in itertools.combinations(range(n), 2)}
            ours = matching_cost(min_weight_perfect_matching(costs, n),
                                 costs)
            nx_graph = networkx.Graph()
            for (i, j), c in costs.items():
                nx_graph.add_edge(i, j, weight=c)
            theirs_edges = networkx.min_weight_matching(nx_graph)
            theirs = sum(costs[(min(u, v), max(u, v))]
                         for (u, v) in theirs_edges)
            assert ours == pytest.approx(theirs, rel=1e-9)


class TestMinWeightPerfect:
    def test_two_vertices(self):
        assert min_weight_perfect_matching({(0, 1): 3.0}, 2) == {(0, 1)}

    def test_empty(self):
        assert min_weight_perfect_matching({}, 0) == set()

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            min_weight_perfect_matching({(0, 1): 1.0}, 3)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            min_weight_perfect_matching({(0, 1): -1.0}, 2)

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            min_weight_perfect_matching({(1, 0): 1.0}, 2)

    def test_no_perfect_matching_detected(self):
        # A star on 4 vertices has no perfect matching.
        costs = {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0}
        with pytest.raises(ValueError, match="perfect"):
            min_weight_perfect_matching(costs, 4)

    def test_every_vertex_covered(self):
        rng = random.Random(3)
        n = 10
        costs = {(i, j): rng.uniform(1, 9)
                 for i, j in itertools.combinations(range(n), 2)}
        matching = min_weight_perfect_matching(costs, n)
        covered = sorted(v for pair in matching for v in pair)
        assert covered == list(range(n))

    def test_prefers_cheap_pairs(self):
        costs = {(0, 1): 1.0, (2, 3): 1.0,
                 (0, 2): 100.0, (1, 3): 100.0,
                 (0, 3): 100.0, (1, 2): 100.0}
        assert min_weight_perfect_matching(costs, 4) == {(0, 1), (2, 3)}

    def test_float_ties_handled(self):
        costs = {(0, 1): 0.1 + 0.2, (2, 3): 0.3,
                 (0, 2): 0.3, (1, 3): 0.3,
                 (0, 3): 0.6, (1, 2): 0.6}
        matching = min_weight_perfect_matching(costs, 4)
        assert matching_cost(matching, costs) == pytest.approx(0.6)

    def test_tiny_cost_scale(self):
        # Airtimes are ~1e-4 s; the quantisation grid must cope.
        costs = {(0, 1): 1.1e-4, (2, 3): 0.9e-4,
                 (0, 2): 2.5e-4, (1, 3): 2.6e-4,
                 (0, 3): 2.4e-4, (1, 2): 2.45e-4}
        matching = min_weight_perfect_matching(costs, 4)
        assert matching == {(0, 1), (2, 3)}

    def test_all_zero_costs(self):
        costs = {(i, j): 0.0 for i, j in itertools.combinations(range(4), 2)}
        matching = min_weight_perfect_matching(costs, 4)
        assert len(matching) == 2

    def test_unmatched_vertices_named_in_error(self):
        # A star on 4 vertices: only one edge fits, stranding two
        # leaves.  The error must name the stranded vertices so
        # scheduler bugs are debuggable.
        costs = {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 3.0}
        with pytest.raises(ValueError, match=r"vertices \[2, 3\] left "
                                             r"unmatched"):
            min_weight_perfect_matching(costs, 4)


class TestSmallCompleteShortcut:
    """Complete graphs on 2/4/6 vertices skip the blossom and enumerate
    their perfect matchings; the answer must be indistinguishable from
    the blossom path — including falling back to it on quantised ties
    rather than second-guessing its tie-break."""

    def test_enumeration_counts(self):
        from repro.scheduling.matching import _SMALL_PERFECT_MATCHINGS
        assert {n: len(m) for n, m in _SMALL_PERFECT_MATCHINGS.items()} \
            == {2: 1, 4: 3, 6: 15}

    def test_enumeration_is_perfect_and_distinct(self):
        from repro.scheduling.matching import _SMALL_PERFECT_MATCHINGS
        for n, matchings in _SMALL_PERFECT_MATCHINGS.items():
            assert len({frozenset(m) for m in matchings}) == len(matchings)
            for matching in matchings:
                covered = sorted(v for pair in matching for v in pair)
                assert covered == list(range(n))
                assert all(i < j for (i, j) in matching)

    def test_shortcut_agrees_with_scalar_blossom(self):
        from repro.scheduling.matching import (
            _SMALL_PERFECT_MATCHINGS,
            _small_complete_matching,
        )
        rng = random.Random(17)
        for _ in range(200):
            n = rng.choice([2, 4, 6])
            costs = {(i, j): rng.uniform(1e-5, 5e-4)
                     for i, j in itertools.combinations(range(n), 2)}
            small = _small_complete_matching(
                costs, n, _SMALL_PERFECT_MATCHINGS[n])
            if small is not None:
                assert small == min_weight_perfect_matching_scalar(costs, n)

    def test_tie_defers_to_blossom(self):
        from repro.scheduling.matching import (
            _SMALL_PERFECT_MATCHINGS,
            _small_complete_matching,
        )
        # All-equal costs: every matching totals the same, so the
        # shortcut must decline and let the blossom break the tie.
        costs = {(i, j): 2.5e-4
                 for i, j in itertools.combinations(range(4), 2)}
        assert _small_complete_matching(
            costs, 4, _SMALL_PERFECT_MATCHINGS[4]) is None
        assert min_weight_perfect_matching(costs, 4) == \
            min_weight_perfect_matching_scalar(costs, 4)

    def test_structural_tie_serial_dominates(self):
        # The trace scheduler's common tie: when SIC never wins, every
        # pair cost is the sum of the solos, so ALL matchings tie and
        # the blossom's tie-break is authoritative.
        solos = [1.0e-4, 2.0e-4, 3.0e-4, 4.0e-4]
        costs = {(i, j): solos[i] + solos[j]
                 for i, j in itertools.combinations(range(4), 2)}
        assert min_weight_perfect_matching(costs, 4) == \
            min_weight_perfect_matching_scalar(costs, 4)

    def test_incomplete_graph_skips_shortcut(self):
        # A star on 4 vertices is not complete, so the length gate must
        # route it to the blossom, which reports the stranded vertices.
        costs = {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 3.0}
        with pytest.raises(ValueError, match="perfect"):
            min_weight_perfect_matching(costs, 4)

    def test_validation_matches_blossom_path(self):
        from repro.scheduling.matching import (
            _SMALL_PERFECT_MATCHINGS,
            _small_complete_matching,
        )
        bad_pair = {(1, 0): 1.0}
        with pytest.raises(ValueError, match="bad pair"):
            _small_complete_matching(bad_pair, 2, _SMALL_PERFECT_MATCHINGS[2])
        negative = {(0, 1): -1.0}
        with pytest.raises(ValueError, match="non-negative"):
            _small_complete_matching(negative, 2, _SMALL_PERFECT_MATCHINGS[2])

    def test_small_sizes_end_to_end_match_scalar(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.choice([2, 4, 6])
            costs = {(i, j): rng.uniform(1e-5, 5e-4)
                     for i, j in itertools.combinations(range(n), 2)}
            assert min_weight_perfect_matching(costs, n) == \
                min_weight_perfect_matching_scalar(costs, n)


class TestScalarGoldenEquivalence:
    """The array-accelerated blossom must reproduce the frozen scalar
    reference EXACTLY — same mate arrays, same chosen pairs — on every
    graph shape (PR-1 convention).  Any divergence means the numpy dual
    bookkeeping broke the algorithm, not just slowed it down."""

    def random_edges(self, rng, n, density, int_weights):
        edges = []
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < density:
                w = (rng.randint(-20, 60) if int_weights
                     else rng.uniform(-2.0, 6.0))
                edges.append((i, j, w))
        return edges

    @pytest.mark.parametrize("int_weights", [True, False],
                             ids=["int", "float"])
    @pytest.mark.parametrize("maxcardinality", [False, True])
    def test_random_graphs_identical_mates(self, int_weights,
                                           maxcardinality):
        rng = random.Random(20100406 + int_weights + 2 * maxcardinality)
        for trial in range(150):
            n = rng.randint(2, 13)
            edges = self.random_edges(rng, n, rng.uniform(0.2, 1.0),
                                      int_weights)
            fast = max_weight_matching(edges, maxcardinality=maxcardinality)
            ref = max_weight_matching_scalar(
                edges, maxcardinality=maxcardinality)
            assert fast == ref, f"trial={trial} edges={edges}"

    def test_debug_asserts_hold_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 10)
            edges = self.random_edges(rng, n, 0.7, int_weights=False)
            fast = max_weight_matching(edges, maxcardinality=True,
                                       debug=True)
            ref = max_weight_matching_scalar(edges, maxcardinality=True)
            assert fast == ref

    def test_known_blossom_cases_identical(self):
        cases = [
            [(1, 2, 9), (1, 3, 8), (2, 3, 10), (3, 4, 7)],
            [(1, 2, 9), (1, 3, 8), (2, 3, 10), (3, 4, 7), (1, 6, 5),
             (4, 5, 6)],
            [(1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20), (3, 5, 20),
             (4, 5, 25), (5, 6, 10), (6, 7, 10), (7, 8, 8)],
        ]
        for edges in cases:
            for maxcard in (False, True):
                assert max_weight_matching(edges, maxcardinality=maxcard) \
                    == max_weight_matching_scalar(
                        edges, maxcardinality=maxcard)

    def test_min_weight_perfect_identical_on_complete_graphs(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.choice([2, 4, 6, 8, 10, 12])
            costs = {(i, j): rng.uniform(0.0, 5.0)
                     for i, j in itertools.combinations(range(n), 2)}
            assert min_weight_perfect_matching(costs, n) == \
                min_weight_perfect_matching_scalar(costs, n)

    def test_min_weight_perfect_identical_with_dummy_vertex(self):
        # The scheduler's odd-backlog shape: a complete graph over the
        # clients plus a dummy vertex joined to everyone by solo costs.
        rng = random.Random(13)
        for _ in range(40):
            n = rng.choice([3, 5, 7, 9, 11])
            costs = {(i, j): rng.uniform(1e-5, 5e-4)
                     for i, j in itertools.combinations(range(n), 2)}
            for i in range(n):
                costs[(i, n)] = rng.uniform(1e-5, 5e-4)
            assert min_weight_perfect_matching(costs, n + 1) == \
                min_weight_perfect_matching_scalar(costs, n + 1)

    def test_huge_weights_take_float_fallback_identically(self):
        # Beyond the int64-safe ceiling both implementations must drop
        # to float arithmetic and still agree.
        big = 2.0 ** 61
        edges = [(0, 1, big), (1, 2, big * 1.5), (2, 3, big),
                 (0, 3, big * 0.5), (0, 2, big * 1.25)]
        for maxcard in (False, True):
            assert max_weight_matching(edges, maxcardinality=maxcard) == \
                max_weight_matching_scalar(edges, maxcardinality=maxcard)
