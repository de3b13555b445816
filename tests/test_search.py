import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from conftest import path_tree, prufer_edges, random_tree, star_tree
from treecut import (
    Forest,
    InvalidInput,
    LambdaTooSmall,
    MonotonicityViolation,
    NotForestAfterDeletion,
    PrecollisionError,
    ProblemSpec,
    UnknownVertexId,
    WeightedGraph,
    build_rooted_tree,
    decide,
    decide_forest,
    decide_semisupervised,
    k_max,
    min_xi,
    oracle_min_xi,
    solve,
    tree_as_graph,
    validate_subpartition,
)
from treecut.oracle import EnumerationBudget
from treecut.search import _balanced_partition, _farey_predecessor, _opening_bound


class TestFareyPredecessor:
    @pytest.mark.parametrize("x,limit,expected", [
        (Fraction(1), 4, Fraction(3, 4)),
        (Fraction(1, 2), 4, Fraction(1, 3)),
        (Fraction(2, 3), 5, Fraction(3, 5)),
        (Fraction(3), 1, Fraction(2)),
        (Fraction(0), 7, None),
    ])
    def test_known_values(self, x, limit, expected):
        assert _farey_predecessor(x, limit) == expected

    @pytest.mark.parametrize("x,limit", [
        (Fraction(3, 7), 2), (Fraction(5, 11), 3), (Fraction(2, 9), 4),
    ])
    def test_rejects_denominators_above_the_limit(self, x, limit):
        with pytest.raises(InvalidInput):
            _farey_predecessor(x, limit)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 400), st.integers(1, 40))
    def test_is_the_farey_neighbor(self, p, q, limit):
        x = Fraction(p, q)
        if x.denominator > limit:
            with pytest.raises(InvalidInput):
                _farey_predecessor(x, limit)
            return
        prev = _farey_predecessor(x, limit)
        assert prev < x
        assert prev.denominator <= limit
        # nothing with a small denominator fits strictly between
        for den in range(1, limit + 1):
            num = (x.numerator * den - 1) // x.denominator
            assert Fraction(num, den) <= prev or Fraction(num, den) >= x


class TestProbeTripwire:
    def test_inconsistent_decisions_abort_the_search(self):
        from treecut import MonotonicityViolation
        from treecut.search import _Prober

        # yes at 1/2 but no at 3/4 can only mean a solver bug
        broken = _Prober(lambda xi: xi == Fraction(1, 2))
        assert broken(Fraction(1, 2))
        with pytest.raises(MonotonicityViolation):
            broken(Fraction(3, 4))

    def test_caches_and_counts_probes(self):
        from treecut.search import _Prober

        calls = []
        prober = _Prober(lambda xi: (calls.append(xi), True)[1])
        prober(Fraction(1))
        prober(Fraction(1))
        assert prober.calls == 1
        assert calls == [Fraction(1)]


class TestMinXi:
    def test_two_vertex_path(self):
        res = min_xi(path_tree(("a", "b")), 2, 0)
        assert res.xi_star == 1
        assert res.witness is not None
        assert res.mode == "exact"
        assert res.probes >= 3

    def test_star_whole_tree(self):
        assert min_xi(star_tree(), 1, 1).xi_star == 0

    def test_star_all_singletons(self):
        res = min_xi(star_tree(), 4, 0)
        assert res.xi_star == 3
        assert res.witness.max_expansion == 3

    def test_pigeonhole_infeasible(self):
        res = min_xi(star_tree(), 5, 0)
        assert res.xi_star is None
        assert not res.feasible
        assert res.witness is None

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(1, 8)
            t = random_tree(rng, n)
            kappa = rng.randint(1, 3)
            lam = rng.randint(0, 2)
            expected = oracle_min_xi(t, kappa, lam)
            got = min_xi(t, kappa, lam)
            assert got.xi_star == expected
            if expected is not None:
                spec = ProblemSpec(expected, kappa, lam)
                assert validate_subpartition(t, spec, got.witness) == []
                assert got.witness.max_expansion == expected

    def test_tolerance_mode_brackets_the_optimum(self):
        t = star_tree()
        res = min_xi(t, 4, 0, mode="tol", tol=Fraction(1, 64))
        assert res.mode == "tol"
        assert Fraction(3) <= res.xi_star <= Fraction(3) + Fraction(1, 64)
        assert decide(t, ProblemSpec(res.xi_star, 4, 0))
        assert res.witness is not None

    def test_tolerance_mode_needs_tol(self):
        with pytest.raises(InvalidInput):
            min_xi(star_tree(), 2, 0, mode="tol")
        with pytest.raises(InvalidInput):
            min_xi(star_tree(), 2, 0, mode="nonsense")

    def test_exact_on_rational_weights(self):
        t = build_rooted_tree([("a", "1/3"), ("b", "2/5")], [("a", "b", "7/11")], "a")
        res = min_xi(t, 2, 0)
        assert res.xi_star == oracle_min_xi(t, 2, 0)
        # the optimum is an actual expansion: 7/11 over min(1/3, 2/5)
        assert res.xi_star == Fraction(7, 11) / Fraction(1, 3)


def _labelled_tree(rng, n, prefix, pmax=0):
    ids = [f"{prefix}{i}" for i in range(n)]
    seq = [rng.randrange(n) for _ in range(max(0, n - 2))]
    vertices = [(v, rng.randint(1, 4), rng.randint(0, pmax)) for v in ids]
    edges = [(ids[u], ids[v], rng.randint(1, 4)) for u, v in prufer_edges(seq, n)]
    return build_rooted_tree(vertices, edges, ids[rng.randrange(n)])


_BIG_BUDGET = EnumerationBudget(max_vertices=10, max_parts=10)


def _forest_oracle_min_xi(trees, parts, outliers, use_pot, forbidden):
    """Least maximum expansion over every split of the budgets across the
    trees, each tree answered by ``oracle_min_xi``; a tree given no part
    must be all residue."""
    options = []
    for t in trees:
        forb = frozenset(v for v in forbidden if v in t.index)
        opts = []
        if t.vertex_count <= outliers and not forb:
            opts.append((0, t.vertex_count, None))
        for k in range(1, min(parts, t.vertex_count) + 1):
            for l in range(outliers + 1):
                x = oracle_min_xi(t, k, l, use_potentials=use_pot,
                                  forbidden_outliers=forb, budget=_BIG_BUDGET)
                if x is not None:
                    opts.append((k, l, x))
        options.append(opts)
    best = None
    stack = [(0, 0, 0, None)]
    while stack:
        i, k, l, worst = stack.pop()
        if i == len(trees):
            if k == parts and (best is None or worst < best):
                best = worst
            continue
        for dk, dl, x in options[i]:
            if k + dk <= parts and l + dl <= outliers:
                w = worst if x is None or (worst is not None and worst >= x) else x
                stack.append((i + 1, k + dk, l + dl, w))
    return best


class TestOpeningBound:
    def test_bound_partition_is_valid(self):
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(1, 12)
            use_pot = rng.random() < 0.5
            t = _labelled_tree(rng, n, "v", pmax=3 if use_pot else 0)
            for parts in range(1, n + 1):
                sub = _balanced_partition(t, parts, use_pot)
                spec = ProblemSpec(sub.max_expansion, parts, 0, use_pot)
                assert validate_subpartition(t, spec, sub) == []

    def test_matches_oracle_on_trees_and_forests(self):
        # every route through the search: the bound already optimal, the
        # bisection below it, the forest fallback with fewer parts than
        # trees, and no admissible subpartition at all
        rng = random.Random(48)
        seen = set()
        for trial in range(60):
            use_pot = rng.random() < 0.4
            pmax = 3 if use_pot else 0
            if trial % 2:
                sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
                trees = tuple(_labelled_tree(rng, m, f"t{i}-", pmax)
                              for i, m in enumerate(sizes))
                instance = Forest(trees)
            else:
                trees = (_labelled_tree(rng, rng.randint(1, 9), "v", pmax),)
                instance = trees[0]
            n = sum(t.vertex_count for t in trees)
            ids = [v for t in trees for v in t.vertex_ids()]
            forbidden = frozenset(v for v in ids if rng.random() < 0.2)
            lam = rng.randint(0, 2)
            for parts in range(1, n + 2):
                if len(trees) == 1:
                    expected = oracle_min_xi(trees[0], parts, lam,
                                             use_potentials=use_pot,
                                             forbidden_outliers=forbidden,
                                             budget=_BIG_BUDGET)
                else:
                    expected = _forest_oracle_min_xi(trees, parts, lam, use_pot,
                                                     forbidden)
                got = min_xi(instance, parts, lam, use_potentials=use_pot,
                             forbidden_outliers=forbidden)
                assert got.xi_star == expected
                if expected is None:
                    seen.add("infeasible")
                    continue
                assert got.witness.max_expansion == expected
                assert len(got.witness.parts) == parts
                assert len(got.witness.residue) <= lam
                assert not got.witness.residue & forbidden
                hi, achievable = _opening_bound(trees, parts, use_pot)
                if not achievable:
                    seen.add("fallback")
                elif expected == hi:
                    seen.add("bound optimal")
                else:
                    seen.add("bisection")
        assert seen == {"infeasible", "fallback", "bound optimal", "bisection"}

    def test_star_bound_is_optimal_in_three_probes(self):
        # all singletons: yes at the bound, no at zero, no at its predecessor
        res = min_xi(star_tree(), 4, 0)
        assert res.xi_star == 3
        assert res.probes == 3

    def test_long_path_probe_count(self):
        rng = random.Random(49)
        n = 2000
        t = path_tree([f"v{i}" for i in range(n)],
                      weights=[rng.randint(1, 9) for _ in range(n)],
                      costs=[rng.randint(1, 9) for _ in range(n - 1)])
        hi, achievable = _opening_bound((t,), 3, False)
        assert achievable
        w = t.subtree_weight_scaled[t.root]
        bits = (math.ceil(hi * w * w) - 1).bit_length()  # ceil(log2(hi W^2))
        res = min_xi(t, 3, 2)
        # the bound, zero and its predecessor, at most `bits` bisection
        # steps, then the verification at xi* and at its predecessor
        assert res.probes <= bits + 5
        assert res.probes < 32

    def test_no_at_the_bound_is_a_broken_dp(self, monkeypatch):
        import treecut.search as search

        monkeypatch.setattr(search, "decide", lambda tree, spec: False)
        with pytest.raises(MonotonicityViolation):
            min_xi(star_tree(), 2, 0)
        monkeypatch.setattr(search, "decide_forest",
                            lambda forest, spec, **kw: (False, None))
        two = Forest((path_tree(("a", "b")), path_tree(("c", "d"))))
        with pytest.raises(MonotonicityViolation):
            min_xi(two, 2, 0)
        # with fewer parts than trees the opening bound is not achievable,
        # so a no there still means infeasible
        assert min_xi(two, 1, 2).xi_star is None


class TestKMax:
    def test_unit_star(self):
        assert k_max(star_tree(), 1, 0) == 3

    def test_everything_splits_at_huge_threshold(self):
        rng = random.Random(42)
        for _ in range(8):
            t = random_tree(rng, rng.randint(1, 9))
            bound = t.total_edge_cost() / t.min_weight()
            assert k_max(t, bound, 0) == t.vertex_count

    def test_two_vertex_path_cannot_split_cheaply(self):
        assert k_max(path_tree(("a", "b")), Fraction(1, 2), 0) == 1

    def test_matches_scan_of_decisions(self):
        rng = random.Random(43)
        for _ in range(12):
            n = rng.randint(1, 8)
            t = random_tree(rng, n)
            xi = Fraction(rng.randint(0, 5), rng.randint(1, 3))
            lam = rng.randint(0, 2)
            best = 0
            for k in range(1, n + 1):
                if decide(t, ProblemSpec(xi, k, lam)):
                    best = k
            assert k_max(t, xi, lam) == best

    def test_variant_flags_flow_through(self):
        # light hub, heavy leaves: three singleton parts need the hub
        # uncovered, so forbidding it lowers the best part count
        t = build_rooted_tree(
            [("b", 1), ("a", 4), ("c", 4), ("d", 4)],
            [("b", "a", 1), ("b", "c", 1), ("b", "d", 1)], "b")
        xi = Fraction(1, 4)
        assert k_max(t, xi, 1) == 3
        # covered hub caps the count at 2: {b,a,c} u {d} works, 3 parts don't
        assert k_max(t, xi, 1, forbidden_outliers=frozenset({"b"})) == 2
        # potentials make every nonempty boundary strictly pricier
        heavy = build_rooted_tree(
            [("b", 1, 10), ("a", 4, 10), ("c", 4, 10), ("d", 4, 10)],
            [("b", "a", 1), ("b", "c", 1), ("b", "d", 1)], "b")
        assert k_max(heavy, xi, 1, use_potentials=True) == 0


class TestForest:
    def _two_edges(self):
        t1 = build_rooted_tree([("a", 1), ("b", 1)], [("a", "b", 1)], "a")
        t2 = build_rooted_tree([("c", 1), ("d", 1)], [("c", "d", 1)], "c")
        return Forest((t1, t2))

    def test_components_stay_whole_at_zero(self):
        ok, wit = decide_forest(self._two_edges(), ProblemSpec(0, 2, 0))
        assert ok
        assert {frozenset(p) for p in wit.parts} == {
            frozenset({"a", "b"}), frozenset({"c", "d"})}

    def test_splitting_an_edge_costs_one(self):
        ok, _ = decide_forest(self._two_edges(), ProblemSpec(Fraction(1, 2), 3, 0))
        assert not ok
        ok2, wit2 = decide_forest(self._two_edges(), ProblemSpec(1, 3, 0))
        assert ok2
        assert len(wit2.parts) == 3

    def test_single_tree_forest_matches_tree_tables(self):
        rng = random.Random(44)
        for _ in range(10):
            t = random_tree(rng, rng.randint(1, 8))
            xi = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            spec = ProblemSpec(xi, min(3, t.vertex_count), 2)
            ok, _ = decide_forest(Forest((t,)), spec)
            tab = solve(t, spec, record_choices=False)
            assert ok == tab.feasible
            # whole grid agrees cell for cell
            from treecut.search import _tree_spec
            from treecut.solver import root_feasibility
            assert root_feasibility(t, _tree_spec(spec, t)) == [
                list(r) for r in tab.root_row()]

    def test_budget_splits_across_trees(self):
        forest = self._two_edges()
        # two parts plus two outliers: one whole component and one emptied
        ok, wit = decide_forest(forest, ProblemSpec(0, 1, 2))
        assert ok
        assert len(wit.residue) <= 2

    def test_witness_tables_only_for_feasible_forests(self, monkeypatch):
        # the per-tree root rows decide first; the choice records a witness
        # needs are built only once the fold says feasible
        import treecut.search as search

        solved = []
        monkeypatch.setattr(search, "solve", lambda t, spec: solved.append(t)
                            or solve(t, spec))
        rng = random.Random(45)
        outcomes = set()
        for _ in range(30):
            trees = [random_tree(rng, rng.randint(1, 6)) for _ in range(3)]
            forest = Forest(tuple(
                build_rooted_tree([(f"{i}-{v}", t.weight(v)) for v in t.vertex_ids()],
                                  [(f"{i}-{t.parent_of(v)}", f"{i}-{v}", t.parent_edge_cost(v))
                                   for v in t.vertex_ids() if t.parent_of(v) is not None],
                                  f"{i}-{t.root_id}")
                for i, t in enumerate(trees)))
            spec = ProblemSpec(Fraction(rng.randint(0, 6), 2), rng.randint(1, 5),
                               rng.randint(0, 2))
            solved.clear()
            ok, wit = decide_forest(forest, spec)
            assert ok == decide_forest(forest, spec, want_witness=False)[0]
            outcomes.add(ok)
            if ok:
                assert solved == list(forest.trees)
                assert len(wit.parts) == spec.parts
                assert len(wit.residue) <= spec.outliers
                assert wit.max_expansion <= spec.xi
            else:
                assert solved == [] and wit is None
        assert outcomes == {True, False}

    def test_overlapping_ids_rejected(self):
        t1 = build_rooted_tree([("a", 1)], [], "a")
        t2 = build_rooted_tree([("a", 1)], [], "a")
        with pytest.raises(InvalidInput):
            Forest((t1, t2))

    def test_min_xi_over_forest(self):
        res = min_xi(self._two_edges(), 3, 0)
        assert res.xi_star == 1
        assert len(res.witness.parts) == 3
        res4 = min_xi(self._two_edges(), 4, 0)
        assert res4.xi_star == 1


class TestSemiSupervised:
    def _path_graph(self):
        return WeightedGraph([("a", 1, 0), ("b", 1, 0), ("c", 1, 0)],
                             [("a", "b", 1, None), ("b", "c", 1, None)])

    def test_required_outlier_becomes_potential(self):
        ok, wit = decide_semisupervised(self._path_graph(), {"b"}, frozenset(),
                                        1, 2, 1)
        assert ok
        assert wit.residue == frozenset({"b"})
        assert {frozenset(p) for p in wit.parts} == {
            frozenset({"a"}), frozenset({"c"})}
        assert wit.max_expansion == 1

    def test_threshold_still_binds(self):
        ok, _ = decide_semisupervised(self._path_graph(), {"b"}, frozenset(),
                                      Fraction(1, 2), 2, 1)
        assert not ok

    def test_budget_must_cover_required_set(self):
        with pytest.raises(LambdaTooSmall):
            decide_semisupervised(self._path_graph(), {"b"}, frozenset(), 1, 2, 0)

    def test_sets_must_be_disjoint(self):
        with pytest.raises(PrecollisionError):
            decide_semisupervised(self._path_graph(), {"b"}, {"b"}, 1, 1, 1)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertexId):
            decide_semisupervised(self._path_graph(), {"zz"}, frozenset(), 1, 1, 1)

    def test_deletion_must_leave_forest(self):
        square = WeightedGraph(
            [(v, 1, 0) for v in "abcd"],
            [("a", "b", 1, None), ("b", "c", 1, None),
             ("c", "d", 1, None), ("d", "a", 1, None)])
        with pytest.raises(NotForestAfterDeletion):
            decide_semisupervised(square, frozenset(), frozenset(), 1, 2, 0)
        # removing one vertex of the cycle fixes it
        ok, _ = decide_semisupervised(square, {"a"}, frozenset(), 2, 1, 1)
        assert ok

    def test_degenerate_case_equals_tree_decision(self):
        rng = random.Random(45)
        for _ in range(12):
            t = random_tree(rng, rng.randint(2, 8))
            graph = tree_as_graph(t)
            xi = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            kappa = rng.randint(1, 3)
            lam = rng.randint(0, 2)
            ok, wit = decide_semisupervised(graph, frozenset(), frozenset(),
                                            xi, kappa, lam)
            assert ok == decide(t, ProblemSpec(xi, kappa, lam))
            if ok:
                spec = ProblemSpec(xi, kappa, lam)
                assert validate_subpartition(t, spec, wit) == []

    def test_matches_graph_brute_force(self):
        rng = random.Random(46)
        for _ in range(15):
            graph, s1, s2 = _random_semisup_instance(rng)
            kappa = rng.randint(1, 3)
            lam = len(s1) + rng.randint(0, 2)
            gm = _brute.graph_masks(graph)
            for xi in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3)):
                expected = _brute.graph_brute_decide(graph, s1, s2, xi, kappa,
                                                     lam, gm)
                got, wit = decide_semisupervised(graph, s1, s2, xi, kappa, lam)
                assert got == expected
                if got:
                    assert s1 <= wit.residue
                    assert not (s2 & wit.residue)
                    assert len(wit.residue) <= lam
                    assert len(wit.parts) == kappa
                    assert all(graph.expansion(p) <= xi for p in wit.parts)


def _random_semisup_instance(rng):
    """Forest plus a deleted set wired back with arbitrary extra edges."""
    n = rng.randint(3, 8)
    ids = [f"v{i}" for i in range(n)]
    s1 = set(rng.sample(ids, rng.randint(0, 2)))
    rest = [v for v in ids if v not in s1]
    edges = []
    # random forest on the survivors
    for i in range(1, len(rest)):
        if rng.random() < 0.8:
            j = rng.randrange(i)
            edges.append((rest[j], rest[i], rng.randint(1, 4), None))
    # arbitrary edges incident to the deleted set
    for v in s1:
        for u in ids:
            if u != v and rng.random() < 0.5:
                key = {e[:2] for e in edges} | {e[1::-1] for e in edges}
                if (v, u) not in key and (u, v) not in key:
                    edges.append((v, u, rng.randint(1, 4), None))
    graph = WeightedGraph([(v, rng.randint(1, 4), 0) for v in ids], edges)
    s2 = set(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
    return graph, frozenset(s1), frozenset(s2)
