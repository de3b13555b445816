import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import _brute
import _grid
from conftest import charge_folds, past_bound, path_tree, random_tree, star_tree
from treecut import (
    EmptyPart,
    Forest,
    ProblemSpec,
    Subpartition,
    TableMismatch,
    build_rooted_tree,
    decide_forest,
    expansion,
    make_subpartition,
    min_xi,
    oracle_min_xi,
    reconstruct_subpartition,
    solve,
    validate_subpartition,
)
from treecut import _fastlane, witness
from treecut.oracle import EnumerationBudget
from treecut.tree import part_cap
from treecut.witness import (
    VIOLATION_COVERAGE,
    VIOLATION_DISCONNECTED,
    VIOLATION_EXPANSION,
    VIOLATION_FORBIDDEN,
    VIOLATION_OVERLAP,
    VIOLATION_PART_COUNT,
    VIOLATION_RESIDUE_SIZE,
)


class TestExpansion:
    def test_whole_tree_has_empty_boundary(self):
        t = star_tree()
        assert expansion(t, {"r", "x", "y", "z"}) == 0

    def test_single_leaf(self):
        assert expansion(star_tree(), {"x"}) == 1

    def test_majority_side(self):
        assert expansion(star_tree(), {"r", "x", "y"}) == Fraction(1, 3)

    def test_potentials_enter_numerator(self):
        t = build_rooted_tree([("r", 1, 2), ("x", 1, 3)], [("r", "x", 1)], "r")
        assert expansion(t, {"x"}) == 1
        assert expansion(t, {"x"}, use_potentials=True) == 4
        assert expansion(t, {"r", "x"}, use_potentials=True) == Fraction(5, 2)

    def test_empty_part_rejected(self):
        with pytest.raises(EmptyPart):
            expansion(star_tree(), set())


class TestReconstruct:
    def test_two_vertex_path(self):
        t = path_tree(("a", "b"))
        spec = ProblemSpec(1, 2, 0)
        sub = reconstruct_subpartition(t, spec, solve(t, spec))
        assert {frozenset(p) for p in sub.parts} == {frozenset({"a"}), frozenset({"b"})}
        assert sub.residue == frozenset()
        assert sub.max_expansion == 1

    def test_whole_tree_at_zero(self):
        t = star_tree()
        spec = ProblemSpec(0, 1, 0)
        sub = reconstruct_subpartition(t, spec, solve(t, spec))
        assert sub.parts == (frozenset({"r", "x", "y", "z"}),)
        assert sub.max_expansion == 0

    def test_star_with_one_outlier(self):
        # the whole tree is boundary-free, so the witness needs no outlier
        t = star_tree()
        spec = ProblemSpec(Fraction(1, 3), 1, 1)
        sub = reconstruct_subpartition(t, spec, solve(t, spec))
        assert len(sub.parts) == 1
        assert sub.max_expansion <= Fraction(1, 3)
        assert validate_subpartition(t, spec, sub) == []

    def test_outlier_used_when_it_is_the_only_option(self):
        # heavy leaves around a light hub: three singleton-leaf parts work
        # only if the hub goes uncovered
        t = build_rooted_tree(
            [("b", 1), ("a", 4), ("c", 4), ("d", 4)],
            [("b", "a", 1), ("b", "c", 1), ("b", "d", 1)], "b")
        spec = ProblemSpec(Fraction(1, 4), 3, 1)
        sub = reconstruct_subpartition(t, spec, solve(t, spec))
        assert sub.residue == frozenset({"b"})
        assert {frozenset(p) for p in sub.parts} == {
            frozenset({"a"}), frozenset({"c"}), frozenset({"d"})}
        assert sub.max_expansion == Fraction(1, 4)
        assert validate_subpartition(t, spec, sub) == []

    def test_infeasible_returns_none(self):
        t = path_tree(("a", "b"))
        spec = ProblemSpec(Fraction(1, 2), 2, 0)
        assert reconstruct_subpartition(t, spec, solve(t, spec)) is None

    def test_mismatched_tables_rejected(self):
        t = path_tree(("a", "b"))
        other = path_tree(("a", "b"))
        spec = ProblemSpec(1, 2, 0)
        tab = solve(t, spec)
        with pytest.raises(TableMismatch):
            reconstruct_subpartition(other, spec, tab)
        with pytest.raises(TableMismatch):
            reconstruct_subpartition(t, ProblemSpec(1, 1, 0), tab)

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(10):
            t = random_tree(rng, rng.randint(2, 9))
            spec = ProblemSpec(Fraction(3, 2), 2, 1)
            first = reconstruct_subpartition(t, spec, solve(t, spec))
            second = reconstruct_subpartition(t, spec, solve(t, spec))
            assert first == second


class TestRoundTrip:
    def test_every_feasible_cell_yields_valid_witness(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(20):
            n = rng.randint(1, 9)
            t = random_tree(rng, n)
            mins = _brute.minmax_tables(t, 3, 2)
            for kappa in (1, 2, 3):
                for lam in (0, 1, 2):
                    floor = mins[kappa][lam]
                    if floor is None:
                        continue
                    spec = ProblemSpec(floor, kappa, lam)
                    tab = solve(t, spec)
                    assert tab.feasible
                    sub = reconstruct_subpartition(t, spec, tab)
                    assert validate_subpartition(t, spec, sub) == []
                    # tight witness: the bound is attained exactly
                    assert sub.max_expansion == floor
                    checked += 1
        assert checked > 50

    def test_first_part_passes_threshold_exactly(self):
        # when the root cell holds via the cut-charge branch, the part
        # containing the root satisfies the threshold inequality verbatim
        rng = random.Random(23)
        for _ in range(15):
            t = random_tree(rng, rng.randint(2, 8))
            spec = ProblemSpec(Fraction(5, 4), 2, 1)
            tab = solve(t, spec)
            if not tab.feasible:
                continue
            sub = reconstruct_subpartition(t, spec, tab)
            root_part = next(p for p in sub.parts if t.root_id in p)
            if t.root_id not in sub.residue:
                assert expansion(t, root_part) <= spec.xi


def _tied_tree(rng, n, use_pot, prefix=""):
    """A random tree with weights and costs in 1..3 and potentials in
    0..2, so that equal charges and sums, and so ties, are common."""
    return build_rooted_tree(
        [(f"{prefix}{i}", rng.randint(1, 3), rng.randint(0, 2) if use_pot else 0)
         for i in range(n)],
        [(f"{prefix}{rng.randrange(i)}", f"{prefix}{i}", rng.randint(1, 3))
         for i in range(1, n)],
        f"{prefix}{rng.randrange(n)}")


def _mirrored_tree(rng):
    """A root above two or three copies of one random piece of 1..3
    vertices: the copies' tables are equal, so every choice between them
    ties."""
    m = rng.randint(1, 3)
    piece = [(rng.randint(1, 3), rng.randint(0, 3)) for _ in range(m)]
    above = [rng.randrange(i) for i in range(1, m)]
    costs = [rng.randint(1, 3) for _ in range(m)]
    vertices = [("r", rng.randint(1, 3), rng.randint(0, 3))]
    edges = []
    for c in range(rng.randint(2, 3)):
        vertices += [(f"{c}-{i}", w, p) for i, (w, p) in enumerate(piece)]
        edges.append(("r", f"{c}-0", costs[0]))
        edges += [(f"{c}-{q}", f"{c}-{i}", costs[i]) for i, q in enumerate(above, 1)]
    return build_rooted_tree(vertices, edges, "r")


def _table_source(monkeypatch, source):
    """Make every sweep run on ``source``, "numpy" (int64, as it does
    inside the int64 bound) or "python" (Python ints, as past the bound,
    with the bound held off); returns the set of cell dtypes the witness
    tables were swept on."""
    given = set()
    real = _fastlane.witness_tables
    thresholds = _fastlane._thresholds
    if source == "python":
        monkeypatch.setattr(_fastlane, "fits", lambda *args: False)

    def spy(*args):
        given.add(thresholds(args[0], [args[1]], *args[2:4])[0].dtype)
        return real(*args)

    monkeypatch.setattr(_fastlane, "witness_tables", spy)
    return given


class TestReplayMatchesGrid:
    def test_witnesses_equal_the_grid_dp_witnesses(self, monkeypatch):
        # the replay from the numpy sweep's tables picks, cell by cell,
        # the choice the grid DP records (tests/_grid.py), so the two
        # witnesses agree part for part and in part order, ties included
        given = _table_source(monkeypatch, "numpy")
        assert self._check_against_grid(random.Random(61), 2000) > 3000
        assert given == {np.dtype(np.int64)}

    def test_python_source_witnesses_equal_the_grid_dp_witnesses(self, monkeypatch):
        # the same replay from the tables of the sweep on Python ints
        given = _table_source(monkeypatch, "python")
        assert self._check_against_grid(random.Random(66), 600) > 900
        assert given == {np.dtype(object)}

    def test_witnesses_past_the_bound_equal_the_grid_dp_witnesses(self):
        # trees and forests with every quantity scaled by 2^200, past the
        # int64 bound: min_xi finds the unscaled optimum, and the witness
        # at it is the grid DP's and, on a tree, passes validation
        rng = random.Random(68)
        for trial in range(40):
            use_pot = trial % 2 == 0
            forest = trial % 4 == 3
            if forest:
                base = _tied_forest(rng, rng.randint(2, 3), 4, use_pot)
                t = Forest(tuple(past_bound(tree, False) for tree in base.trees))
                ids = [v for tree in t.trees for v in tree.vertex_ids()]
            else:
                base = _tied_tree(rng, rng.randint(1, 10), use_pot)
                t = past_bound(base, False)
                ids = t.vertex_ids()
            forb = frozenset(v for v in ids if rng.random() < 0.15)
            parts, outliers = rng.randint(1, len(ids) + 1), rng.randint(0, 3)
            got = min_xi(t, parts, outliers, use_potentials=use_pot, forbidden_outliers=forb)
            assert got.xi_star == min_xi(base, parts, outliers, use_potentials=use_pot,
                                         forbidden_outliers=forb).xi_star
            if got.xi_star is None:
                continue
            spec = ProblemSpec(got.xi_star, parts, outliers, use_pot, forb)
            if forest:
                assert (True, got.witness) == _grid.decide_forest(t, spec)
            else:
                assert got.witness == _grid.witness(t, spec, _grid.solve(t, spec))
                assert validate_subpartition(t, spec, got.witness) == []

    @staticmethod
    def _check_against_grid(rng, trials):
        def same_as_grid(t, spec):
            got = reconstruct_subpartition(t, spec, solve(t, spec))
            assert got == _grid.witness(t, spec, _grid.solve(t, spec)), (t.ids, spec)
            return got

        # a root with two mirrored paths: each path either goes whole as a
        # part or keeps its top in the root's part and sends its leaf, whose
        # potential makes cutting it pay, to the residue.  One of each ties;
        # the cut-charge split takes the least budget first
        t = build_rooted_tree(
            [("r", 1, 1), ("a", 3, 3), ("a2", 1, 3), ("b", 3, 3), ("b2", 1, 3)],
            [("r", "a", 1), ("a", "a2", 1), ("r", "b", 1), ("b", "b2", 1)], "r")
        sub = same_as_grid(t, ProblemSpec(Fraction(7, 4), 2, 1, True))
        assert sub.parts == (frozenset({"r", "b"}), frozenset({"a", "a2"}))
        # a root no part can hold, over a 2-path and a leaf: with 3
        # outliers either the path or the leaf could be the residue, and
        # the residue split is made at the least budget, which keeps the path
        t = build_rooted_tree([("u", 1, 10), ("c", 1), ("x", 1), ("y", 1)],
                              [("u", "c", 1), ("c", "x", 1), ("u", "y", 1)], "u")
        sub = same_as_grid(t, ProblemSpec(1, 1, 3, True))
        assert sub.parts == (frozenset({"c", "x"}),)
        assert sub.residue == frozenset({"u", "y"})

        budget = EnumerationBudget(max_vertices=12, max_parts=13)
        feasible = 0
        for trial in range(trials):
            if trial % 4:
                n = rng.randint(1, 12)
                use_pot = rng.random() < 0.4
                t = _tied_tree(rng, n, use_pot)
            else:
                t, use_pot = _mirrored_tree(rng), True
                n = t.vertex_count
            forb = frozenset(v for v in t.vertex_ids() if rng.random() < 0.15)
            parts, outliers = rng.randint(1, n + 1), rng.randint(0, 3)
            floor = min_xi(t, parts, outliers, use_potentials=use_pot,
                           forbidden_outliers=forb).xi_star
            if trial % 10 == 0:
                assert floor == oracle_min_xi(t, parts, outliers, use_potentials=use_pot,
                                              forbidden_outliers=forb, budget=budget)
            if floor is None:
                xis = [Fraction(rng.randint(0, 12), rng.randint(1, 4))]
            else:
                xis = [floor, floor + Fraction(rng.randint(1, 8), rng.randint(1, 4))]
            for xi in xis:
                spec = ProblemSpec(xi, parts, outliers, use_pot, forb)
                feasible += same_as_grid(t, spec) is not None
        return feasible


def _tied_forest(rng, trees, size, use_pot):
    return Forest(tuple(_tied_tree(rng, rng.randint(1, size), use_pot, f"{i}-")
                        for i in range(trees)))


class TestForestFoldMatchesGrid:
    def test_least_budget_fold_equals_the_grid_fold(self, monkeypatch):
        # the virtual root's fold splits parts and budget across trees as
        # the grid fold's back pointers and the 1-D fold's first fit do
        # (tests/_grid.py), so feasibility and witness agree, part order
        # included, from the numpy sweep's tables
        given = _table_source(monkeypatch, "numpy")
        cases, witnesses, capped, capped_witnesses = self._check_against_grid(
            random.Random(64), 1000)
        assert cases > 2500 and witnesses > 1800
        # the cap binds in more than one case in eight
        assert capped * 8 > cases and capped_witnesses > 300
        assert given == {np.dtype(np.int64)}

    def test_python_source_fold_equals_the_grid_fold(self, monkeypatch):
        # the same from the tables of the sweep on Python ints
        given = _table_source(monkeypatch, "python")
        cases, witnesses, capped, capped_witnesses = self._check_against_grid(
            random.Random(67), 300)
        assert cases > 700 and witnesses > 500
        assert capped * 8 > cases and capped_witnesses > 80
        assert given == {np.dtype(object)}

    @staticmethod
    def _check_against_grid(rng, trials):
        cases = witnesses = capped = capped_witnesses = 0
        for _ in range(trials):
            use_pot = rng.random() < 0.5
            forest = _tied_forest(rng, rng.randint(2, 5), 5, use_pot)
            total = forest.vertex_count
            forb = frozenset(v for t in forest.trees for v in t.vertex_ids()
                             if rng.random() < 0.15)
            parts, outliers = rng.randint(1, total + 1), rng.randint(0, 5)
            # a tree of more than `outliers` vertices must hold a part, so
            # no tree keeps rows past tree.part_cap, which binds below
            # min(kappa, the largest tree's size)
            sizes = [t.vertex_count for t in forest.trees]
            kappa = min(parts, total)
            cap = part_cap(sizes, kappa, min(outliers, total))
            binds = 0 < cap < min(kappa, max(sizes))
            best = min_xi(forest, parts, outliers, use_potentials=use_pot,
                          forbidden_outliers=forb).xi_star
            xis = [Fraction(rng.randint(0, 12), rng.randint(1, 4))]
            if best is not None:
                xis += [best, best + Fraction(rng.randint(1, 8), rng.randint(1, 4))]
            for xi in xis:
                spec = ProblemSpec(xi, parts, outliers, use_pot, forb)
                got = decide_forest(forest, spec)
                assert got == _grid.decide_forest(forest, spec), spec
                assert got == _grid.fold_forest(forest, spec), spec
                cases += 1
                witnesses += got[1] is not None
                capped += binds
                capped_witnesses += binds and got[1] is not None
        return cases, witnesses, capped, capped_witnesses

    def test_many_trees_and_large_budgets(self):
        # 200 trees of 1-5 vertices at 50 parts and 20 outliers: the grid
        # fold does 200 steps over 51 x 21 cells, with up to that many
        # splits each.  A tree needs a part or all its vertices as
        # outliers, so no threshold makes 200 trees feasible there
        rng = random.Random(65)
        forest = _tied_forest(rng, 200, 5, True)
        spec = ProblemSpec(2, 50, 20, True)
        assert decide_forest(forest, spec) == _grid.decide_forest(forest, spec) \
            == (False, None)
        # 20 trees at 30 parts and 8 outliers, feasible at the optimum
        forest = _tied_forest(rng, 20, 5, True)
        best = min_xi(forest, 30, 8, use_potentials=True).xi_star
        spec = ProblemSpec(best, 30, 8, True)
        got = decide_forest(forest, spec)
        assert got[0] and got == _grid.decide_forest(forest, spec)

    @pytest.mark.parametrize("trees,parts,outliers", [(200, 220, 20), (200, 400, 20),
                                                      (60, 50, 20)])
    def test_large_budgets_match_the_1d_fold(self, trees, parts, outliers):
        # feasible at the optimum, with budgets the grid fold is too slow
        # for: the same witness as each tree's own replay, part order
        # included, and nothing feasible just below
        rng = random.Random(trees + parts)
        forest = _tied_forest(rng, trees, 5, True)
        best = min_xi(forest, parts, outliers, use_potentials=True).xi_star
        spec = ProblemSpec(best, parts, outliers, True)
        got = decide_forest(forest, spec)
        assert got[0] and got == _grid.fold_forest(forest, spec)
        below = spec.with_xi(best - Fraction(1, 10 ** 6)) if best else None
        if below is not None:
            assert decide_forest(forest, below) == _grid.fold_forest(forest, below) \
                == (False, None)


class TestWitnessCost:
    def test_witness_on_a_long_path(self):
        n = 10**5
        t = build_rooted_tree([(i, 1 + i % 3) for i in range(n)],
                              [(i - 1, i, 1 + i % 2) for i in range(1, n)], 0)
        spec = ProblemSpec(Fraction(1, 2), 3, 2)
        sub = reconstruct_subpartition(t, spec, solve(t, spec))
        assert validate_subpartition(t, spec, sub) == []
        assert len(sub.parts) == 3

    def test_kept_tables_stay_under_a_kilobyte_per_vertex(self):
        # every vertex's tables, nothing more: about 0.29 KB per vertex
        # here (Python 3.11; 0.47 KB with the Python sweep's partial
        # folds), where full grids with choice records took 2.4 KB
        rng = random.Random(62)
        n = 10**4
        t = build_rooted_tree([(i, rng.randint(1, 4)) for i in range(n)],
                              [(rng.randrange(i), i, rng.randint(1, 4)) for i in range(1, n)], 0)
        spec = ProblemSpec(Fraction(1, 2), 3, 2)
        tracemalloc.start()
        try:
            tables = solve(t, spec)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tables.feasible
        assert retained < 1000 * n


class TestRestrictedFolds:
    def test_folds_up_to_a_cell_equal_the_full_folds_there(self):
        # the replay folds children's tables only up to its task's (k, l):
        # those cells equal the full folds' (rows below the cap, every
        # budget), since a (min,+) cell reads only cells at no more parts
        # and no more budget
        rng = random.Random(68)
        inf = 10 ** 6
        for _ in range(1500):
            d, cap, lam = rng.randint(2, 7), rng.randint(1, 5), rng.randint(0, 3)
            lp1 = lam + 1
            X = [[inf if rng.random() < 0.2 else rng.randint(-2, 4)
                  for _ in range(rng.randint(1, cap) * lp1)] for _ in range(d)]
            Ms = [[rng.randint(0, lp1) for _ in range(rng.randint(1, cap + 1))]
                  for _ in range(d)]
            full = charge_folds(X, cap, lp1)
            k, l = rng.randint(1, cap), rng.randint(0, lam)
            cut = [[x for i, x in enumerate(Y) if i // lp1 < k and i % lp1 <= l]
                   for Y in X]
            got = witness._charge_folds(cut, k, l + 1, {})
            assert got == [[x for i, x in enumerate(Y) if i // lp1 < k and i % lp1 <= l]
                           for Y in full[:d - 1]]
            least = witness._least_folds(Ms, k, {})
            want = witness._least_folds(Ms, cap, {})
            assert least == [U[:k + 1] for U in want]


class TestValidate:
    def _tree(self):
        return path_tree(("a", "b", "c"), root="c")

    def test_overlap(self):
        t = self._tree()
        sub = make_subpartition(t, [{"a"}, {"a", "b"}], {"c"})
        bad = validate_subpartition(t, ProblemSpec(5, 2, 1), sub)
        assert VIOLATION_OVERLAP in bad

    def test_disconnected(self):
        t = self._tree()
        sub = make_subpartition(t, [{"a", "c"}], {"b"})
        bad = validate_subpartition(t, ProblemSpec(5, 1, 1), sub)
        assert VIOLATION_DISCONNECTED in bad

    def test_part_count_and_coverage(self):
        t = self._tree()
        sub = make_subpartition(t, [{"a"}], set())
        bad = validate_subpartition(t, ProblemSpec(5, 2, 0), sub)
        assert VIOLATION_PART_COUNT in bad
        assert VIOLATION_COVERAGE in bad

    def test_residue_budget(self):
        t = self._tree()
        sub = make_subpartition(t, [{"a"}], {"b", "c"})
        bad = validate_subpartition(t, ProblemSpec(5, 1, 1), sub)
        assert VIOLATION_RESIDUE_SIZE in bad

    def test_expansion_threshold(self):
        t = self._tree()
        sub = make_subpartition(t, [{"a"}, {"b", "c"}], set())
        bad = validate_subpartition(t, ProblemSpec(Fraction(1, 2), 2, 0), sub)
        assert VIOLATION_EXPANSION in bad

    def test_forbidden_outlier(self):
        t = self._tree()
        sub = make_subpartition(t, [{"a"}, {"c"}], {"b"})
        spec = ProblemSpec(5, 2, 1, forbidden_outliers=frozenset({"b"}))
        bad = validate_subpartition(t, spec, sub)
        assert VIOLATION_FORBIDDEN in bad

    def test_valid_witness_is_clean(self):
        t = self._tree()
        sub = make_subpartition(t, [{"a", "b", "c"}], set())
        assert validate_subpartition(t, ProblemSpec(0, 1, 0), sub) == []


class TestJson:
    def test_shape(self):
        t = star_tree()
        spec = ProblemSpec(1, 2, 1)
        sub = reconstruct_subpartition(t, spec, solve(t, spec))
        data = sub.to_json()
        assert set(data) == {"parts", "residue", "expansions", "max_expansion"}
        assert all(isinstance(p, list) for p in data["parts"])
        assert all("/" in e for e in data["expansions"])
        assert isinstance(sub, Subpartition)
