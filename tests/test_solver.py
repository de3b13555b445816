import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import _brute
import _grid
import _least
from conftest import (broom_tree, past_bound, path_tree, random_tree, replay_folds,
                      star_tree)
from treecut import (
    INFINITY,
    Forest,
    InvalidInput,
    ProblemSpec,
    RootHasNoParentEdge,
    TablesTooLarge,
    UnknownVertexId,
    build_rooted_tree,
    decide,
    decide_batch,
    decide_forest,
    edge_charge,
    k_max,
    min_xi,
    oracle_decide,
    reconstruct_subpartition,
    root_feasibility,
    solve,
    validate_subpartition,
)
from treecut import _fastlane, solver
from treecut.tree import part_cap


def _shaped_tree(rng, n, shape, use_pot, potential=None, legs=None):
    """A tree of ``n`` vertices rooted at vertex 0, the end of any path
    or spine: a path, a star, a caterpillar (legs on the first half), a
    broom (a handle, then a star at its end), a spider (``legs`` legs from
    the root, or one to five) or a random recursive tree.  Potentials are
    0-4 with ``use_pot``, or ``potential(rng)`` per vertex where that is
    given."""
    half = max(1, n // 2)
    if shape == "path":
        parents = list(range(n - 1))
    elif shape == "star":
        parents = [0] * (n - 1)
    elif shape == "caterpillar":
        parents = list(range(half - 1)) + [rng.randrange(half) for _ in range(half, n)]
    elif shape == "broom":
        parents = list(range(half - 1)) + [half - 1] * (n - half)
    elif shape == "spider":
        legs = legs or rng.randint(1, 5)
        parents = [0 if i <= legs else i - legs for i in range(1, n)]
    else:
        parents = [rng.randrange(i) for i in range(1, n)]
    if potential is None:
        potential = (lambda rng: rng.randint(0, 4)) if use_pot else (lambda rng: 0)
    return build_rooted_tree(
        [(i, rng.randint(1, 5), potential(rng)) for i in range(n)],
        [(p, i, rng.randint(1, 5)) for i, p in enumerate(parents, start=1)], 0)


_SHAPES = ("path", "star", "caterpillar", "broom", "spider", "random")


def _scaled_star():
    """The unit star with every quantity scaled by 2^200, over the int64
    bound."""
    return past_bound(star_tree(), False)


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            ProblemSpec(1, 0, 0)
        with pytest.raises(InvalidInput):
            ProblemSpec(1, 1, -1)
        with pytest.raises(InvalidInput):
            ProblemSpec(-1, 1, 0)

    def test_xi_coerced_to_fraction(self):
        assert ProblemSpec("1/3", 1, 0).xi == Fraction(1, 3)


class TestEdgeCharge:
    def test_zero_threshold_gives_edge_cost(self):
        t = star_tree(cost=5)
        assert edge_charge(t, 0, "x") == 5

    def test_unit_star(self):
        t = star_tree()
        assert edge_charge(t, 1, "x") == 2

    def test_potential_variant(self):
        t = build_rooted_tree([("r", 1), ("x", 1, 1)], [("r", "x", 1)], "r")
        assert edge_charge(t, 1, "x", use_potentials=True) == 1

    def test_root_has_no_real_edge(self):
        with pytest.raises(RootHasNoParentEdge):
            edge_charge(star_tree(), 1, "r")


class TestGammaRows:
    def test_unit_star_values(self):
        t = star_tree()
        tab = _grid.solve(t, ProblemSpec(1, 4, 0))
        assert tab.gamma_value("r", 1, 0) == 0
        assert tab.gamma_value("r", 2, 0) == 2
        assert tab.gamma_value("r", 4, 0) == 6

    def test_infeasible_cut_is_infinite(self):
        # at threshold 0 the leaf part cannot pay its edge, so two parts fail
        t = path_tree(("a", "b"), root="b")
        tab = _grid.solve(t, ProblemSpec(0, 2, 0))
        assert tab.gamma_value("b", 2, 0) == INFINITY
        assert not tab.feasible

    def test_gamma_infinite_beyond_subtree_size(self):
        rng = random.Random(2)
        for _ in range(10):
            t = random_tree(rng, rng.randint(2, 8))
            tab = _grid.solve(t, ProblemSpec(Fraction(3, 2), t.vertex_count, 2))
            for v in t.vertex_ids():
                size = t.subtree_vertex_count(v)
                for k in range(size + 1, tab.kappa + 1):
                    for l in range(tab.lam + 1):
                        assert tab.gamma_value(v, k, l) == INFINITY
                        assert not tab.mu_value(v, k, l)


class TestMuRows:
    def test_unit_star_threshold_branch(self):
        t = star_tree()
        tab = _grid.solve(t, ProblemSpec(1, 2, 0))
        assert tab.mu_value("r", 2, 0)

    def test_whole_subtree_as_residue(self):
        t = path_tree(("a", "b", "c"), root="c")
        tab = _grid.solve(t, ProblemSpec(0, 1, 3))
        assert tab.mu_value("c", 0, 3)
        assert not tab.mu_value("c", 0, 2)

    def test_forbidden_vertex_blocks_residue(self):
        t = path_tree(("a", "b", "c"), root="c")
        spec = ProblemSpec(0, 1, 2, forbidden_outliers=frozenset({"b"}))
        tab = _grid.solve(t, spec)
        # the only witness keeps everything covered: one part, empty residue
        assert tab.mu_value("c", 1, 2)
        assert tab.gamma_value("c", 1, 2) == 0
        # and the all-residue option below b's subtree is gone
        assert not tab.mu_value("b", 0, 2)

    def test_base_row_counts_subtree_size(self):
        rng = random.Random(3)
        for _ in range(10):
            t = random_tree(rng, rng.randint(1, 8))
            n = t.vertex_count
            tab = _grid.solve(t, ProblemSpec(1, min(3, n), n))
            for v in t.vertex_ids():
                size = t.subtree_vertex_count(v)
                for l in range(tab.lam + 1):
                    assert tab.mu_value(v, 0, l) == (size <= l)


class TestLeafRows:
    @pytest.mark.parametrize("cost,expected", [(1, True), (2, False)])
    def test_leaf_feasibility(self, cost, expected):
        t = build_rooted_tree([("r", 1), ("u", 1)], [("r", "u", cost)], "r")
        tab = _grid.solve(t, ProblemSpec(1, 1, 0))
        assert tab.mu_value("u", 1, 0) == expected

    def test_forbidden_leaf_cannot_be_residue(self):
        t = path_tree(("u", "r"), root="r")
        spec = ProblemSpec(1, 1, 1, forbidden_outliers=frozenset({"u"}))
        tab = _grid.solve(t, spec)
        for l in range(tab.lam + 1):
            assert not tab.mu_value("u", 0, l)


class TestDecide:
    def test_two_vertex_path(self):
        t = path_tree(("a", "b"))
        assert decide(t, ProblemSpec(1, 2, 0))
        assert not decide(t, ProblemSpec(Fraction(1, 2), 2, 0))

    def test_whole_tree_is_always_free(self):
        rng = random.Random(4)
        for _ in range(10):
            t = random_tree(rng, rng.randint(1, 9))
            assert decide(t, ProblemSpec(0, 1, 0))

    def test_star_with_outlier_budget(self):
        assert not decide(star_tree(), ProblemSpec(Fraction(1, 3), 2, 1))

    def test_more_parts_than_vertices(self):
        t = star_tree()
        assert not decide(t, ProblemSpec(100, 5, 0))

    def test_unknown_forbidden_id(self):
        spec = ProblemSpec(1, 2, 1, forbidden_outliers=frozenset({"nope"}))
        with pytest.raises(UnknownVertexId):
            decide(star_tree(), spec)
        with pytest.raises(UnknownVertexId):
            decide_batch(star_tree(), spec, [0, 1])

    def test_batch_rejects_a_negative_threshold(self):
        # as decide and k_max do, inside the int64 bound and past it, and
        # before the part count could answer alone
        t = path_tree(range(6), root=0)
        for tree in (t, _scaled_star()):
            for parts in (2, 9):
                with pytest.raises(InvalidInput):
                    decide_batch(tree, ProblemSpec(1, parts, 1), [-1, 1])
                with pytest.raises(InvalidInput):
                    decide_batch(tree, ProblemSpec(1, parts, 1), [1, Fraction(-1, 2)])
            with pytest.raises(InvalidInput):
                decide(tree, ProblemSpec(1, 2, 1).with_xi(-1))
            with pytest.raises(InvalidInput):
                k_max(tree, -1, 1)


class TestTableInvariants:
    def test_monotone_in_budget(self):
        rng = random.Random(9)
        for _ in range(15):
            t = random_tree(rng, rng.randint(2, 9))
            tab = _grid.solve(t, ProblemSpec(Fraction(2, 3), 3, 3))
            for v in t.vertex_ids():
                for k in range(tab.kappa + 1):
                    for l in range(tab.lam):
                        assert tab.mu_value(v, k, l) <= tab.mu_value(v, k, l + 1)
                        if k >= 1:
                            assert tab.gamma_value(v, k, l) >= tab.gamma_value(v, k, l + 1)

    def test_variant_flags_degenerate_to_base(self):
        rng = random.Random(10)
        for _ in range(10):
            t = random_tree(rng, rng.randint(1, 8))
            xi = Fraction(rng.randint(0, 8), rng.randint(1, 5))
            base = _grid.solve(t, ProblemSpec(xi, 3, 2))
            with_pot = _grid.solve(t, ProblemSpec(xi, 3, 2, use_potentials=True))
            with_forb = _grid.solve(t, ProblemSpec(xi, 3, 2, forbidden_outliers=frozenset()))
            assert base.same_tables(with_pot)
            assert base.same_tables(with_forb)


class TestLaneAgreement:
    def test_fast_lane_matches_python_lane(self):
        assert _fastlane.available()
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randint(1, 10)
            t = random_tree(rng, n)
            use_pot = rng.random() < 0.4
            if use_pot:
                # rebuild with potentials
                t = build_rooted_tree(
                    [(v, t.weight(v), rng.randint(0, 2)) for v in t.vertex_ids()],
                    [(t.parent_of(v), v, t.parent_edge_cost(v))
                     for v in t.vertex_ids() if t.parent_of(v) is not None],
                    t.root_id)
            forb = frozenset(v for v in t.vertex_ids() if rng.random() < 0.2)
            xi = Fraction(rng.randint(0, 6), rng.randint(1, 4))
            spec = ProblemSpec(xi, min(3, n), 2, use_pot, forb)
            lam = min(spec.outliers, n)
            fast = _fastlane.root_row(t, spec.xi, min(spec.parts, n),
                                      lam, use_pot, forb)
            slow = _grid.solve(t, spec, record_choices=False).root_row()
            assert _least_row(fast, lam) == [[int(x) for x in row] for row in slow]
            assert all(type(x) is int for x in fast)

    def test_batch_matches_single(self):
        rng = random.Random(21)
        t = random_tree(rng, 7)
        spec = ProblemSpec(0, 2, 1)
        xis = [Fraction(a, b) for a in range(0, 5) for b in (1, 2, 3)]
        batch = decide_batch(t, spec, xis)
        singles = [decide(t, spec.with_xi(x)) for x in xis]
        assert batch == singles

    def test_huge_numbers_fall_back_to_exact_python(self):
        # values near 2^200 leave the int64 bound, and the sweep falls back
        # to exact Python ints: scaling every quantity changes no root row
        # and no decision
        base = star_tree()
        scaled_up = _scaled_star()
        assert scaled_up.dense_arrays()["w_sub"].dtype == object
        for kappa, lam, xi in [(2, 0, 1), (4, 0, 3), (4, 0, Fraction(5, 2)),
                               (2, 1, Fraction(1, 3))]:
            spec = ProblemSpec(xi, kappa, lam)
            assert not _fastlane.fits(scaled_up, [spec.xi], min(kappa, 4), lam)
            assert _fastlane.root_row(scaled_up, spec.xi, min(kappa, 4), lam, False, ()) \
                == _fastlane.root_row(base, spec.xi, min(kappa, 4), lam, False, ())
            assert decide(scaled_up, spec) == decide(base, spec)
        spec = ProblemSpec(1, 2, 1)
        assert decide_batch(scaled_up, spec, [0, 1, 3]) == \
            decide_batch(base, spec, [0, 1, 3])

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    def test_numpy_kernel_matches_python_lane(self, monkeypatch, chunk_bytes):
        # call the kernel directly, on every shape, the deep and tiny ones
        # the solver hands to the Python lane too.  Potentials make cut
        # charges negative, so an infinite cell plus a charge must stay
        # infinite.  chunk_bytes=1 sweeps one threshold at a time.
        if chunk_bytes is not None:
            monkeypatch.setattr(_fastlane, "_NP_CHUNK_BYTES", chunk_bytes)
        rng = random.Random(22)
        for trial in range(60):
            n = rng.randint(1, 60)
            use_pot = trial % 3 == 0
            # paths, random recursive trees, and shallow trees where each
            # vertex hangs below the first sixth of those before it
            fanout = 6 if trial % 2 else 1
            t = build_rooted_tree(
                [(i, rng.randint(1, 4), rng.randint(0, 3) if use_pot else 0)
                 for i in range(n)],
                [(rng.randrange(max(1, i // fanout)), i, rng.randint(1, 4))
                 if trial % 4 else (i - 1, i, rng.randint(1, 4))
                 for i in range(1, n)], 0)
            forb = frozenset(v for v in range(n) if rng.random() < 0.1)
            kappa = min(rng.choice((1, 2, 3, 5, 12)), n)
            lam = min(rng.choice((0, 1, 2, 4)), n)
            xis = [Fraction(rng.randint(0, 12), rng.randint(1, 5)) for _ in range(5)]
            tables = [_grid.solve(t, ProblemSpec(x, kappa, lam, use_pot, forb),
                                  record_choices=False) for x in xis]
            least = _fastlane.root_row(t, xis[0], kappa, lam, use_pot, forb)
            assert _least_row(least, lam) == [list(r) for r in tables[0].root_row()]
            assert _fastlane.decide_many(t, xis, kappa, lam, use_pot, forb) \
                == [tab.feasible for tab in tables]

    def test_numpy_kernel_min_plus_products(self):
        # both products against their definitions, on int64 and on Python
        # ints, on rows with infinite cells and negative charges, cut to at
        # most ``rows`` rows and saturated to inf: an infinite cell plus a
        # negative charge stays above every finite sum.  These shapes are
        # gathered; ``test_min_plus_products_in_every_branch`` loops
        rng = random.Random(23)
        for trial in range(80):
            dtype, inf = ((np.int64, 1 << 59), (object, 1 << 200))[trial % 2]
            ky, kx, lp1 = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
            rows = rng.randint(1, ky + kx)
            Y, X = ([[rng.choice((inf, rng.randint(-9, 9))) for _ in range(lp1)]
                     for _ in range(k)] for k in (ky, kx))
            got = _fastlane._min_plus_gamma(np.array(Y, dtype=dtype)[:, :, None, None],
                                            np.array(X, dtype=dtype)[:, :, None, None],
                                            rows, inf)
            want = [[min([Y[i][lp] + X[c - i][l - lp]
                          for i in range(min(c + 1, ky)) for lp in range(l + 1)
                          if c - i < kx] + [inf])
                     for l in range(lp1)] for c in range(rows)]
            assert got[:, :, 0, 0].tolist() == want
            assert all(x <= 18 or x >= inf - 9 for row in want for x in row)

            none = lp1
            U = [rng.randint(0, none) for _ in range(ky)]
            M = [rng.randint(0, none) for _ in range(kx)]
            got = _fastlane._min_plus_mu(np.array(U)[:, None, None], np.array(M)[:, None, None],
                                         rows, none)
            want = [min([none] + [U[i] + M[k - i] for i in range(min(k + 1, ky))
                                  if k - i < kx])
                    for k in range(rows)]
            assert got[:, 0, 0].tolist() == want

    @pytest.mark.parametrize("dtype, inf", [(np.int64, 1 << 59), (object, 1 << 200)])
    def test_min_plus_products_in_every_branch(self, monkeypatch, dtype, inf):
        # the products above take one gather each; here, against the same
        # definitions, looped operands of ``_BLOCK_ROWS`` rows or more (in
        # blocks) and products whose summed cells pass the gather's budget
        # (row by row, or budget by budget), each over many thresholds and
        # vertices, beside gathered ones of those shapes
        gathers = []
        gathered = _fastlane._gathered
        monkeypatch.setattr(_fastlane, "_gathered",
                            lambda *args, **kw: gathers.append(1) or gathered(*args, **kw))

        def gamma(Y, X, rows):
            out = np.full((rows,) + Y.shape[1:], inf, dtype=dtype)
            for c, l in itertools.product(range(rows), range(Y.shape[1])):
                for i, lp in itertools.product(range(min(c + 1, Y.shape[0])), range(l + 1)):
                    if c - i < X.shape[0]:
                        out[c, l] = np.minimum(out[c, l], Y[i, lp] + X[c - i, l - lp])
            return np.minimum(out, inf)

        def mu(U, M, rows, none):
            out = np.full((rows,) + U.shape[1:], none, dtype=U.dtype)
            for k, i in itertools.product(range(rows), range(U.shape[0])):
                if i <= k and k - i < M.shape[0]:
                    out[k] = np.minimum(out[k], U[i] + M[k - i])
            return out

        def cells(rng, shape):
            values = [rng.choice((inf, rng.randint(-9, 9)))
                      for _ in range(int(np.prod(shape)))]
            return np.array(values, dtype=dtype).reshape(shape)

        rng = random.Random(41)
        for loop, rest, gather in (((8, 12), (1, 2), False), ((1, 5), (2, 2000), False),
                                   ((1, 5), (2, 3), True)):
            for _ in range(6):
                ky = rng.randint(*loop)
                kx, lp1 = rng.randint(ky, ky + 6), rng.randint(2, 4)
                rows = rng.randint(ky, ky + kx)  # loops over all ky rows
                Y, X = cells(rng, (ky, lp1) + rest), cells(rng, (kx, lp1) + rest)
                del gathers[:]
                got = _fastlane._min_plus_gamma(Y, X, rows, inf)
                assert len(gathers) == gather
                assert got.dtype == Y.dtype and got.tolist() == gamma(Y, X, rows).tolist()
                assert got.tolist() == _fastlane._min_plus_gamma(X, Y, rows, inf).tolist()

                # least budgets have no budget axis: four times the cells
                # per row keep the second case past the gather's budget
                none = lp1
                U, M = (np.array([rng.randint(0, none) for _ in range(4 * k * rest[1])])
                        .reshape(k, 2, -1) for k in (ky, kx))
                del gathers[:]
                got = _fastlane._min_plus_mu(U, M, rows, none)
                assert len(gathers) == gather
                assert got.tolist() == mu(U, M, rows, none).tolist()

        # the budget product with a leading axis, as the scan's light
        # products take it, gathered and budget by budget
        for lead, vertices, gather in ((3, 2, True), (1, 2000, False), (2, 1500, False)):
            for lp1 in (2, 4, 6):
                z, x = (cells(rng, (lead, lp1, 2, vertices)) for _ in range(2))
                del gathers[:]
                got = _fastlane._min_plus_budget(z, x, inf)
                assert len(gathers) == gather
                want = np.full(z.shape, inf, dtype=dtype)
                for l in range(lp1):
                    for lp in range(l + 1):
                        want[:, l] = np.minimum(want[:, l], z[:, lp] + x[:, l - lp])
                assert got.tolist() == np.minimum(want, inf).tolist()

    def test_plan_cache_holds_at_most_its_bytes(self):
        # a plan grows to the most rows asked of it and is sliced to the
        # rows asked; past the limit the least recently used plans go,
        # and the cache counts exactly the bytes it holds
        plans = _fastlane._Plans(20_000)
        rng = random.Random(42)
        for _ in range(300):
            loop, lp1, rows = rng.randint(1, 7), rng.randint(1, 6), rng.randint(1, 40)
            got = plans.get(loop, lp1, rows)
            want = _fastlane._plan(loop, lp1, rows)
            assert [g.tolist() for g in got] == [w.tolist() for w in want]
            assert plans.held == sum(2 * p[0].nbytes for p in plans.plans.values())
            assert plans.held <= plans.limit or len(plans.plans) == 1
            assert next(reversed(plans.plans)) == (loop, lp1)
        assert _fastlane._PLANS.limit == _fastlane._PLAN_BYTES == 1 << 18

    def test_numpy_kernel_folds_each_run(self):
        # a sum fold whose merge grows axis 0, as merged subtrees hold more
        # parts: unmerged items are padded with the fill value
        rng = random.Random(24)
        for _ in range(20):
            counts = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
            values = [rng.randint(0, 99) for _ in range(sum(counts))]

            def merge(a, b):
                grown = np.zeros((a[0].shape[0] + 1,) + a[0].shape[1:], dtype=np.int64)
                grown[0] = a[0][0] + b[0][0]
                return (grown,)

            (got,) = _fastlane._fold_runs(
                _fastlane._fold_plan(np.array(counts)),
                (np.array(values).reshape(1, 1, -1),), (0,), merge)
            ends = np.cumsum(counts).tolist()
            assert got[0, 0].tolist() == [sum(values[e - c:e])
                                          for c, e in zip(counts, ends)]
            assert got.shape[0] == 1 + (max(counts) - 1).bit_length()

    def test_tables_over_the_size_gate_raise(self):
        # outliers = n on a 20000-vertex star: the leaves' tables alone
        # would hold 20000 x 20001 int64 cells, 3.2 GB.  No sweep runs, and
        # the error names the figure and the gate
        n = 20000
        t = build_rooted_tree([(i, 1) for i in range(n)],
                              [(0, i, 1) for i in range(1, n)], 0)
        figure = _fastlane._chain_bytes(t, n, n)
        assert figure > _fastlane._MAX_TABLE_BYTES
        message = f"{figure} bytes .* {_fastlane._MAX_TABLE_BYTES} bytes"
        with pytest.raises(TablesTooLarge, match=message):
            _fastlane.root_row(t, Fraction(1), n, n, False, ())
        with pytest.raises(TablesTooLarge, match=message):
            _fastlane.decide_many(t, [Fraction(1)], n, n, False, ())
        with pytest.raises(TablesTooLarge):
            solve(t, ProblemSpec(1, n, n))

    def test_every_query_over_the_gate_raises(self, monkeypatch):
        # a gate one byte under one threshold's figure at (3, 2): decide,
        # decide_batch, root_feasibility, k_max, solve and min_xi raise
        # TablesTooLarge, inside the int64 bound and past it, and no other
        # path answers; at the figure a decision answers.  Forests raise too
        t = _shaped_tree(random.Random(44), 30, "random", True)
        spec = ProblemSpec(1, 3, 2, True)
        queries = (lambda t: decide(t, spec), lambda t: decide_batch(t, spec, [0, 1, 2]),
                   lambda t: root_feasibility(t, spec), lambda t: k_max(t, 1, 2, True),
                   lambda t: solve(t, spec), lambda t: min_xi(t, 3, 2, use_potentials=True))
        for tree in (t, past_bound(t, False), past_bound(t, True)):
            figure = _fastlane._chain_bytes(
                tree, 3, 2, _fastlane._int_bytes(tree, [spec.xi], 3, 2))
            monkeypatch.setattr(_fastlane, "_MAX_TABLE_BYTES", figure - 1)
            for query in queries:
                with pytest.raises(TablesTooLarge):
                    query(tree)
            monkeypatch.setattr(_fastlane, "_MAX_TABLE_BYTES", figure)
            assert decide(tree, spec) == (_least._least_budgets(tree, spec)[3] <= 2)
        forest = _forest(random.Random(45), [12, 18], True)
        monkeypatch.setattr(_fastlane, "_MAX_TABLE_BYTES", 0)
        for want_witness in (False, True):
            with pytest.raises(TablesTooLarge):
                decide_forest(forest, spec, want_witness)
        with pytest.raises(TablesTooLarge):
            min_xi(forest, 3, 2, use_potentials=True)

    def test_kernel_takes_k_max_on_a_wide_star(self, monkeypatch):
        # parts = n on a 16,500-leaf star: the centre's tables hold n rows
        # and each leaf's one or two, so the memory figure stays within the
        # gate (n (n + 1) cells would not)
        leaves = 16500
        star = star_tree(leaves=range(1, leaves + 1), center=0)
        rows = []
        lane = _fastlane.root_row
        monkeypatch.setattr(_fastlane, "root_row",
                            lambda *args: rows.append(lane(*args)) or rows[-1])
        # the centre's part needs j >= (leaves - 3) / 4 leaves to keep its
        # expansion (leaves - j) / (j + 1) within 3; every other leaf is a
        # part of its own
        j = -(-(leaves - 3) // 4)
        assert k_max(star, 3, 0) == 1 + leaves - j
        assert len(rows) == 1 and rows[0] is not None

    def test_sweep_peak_stays_within_the_memory_figure(self):
        # tracemalloc sees numpy's buffers; parts up to n, and potentials
        # that make the chain sweep's z non-zero (its doubling scans keep
        # composite z's)
        rng = random.Random(25)
        n = 150
        half = n // 2
        shapes = {
            "star": [0] * (n - 1),
            "path": list(range(n - 1)),
            "caterpillar": list(range(half - 1)) + [rng.randrange(half)
                                                    for _ in range(half, n)],
            "random": [rng.randrange(i) for i in range(1, n)],
            "broom": [0] + list(range(1, half - 1)) + [0] * (n - half),
            "spider": [0 if i <= 5 else i - 5 for i in range(1, n)],
        }
        trees = {name: build_rooted_tree([(i, rng.randint(1, 3), i % 4) for i in range(n)],
                                         [(p, i, rng.randint(1, 3))
                                          for i, p in enumerate(parents, 1)], 0)
                 for name, parents in shapes.items()}
        # a three-tree forest's layout: a random tree, a star and a
        # caterpillar of n / 3 vertices each under a virtual root
        third = n // 3
        trees["forest"] = Forest(tuple(build_rooted_tree(
            [((j, i), rng.randint(1, 3), i % 4) for i in range(third)],
            [((j, p), (j, i), rng.randint(1, 3)) for i, p in enumerate(parents, 1)], (j, 0))
            for j, parents in enumerate((
                [rng.randrange(i) for i in range(1, third)], [0] * (third - 1),
                list(range(third // 2 - 1)) + [rng.randrange(third // 2)
                                               for _ in range(third // 2, third)])))).layout
        for name, t in trees.items():
            t.heavy_paths()
            forb = _fastlane._forb_array(t, ())
            for (kappa, lam), (xi, use_pot) in itertools.product(
                    ((3, 20), (n, 3)), ((Fraction(3), False), (Fraction(1, 3), True))):
                bound = _fastlane._FIXED_BYTES + _fastlane._chain_bytes(t, kappa, lam)
                tracemalloc.start()
                try:
                    _fastlane._chain_sweep(t, forb, [xi], kappa, lam, use_pot)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= bound, (name, kappa, lam, peak, bound)

    def test_first_sweep_peak_stays_within_the_memory_figure(self):
        # the first sweep on a tree also builds what it keeps with the
        # dense arrays (its fold plan per round and its scans' indices);
        # 5000-vertex trees, each swept on a fresh tree; and past the int64
        # bound, where a cell also holds an int object, 600-vertex trees
        # scaled by 2^200
        xi = Fraction(1, 3)
        shapes = ("star", "path", "caterpillar", "random")
        cases = [(shape, 5000 + (shape == "star"), budgets, False)
                 for shape, budgets in itertools.product(shapes, ((2, 0), (3, 2), (20, 5)))]
        cases += [(shape, 600, budgets, True)
                  for shape, budgets in itertools.product(shapes, ((2, 0), (3, 2)))]
        cases.append(("star", 600, (20, 5), True))
        for shape, size, (kappa, lam), big in cases:
            t = _shaped_tree(random.Random(size), size, shape, True)
            if big:
                t = past_bound(t, False)
            t.heavy_paths()
            bound = _fastlane._FIXED_BYTES + _fastlane._chain_bytes(
                t, kappa, lam, _fastlane._int_bytes(t, [xi], kappa, lam))
            forb = _fastlane._forb_array(t, ())
            tracemalloc.start()
            try:
                _fastlane._chain_sweep(t, forb, [xi], kappa, lam, True)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound, (shape, kappa, lam, big, peak, bound)

    def test_step_round_figure_follows_its_peak(self):
        # parts = n on a 2000-vertex caterpillar: its spine is one step
        # round of 2000 rows, whose steps each hold one position's tables,
        # and its light folds hold a leaf's rows; the figure prices what
        # the rounds hold, not every light parent at the spine's rows
        t = _shaped_tree(random.Random(36), 2000, "caterpillar", True)
        t.heavy_paths()
        forb = _fastlane._forb_array(t, ())
        for lam in (0, 3):
            tracemalloc.start()
            try:
                _fastlane._chain_sweep(t, forb, [Fraction(1, 3)], 2000, lam, True)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= _fastlane._FIXED_BYTES + _fastlane._chain_bytes(t, 2000, lam) \
                <= _fastlane._FIXED_BYTES + 4 * peak, (lam, peak)

    def test_lanes_for_deep_thin_wide_and_oversized_trees(self, monkeypatch):
        # values over the int64 bound take the sweep on Python ints, and
        # deep, thin trees and wide, shallow ones alike the int64 sweep,
        # within the memory gate
        one = [Fraction(1)]
        assert not _fastlane.fits(_scaled_star(), one, 2, 1)
        n = 100_000
        rng = random.Random(28)
        for t, kappa, lam in ((path_tree(range(n), root=0), 5, 3),
                              (_shaped_tree(rng, n // 10, "caterpillar", False), 5, 3),
                              (star_tree(leaves=range(1, n), center=0), 2, 0)):
            assert _fastlane.fits(t, one, kappa, lam)
            assert _fastlane._chain_bytes(t, kappa, lam) <= _fastlane._MAX_TABLE_BYTES

        # both dtypes answer as the grid does
        n = 200
        trees = {"path": path_tree(range(n), root=0), "star": star_tree(leaves=range(n)),
                 "python": _scaled_star()}
        seen = []  # each sweep's tree and cell dtype
        thresholds = _fastlane._thresholds

        def record(tree, *args):
            out = thresholds(tree, *args)
            seen.append((tree, out[0].dtype))
            return out

        monkeypatch.setattr(_fastlane, "_thresholds", record)
        spec = ProblemSpec(1, 2, 1)
        for name, t in trees.items():
            assert root_feasibility(t, spec) == [
                list(r) for r in _grid.solve(t, spec, record_choices=False).root_row()]
            assert decide_batch(t, spec, [0, 1]) == [
                decide(t, spec.with_xi(x)) for x in (0, 1)]
            want = np.dtype(object if name == "python" else np.int64)
            assert {d for u, d in seen if u is t} == {want}

    def test_every_path_returns_the_same_types(self):
        # root_feasibility returns a list of lists of 0/1 Python ints, and
        # decide/decide_batch exact bools, from the int64 sweep (a star and
        # a path) and the sweep on Python ints (over the int64 bound) alike
        n = 200
        trees = {"star": star_tree(leaves=range(n)), "path": path_tree(range(n), root=0),
                 "python": _scaled_star()}
        spec = ProblemSpec(1, 2, 1)
        for name, t in trees.items():
            assert _fastlane.fits(t, [spec.xi], 2, 1) == (name != "python")
            row = _fastlane.root_row(t, spec.xi, 2, 1, False, ())
            assert all(type(x) is int for x in row)
        for t in trees.values():
            row = root_feasibility(t, spec)
            assert type(row) is list and len(row) == 3
            for r in row:
                assert type(r) is list and len(r) == 2
                for cell in r:
                    assert type(cell) is int and cell in (0, 1)
            assert type(decide(t, spec)) is bool
            answers = decide_batch(t, spec, [0, 1, 3])
            assert type(answers) is list
            assert all(type(a) is bool for a in answers)
            assert decide_batch(t, spec, []) == []


class TestPythonLane:
    """The chain sweep on Python ints (dtype object), which decides past
    the int64 bound, against the grid DP and the reference least-budget
    sweep (tests/_least.py)."""

    def test_values_past_the_bound_take_python_ints(self, monkeypatch):
        # every shape scaled by 2^200, and with rational weights whose
        # scale leaves int64: decide, decide_batch and k_max answer as the
        # grid DP does, one sweep per call, priced at 0
        rng = random.Random(41)
        sweeps = []
        chain_sweep = _fastlane._chain_sweep
        monkeypatch.setattr(_fastlane, "_chain_sweep",
                            lambda *args: sweeps.append(args) or chain_sweep(*args))
        for trial, shape in enumerate(_SHAPES * 2):
            use_pot = shape in ("caterpillar", "random")
            t = past_bound(_shaped_tree(rng, 9, shape, use_pot), trial >= len(_SHAPES))
            assert t.dense_arrays()["w_sub"].dtype == object
            n = t.vertex_count
            for parts, lam in ((1, 0), (2, 1), (3, 2), (n, 1)):
                spec = ProblemSpec(Fraction(rng.randint(0, 12), rng.randint(1, 4)),
                                   parts, lam, use_pot)
                xis = [Fraction(j, 2) for j in range(8)]
                assert not _fastlane.fits(t, xis, parts, lam)
                assert _fastlane.cost_us(t, xis, parts, lam) == 0
                sweeps.clear()
                assert decide(t, spec) == _grid.solve(t, spec, record_choices=False).feasible
                assert decide_batch(t, spec, xis) == [
                    _grid.solve(t, spec.with_xi(x), record_choices=False).feasible for x in xis]
                assert len(sweeps) == 2
                grid = _grid.solve(t, ProblemSpec(spec.xi, n, lam, use_pot),
                                   record_choices=False).root_row()
                assert k_max(t, spec.xi, lam, use_pot) == max(
                    (k for k in range(1, n + 1) if grid[k][lam]), default=0)

    def test_root_rows_past_the_bound_equal_the_reference(self, monkeypatch):
        # trees of every shape, scaled by 2^200 or with rational weights of
        # a large scale, and forest layouts of scaled trees: potentials,
        # forbidden vertices, parts from 1 to n (scan, step and leaf
        # rounds) and 1-3 thresholds, one sweep on Python ints, against the
        # reference and, on trees of at most 12 vertices, the grid DP
        kinds = []
        round_kind = _fastlane._round_kind
        monkeypatch.setattr(_fastlane, "_round_kind",
                            lambda *args: kinds.append(round_kind(*args)) or kinds[-1])
        rng = random.Random(42)
        for trial in range(48):
            use_pot = trial % 3 != 2
            rational = trial % 2 == 1
            forest = trial % 4 == 3
            if forest:
                trees = [past_bound(_shaped_tree(rng, rng.randint(1, 12), shape, use_pot),
                                     False, j)
                         for j, shape in enumerate(rng.sample(_SHAPES, 3))]
                t = Forest(tuple(trees)).layout
            else:
                t = past_bound(_shaped_tree(rng, rng.randint(9, 40), _SHAPES[trial % 6],
                                             use_pot), rational)
            n = t.vertex_count
            forb = frozenset(v for v in t.ids if rng.random() < 0.15)
            kappa = rng.choice((1, 2, 3, rng.randint(1, n), n))
            lam = min(rng.randint(0, 5), n)
            xis = [Fraction(rng.randint(0, 12), rng.randint(1, 5))
                   for _ in range(rng.randint(1, 3))]
            assert not _fastlane.fits(t, xis, kappa, lam)
            got = _numpy_least(t, forb, xis, kappa, lam, use_pot)
            for xi, row in zip(xis, got):
                spec = ProblemSpec(xi, kappa, lam, use_pot, forb)
                assert row == [min(w, lam + 1) for w in _least._least_budgets(t, spec)]
                if n <= 12 and not forest:
                    assert _least_row(row, lam) == _table_row(t, spec)
        assert {"scan", "step", "leaf"} <= set(kinds)

    def test_a_batch_mixing_thresholds_inside_and_past_the_bound(self, monkeypatch):
        # thresholds with a numerator or a denominator past the int64
        # bound, among others that fit: decide_batch equals decide at each
        # threshold and the grid DP, whether the batch shares one sweep (on
        # Python ints) or takes one per threshold (on int64 but for those
        # past the bound)
        t = _shaped_tree(random.Random(43), 30, "random", True)
        spec = ProblemSpec(1, 3, 2, True)
        huge = [Fraction(1 << 62), Fraction(1, 1 << 70)]
        xis = [Fraction(0), Fraction(1, 3), huge[0], Fraction(5), huge[1]]
        fit = [x for x in xis if x not in huge]
        assert not _fastlane.fits(t, xis, 3, 2) and _fastlane.fits(t, fit, 3, 2)
        want = [_grid.solve(t, spec.with_xi(x), record_choices=False).feasible for x in xis]
        assert want == [decide(t, spec.with_xi(x)) for x in xis]
        seen = []  # each sweep's thresholds and cell dtype
        charges = _fastlane._charges

        def record(dense, a, b, *args):
            seen.append(([Fraction(p, q) for p, q in zip(a, b)], a.dtype))
            return charges(dense, a, b, *args)

        monkeypatch.setattr(_fastlane, "_charges", record)
        for chunk_bytes, sweeps in ((1 << 40, [(xis, object)]),
                                    (1, [([x], object if x in huge else np.int64)
                                         for x in xis])):
            monkeypatch.setattr(_fastlane, "_NP_CHUNK_BYTES", chunk_bytes)
            seen.clear()
            assert decide_batch(t, spec, xis) == want
            assert seen == sweeps

    def test_search_halves_once_per_python_sweep(self, monkeypatch):
        import treecut.search as search

        t = _shaped_tree(random.Random(47), 40, "random", True)
        want = min_xi(t, 3, 2, use_potentials=True)
        sizes = []
        batch = search.decide_batch
        monkeypatch.setattr(search, "decide_batch",
                            lambda tree, spec, xis: sizes.append(len(xis)) or batch(tree, spec, xis))
        # the same tree scaled past the int64 bound: the same optimum and
        # witness, from sweeps on Python ints that the cost rule prices at
        # 0
        got = min_xi(past_bound(t, False), 3, 2, use_potentials=True)
        assert (got.xi_star, got.witness) == (want.xi_star, want.witness)
        # the opening sweep: the bound, its predecessor and one halving
        # below it; then one threshold per sweep, and a finishing round of
        # one fraction and the one at or below the bracket's lower end
        assert sizes[0] == 3 and set(sizes[1:-1]) == {1} and sizes[-1] <= 2
        assert got.sweeps == len(sizes) > want.sweeps


class TestChainSweep:
    """The heavy-path chain sweep against the least-budget sweep and the
    grid DP."""

    def test_matches_the_python_lane(self, monkeypatch):
        # called directly, and through root_row and decide_many forced onto
        # it, one threshold per sweep and all at once: potentials (so that
        # light subtrees cut off to outliers make z non-zero), forbidden
        # vertices (which break the least-budget scan), parts from 1 to n
        # and up to 7 outliers
        rng = random.Random(26)
        for trial in range(240):
            shape = _SHAPES[trial % len(_SHAPES)]
            n = rng.randint(1, 40 if trial % 4 else 12)
            use_pot = trial % 3 != 2
            t = _shaped_tree(rng, n, shape, use_pot)
            forb = frozenset(v for v in range(n) if rng.random() < 0.15)
            kappa = rng.randint(1, n)
            lam = min(rng.randint(0, 7), n)
            xis = [Fraction(rng.randint(0, 12), rng.randint(1, 5)) for _ in range(3)]
            got = _fastlane._chain_sweep(
                t, _fastlane._forb_array(t, forb), xis, kappa, lam, use_pot).tolist()
            for xi, row in zip(xis, got):
                spec = ProblemSpec(xi, kappa, lam, use_pot, forb)
                assert row == [min(w, lam + 1) for w in _least._least_budgets(t, spec)]
                if n <= 12:
                    assert _least_row(row, lam) == _table_row(t, spec)
            assert _fastlane.root_row(t, xis[0], kappa, lam, use_pot, forb) == got[0]
            with monkeypatch.context() as patch:
                patch.setattr(_fastlane, "_NP_CHUNK_BYTES", 1 if trial % 2 else 1 << 25)
                assert _fastlane.decide_many(t, xis, kappa, lam, use_pot, forb) == [
                    row[kappa] <= lam for row in got]

    def test_long_paths_scan_in_rounds_of_many_paths(self):
        # spiders and brooms put many long paths in one round (bucketed
        # suffix minima, or doubling scans with potentials); deep
        # caterpillars with potentials compose z's over many steps
        rng = random.Random(29)
        for trial in range(24):
            shape = ("spider", "broom", "caterpillar", "random")[trial % 4]
            n = rng.randint(60, 300)
            use_pot = trial % 2 == 0
            t = _shaped_tree(rng, n, shape, use_pot)
            forb = frozenset(v for v in range(n) if rng.random() < 0.02)
            kappa = rng.choice((2, 4, 9))
            lam = rng.choice((1, 3, 6))
            xi = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            spec = ProblemSpec(xi, kappa, lam, use_pot, forb)
            got = _fastlane._chain_sweep(t, _fastlane._forb_array(t, forb), [xi], kappa, lam,
                                         use_pot)
            assert got[0].tolist() == [min(w, lam + 1) for w in _least._least_budgets(t, spec)]

    @pytest.mark.parametrize("potentials", ["sparse", "dense", "zero"])
    def test_sparse_dense_and_zero_potentials_match_the_python_lane(self, monkeypatch,
                                                                     potentials):
        # z is non-zero at a few positions of a round (sparse), at most of
        # those with light children (dense) or nowhere (zero, though the
        # sweep takes potentials): trees and forest layouts, 1-4
        # thresholds and forbidden vertices.  The maps composed where z is
        # non-zero, and only there, give the least-budget sweep's rows
        potential = {"sparse": lambda rng: rng.randint(4, 12) if rng.random() < 0.08 else 0,
                     "dense": lambda rng: rng.randint(2, 8),
                     "zero": lambda rng: 0}[potentials]
        composed = []  # light parents and non-zero positions per round
        z_chains = _fastlane._z_chains

        def spy(z, lpar, *args):
            chains = z_chains(z, lpar, *args)
            composed.append((lpar.size, 0 if chains is None else chains[0].size))
            return chains

        monkeypatch.setattr(_fastlane, "_z_chains", spy)
        rng = random.Random(32)
        for trial in range(90):
            shapes = [_SHAPES[(trial + j) % len(_SHAPES)] for j in range(rng.randint(1, 4))]
            trees = [_shaped_tree(rng, rng.randint(1, 60), shape, True, potential)
                     for shape in shapes]
            if trial % 3:
                t = trees[0]
            else:
                t = Forest(tuple(build_rooted_tree(
                    [((j, v), x.weight(v), x.potential(v)) for v in x.ids],
                    [((j, x.parent_of(v)), (j, v), x.parent_edge_cost(v))
                     for v in x.ids if x.parent_of(v) is not None], (j, x.root_id))
                    for j, x in enumerate(trees))).layout
            n = t.vertex_count
            forb = frozenset(v for v in t.ids if rng.random() < 0.1)
            kappa = rng.randint(1, min(n, 12))
            lam = min(rng.randint(0, 6), n)
            xis = [Fraction(rng.randint(0, 4), rng.randint(2, 6))
                   for _ in range(rng.randint(1, 4))]
            got = _fastlane._chain_sweep(
                t, _fastlane._forb_array(t, forb), xis, kappa, lam, True).tolist()
            for xi, row in zip(xis, got):
                spec = ProblemSpec(xi, kappa, lam, True, forb)
                assert row == [min(w, lam + 1) for w in _least._least_budgets(t, spec)]
        light, nonzero = map(sum, zip(*composed))
        rounds = sum(1 for _l, k in composed if k)
        if potentials == "zero":
            assert light and not nonzero
        elif potentials == "sparse":
            assert rounds >= 20 and nonzero < 0.3 * light
        else:
            assert rounds >= 20 and nonzero > 0.5 * light

    def test_step_and_leaf_rounds_match_the_python_lane(self, monkeypatch):
        # parts from about n/2 to n make a round's tables taller than its
        # longest path, so it runs step by step up its paths, and rounds
        # of single leaves take their tables in closed form: stars, brooms,
        # spiders, caterpillars and random trees of 20-150 vertices, 0-5
        # outliers, forbidden vertices (leaves among them), 1-4 thresholds
        # (threshold 0 fails every leaf's test), with and without
        # potentials; and three-tree forests, whose layouts also decide
        # through decide_forest
        kinds = []
        round_kind = _fastlane._round_kind
        monkeypatch.setattr(_fastlane, "_round_kind",
                            lambda *args: kinds.append(round_kind(*args)) or kinds[-1])
        rng = random.Random(35)
        shapes = ("star", "broom", "spider", "caterpillar", "random")
        ran = {"step": 0, "leaf": 0}
        for trial in range(60):
            use_pot = trial % 2 == 0
            forest = None
            if trial % 6 == 5:
                sizes = (rng.randint(8, 30), rng.randint(8, 40), rng.randint(8, 50))
                trees = [_shaped_tree(rng, m, shape, use_pot)
                         for m, shape in zip(sizes, ("star", "broom", "caterpillar"))]
                forest = Forest(tuple(build_rooted_tree(
                    [((j, v), x.weight(v), x.potential(v)) for v in x.ids],
                    [((j, x.parent_of(v)), (j, v), x.parent_edge_cost(v))
                     for v in x.ids if x.parent_of(v) is not None], (j, x.root_id))
                    for j, x in enumerate(trees)))
                t = forest.layout
            else:
                shape = shapes[trial % len(shapes)]
                t = _shaped_tree(rng, rng.randint(20, 150), shape, use_pot,
                                 legs=rng.randint(2, 5))
            n = t.vertex_count
            forb = frozenset(v for v in t.ids if rng.random() < 0.15)
            kappa = rng.randint(n // 2 + 2, n)
            lam = rng.randint(0, 5)
            xis = [Fraction(rng.randint(0, 6), rng.randint(1, 8))
                   for _ in range(rng.randint(1, 4))]
            if trial % 3 == 0:
                xis[0] = Fraction(0)
            kinds.clear()
            got = _fastlane._chain_sweep(
                t, _fastlane._forb_array(t, forb), xis, kappa, lam, use_pot).tolist()
            for xi, row in zip(xis, got):
                spec = ProblemSpec(xi, kappa, lam, use_pot, forb)
                assert row == [min(w, lam + 1) for w in _least._least_budgets(t, spec)]
            # every input's tallest round runs step by step; stars,
            # brooms and caterpillars, and forests of them, hang single
            # leaves (a spider's legs and a random tree's deepest paths
            # need not be leaves)
            assert "step" in kinds, (trial, kinds)
            if forest is not None or shapes[trial % len(shapes)] in (
                    "star", "broom", "caterpillar"):
                assert "leaf" in kinds, (trial, kinds)
            for kind in ran:
                ran[kind] += kind in kinds
            if forest is not None:
                spec = ProblemSpec(xis[-1], kappa, lam, use_pot, forb)
                assert decide_forest(forest, spec, want_witness=False) == (
                    _least._least_budgets(t, spec)[kappa] <= lam, None)
        assert ran["step"] == 60 and ran["leaf"] >= 40

    def test_cost_is_affine_in_the_threshold_count(self):
        # on int64 the cost rule prices a sweep of t thresholds F + t * V,
        # F and V positive and fixed by the tree and budgets; past the
        # bound it prices nothing
        rng = random.Random(33)
        for shape in _SHAPES:
            t = _shaped_tree(rng, 300, shape, True)
            for kappa, lam in ((3, 2), (20, 5), (300, 0)):
                cost = [_fastlane.cost_us(t, [Fraction(j, 7) for j in range(1, nb + 1)],
                                          kappa, lam) for nb in range(1, 6)]
                v = cost[1] - cost[0]
                assert v > 0 and cost[0] > v
                assert cost == pytest.approx([cost[0] + j * v for j in range(5)])
            xis = [Fraction(1, 7), Fraction(2, 7)]
            assert _fastlane.cost_us(past_bound(t, False), xis, 3, 2) == 0

    def test_budget_product(self):
        # against its definition, on int64 and on Python ints, on rows
        # with infinite cells and negative charges, saturated to inf (one
        # gather; ``test_min_plus_products_in_every_branch`` loops)
        rng = random.Random(30)
        for trial in range(80):
            dtype, inf = ((np.int64, 1 << 59), (object, 1 << 200))[trial % 2]
            lp1 = rng.randint(1, 6)
            z, x = ([rng.choice((inf, rng.randint(-9, 9))) for _ in range(lp1)]
                    for _ in range(2))
            got = _fastlane._min_plus_budget(np.array(z, dtype=dtype)[:, None, None],
                                             np.array(x, dtype=dtype)[:, None, None], inf)
            assert got[:, 0, 0].tolist() == [
                min([z[lp] + x[l - lp] for lp in range(l + 1)] + [inf]) for l in range(lp1)]

    def test_k_max_on_a_deep_tree_takes_the_chain_sweep(self, monkeypatch):
        # parts = n and 20 outliers on a 60-vertex caterpillar: the chain
        # sweep answers, as the least-budget sweep does
        rng = random.Random(27)
        n = 60
        t = _shaped_tree(rng, n, "caterpillar", False)
        ran = []
        sweep = _fastlane._chain_sweep
        monkeypatch.setattr(_fastlane, "_chain_sweep",
                            lambda *args: ran.append(args) or sweep(*args))
        least = _least._least_budgets(t, ProblemSpec(3, n, 20))
        assert k_max(t, 3, 20) == next((k for k in range(n, 0, -1) if least[k] <= 20), 0)
        assert len(ran) == 1

    def test_scan_sums_stay_within_int64_at_the_gate(self):
        # the least-budget scan sums q <= lam + 1 over a round's m
        # vertices; the memory gate admits m (lam + 1) <= 2^31 / 96 row
        # cells, and at the largest lam it admits on paths up to 10^5
        # vertices the sums stay far inside int64.  At lam = n every
        # vertex-free sum is as large as it gets.
        for n in (10, 1000, 100_000):
            t = path_tree(range(n), root=0)
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if _fastlane._chain_bytes(t, 1, mid) <= _fastlane._MAX_TABLE_BYTES:
                    lo = mid
                else:
                    hi = mid - 1
            assert n * (lo + 2) < 1 << 40
        t = path_tree(range(40), weights=[1 + i % 3 for i in range(40)], root=0)
        for kappa in (1, 5, 40):
            spec = ProblemSpec(Fraction(1, 2), kappa, 40)
            got = _fastlane._chain_sweep(t, _fastlane._forb_array(t, ()), [Fraction(1, 2)],
                                         kappa, 40, False)
            assert got[0].tolist() == [min(w, 41) for w in _least._least_budgets(t, spec)]


def _spy_on_trims(monkeypatch):
    """Record each ``_trim`` as (rows before, rows after), and check that
    the path-top tables every fold reads from the round below end at a
    feasible row (a cut-charge cell below inf, or a least budget below
    none) whenever they hold more than ``_BLOCK_ROWS`` rows."""
    trims = []
    trim, fold = _fastlane._trim, _fastlane._fold_children

    def trim_spy(G, M, *args):
        out = trim(G, M, *args)
        trims.append((G.shape[0], out[0].shape[0]))
        return out

    def fold_spy(G, M, e, plan, rows, kappa, none, inf):
        assert M.shape[0] == G.shape[0] + 1
        if G.shape[0] > _fastlane._BLOCK_ROWS:
            assert (G[-1] < inf).any() or (M[-1] < none).any()
        return fold(G, M, e, plan, rows, kappa, none, inf)

    monkeypatch.setattr(_fastlane, "_trim", trim_spy)
    monkeypatch.setattr(_fastlane, "_fold_children", fold_spy)
    return trims


class TestTrimmedRounds:
    """Rounds below the root hand up their path tops' tables cut after
    the last feasible row (``_fastlane._trim``), and step rounds take
    their positions' constants once per round (``_step_plan``): against
    the least-budget sweep (tests/_least.py)."""

    _SHAPES = ("random", "caterpillar", "star", "broom", "spider")

    def test_root_rows_and_k_max_at_parts_n(self, monkeypatch):
        # parts = n on random recursive trees, caterpillars, stars, brooms
        # and spiders of 20-150 vertices, with and without potentials,
        # forbidden vertices, 0-5 outliers and 1-3 thresholds; witnesses
        # at k_max parts, where that is over 8, pass validation
        trims = _spy_on_trims(monkeypatch)
        rng = random.Random(40)
        witnesses = 0
        for trial in range(40):
            use_pot = trial % 2 == 0
            n = rng.randint(20, 150)
            t = _shaped_tree(rng, n, self._SHAPES[trial % 5], use_pot, legs=rng.randint(2, 5))
            forb = frozenset(v for v in range(n) if rng.random() < 0.1)
            lam = trial % 6
            xis = [Fraction(rng.randint(1, 12), rng.randint(2, 6))
                   for _ in range(rng.randint(1, 3))]
            got = _numpy_least(t, forb, xis, n, lam, use_pot)
            for xi, row in zip(xis, got):
                spec = ProblemSpec(xi, n, lam, use_pot, forb)
                want = [min(w, lam + 1) for w in _least._least_budgets(t, spec)]
                assert row == want, (trial, xi)
                k = k_max(t, xi, lam, use_pot, forb)
                assert k == next((k for k in range(n, 0, -1) if want[k] <= lam), 0)
                if k > 8 and xi == xis[0]:
                    spec = ProblemSpec(xi, k, lam, use_pot, forb)
                    sub = reconstruct_subpartition(t, spec, solve(t, spec))
                    assert validate_subpartition(t, spec, sub) == []
                    witnesses += 1
        assert sum(after < before for before, after in trims) >= 40 and witnesses >= 10

    def test_root_rows_past_the_bound(self, monkeypatch):
        # the same on trees past the int64 bound (scaled by 2^200, or with
        # rational values of a large scale), whose cells are Python ints
        trims = _spy_on_trims(monkeypatch)
        rng = random.Random(41)
        for trial in range(16):
            use_pot = trial % 2 == 0
            n = rng.randint(20, 50)
            t = past_bound(_shaped_tree(rng, n, self._SHAPES[trial % 5], use_pot,
                                        legs=rng.randint(2, 4)), trial % 4 >= 2)
            forb = frozenset(v for v in range(n) if rng.random() < 0.1)
            lam = rng.randint(0, 5)
            xi = Fraction(rng.randint(1, 12), rng.randint(2, 6))
            assert not _fastlane.fits(t, [xi], n, lam)
            spec = ProblemSpec(xi, n, lam, use_pot, forb)
            want = [min(w, lam + 1) for w in _least._least_budgets(t, spec)]
            assert _numpy_least(t, forb, [xi], n, lam, use_pot) == [want], trial
            assert k_max(t, xi, lam, use_pot, forb) == next(
                (k for k in range(n, 0, -1) if want[k] <= lam), 0)
        assert sum(after < before for before, after in trims) >= 8

    def test_a_forest_root_keeps_every_part_count(self, monkeypatch):
        # forests of 2-4 trees of 20-50 vertices at 9 parts or more: the
        # trees' trimmed rows fold at the virtual root into kappa + 1
        # least budgets, and decide_forest answers as the least-budget
        # sweep does, with a witness of as many parts when it says yes
        trims = _spy_on_trims(monkeypatch)
        rng = random.Random(42)
        yes = 0
        for trial in range(20):
            use_pot = trial % 2 == 0
            forest = _forest(rng, [rng.randint(20, 50) for _ in range(rng.randint(2, 4))],
                             use_pot)
            layout = forest.layout
            n = layout.vertex_count
            forb = frozenset(v for v in layout.ids if rng.random() < 0.1)
            kappa = rng.randint(9, n)
            lam = rng.randint(0, 5)
            xi = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            spec = ProblemSpec(xi, kappa, lam, use_pot, forb)
            [row] = _numpy_least(layout, forb, [xi], kappa, lam, use_pot)
            assert len(row) == kappa + 1
            assert row == _least._least_budgets(layout, spec), trial
            ok, wit = decide_forest(forest, spec)
            assert ok == (row[kappa] <= lam) and (wit is None) != ok
            if ok:
                yes += 1
                assert len(wit.parts) == kappa and len(wit.residue) <= lam
                assert wit.max_expansion <= xi
        assert yes >= 5 and sum(after < before for before, after in trims) >= 10

    def test_one_tree_at_several_part_budgets(self):
        # the step plan is kept with the tree's rounds and holds nothing
        # of the part budget: each tree swept at parts = n, then at 9-20
        # parts, n / 2 and n again answers every budget as the
        # least-budget sweep does
        rng = random.Random(43)
        for trial in range(10):
            use_pot = trial % 2 == 0
            n = rng.randint(40, 120)
            t = _shaped_tree(rng, n, self._SHAPES[trial % 5], use_pot, legs=rng.randint(2, 5))
            lam = rng.randint(0, 4)
            xi = Fraction(rng.randint(1, 12), rng.randint(2, 6))
            for kappa in (n, rng.randint(9, 20), n // 2, n):
                spec = ProblemSpec(xi, kappa, lam, use_pot)
                want = [min(w, lam + 1) for w in _least._least_budgets(t, spec)]
                assert _numpy_least(t, (), [xi], kappa, lam, use_pot) == [want], (trial, kappa)
                assert decide(t, spec) == (want[kappa] <= lam)


def _least_row(least, lam):
    """Least budgets per part count expanded into root feasibility bits,
    the shape of the grid DP's root row."""
    return [[1 if l >= need else 0 for l in range(lam + 1)] for need in least]


def _sweep_row(tree, spec):
    """Root feasibility bits from the least-budget decision sweep."""
    return _least_row(_least._least_budgets(tree, spec),
                      min(spec.outliers, tree.vertex_count))


def _table_row(tree, spec):
    return [list(r) for r in _grid.solve(tree, spec, record_choices=False).root_row()]


class TestLeastBudgetSweep:
    """The reference least-budget sweep (tests/_least.py) against the grid
    DP's root row."""

    @staticmethod
    def _tree(rng, n, shape, use_pot):
        if shape == "path":
            parents = list(range(n - 1))
        elif shape == "star":
            parents = [0] * (n - 1)
        elif shape == "caterpillar":
            spine = max(1, n // 2)
            parents = list(range(spine - 1)) + [rng.randrange(spine)
                                                 for _ in range(spine, n)]
        else:
            parents = [rng.randrange(i) for i in range(1, n)]
        return build_rooted_tree(
            [(i, rng.randint(1, 5), rng.randint(0, 4) if use_pot else 0)
             for i in range(n)],
            [(p, i, rng.randint(1, 5)) for i, p in enumerate(parents, start=1)],
            rng.randrange(n))

    @pytest.mark.parametrize("seed,shape", enumerate(["path", "star", "caterpillar",
                                                      "random"]))
    def test_matches_the_table_root_row(self, seed, shape):
        # potentials make cut charges negative; on the smaller trees kappa
        # and lam run up to n, as k_max asks, and past it
        rng = random.Random(30 + seed)
        for trial in range(120):
            n = rng.randint(1, 60 if trial % 4 == 0 else 12)
            use_pot = trial % 3 == 0
            t = self._tree(rng, n, shape, use_pot)
            forb = frozenset(v for v in range(n) if rng.random() < 0.15)
            whole = (n, n + 2) if n <= 12 else ()
            parts = rng.choice((1, 2, 3, 5) + whole)
            outliers = rng.choice((0, 1, 2, 4) + whole)
            xi = (Fraction(0) if trial % 7 == 0
                  else Fraction(rng.randint(0, 15), rng.randint(1, 5)))
            spec = ProblemSpec(xi, parts, outliers, use_pot, forb)
            assert _sweep_row(t, spec) == _table_row(t, spec)

    def test_root_outlier_with_every_part_below(self):
        # a potential no cut can pay keeps the root out of every part, so
        # all kappa parts lie among its children's subtrees
        t = build_rooted_tree([("r", 1, 100)] + [(v, 1) for v in "xyz"],
                              [("r", v, 1) for v in "xyz"], "r")
        for kappa in (1, 2, 3):
            spec = ProblemSpec(1, kappa, 1, use_potentials=True)
            assert _sweep_row(t, spec) == _table_row(t, spec)
            assert _sweep_row(t, spec)[kappa] == [0, kappa == 3]
            assert _sweep_row(t, spec.with_xi(0))[kappa] == [0, 0]

    def test_unknown_forbidden_id(self):
        spec = ProblemSpec(1, 2, 1, forbidden_outliers=frozenset({"x", "nope"}))
        with pytest.raises(UnknownVertexId):
            _least._least_budgets(star_tree(), spec)

    def test_huge_numbers_stay_exact(self):
        # the 2^200-scaled star is over the int64 bound; the sweep answers it
        # with Python ints, and scaling every quantity changes no answer
        big = 1 << 200
        base = star_tree()
        scaled_up = build_rooted_tree(
            [(v, base.weight(v) * big) for v in base.vertex_ids()],
            [("r", leaf, big) for leaf in ("x", "y", "z")], "r")
        for kappa, lam, xi in [(2, 0, 1), (4, 0, 3), (4, 0, Fraction(5, 2)),
                               (2, 1, Fraction(1, 3)), (3, 2, 0), (4, 4, 2)]:
            spec = ProblemSpec(xi, kappa, lam)
            assert _sweep_row(scaled_up, spec) == _table_row(scaled_up, spec)
            assert _sweep_row(scaled_up, spec) == _sweep_row(base, spec)
            assert root_feasibility(scaled_up, spec) == _sweep_row(scaled_up, spec)

    def test_batch_on_a_path_matches_single_decisions(self):
        # the chain sweep answers a 40-vertex path one threshold at a time
        # and all at once
        t = path_tree(range(40), weights=[1 + i % 3 for i in range(40)],
                      costs=[1 + i % 4 for i in range(39)], root=0)
        spec = ProblemSpec(0, 3, 2, forbidden_outliers=frozenset({5, 17}))
        assert _fastlane.fits(t, [Fraction(0)], 3, 2)
        xis = [Fraction(a, b) for a in range(0, 9) for b in (1, 2, 5)]
        singles = [decide(t, spec.with_xi(x)) for x in xis]
        assert decide_batch(t, spec, xis) == singles
        assert singles == [_table_row(t, spec.with_xi(x))[3][2] == 1 for x in xis]
        assert any(singles) and not all(singles)


def _forest(rng, sizes, use_pot):
    """One tree of each size, of random shapes, with ids ``(tree, vertex)``
    and weights and costs over denominators drawn per tree, so that the
    trees' scaled units differ."""
    trees = []
    for j, n in enumerate(sizes):
        t = _shaped_tree(rng, n, rng.choice(_SHAPES), use_pot)
        dw, dc = rng.choice((1, 2, 3)), rng.choice((1, 2, 5))
        trees.append(build_rooted_tree(
            [((j, v), t.weight(v) / dw, t.potential(v) / dc) for v in t.vertex_ids()],
            [((j, t.parent_of(v)), (j, v), t.parent_edge_cost(v) / dc)
             for v in t.vertex_ids() if t.parent_of(v) is not None],
            (j, t.root_id)))
    return Forest(tuple(trees))


def _numpy_least(tree, forb, xis, kappa, lam, use_pot):
    """Least budgets at the root from the chain sweep, called directly."""
    return _fastlane._chain_sweep(tree, _fastlane._forb_array(tree, forb), xis,
                                  kappa, lam, use_pot).tolist()


def _python_tables(tree, spec):
    """Every vertex's tables from the reference least-budget sweep."""
    tables = solver.WitnessTables(tree, spec)
    _least._least_budgets(tree, spec, keep=tables)
    return tables


def _finite(tables, cells):
    """Cut-charge cells with every infeasible one as None: the two
    sources hold different values there, all above a * W + b * C, the
    bound of every finite cell (see ``solver._infinity``)."""
    tree, xi = tables.tree, tables.spec.xi
    top = (xi.numerator * tree.subtree_weight_scaled[tree.root]
           + xi.denominator * tree.scaled_totals()[0])
    return [x if x <= top else None for x in cells]


def _finite_cells(tables):
    """Every vertex's tables, with ``_finite`` cut-charge cells."""
    return [None if g is None else _finite(tables, g) for g in tables.G], tables.M


class TestWitnessTables:
    """Every vertex's tables at one threshold from the chain sweep
    (``_fastlane.witness_tables``), as ``solve`` takes them, against the
    reference least-budget sweep's."""

    def test_both_sources_keep_the_same_tables(self, monkeypatch):
        # trees of every shape and forests, with potentials and forbidden
        # outliers, at small budgets (scan rounds), parts = n (step
        # rounds) and in between; stars' leaves and forests of single
        # vertices make leaf rounds
        kinds = []
        real = _fastlane._round_kind
        monkeypatch.setattr(_fastlane, "_round_kind",
                            lambda rnd, rows: kinds.append(real(rnd, rows)) or kinds[-1])
        rng = random.Random(37)
        for trial in range(240):
            use_pot = trial % 3 != 0
            n = rng.randint(1, 60)
            if trial % 4 == 3:
                t = _forest(rng, [rng.randint(1, 12) for _ in range(rng.randint(1, 5))],
                            use_pot).layout
                n = t.vertex_count
            else:
                t = _shaped_tree(rng, n, _SHAPES[trial % len(_SHAPES)], use_pot)
            forb = frozenset(v for v in t.ids if rng.random() < 0.15)
            kappa = rng.choice((1, 2, 3, rng.randint(1, n), n))
            lam = rng.choice((0, 1, 2, rng.randint(0, n)))
            xi = Fraction(rng.randint(0, 20), rng.randint(1, 6))
            spec = ProblemSpec(xi, kappa, lam, use_pot, forb)
            before = len(kinds)
            tables = solve(t, spec)
            assert len(kinds) > before
            want = _python_tables(t, spec)
            assert _finite_cells(tables) == _finite_cells(want), (trial, spec)
            assert (tables.eps, tables.thr, tables.inf) == (want.eps, want.thr, want.inf)
            assert tables.feasible == want.feasible == decide(t, spec)
        assert {"scan", "step", "leaf"} <= set(kinds)

    def test_tables_past_the_bound_and_over_the_gate(self, monkeypatch):
        # values over the int64 bound give the reference's tables, on
        # Python ints: trees of every shape scaled by 2^200 or with
        # rational weights of a large scale, forests of scaled trees,
        # potentials, forbidden vertices, scan, step and leaf rounds
        rng = random.Random(39)
        for trial in range(36):
            use_pot = trial % 3 != 0
            if trial % 4 == 3:
                t = Forest(tuple(past_bound(_shaped_tree(rng, rng.randint(1, 10), shape,
                                                          use_pot), False, j)
                                 for j, shape in enumerate(rng.sample(_SHAPES, 3)))).layout
            else:
                t = past_bound(_shaped_tree(rng, rng.randint(9, 30), _SHAPES[trial % 6],
                                             use_pot), trial % 2 == 1)
            n = t.vertex_count
            forb = frozenset(v for v in t.ids if rng.random() < 0.15)
            spec = ProblemSpec(Fraction(rng.randint(0, 20), rng.randint(1, 6)),
                               rng.choice((1, 3, n)), rng.choice((0, 2, 5)), use_pot, forb)
            assert not _fastlane.fits(t, [spec.xi], min(spec.parts, n), spec.outliers)
            tables = solve(t, spec)
            want = _python_tables(t, spec)
            assert _finite_cells(tables) == _finite_cells(want), (trial, spec)
            assert (tables.eps, tables.thr, tables.inf) == (want.eps, want.thr, want.inf)
            assert all(type(x) is int for g in tables.G if g for x in g)
            assert tables.feasible == want.feasible == decide(t, spec)
        # a kept-table figure over the memory gate raises, though the
        # sweep's own figure is within it
        t = _shaped_tree(random.Random(38), 40, "random", True)
        spec = ProblemSpec(Fraction(1, 2), 3, 2, True)
        monkeypatch.setattr(_fastlane, "_MAX_TABLE_BYTES", _fastlane._kept_bytes(t, 3, 2) - 1)
        assert _fastlane._chain_bytes(t, 3, 2) <= _fastlane._MAX_TABLE_BYTES
        assert decide(t, spec) == (_least._least_budgets(t, spec)[3] <= 2)
        with pytest.raises(TablesTooLarge):
            solve(t, spec)

    def test_kept_table_figure_covers_the_peak(self):
        # tracemalloc sees numpy's buffers and the lists kept; the figure
        # stays within a few times the peak.  Past the int64 bound (trees
        # scaled by 2^200) the cells hold int objects, which the figure
        # prices too
        xi = Fraction(1, 3)
        for shape, n, kappa, lam, big in (
                ("star", 2000, 3, 2, False), ("path", 2000, 20, 5, False),
                ("random", 2000, 3, 2, False), ("caterpillar", 2000, 2, 0, False),
                ("spider", 300, 300, 3, False), ("path", 300, 300, 0, False),
                ("broom", 300, 300, 3, False), ("star", 600, 3, 2, True),
                ("random", 600, 3, 2, True), ("path", 300, 300, 0, True),
                ("broom", 200, 200, 3, True)):
            t = _shaped_tree(random.Random(n), n, shape, True)
            if big:
                t = past_bound(t, False)
            t.heavy_paths()
            figure = _fastlane._kept_bytes(t, kappa, lam,
                                           _fastlane._int_bytes(t, [xi], kappa, lam))
            tracemalloc.start()
            try:
                assert _fastlane.witness_tables(t, xi, kappa, lam, True, ())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= _fastlane._FIXED_BYTES + figure, (shape, kappa, lam, big)
            assert big or figure <= 5 * peak, (shape, kappa, lam)


class TestForestLayout:
    """A forest decided as one tree under a virtual root, in every lane,
    against the fold of its trees' least budgets one tree at a time."""

    def test_lanes_match_the_per_tree_fold(self, monkeypatch):
        # potentials, forbidden vertices, parts up to n and past the
        # trees' sizes, single-vertex trees; then forests with several
        # trees of more than lam vertices, which cap every tree's rows
        # (tree.part_cap), at kappa from below their count up to n;
        # directly, and through root_row and decide_many.  solve keeps no table below the root with more rows
        # than the cap
        rng = random.Random(90)
        binds = too_few = 0
        for trial in range(230):
            use_pot = trial % 3 != 2
            capped = trial >= 150
            sizes = [rng.choice((3, 8, 12, 30) if capped else (1, 2, 5, 12, 30))
                     for _ in range(rng.randint(3 if capped else 1, 7))]
            forest = _forest(rng, sizes, use_pot)
            layout = forest.layout
            n = layout.vertex_count
            forb = frozenset(v for v in layout.ids if rng.random() < 0.1)
            if capped:
                lam = rng.randint(0, 6)
                need = sum(s > lam for s in sizes)
                kappa = rng.randint(max(1, need - 2), min(n, rng.choice((need + 8, n))))
            else:
                kappa = rng.randint(1, n)
                lam = min(rng.randint(0, 6), n)
            cap = part_cap(sizes, kappa, lam)
            binds += 0 < cap < min(kappa, max(sizes))
            too_few += not cap
            cap = max(cap, 1)
            xis = [Fraction(rng.randint(0, 12), rng.randint(1, 5)) for _ in range(3)]
            rows = _numpy_least(layout, forb, xis, kappa, lam, use_pot)
            for xi, row in zip(xis, rows):
                spec = ProblemSpec(xi, kappa, lam, use_pot, forb)
                want = _grid.forest_folds(forest, spec)[1][-1]
                assert _least._least_budgets(layout, spec) == want
                assert row == want
            tables = solve(layout, ProblemSpec(xis[0], kappa, lam, use_pot, forb))
            lp1 = lam + 1
            for u in range(n):
                held = [len(tables.G[u]) // lp1, len(tables.M[u]) - 1]
                if len(layout.children_idx[u]) > 1:
                    # the replay's folds at u's largest task
                    X, folds, least = replay_folds(tables, u, held[1], lam)
                    held += [len(Y) // lp1 for Y in X + folds]
                    held += [len(U) - 1 for U in least]
                    # the last fold holds all of u's children: u's own table
                    assert _finite(tables, folds[-1]) == _finite(tables, tables.G[u])
                assert max(held) <= cap
            assert _fastlane.root_row(layout, xis[0], kappa, lam, use_pot, forb) == rows[0]
            assert _fastlane.decide_many(layout, xis, kappa, lam, use_pot, forb) \
                == [row[kappa] <= lam for row in rows]
        assert binds >= 100 and too_few >= 8

    def test_one_tree_gives_its_own_least_budgets(self):
        rng = random.Random(91)
        for trial in range(60):
            use_pot = trial % 2 == 0
            forest = _forest(rng, [rng.randint(1, 40)], use_pot)
            (t,), layout = forest.trees, forest.layout
            n = t.vertex_count
            forb = frozenset(v for v in t.ids if rng.random() < 0.1)
            kappa, lam = rng.randint(1, n), min(rng.randint(0, 5), n)
            xi = Fraction(rng.randint(0, 12), rng.randint(1, 5))
            spec = ProblemSpec(xi, kappa, lam, use_pot, forb)
            want = _least._least_budgets(t, spec)
            assert _least._least_budgets(layout, spec) == want
            assert _numpy_least(layout, forb, [xi], kappa, lam, use_pot) == [want]

    def test_virtual_root_tops_no_part_and_spends_no_budget(self):
        # n single-vertex trees at xi = 0: n parts, or n - 1 parts and one
        # outlier, and never fewer
        n = 9
        layout = Forest(tuple(build_rooted_tree([(v, 1)], [], v) for v in range(n))).layout
        for lam in (0, 1, 2):
            want = [max(0, n - k) if n - k <= lam else lam + 1 for k in range(n + 1)]
            assert _least._least_budgets(layout, ProblemSpec(0, n, lam)) == want
            assert _numpy_least(layout, (), [Fraction(0)], n, lam, False) == [want]
        tables = solve(layout, ProblemSpec(0, n, 1))
        assert tables.G[layout.root] is None
        assert tables.M[layout.root] == [2, 2, 2, 2, 2, 2, 2, 2, 1, 0]

    def test_heavy_paths_start_below_the_root(self):
        forest = _forest(random.Random(92), [5, 1, 8], False)
        rounds = forest.layout.heavy_paths()
        assert rounds[0]["vert"].tolist() == [0]
        assert rounds[0]["lcount"].tolist() == [3]
        assert rounds[1]["vert"][rounds[1]["top"]].tolist() == [1, 2, 3]

    def test_a_batch_of_a_wide_forest_is_one_sweep(self, monkeypatch):
        # 15 thresholds over 500 trees of 2-4 vertices: one numpy sweep of
        # the layout, with the answers of the Python sweep
        rng = random.Random(93)
        forest = _forest(rng, [rng.randint(2, 4) for _ in range(500)], False)
        layout = forest.layout
        spec = ProblemSpec(0, 700, 2)
        xis = [Fraction(i, 4) for i in range(1, 16)]
        ran = []
        sweep = _fastlane._chain_sweep
        monkeypatch.setattr(_fastlane, "_chain_sweep",
                            lambda *args: ran.append(sweep) or sweep(*args))
        got = decide_batch(layout, spec, xis)
        assert len(ran) == 1
        # the answers turn to yes once, where the Python sweep turns
        first = got.index(True)
        assert first and got == [i >= first for i in range(15)]
        assert [_least._least_budgets(layout, spec.with_xi(x))[700] <= 2
                for x in xis[first - 1:first + 1]] == [False, True]


class TestAgainstOracle:
    def test_random_small_instances(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 8)
            t = random_tree(rng, n)
            tb = _brute.tree_masks(t)
            mins = _brute.minmax_tables(t, 3, 2, tb)
            ratios = _brute.connected_ratios(t, tb)
            for kappa in (1, 2, 3):
                for lam in (0, 1, 2):
                    answers = decide_batch(t, ProblemSpec(0, kappa, lam), ratios)
                    floor = mins[kappa][lam]
                    for xi, got in zip(ratios, answers):
                        expected = floor is not None and xi >= floor
                        assert got == expected

    def test_module_oracle_agrees_with_bitmask_oracle(self):
        rng = random.Random(32)
        for _ in range(10):
            t = random_tree(rng, rng.randint(1, 7))
            mins = _brute.minmax_tables(t, 2, 2)
            for kappa in (1, 2):
                for lam in (0, 2):
                    for xi in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(9)):
                        spec = ProblemSpec(xi, kappa, lam)
                        floor = mins[kappa][lam]
                        assert oracle_decide(t, spec) == (
                            floor is not None and xi >= floor)


class TestDeepTrees:
    def test_long_path_solve_and_reconstruct(self):
        # guards against recursion limits and quadratic behavior on deep trees
        n = 50000
        t = build_rooted_tree([(i, 1) for i in range(n)],
                              [(i - 1, i, 1) for i in range(1, n)], 0)
        spec = ProblemSpec(Fraction(1, 2), 3, 2)
        tab = solve(t, spec)
        assert tab.feasible
        from treecut import reconstruct_subpartition, validate_subpartition

        witness = reconstruct_subpartition(t, spec, tab)
        assert len(witness.parts) == 3
        assert validate_subpartition(t, spec, witness) == []


class TestErratumSemantics:
    def test_adopted_residue_combination_matches_oracle(self):
        t = broom_tree()
        spec = ProblemSpec(Fraction(2, 5), 3, 4)
        assert decide(t, spec)
        assert oracle_decide(t, spec)
        tighter = ProblemSpec(Fraction(2, 5), 3, 3)
        assert not decide(t, tighter)
        assert not oracle_decide(t, tighter)
