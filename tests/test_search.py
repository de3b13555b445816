import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _bisection
import _brute
import _grid
from conftest import (broom_tree, past_bound, path_tree, prufer_edges, random_tree,
                      star_tree)
from treecut import (
    Forest,
    InvalidInput,
    LambdaTooSmall,
    MonotonicityViolation,
    NotForestAfterDeletion,
    PrecollisionError,
    ProblemSpec,
    TablesTooLarge,
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
from treecut import _fastlane, search
from treecut.oracle import EnumerationBudget
from treecut.search import (
    _balanced_partition,
    _farey_bracket,
    _farey_predecessor,
    _farey_run,
    _opening_bound,
)
from treecut.witness import make_subpartition


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


def _farey_upto(limit, top):
    """Every fraction in [0, top] with denominator at most ``limit``, in
    increasing order, by brute force."""
    return sorted({Fraction(p, q) for q in range(1, limit + 1)
                   for p in range(top * q + 1)})


def _bracket_points(limit):
    """x = 0, points past 1, members of F_limit, and points whose
    denominators are far above ``limit``."""
    xs = [Fraction(0), Fraction(1), Fraction(7, 2), Fraction(5), Fraction(limit, 1)]
    xs += [f for f in _farey_upto(limit, 2) if f.denominator == limit or f < Fraction(1, 3)]
    xs += [Fraction(p, 10 ** 12 + 39) for p in (1, 3 * 10 ** 11, 10 ** 12, 2 * 10 ** 12 + 5)]
    xs += [Fraction(2 ** 40 + 1, 2 ** 40), Fraction(1, 2 ** 50), Fraction(3, 2) - Fraction(1, 2 ** 45)]
    return xs


class TestFareyBracket:
    @pytest.mark.parametrize("limit", [1, 2, 3, 7, 12, 30])
    def test_matches_brute_force(self, limit):
        for x in _bracket_points(limit):
            seq = _farey_upto(limit, math.floor(x) + 2)
            want = (max(f for f in seq if f <= x), min(f for f in seq if f > x))
            assert _farey_bracket(x, limit) == want, x

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 13), st.integers(1, 10 ** 12), st.integers(1, 30))
    def test_random_points(self, p, q, limit):
        x = Fraction(p, q)
        lo, hi = _farey_bracket(x, limit)
        assert lo <= x < hi
        assert lo.denominator <= limit and hi.denominator <= limit
        # Farey neighbours: nothing of order limit lies strictly between
        assert hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1
        assert lo.denominator + hi.denominator > limit

    def test_agrees_with_the_predecessor(self):
        for limit in (1, 5, 17):
            for x in _farey_upto(limit, 3)[1:]:
                assert _farey_bracket(x, limit)[0] == x
                assert _farey_bracket(x - Fraction(1, 10 ** 9), limit)[0] == \
                    _farey_predecessor(x, limit)


class TestFareyRun:
    @pytest.mark.parametrize("limit", [1, 2, 5, 9, 30])
    def test_lists_the_bracket_in_order(self, limit):
        seq = _farey_upto(limit, 4)
        rng = random.Random(limit)
        points = _bracket_points(limit)
        pairs = [(a, b) for a in points for b in points if a < b <= 3]
        pairs += [(f, f + Fraction(1, 10 ** 6)) for f in seq[:20]]
        for lo, hi in rng.sample(pairs, min(len(pairs), 150)):
            inside = [f for f in seq if lo < f <= hi]
            below = max(f for f in seq if f <= lo)
            for cap in range(len(inside) + 2):
                run = _farey_run(lo, hi, limit, cap)
                if len(inside) > cap:
                    assert run is None
                else:
                    assert run == [below] + inside
            if hi in seq:
                assert _farey_run(lo, hi, limit, len(inside))[-1] == hi

    def test_empty_bracket_gives_the_fraction_below(self):
        assert _farey_run(Fraction(0), Fraction(1, 8), 7, 0) == [Fraction(0)]
        assert _farey_run(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 100), 4, 0) == \
            [Fraction(1, 3)]
        assert _farey_run(Fraction(2, 7), Fraction(1, 3), 4, 0) is None

    def test_past_one(self):
        # F_3 from 2/3 to 2: the recurrence crosses the integers
        assert _farey_run(Fraction(2, 3), Fraction(2), 3, 10) == [
            Fraction(2, 3), Fraction(1), Fraction(4, 3), Fraction(3, 2),
            Fraction(5, 3), Fraction(2)]


class TestProbeTripwire:
    def test_inconsistent_decisions_abort_the_search(self):
        from treecut import MonotonicityViolation
        from treecut.search import _Prober

        # yes at 1/2 but no at 3/4 can only mean a solver bug
        broken = _Prober(lambda xis: [xi == Fraction(1, 2) for xi in xis], 4)
        assert broken([Fraction(1, 2)]) == [True]
        with pytest.raises(MonotonicityViolation):
            broken([Fraction(3, 4)])

    def test_yes_below_no_within_one_batch(self):
        from treecut.search import _Prober

        broken = _Prober(lambda xis: [xi == Fraction(1, 2) for xi in xis], 4)
        with pytest.raises(MonotonicityViolation):
            broken([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
        # answers that agree with monotonicity pass in any order
        fine = _Prober(lambda xis: [xi >= Fraction(1, 2) for xi in xis], 4)
        assert fine([Fraction(3, 4), Fraction(1, 4), Fraction(1, 2)]) == [True, False, True]

    def test_caches_and_counts_probes(self):
        from treecut.search import _Prober

        calls = []
        prober = _Prober(lambda xis: [(calls.append(xi), True)[1] for xi in xis], 4)
        prober([Fraction(1)])
        prober([Fraction(1)])
        assert prober.calls == 1
        assert prober.sweeps == 1
        assert calls == [Fraction(1)]
        # a batch decides only what is not cached, in one sweep
        assert prober([Fraction(2), Fraction(1), Fraction(3)]) == [True] * 3
        assert (prober.calls, prober.sweeps) == (3, 2)
        assert calls == [Fraction(1), Fraction(2), Fraction(3)]


class TestMinXi:
    def test_two_vertex_path(self):
        res = min_xi(path_tree(("a", "b")), 2, 0)
        assert res.xi_star == 1
        assert res.witness is not None
        assert res.mode == "exact"
        # the bound and its predecessor, in one sweep
        assert res.probes >= 2
        assert res.sweeps == 1

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

    def test_a_witness_over_the_gate_fails_before_any_sweep(self, monkeypatch):
        # with the gate between the decision's memory figure and the
        # witness's, the search raises before its first sweep, where the
        # final solve would raise after all of them; a decision still
        # answers at that gate
        t = _shaped_tree(random.Random(8), 60, "recursive", pmax=3)
        figure, kept = _fastlane._chain_bytes(t, 3, 2), _fastlane._kept_bytes(t, 3, 2)
        assert figure < kept
        monkeypatch.setattr(_fastlane, "_MAX_TABLE_BYTES", (figure + kept) // 2)
        sweeps = []
        chain_sweep = _fastlane._chain_sweep
        monkeypatch.setattr(_fastlane, "_chain_sweep", lambda *args, **kwargs:
                            sweeps.append(args) or chain_sweep(*args, **kwargs))
        for mode, tol in (("exact", None), ("tol", Fraction(1, 8))):
            with pytest.raises(TablesTooLarge):
                min_xi(t, 3, 2, mode=mode, tol=tol, use_potentials=True)
            assert not sweeps
        with pytest.raises(TablesTooLarge):
            solve(t, ProblemSpec(5, 3, 2, True))
        assert decide(t, ProblemSpec(5, 3, 2, True)) in (True, False)
        assert len(sweeps) == 1

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


def _fraction_sort_partition(tree, parts, use_potentials):
    """``_balanced_partition`` as it ranked the missing cuts before: a
    stable sort of every uncut edge by the Fraction cost / subtree
    weight."""
    parent = tree.parent_idx
    w_sub = tree.subtree_weight_scaled
    total = w_sub[tree.root]
    need = parts - 1
    below = list(tree.weight_scaled)
    is_cut = [False] * tree.vertex_count
    cuts = 0
    for u in tree.order_idx:
        p = parent[u]
        if p < 0:
            continue
        if below[u] * parts >= total:
            is_cut[u] = True
            cuts += 1
        else:
            below[p] += below[u]
    if cuts < need:
        c_s = tree.cost_scaled
        rest = sorted((v for v in range(tree.vertex_count)
                       if parent[v] >= 0 and not is_cut[v]),
                      key=lambda v: Fraction(c_s[v], w_sub[v]))
        for v in rest[:need - cuts]:
            is_cut[v] = True
    head = [0] * tree.vertex_count
    groups = {}
    for u in reversed(tree.order_idx):
        h = u if parent[u] < 0 or is_cut[u] else head[parent[u]]
        head[u] = h
        groups.setdefault(h, []).append(tree.ids[u])
    return make_subpartition(tree, groups.values(), frozenset(), use_potentials)


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

    def test_integer_selection_matches_the_fraction_sort(self):
        # stars and brooms leave every cut to the cost ranking; costs and
        # weights from {1, 2} tie many ratios
        rng = random.Random(50)
        trees = [star_tree(leaves=tuple(f"l{i}" for i in range(k))) for k in (1, 5, 12)]
        trees.append(broom_tree())
        for _ in range(40):
            n = rng.randint(2, 40)
            shape = rng.choice(("star", "broom", "recursive", "path"))
            if shape == "broom":
                handle = rng.randint(1, n - 1)
                parents = list(range(-1, handle - 1)) + [handle - 1] * (n - handle)
            elif shape == "star":
                parents = [-1] + [0] * (n - 1)
            elif shape == "path":
                parents = list(range(-1, n - 1))
            else:
                parents = [-1] + [rng.randrange(i) for i in range(1, n)]
            ids = [f"v{i}" for i in range(n)]
            vertices = [(v, rng.choice((1, 2)), rng.choice((0, 0, 1))) for v in ids]
            edges = [(ids[p], ids[i], rng.choice((1, 2, 4))) for i, p in enumerate(parents)
                     if p >= 0]
            trees.append(build_rooted_tree(vertices, edges, ids[rng.randrange(n)]))
        for t in trees:
            for parts in range(1, t.vertex_count + 1):
                for use_pot in (False, True):
                    want = _fraction_sort_partition(t, parts, use_pot)
                    got = _balanced_partition(t, parts, use_pot)
                    assert got == want
                    assert got.parts == want.parts

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

    def test_star_bound_is_optimal_in_one_sweep(self):
        # all singletons: yes at the bound, no at its predecessor, decided
        # together with the first round below it (15 thresholds, priced on
        # a numpy sweep, whose Farey floors of order 4 are 13 fractions
        # below the predecessor); that no settles zero
        res = min_xi(star_tree(), 4, 0)
        assert res.xi_star == 3
        assert res.probes == 15
        assert res.sweeps == 1

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
        # the bound and its predecessor, at most `bits` midpoints (the cost
        # rule halves this path about once per sweep), the verification
        # at xi* and at its predecessor, and zero
        assert res.probes <= bits + 5
        assert res.probes < 32
        # the bound with its predecessor, at most `bits` rounds, the
        # verification pair, and zero
        assert res.sweeps <= bits + 3

    def test_no_at_the_bound_is_a_broken_dp(self, monkeypatch):
        import treecut.search as search

        # a forest's search decides its layout through decide_batch too
        monkeypatch.setattr(search, "decide_batch",
                            lambda tree, spec, xis: [False] * len(xis))
        with pytest.raises(MonotonicityViolation):
            min_xi(star_tree(), 2, 0)
        two = Forest((path_tree(("a", "b")), path_tree(("c", "d"))))
        with pytest.raises(MonotonicityViolation):
            min_xi(two, 2, 0)
        # with fewer parts than trees the opening bound is not achievable,
        # so a no there still means infeasible
        assert min_xi(two, 1, 2).xi_star is None


def _shaped_tree(rng, n, shape, pmax=0, prefix=""):
    """A tree of ``n`` vertices shaped as a path, star, caterpillar (half
    the vertices on the spine) or random recursive tree."""
    if shape == "path":
        parents = list(range(n - 1))
    elif shape == "star":
        parents = [0] * (n - 1)
    elif shape == "caterpillar":
        spine = max(1, n // 2)
        parents = list(range(spine - 1)) + [rng.randrange(spine) for _ in range(spine, n)]
    else:
        parents = [rng.randrange(i) for i in range(1, n)]
    ids = [f"{prefix}{i}" for i in range(n)]
    vertices = [(v, rng.randint(1, 9), rng.randint(0, pmax)) for v in ids]
    edges = [(ids[p], ids[i], rng.randint(1, 9)) for i, p in enumerate(parents, start=1)]
    return build_rooted_tree(vertices, edges, ids[rng.randrange(n)])


def _rational_tree(rng, n, prefix=""):
    """A random recursive tree with rational weights, costs and, on about
    half its vertices, potentials."""
    def value(least):
        return Fraction(rng.randint(least, 9), rng.choice((1, 2, 3, 5)))

    ids = [f"{prefix}{i}" for i in range(n)]
    vertices = [(v, value(1), value(0) if rng.random() < 0.5 else 0) for v in ids]
    edges = [(ids[rng.randrange(i)], ids[i], value(1)) for i in range(1, n)]
    return build_rooted_tree(vertices, edges, ids[rng.randrange(n)])


class TestFareyFloor:
    """Every achievable maximum expansion has a denominator of at most W,
    the largest tree's scaled weight, so a decision at x equals the
    decision at the largest such fraction at or below x; the search
    decides those floors only."""

    def test_decision_at_x_equals_decision_at_its_floor(self):
        rng = random.Random(75)
        seen = set()
        for i in range(120):
            if i % 3 == 2:
                instance = Forest([_rational_tree(rng, rng.randint(1, 6), f"t{j}_")
                                   for j in range(rng.randint(2, 4))])
                trees = instance.trees
            else:
                instance = _rational_tree(rng, rng.randint(1, 9))
                trees = (instance,)
            limit = max(t.subtree_weight_scaled[t.root] for t in trees)
            ids = [v for t in trees for v in t.ids]
            spec = ProblemSpec(0, rng.randint(1, min(4, len(ids))), rng.randint(0, 2),
                               rng.random() < 0.5,
                               frozenset(rng.sample(ids, rng.randint(0, min(2, len(ids))))))

            def decides(x):
                if len(trees) > 1:
                    return decide_forest(instance, spec.with_xi(x), want_witness=False)[0]
                return decide(instance, spec.with_xi(x))

            for _ in range(6):
                # a fraction of order W, a point just off one, or any point
                f = Fraction(rng.randint(0, 6 * limit), rng.randint(1, limit))
                x = rng.choice((f, f + Fraction(1, 10 ** 12 + 39), f - Fraction(1, 10 ** 12 + 39),
                                Fraction(rng.randint(0, 10 ** 10), rng.randint(1, 10 ** 9))))
                x = max(x, Fraction(0))
                floor = _farey_bracket(x, limit)[0]
                answer = decides(x)
                assert answer == decides(floor), (x, floor)
                seen.add((answer, floor == x))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_a_common_factor_leaves_the_order(self):
        # the order is W over the gcd of the tree's scaled values, so a
        # tree with every value times 2^200 (past the int64 bound, one
        # threshold per sweep) is searched at its unscaled twin's order:
        # the same optimum and witness, in no more sweeps than the twin
        # decides thresholds
        rng = random.Random(76)
        for shape in TestBatchedSearch.SHAPES:
            t = _shaped_tree(rng, 60, shape, pmax=3)
            big = past_bound(t, False)
            g = math.gcd(*t.weight_scaled, *t.cost_scaled, *t.potential_scaled)
            assert search._order([big]) == search._order([t]) \
                == t.subtree_weight_scaled[t.root] // g
            want = min_xi(t, 3, 2, use_potentials=True)
            got = min_xi(big, 3, 2, use_potentials=True)
            assert (got.xi_star, got.witness) == (want.xi_star, want.witness)
            assert got.sweeps <= want.probes, (shape, got.sweeps, want.probes)
        # a forest's order is its trees' largest
        trees = [_shaped_tree(rng, 5, "path", prefix=f"t{j}_") for j in range(3)]
        scaled = [past_bound(t, False, f"s{j}_") for j, t in enumerate(trees)]
        assert search._order(scaled) == max(search._order([t]) for t in trees)


class TestBatchedSearch:
    """``min_xi`` decides rounds of thresholds per sweep; it must end where
    the one-threshold bisection of ``_bisection`` ends."""

    SHAPES = ("path", "star", "caterpillar", "recursive")

    def _same(self, instance, parts, lam, mode="exact", tol=None, use_pot=False,
              forbidden=frozenset()):
        want_xi, want_witness, _ = _bisection.min_xi(instance, parts, lam, mode, tol,
                                                     use_pot, forbidden)
        got = min_xi(instance, parts, lam, mode, tol, use_pot, forbidden)
        assert got.xi_star == want_xi
        assert got.witness == want_witness
        return got

    def test_matches_one_threshold_bisection(self):
        rng = random.Random(71)
        seen = set()
        for i in range(300):
            shape = self.SHAPES[i % 4]
            pmax = rng.choice((0, 3))
            kind = "forest" if i % 5 in (1, 4) else "tree"
            if kind == "forest":
                instance = Forest([_shaped_tree(rng, rng.choice((1, 3, 10, 40)), shape, pmax,
                                                f"t{j}_")
                                   for j in range(rng.randint(2, 6))])
                ids = [v for t in instance.trees for v in t.ids]
            else:
                instance = _shaped_tree(rng, rng.choice((2, 7, 30, 120, 300)), shape, pmax)
                ids = list(instance.ids)
            parts = rng.randint(1, min(8, len(ids)))
            lam = rng.randint(0, 3)
            forbidden = (frozenset(rng.sample(ids, min(3, len(ids))))
                         if rng.random() < 0.3 else frozenset())
            mode = "tol" if i % 3 == 2 else "exact"
            tol = Fraction(1, rng.choice((3, 64, 1000))) if mode == "tol" else None
            got = self._same(instance, parts, lam, mode, tol, pmax > 0, forbidden)
            seen.add((kind, "batched" if got.probes > got.sweeps + 1 else "one by one"))
            seen.add("zero" if got.xi_star == 0 else "positive")
        assert seen == {("tree", "batched"), ("tree", "one by one"), ("forest", "batched"),
                        ("forest", "one by one"), "zero", "positive"}

    def test_rounds_stay_in_the_int64_bound(self, monkeypatch):
        import treecut._fastlane as fastlane
        import treecut.search as search

        # weights and costs near 10^5: the dyadic bisection points outgrow
        # the int64 bound part way down, but their Farey floors do not
        rng = random.Random(5)
        n = 300
        vertices = [(i, rng.randint(1, 10 ** 5), rng.randint(0, 10 ** 5)) for i in range(n)]
        edges = [(rng.randrange(i), i, rng.randint(1, 10 ** 5)) for i in range(1, n)]
        t = build_rooted_tree(vertices, edges, 0)
        limit = t.subtree_weight_scaled[t.root]
        swept, lanes = [], []
        batch, many = search.decide_batch, fastlane.decide_many

        def decide_batch(tree, spec, xis):
            swept.append(list(xis))
            return batch(tree, spec, xis)

        def decide_many(*args):
            answers = many(*args)
            lanes.append(answers is not None)
            return answers

        monkeypatch.setattr(search, "decide_batch", decide_batch)
        monkeypatch.setattr(fastlane, "decide_many", decide_many)
        self._same(t, 3, 2, use_pot=True)
        monkeypatch.undo()
        # every sweep of the search on numpy, none in the Python sweep
        assert len(lanes) >= len(swept) and all(lanes)
        assert all(x.denominator <= limit for xs in swept for x in xs)
        # deciding the dyadic points themselves takes 42 sweeps here, 38 of
        # them of one threshold on the Python sweep
        assert len(swept) <= 12

    def test_zero_optimum_below_a_positive_opening(self):
        # fewer parts than trees, with the budget to leave a tree out: the
        # opening is positive and zero is feasible, decided once the
        # bracket is 16 times shorter rather than after the last halving
        trees = Forest([path_tree((f"{j}a", f"{j}b", f"{j}c")) for j in range(3)])
        for mode, tol in (("exact", None), ("tol", Fraction(1, 1000))):
            res = self._same(trees, 2, 3, mode, tol)
            assert res.xi_star == 0
            # the bound, one round of four halvings (15 thresholds, all
            # yes) and zero
            assert (res.sweeps, res.probes) == (3, 17)

    def test_batching_engages(self):
        rng = random.Random(3)
        t = _shaped_tree(rng, 1000, "recursive", pmax=3)
        res = self._same(t, 3, 2, use_pot=True)
        assert res.sweeps * 3 <= res.probes

    def test_round_width_follows_the_tree(self, monkeypatch):
        # the cost rule picks narrow rounds on a path rooted at an end,
        # one round whose sweep costs little beside its cells, and wide
        # rounds on a random recursive tree, whose many rounds cost more
        # than their cells (best of 8 on a 2-core VM: the path's search
        # took 13 ms at width 1 and 24 ms at width 3, the tree's 45 ms at
        # width 3 and 75 ms at width 1)
        rng = random.Random(9)
        n = 2000
        path = build_rooted_tree([(i, rng.randint(1, 9), rng.randint(0, 3)) for i in range(n)],
                                 [(i - 1, i, rng.randint(1, 9)) for i in range(1, n)], 0)
        assert len(path.heavy_paths()) == 1
        bushy = _shaped_tree(rng, 1000, "recursive", pmax=3)
        for tree, narrow in ((path, True), (bushy, False)):
            rec = _Recorder(monkeypatch)
            min_xi(tree, 3, 2, use_potentials=True)
            monkeypatch.undo()
            widths = {e[1][1] for e in rec.events if e[0] == "round"}
            assert widths and (max(widths) <= 2 if narrow else min(widths) >= 3), widths


class _Recorder:
    """Every round ``min_xi`` builds (``_round``'s thresholds, width and
    finishing flag) and every sweep it runs, in order."""

    def __init__(self, monkeypatch, answer=None):
        import treecut.search as search

        self.events = []
        batch, build = search.decide_batch, search._round

        def decide_batch(tree, spec, xis):
            self.events.append(("sweep", list(xis)))
            return (answer or batch)(tree, spec, xis)

        def round_(*args):
            got = build(*args)
            self.events.append(("round", got))
            return got

        monkeypatch.setattr(search, "decide_batch", decide_batch)
        monkeypatch.setattr(search, "_round", round_)

    def finishing(self):
        """Thresholds of every finishing round, with the number of sweeps
        that followed it."""
        return [(e[1][0], sum(f[0] == "sweep" for f in self.events[i + 1:]))
                for i, e in enumerate(self.events) if e[0] == "round" and e[1][2]]


class TestFinishingRound:
    """Exact searches end on a round that decides fractions of order W."""

    def test_matches_one_threshold_bisection_and_stays_in_order_w(self, monkeypatch):
        rng = random.Random(72)
        seen = set()
        for i in range(120):
            shape = TestBatchedSearch.SHAPES[i % 4]
            pmax = rng.choice((0, 3))
            if i % 3 == 1:
                instance = Forest([_shaped_tree(rng, rng.choice((1, 3, 10, 40)), shape, pmax,
                                                f"t{j}_")
                                   for j in range(rng.randint(2, 5))])
                trees = instance.trees
            else:
                instance = _shaped_tree(rng, rng.choice((2, 7, 30, 120)), shape, pmax)
                trees = (instance,)
            # the largest tree's W, not the forest's
            limit = max(t.subtree_weight_scaled[t.root] for t in trees)
            parts = rng.randint(1, min(8, instance.vertex_count))
            lam = rng.randint(0, 3)
            mode, tol = "exact", None
            if i % 5 == 4:
                mode, tol = "tol", Fraction(1, (3, 64, 1000)[i % 3])
            want_xi, want_witness, _ = _bisection.min_xi(instance, parts, lam, mode, tol,
                                                         use_potentials=pmax > 0)
            rec = _Recorder(monkeypatch)
            got = min_xi(instance, parts, lam, mode, tol, use_potentials=pmax > 0)
            monkeypatch.undo()
            assert (got.xi_star, got.witness) == (want_xi, want_witness)
            swept = [x for e in rec.events if e[0] == "sweep" for x in e[1]]
            assert got.sweeps == sum(e[0] == "sweep" for e in rec.events)
            # every sweep of either mode decides Farey floors of order W
            assert all(x.denominator <= limit for x in swept)
            if mode == "tol":
                assert not rec.finishing()
                seen.add("tol")
            for xs, after in rec.finishing():
                assert all(x.denominator <= limit for x in xs)
                assert xs == sorted(xs)
                # the round's own sweep at most; verification is cached
                assert after <= 1
                if after and xs[-1] >= want_xi:
                    assert want_xi in xs
                    seen.add("finished")
                if len(trees) > 1 and any(x.denominator > 1 for x in xs):
                    seen.add("forest")
            if rec.finishing() and len(trees) > 1:
                assert sum(t.subtree_weight_scaled[t.root] for t in trees) > limit
        assert seen == {"finished", "forest", "tol"}

    def test_zero_above_an_undecided_lower_end_with_no_fraction_inside(self):
        from treecut.search import _bisect, _Prober

        # W = 4 and hi = 1/5 < 1/W: (0, hi] holds no fraction of order 4,
        # so the round decides zero alone, and its yes is the optimum
        t = star_tree()
        spec = ProblemSpec(Fraction(1), 2, 0)
        hi = Fraction(1, 5)
        probe = _Prober(lambda xis: [True] * len(xis), 4)
        assert _bisect(probe, Fraction(0), hi, math.floor(hi * 16).bit_length(),
                       t, spec, True) == (0, 0)
        assert (list(probe.cache), probe.sweeps) == ([Fraction(0)], 1)
        # a no at zero as well contradicts the yes at hi: the bracket comes
        # back with no fraction of order 4 inside, which min_xi rejects
        probe = _Prober(lambda xis: [x > 0 for x in xis], 4)
        assert _bisect(probe, Fraction(0), hi, 2, t, spec, True) == (0, hi)

    def test_opening_settles_the_search_with_the_first_round_aboard(self, monkeypatch):
        rng = random.Random(73)
        seen = set()
        for i in range(60):
            t = _shaped_tree(rng, rng.choice((7, 30, 120)), TestBatchedSearch.SHAPES[i % 4],
                             rng.choice((0, 3)))
            parts = rng.randint(2, 6)
            use_pot = rng.random() < 0.5
            hi, _ = _opening_bound((t,), parts, use_pot)
            rec = _Recorder(monkeypatch)
            got = min_xi(t, parts, 1, use_potentials=use_pot)
            monkeypatch.undo()
            kind, (ahead, _width, _finish) = rec.events[0]
            assert kind == "round"
            limit = t.subtree_weight_scaled[t.root]
            prev = _farey_predecessor(hi, limit)
            # the sweep decides the distinct Farey floors of its thresholds
            floors = list(dict.fromkeys(_farey_bracket(x, limit)[0]
                                        for x in [hi, prev, *ahead]))
            assert rec.events[1] == ("sweep", floors)
            if got.xi_star == hi:
                # prev said no: one sweep, the first round's thresholds in it
                assert (got.sweeps, got.probes) == (1, len(floors))
                seen.add("settled")
            else:
                # prev said yes: _bisect builds the same first round and
                # finds every answer in the cache
                assert rec.events[2] == ("round", rec.events[0][1])
                later = [x for e in rec.events[3:] if e[0] == "sweep" for x in e[1]]
                assert not set(floors) & set(later)
                seen.add("bisected")
        assert seen == {"settled", "bisected"}

    def test_contradictions_inside_a_finishing_round_raise(self, monkeypatch):
        import treecut.search as search

        t = _shaped_tree(random.Random(74), 120, "recursive", pmax=3)
        rec = _Recorder(monkeypatch)
        want = min_xi(t, 3, 2, use_potentials=True).xi_star
        monkeypatch.undo()
        (last, after), = rec.finishing()
        # its own sweep decides the fractions of the round strictly between
        # the Farey floors of lo and of a dyadic hi, which earlier sweeps
        # decided: no at the first, yes at the last, xi*
        decided = {x for e in rec.events[:-1] if e[0] == "sweep" for x in e[1]}
        fresh = last[1:-1]
        assert last[0] in decided and last[-1] in decided and last[-1] == want
        assert after == 1 and rec.events[-1] == ("sweep", fresh)
        assert len(fresh) >= 2 and not decided & set(fresh)
        batch = search.decide_batch

        def broken(lie):
            def answer(tree, spec, xis):
                if xis == fresh:
                    return [lie(x) for x in xis]
                return batch(tree, spec, xis)
            return answer

        # yes below a no within the finishing batch trips the prober
        monkeypatch.setattr(search, "decide_batch", broken(lambda x: x == fresh[0]))
        with pytest.raises(MonotonicityViolation, match="said yes"):
            min_xi(t, 3, 2, use_potentials=True)
        monkeypatch.setattr(search, "decide_batch", broken(lambda x: x != fresh[-1]))
        with pytest.raises(MonotonicityViolation, match="said yes"):
            min_xi(t, 3, 2, use_potentials=True)
        # the batch lies strictly between a cached no and a cached yes, so
        # answers that agree with monotonicity cannot contradict them: no
        # everywhere in it puts the optimum at the cached yes
        monkeypatch.setattr(search, "decide_batch", broken(lambda x: False))
        assert min_xi(t, 3, 2, use_potentials=True).xi_star == want


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
            tab = _grid.solve(t, spec, record_choices=False)
            assert ok == tab.feasible
            # whole grid agrees cell for cell, read at the virtual root
            from treecut.solver import root_feasibility
            assert root_feasibility(Forest((t,)).layout, spec) == [
                list(r) for r in tab.root_row()]

    def test_budget_splits_across_trees(self):
        forest = self._two_edges()
        # two parts plus two outliers: one whole component and one emptied
        ok, wit = decide_forest(forest, ProblemSpec(0, 1, 2))
        assert ok
        assert len(wit.residue) <= 2

    def test_one_solve_decides_and_keeps_the_witness_tables(self, monkeypatch):
        # with a witness wanted, one solve of the layout keeps the tables
        # and answers the decision from them, and no decision runs before
        # it; without, one decision and no tables
        import treecut.search as search

        solved, decided = [], []
        monkeypatch.setattr(search, "solve", lambda t, spec: solved.append(t)
                            or solve(t, spec))
        monkeypatch.setattr(search, "decide", lambda t, spec: decided.append(t)
                            or decide(t, spec))
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
            decided.clear()
            ok, wit = decide_forest(forest, spec)
            # too few parts for the trees is a no before the layout is built
            early = search._too_few_parts(forest.trees, spec.parts, spec.outliers)
            assert solved == ([] if early else [forest.layout]) and decided == []
            solved.clear()
            assert (ok, None) == decide_forest(forest, spec, want_witness=False)
            assert solved == [] and decided == ([] if early else [forest.layout])
            outcomes.add(ok)
            if ok:
                assert len(wit.parts) == spec.parts
                assert len(wit.residue) <= spec.outliers
                assert wit.max_expansion <= spec.xi
            else:
                assert wit is None
        assert outcomes == {True, False}

    def test_unknown_forbidden_id_raises_as_on_a_tree(self):
        spec = ProblemSpec(1, 2, 0, forbidden_outliers={"zzz"})
        with pytest.raises(UnknownVertexId):
            decide(path_tree(("a", "b")), spec)
        for want_witness in (True, False):
            with pytest.raises(UnknownVertexId):
                decide_forest(self._two_edges(), spec, want_witness=want_witness)
        with pytest.raises(UnknownVertexId):
            min_xi(self._two_edges(), 2, 0, forbidden_outliers={"zzz"})

    def test_more_trees_needing_a_part_than_parts_is_a_no_before_any_work(
            self, monkeypatch):
        # three trees of more than `outliers` vertices must hold a part
        # each, so two parts fit no split: the answer comes from the vertex
        # counts, with no layout, opening bound, pricing or sweep
        forest = Forest(tuple(path_tree((f"{i}a", f"{i}b", f"{i}c")) for i in range(3)))
        graph = WeightedGraph([(v, 1, 0) for v in "abcdefgh"],
                              [(u, v, 1, None) for u, v in zip("abcdefg", "bcdefgh")])

        def ran(*args, **kwargs):
            raise AssertionError("work ran for an infeasible part count")

        for owner, name in ((search, "forest_layout"), (search, "_opening_bound"),
                            (_fastlane, "cost_us"), (_fastlane, "_chain_sweep")):
            monkeypatch.setattr(owner, name, ran)
        for outliers in (0, 1, 2):
            for want_witness in (True, False):
                assert decide_forest(forest, ProblemSpec(9, 2, outliers),
                                     want_witness) == (False, None)
            for mode, tol in (("exact", None), ("tol", Fraction(1, 8))):
                res = min_xi(forest, 2, outliers, mode=mode, tol=tol)
                assert (res.xi_star, res.witness, res.probes, res.sweeps) == \
                    (None, None, 0, 0)
        # deleting c and f leaves three 2-vertex trees and one outlier unit
        assert decide_semisupervised(graph, {"c", "f"}, frozenset(), 9, 2, 3) \
            == (False, None)
        assert "layout" not in vars(forest)

    def test_virtual_root_tops_no_part_and_spends_no_budget(self):
        # n single-vertex trees at xi = 0: n parts cover them, n - 1 parts
        # need one outlier, and the root itself needs neither
        n = 12
        forest = Forest(tuple(build_rooted_tree([(v, 1)], [], v) for v in range(n)))
        assert decide_forest(forest, ProblemSpec(0, n, 0))[0]
        assert decide_forest(forest, ProblemSpec(0, n - 1, 0)) == (False, None)
        ok, wit = decide_forest(forest, ProblemSpec(0, n - 1, 1))
        assert ok and len(wit.parts) == n - 1 and len(wit.residue) == 1

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

    def test_components_ordered_by_least_id_as_a_string(self):
        # deleting the hub 5 leaves components whose least ids are 2 and
        # 10; as strings "10" sorts before "2", so its part comes first
        graph = WeightedGraph(
            [(v, 1, 0) for v in (2, 3, 5, 10, 11)],
            [(2, 3, 1, None), (3, 5, 1, None), (5, 11, 1, None), (10, 11, 1, None)])
        ok, wit = decide_semisupervised(graph, {5}, frozenset(), Fraction(1, 2), 2, 1)
        assert ok
        assert wit.parts == (frozenset({10, 11}), frozenset({2, 3}))
        assert wit.residue == frozenset({5})
        assert wit.per_part_expansion == (Fraction(1, 2), Fraction(1, 2))

    def test_degenerate_case_equals_tree_decision(self):
        rng = random.Random(45)
        seen = set()
        for i in range(16):
            # vertex potentials count only when asked for, as on a tree
            t = _shaped_tree(rng, rng.randint(2, 8), TestBatchedSearch.SHAPES[i % 4], pmax=3)
            graph = tree_as_graph(t)
            kappa = rng.randint(1, 3)
            lam = rng.randint(0, 2)
            # each setting's optimum, where the other one may say no
            xis = {min_xi(t, kappa, lam, use_potentials=p).xi_star for p in (False, True)}
            for xi in xis - {None}:
                answers = []
                for use_pot in (False, True):
                    spec = ProblemSpec(xi, kappa, lam, use_pot)
                    ok, wit = decide_semisupervised(graph, frozenset(), frozenset(), xi,
                                                    kappa, lam, use_potentials=use_pot)
                    assert ok == decide(t, spec)
                    if ok:
                        assert validate_subpartition(t, spec, wit) == []
                    answers.append(ok)
                seen.add(tuple(answers))
        assert seen == {(True, True), (True, False)}

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
