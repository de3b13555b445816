"""Randomized cross-checks beyond the acceptance sweeps: variant
combinations (potentials x forbidden sets), the optimizer under variants,
and multi-tree forests, each against an independent brute force."""

import random
from fractions import Fraction

import _brute
from conftest import prufer_edges, replay_folds
from treecut import (
    Forest,
    ProblemSpec,
    WeightedGraph,
    build_rooted_tree,
    decide,
    decide_forest,
    min_xi,
    oracle_decide,
    oracle_min_xi,
    reconstruct_subpartition,
    solve,
    validate_subpartition,
)


def _tree_with_variants(rng, n, with_potentials):
    seq = tuple(rng.randrange(n) for _ in range(max(0, n - 2)))
    vertices = [(i, rng.randint(1, 4), rng.randint(0, 3) if with_potentials else 0)
                for i in range(n)]
    edges = [(u, v, rng.randint(1, 4)) for u, v in prufer_edges(seq, n)]
    return build_rooted_tree(vertices, edges, rng.randrange(n))


def _threshold_grid(rng):
    grid = {Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)}
    for _ in range(4):
        grid.add(Fraction(rng.randint(0, 12), rng.randint(1, 6)))
    return sorted(grid)


def test_variant_combinations_match_oracle():
    rng = random.Random(101)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        use_pot = rng.random() < 0.5
        tree = _tree_with_variants(rng, n, use_pot)
        forbidden = frozenset(v for v in tree.vertex_ids() if rng.random() < 0.25)
        kappa = rng.randint(1, 3)
        lam = rng.randint(0, 3)
        for xi in _threshold_grid(rng):
            spec = ProblemSpec(xi, kappa, lam, use_pot, forbidden)
            assert decide(tree, spec) == oracle_decide(tree, spec), (
                f"variant mismatch: n={n}, xi={xi}, parts={kappa}, "
                f"outliers={lam}, potentials={use_pot}, forbidden={sorted(forbidden)}")
            checked += 1
    assert checked > 2000


def test_optimizer_with_variants_matches_oracle():
    rng = random.Random(102)
    for _ in range(150):
        n = rng.randint(1, 8)
        use_pot = rng.random() < 0.5
        tree = _tree_with_variants(rng, n, use_pot)
        forbidden = frozenset(v for v in tree.vertex_ids() if rng.random() < 0.2)
        kappa = rng.randint(1, 3)
        lam = rng.randint(0, 2)
        expected = oracle_min_xi(tree, kappa, lam, use_potentials=use_pot,
                                 forbidden_outliers=forbidden)
        result = min_xi(tree, kappa, lam, use_potentials=use_pot,
                        forbidden_outliers=forbidden)
        assert result.xi_star == expected
        if expected is not None:
            spec = ProblemSpec(expected, kappa, lam, use_pot, forbidden)
            assert validate_subpartition(tree, spec, result.witness) == []
            assert result.witness.max_expansion == expected


def test_forest_decisions_match_graph_brute_force():
    rng = random.Random(103)
    for _ in range(120):
        pieces = rng.randint(2, 3)
        trees = []
        graph_vertices = []
        graph_edges = []
        label = 0
        for _ in range(pieces):
            n = rng.randint(1, 4)
            ids = [f"t{label}v{i}" for i in range(n)]
            label += 1
            vertices = [(v, rng.randint(1, 4)) for v in ids]
            edges = []
            for i in range(1, n):
                j = rng.randrange(i)
                edges.append((ids[j], ids[i], rng.randint(1, 4)))
            trees.append(build_rooted_tree(vertices, edges, ids[0]))
            graph_vertices.extend((v, w, 0) for v, w in vertices)
            graph_edges.extend((u, v, c, None) for u, v, c in edges)
        forest = Forest(tuple(trees))
        graph = WeightedGraph(graph_vertices, graph_edges)
        gm = _brute.graph_masks(graph)
        kappa = rng.randint(1, 4)
        lam = rng.randint(0, 3)
        for xi in _threshold_grid(rng):
            expected = _brute.graph_brute_decide(
                graph, frozenset(), frozenset(), xi, kappa, lam, gm)
            got, witness = decide_forest(forest, ProblemSpec(xi, kappa, lam))
            assert got == expected
            if got:
                assert len(witness.parts) == kappa
                assert len(witness.residue) <= lam
                covered = set().union(*witness.parts) | witness.residue
                assert covered == set(graph.vertex_ids())
                assert max(witness.per_part_expansion) <= xi
                for part, reported in zip(witness.parts, witness.per_part_expansion):
                    assert graph.expansion(part) == reported


def test_min_xi_tolerance_mode_brackets_exact_answer():
    rng = random.Random(104)
    for _ in range(25):
        n = rng.randint(2, 8)
        tree = _tree_with_variants(rng, n, False)
        kappa = rng.randint(1, 3)
        lam = rng.randint(0, 2)
        exact = min_xi(tree, kappa, lam)
        if exact.xi_star is None:
            continue
        tol = Fraction(1, 128)
        approx = min_xi(tree, kappa, lam, mode="tol", tol=tol)
        assert exact.xi_star <= approx.xi_star <= exact.xi_star + tol
        assert decide(tree, ProblemSpec(approx.xi_star, kappa, lam))


def test_tables_shared_between_reruns_are_identical():
    # determinism across repeated solves of the same instance: equal kept
    # tables, and the same witness from them
    rng = random.Random(105)
    for _ in range(10):
        tree = _tree_with_variants(rng, rng.randint(1, 8), True)
        spec = ProblemSpec(Fraction(rng.randint(0, 6), rng.randint(1, 4)),
                           rng.randint(1, 3), rng.randint(0, 2),
                           use_potentials=True)
        first = solve(tree, spec)
        second = solve(tree, spec)
        assert (first.G, first.M) == (second.G, second.M)
        # and equal folds where the replay splits a cell between children
        for u, kids in enumerate(tree.children_idx):
            if len(kids) > 1:
                k, l = len(first.M[u]) - 1, first.lam
                assert replay_folds(first, u, k, l) == replay_folds(second, u, k, l)
        assert reconstruct_subpartition(tree, spec, first) == \
            reconstruct_subpartition(tree, spec, second)
