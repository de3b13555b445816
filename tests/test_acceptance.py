"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

The exhaustive reference here is the bitmask brute force in ``_brute``,
which enumerates every admissible subpartition directly from raw structure
(it is an optimized equivalent of the package's enumeration oracle and is
cross-checked against it below).  Seeds are fixed; the whole file is
deterministic apart from wall-clock measurements.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import _brute
import _grid
from conftest import broom_tree, prufer_edges, random_tree
from treecut import (
    Forest,
    ProblemSpec,
    WeightedGraph,
    build_rooted_tree,
    decide,
    decide_batch,
    decide_forest,
    decide_semisupervised,
    min_xi,
    oracle_decide,
    oracle_min_xi,
    reconstruct_subpartition,
    solve,
    validate_subpartition,
)
from treecut.solver import root_feasibility

SEED = 20250809
KAPPAS = (1, 2, 3)
LAMBDAS = (0, 1, 2)


def _all_shapes_upto(nmax):
    for n in range(1, nmax + 1):
        if n <= 2:
            yield n, ()
            continue
        for seq in itertools.product(range(n), repeat=n - 2):
            yield n, seq


def _tree_from_shape(rng, n, seq):
    edges = prufer_edges(seq, n)
    vertices = [(i, rng.randint(1, 4)) for i in range(n)]
    weighted = [(u, v, rng.randint(1, 4)) for u, v in edges]
    return build_rooted_tree(vertices, weighted, rng.randrange(n))


@pytest.fixture(scope="module")
def suite():
    """>=5000 weighted instances: every shape with n<=5, plus uniform random
    shapes for n in {6,7,8} drawn from the full Prufer space (8^6 = 262144
    shapes at n=8 alone)."""
    rng = random.Random(SEED)
    trees = [_tree_from_shape(rng, n, seq) for n, seq in _all_shapes_upto(5)]
    per_size = (5006 - len(trees)) // 3
    for n in (6, 7, 8):
        for _ in range(per_size):
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            trees.append(_tree_from_shape(rng, n, seq))
    assert len(trees) >= 5000
    return trees


@pytest.fixture(scope="module")
def oracle_data(suite):
    """Per instance: candidate thresholds (expansions of every connected
    vertex set) and the brute-force minimum of the maximum expansion for
    every (parts, outliers) cell."""
    data = []
    for tree in suite:
        tb = _brute.tree_masks(tree)
        data.append({
            "ratios": _brute.connected_ratios(tree, tb),
            "mins": _brute.minmax_tables(tree, max(KAPPAS), max(LAMBDAS), tb),
        })
    return data


@pytest.fixture(scope="module")
def sweep(suite, oracle_data):
    """Decision sweep of every instance x cell x candidate threshold against
    the brute force; also records threshold-monotonicity of the answers."""
    start = time.perf_counter()
    mismatches = 0
    xi_mono_violations = 0
    decisions = 0
    feasible_cells = []
    for tree, data in zip(suite, oracle_data):
        ratios = data["ratios"]
        for kappa in KAPPAS:
            for lam in LAMBDAS:
                answers = decide_batch(tree, ProblemSpec(0, kappa, lam), ratios)
                decisions += len(answers)
                floor = data["mins"][kappa][lam]
                for xi, got in zip(ratios, answers):
                    expected = floor is not None and xi >= floor
                    if got != expected:
                        mismatches += 1
                # thresholds are sorted, so answers must be 0...0 1...1
                for first, second in zip(answers, answers[1:]):
                    if first and not second:
                        xi_mono_violations += 1
                if floor is not None:
                    feasible_cells.append((tree, kappa, lam, floor, ratios))
    elapsed = time.perf_counter() - start
    return {
        "mismatches": mismatches,
        "xi_mono_violations": xi_mono_violations,
        "decisions": decisions,
        "elapsed": elapsed,
        "feasible_cells": feasible_cells,
    }


def test_criterion_1_oracle_equivalence_decision(suite, sweep):
    population = 8 ** 6
    assert population >= 262144
    assert len(suite) >= 5000
    assert sweep["mismatches"] == 0, (
        f"{sweep['mismatches']} decision mismatches against brute force")
    assert sweep["elapsed"] < 300, "decision sweep exceeded the runtime budget"
    print(f"\nACCEPTANCE 1 PASS: {len(suite)} instances, "
          f"{sweep['decisions']} decisions vs brute force, 0 mismatches, "
          f"{sweep['elapsed']:.1f}s")


def test_criterion_1b_module_oracle_spotcheck(suite, oracle_data):
    """The packaged enumeration oracle agrees with the bitmask brute force
    (so using the latter as the mass reference is sound)."""
    rng = random.Random(SEED + 1)
    checked = 0
    for idx in rng.sample(range(len(suite)), 40):
        tree, data = suite[idx], oracle_data[idx]
        kappa = rng.choice(KAPPAS)
        lam = rng.choice(LAMBDAS)
        floor = data["mins"][kappa][lam]
        assert oracle_min_xi(tree, kappa, lam) == floor
        for xi in rng.sample(data["ratios"], min(3, len(data["ratios"]))):
            expected = floor is not None and xi >= floor
            assert oracle_decide(tree, ProblemSpec(xi, kappa, lam)) == expected
            checked += 1
    print(f"\nACCEPTANCE 1 (cross-check) PASS: packaged oracle vs bitmask "
          f"brute force on {checked} decisions")


def test_criterion_2_oracle_equivalence_optimization():
    rng = random.Random(SEED + 2)
    mismatches = 0
    validated = 0
    for _ in range(1000):
        n = rng.randint(1, 9)
        tree = random_tree(rng, n)
        kappa = rng.randint(1, 3)
        lam = rng.randint(0, 2)
        expected = oracle_min_xi(tree, kappa, lam)
        result = min_xi(tree, kappa, lam)
        if result.xi_star != expected:
            mismatches += 1
            continue
        if expected is not None:
            spec = ProblemSpec(expected, kappa, lam)
            assert validate_subpartition(tree, spec, result.witness) == []
            assert result.witness.max_expansion == expected
            validated += 1
    assert mismatches == 0
    print(f"\nACCEPTANCE 2 PASS: 1000 random trees, exact minimum matches "
          f"the oracle everywhere ({validated} witnesses validated)")


def test_criterion_3_witness_validity(sweep):
    rng = random.Random(SEED + 3)
    checked = 0
    for tree, kappa, lam, floor, ratios in sweep["feasible_cells"]:
        # the boundary threshold is the strictest feasible point ...
        probes = [floor]
        # ... plus one interior feasible threshold when one exists
        higher = [x for x in ratios if x > floor]
        if higher:
            probes.append(rng.choice(higher))
        for xi in probes:
            spec = ProblemSpec(xi, kappa, lam)
            tables = solve(tree, spec)
            assert tables.feasible
            witness = reconstruct_subpartition(tree, spec, tables)
            violations = validate_subpartition(tree, spec, witness)
            assert violations == [], (
                f"invalid witness {witness} at xi={xi}, parts={kappa}, "
                f"outliers={lam}: {violations}")
            checked += 1
    assert checked > 10000
    print(f"\nACCEPTANCE 3 PASS: {checked} reconstructed witnesses validated "
          f"(every feasible cell at its minimal threshold plus an interior one)")


def test_criterion_4_variant_degeneration(suite, oracle_data):
    rng = random.Random(SEED + 4)
    cells = 0
    for i, (tree, data) in enumerate(zip(suite, oracle_data)):
        kappa = KAPPAS[i % len(KAPPAS)]
        lam = LAMBDAS[(i // len(KAPPAS)) % len(LAMBDAS)]
        floor = data["mins"][kappa][lam]
        xi = floor if floor is not None else rng.choice(data["ratios"])
        base_spec = ProblemSpec(xi, kappa, lam)
        base = _grid.solve(tree, base_spec)
        with_pot = _grid.solve(tree, ProblemSpec(xi, kappa, lam, use_potentials=True))
        with_empty_forbidden = _grid.solve(
            tree, ProblemSpec(xi, kappa, lam, forbidden_outliers=frozenset()))
        assert base.same_tables(with_pot), "zero potentials changed a table"
        assert base.same_tables(with_empty_forbidden), "empty forbidden set changed a table"
        # single-tree forest: the combined grid equals the tree grid
        forest = Forest((tree,))
        ok_forest, _ = decide_forest(forest, base_spec, want_witness=False)
        assert ok_forest == base.feasible
        tree_row = [list(r) for r in base.root_row()]
        forest_row = root_feasibility(forest.layout, base_spec)
        assert forest_row == tree_row
        cells += 1
    print(f"\nACCEPTANCE 4 PASS: potentials=0, forbidden=empty and single-tree "
          f"forests reproduce base tables bit-for-bit on {cells} instances")


def _semisup_instance(rng):
    n = rng.randint(3, 9)
    ids = [f"v{i}" for i in range(n)]
    s1 = set(rng.sample(ids, rng.randint(0, 2)))
    rest = [v for v in ids if v not in s1]
    edges = []
    seen = set()
    for i in range(1, len(rest)):
        if rng.random() < 0.85:
            j = rng.randrange(i)
            edges.append((rest[j], rest[i], rng.randint(1, 4), None))
            seen.add(frozenset((rest[j], rest[i])))
    for v in s1:
        for u in ids:
            if u != v and frozenset((u, v)) not in seen and rng.random() < 0.5:
                edges.append((v, u, rng.randint(1, 4), None))
                seen.add(frozenset((u, v)))
    graph = WeightedGraph([(v, rng.randint(1, 4), 0) for v in ids], edges)
    s2 = set(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
    return graph, frozenset(s1), frozenset(s2)


def test_criterion_5_semisupervised_correctness():
    rng = random.Random(SEED + 5)
    mismatches = 0
    decisions = 0
    for _ in range(500):
        graph, s1, s2 = _semisup_instance(rng)
        kappa = rng.randint(1, 3)
        lam = len(s1) + rng.randint(0, 2)
        gm = _brute.graph_masks(graph)
        candidates = sorted({Fraction(0), Fraction(1, 3), Fraction(1)} | {
            Fraction(gm["cut"][m]) / gm["wsum"][m]
            for m in rng.sample(range(1, gm["full"] + 1), 3)})
        for xi in candidates:
            expected = _brute.graph_brute_decide(graph, s1, s2, xi, kappa, lam, gm)
            got, witness = decide_semisupervised(graph, s1, s2, xi, kappa, lam)
            decisions += 1
            if got != expected:
                mismatches += 1
                continue
            if got:
                assert s1 <= witness.residue
                assert not (s2 & witness.residue)
                assert len(witness.residue) <= lam
                assert len(witness.parts) == kappa
                assert all(graph.expansion(p) <= xi for p in witness.parts)
    assert mismatches == 0
    print(f"\nACCEPTANCE 5 PASS: 500 semi-supervised instances, "
          f"{decisions} decisions vs graph brute force, 0 mismatches")


def test_criterion_6_linear_runtime():
    rng = random.Random(SEED + 6)
    sizes = (10**3, 10**4, 10**5, 10**6)
    spec = ProblemSpec(Fraction(1, 2), 3, 2)
    times = []
    for n in sizes:
        vertices = [(i, rng.randint(1, 4)) for i in range(n)]
        edges = [(rng.randrange(i), i, rng.randint(1, 4)) for i in range(1, n)]
        tree = build_rooted_tree(vertices, edges, 0)
        tree.dense_arrays()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            decide(tree, spec)
            best = min(best, time.perf_counter() - t0)
        times.append(best)

    import numpy as np

    xs = np.array(sizes, dtype=float)
    ys = np.array(times)
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.98, f"linear fit R^2 = {r2:.4f} < 0.98 (times {times})"
    assert times[-1] < 10.0, f"1e6-node decision took {times[-1]:.2f}s"
    for i in range(len(sizes) - 1):
        growth = sizes[i + 1] / sizes[i]
        assert times[i + 1] <= 2 * times[i] * growth, (
            f"runtime at n={sizes[i+1]} exceeds twice the linear "
            f"extrapolation from n={sizes[i]}")
    print(f"\nACCEPTANCE 6 PASS: decision times {[f'{t*1000:.2f}ms' for t in times]} "
          f"for n={list(sizes)}, linear fit R^2={r2:.4f}, "
          f"1e6 nodes in {times[-1]*1000:.0f}ms")


def test_criterion_7_monotonicity(suite, oracle_data, sweep):
    assert sweep["xi_mono_violations"] == 0
    rng = random.Random(SEED + 7)
    table_checks = 0
    for i, (tree, data) in enumerate(zip(suite, oracle_data)):
        ratios = data["ratios"]
        xi = ratios[len(ratios) // 2]
        tab = _grid.solve(tree, ProblemSpec(xi, 3, 2), record_choices=False)
        for v in tree.vertex_ids():
            for k in range(tab.kappa + 1):
                for l in range(tab.lam):
                    assert tab.mu_value(v, k, l) <= tab.mu_value(v, k, l + 1), (
                        "mu decreased with a larger outlier budget")
                    if k >= 1:
                        assert tab.gamma_value(v, k, l) >= tab.gamma_value(v, k, l + 1), (
                            "gamma increased with a larger outlier budget")
        table_checks += 1
        if i % 25 == 0 and len(ratios) >= 2:
            lo, hi = sorted(rng.sample(ratios, 2))
            t_lo = _grid.solve(tree, ProblemSpec(lo, 3, 2), record_choices=False)
            t_hi = _grid.solve(tree, ProblemSpec(hi, 3, 2), record_choices=False)
            for v in tree.vertex_ids():
                for k in range(t_lo.kappa + 1):
                    for l in range(t_lo.lam + 1):
                        assert t_lo.mu_value(v, k, l) <= t_hi.mu_value(v, k, l), (
                            "mu decreased with a larger threshold")
    print(f"\nACCEPTANCE 7 PASS: answers monotone along every threshold sweep "
          f"({sweep['decisions']} decisions); table monotonicity verified on "
          f"{table_checks} instances, 0 violations")


def _printed_residue_combination(tree, spec, tables):
    """Root feasibility under the erratum reading of the residue recursion:
    one unit of outlier budget is burned at EVERY child combination step,
    not once for the uncovered root.  Reads the grid DP's tables."""
    root = tree.root
    kids = tree.children_idx[root]
    kappa, lam = tables.kappa, tables.lam
    mu = tables._mu
    u_cur = [[mu[kids[0]][k][l] for l in range(lam + 1)] for k in range(kappa + 1)]
    for child in kids[1:]:
        mv = mu[child]
        u_new = [[0] * (lam + 1) for _ in range(kappa + 1)]
        for k in range(kappa + 1):
            for l in range(lam + 1):
                hit = 0
                for kp in range(k + 1):
                    for lp in range(l):  # printed bound: l' <= l-1
                        if u_cur[kp][lp] and mv[k - kp][l - 1 - lp]:
                            hit = 1
                            break
                    if hit:
                        break
                u_new[k][l] = hit
        u_cur = u_new

    a, b = spec.xi.numerator, spec.xi.denominator
    threshold = (a * tree.subtree_weight_scaled[root]
                 - b * tree.cost_scaled[root])
    out = [[0] * (lam + 1) for _ in range(kappa + 1)]
    gamma = tables._gamma[root]
    for k in range(kappa + 1):
        for l in range(lam + 1):
            g = gamma[k][l] if k >= 1 else None
            via_gamma = g is not None and g <= threshold
            out[k][l] = 1 if (via_gamma or u_cur[k][l]) else 0
    return out


def test_criterion_8_erratum_regression():
    tree = broom_tree()
    assert len(tree.children_of(tree.root_id)) >= 3
    spec = ProblemSpec(Fraction(2, 5), 3, 4)
    tables = solve(tree, spec)
    grid = _grid.solve(tree, spec)

    adopted = tables.feasible
    assert adopted == grid.feasible
    printed = bool(_printed_residue_combination(tree, spec, grid)[3][4])
    reference = oracle_decide(tree, spec)

    assert adopted != printed, "instance fails to separate the two readings"
    assert adopted == reference, "adopted semantics must match the brute force"
    assert adopted is True and printed is False

    witness = reconstruct_subpartition(tree, spec, tables)
    assert validate_subpartition(tree, spec, witness) == []
    assert witness.residue == frozenset({"r", "a1", "a2", "a3"})
    print("\nACCEPTANCE 8 PASS: degree-3 instance separates the printed "
          "per-step budget decrement (says infeasible) from the adopted "
          "single root charge (feasible, confirmed by brute force)")
