"""Shared builders for the test suite."""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from treecut import build_rooted_tree


def prufer_edges(seq, n):
    """Decode a Prufer sequence over labels 0..n-1 into an edge list."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    alive = set(range(n))
    for x in seq:
        leaf = min(v for v in alive if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        alive.remove(leaf)
    u, v = sorted(v for v in alive if degree[v] == 1)
    edges.append((u, v))
    return edges


def random_tree(rng: random.Random, n: int, wmax: int = 4, cmax: int = 4):
    """Uniform random labeled tree shape with random integer weights."""
    seq = tuple(rng.randrange(n) for _ in range(max(0, n - 2)))
    edges = prufer_edges(seq, n)
    vertices = [(i, rng.randint(1, wmax)) for i in range(n)]
    weighted = [(u, v, rng.randint(1, cmax)) for u, v in edges]
    return build_rooted_tree(vertices, weighted, rng.randrange(n))


def path_tree(labels=("a", "b"), weights=None, costs=None, root=None):
    labels = list(labels)
    weights = weights or [1] * len(labels)
    costs = costs or [1] * (len(labels) - 1)
    vertices = list(zip(labels, weights))
    edges = [(labels[i], labels[i + 1], costs[i]) for i in range(len(labels) - 1)]
    return build_rooted_tree(vertices, edges, root if root is not None else labels[-1])


def star_tree(center="r", leaves=("x", "y", "z"), weight=1, cost=1):
    vertices = [(center, weight)] + [(v, weight) for v in leaves]
    edges = [(center, v, cost) for v in leaves]
    return build_rooted_tree(vertices, edges, center)


def broom_tree():
    """Root with three 2-vertex limbs; the minimal shape on which the
    per-step budget decrement of the printed residue recursion goes wrong."""
    vertices = [("r", 1)] + [(f"a{i}", 1) for i in (1, 2, 3)] + \
               [(f"b{i}", 5) for i in (1, 2, 3)]
    edges = [("r", f"a{i}", 100) for i in (1, 2, 3)] + \
            [(f"a{i}", f"b{i}", 2) for i in (1, 2, 3)]
    return build_rooted_tree(vertices, edges, "r")


def charge_folds(X, rows, w):
    """Cut-charge tables ``X`` of ``w`` columns folded left to right, in
    full and in rows below ``rows``: entry ``i`` folds the first ``i + 1``
    (a reference for the replay's lazy folds)."""
    from treecut.solver import _min_plus_plan

    folds = [X[0]]
    for x in X[1:]:
        Y = folds[-1]
        plan = _min_plus_plan(len(Y) // w, len(x) // w,
                              min(rows, len(Y) // w + len(x) // w - 1), w)
        folds.append([min([Y[p] + x[q] for p, q in cell]) for cell in plan])
    return folds


def replay_folds(tables, u, k, l):
    """What the witness replay reads at vertex ``u`` for a task of ``k``
    parts and budget ``l``: its children's cut-charge tables as u takes
    them, their left-to-right folds (in full, ``charge_folds``), and the
    left-to-right folds of their least budgets."""
    from treecut import witness

    tree = tables.tree
    kids = tree.children_idx[u]
    X = [witness._child_cells(tables.G[v], tables.M[v], tables.eps[v],
                              min(k, tree.subtree_size[v] + 1), l, tables.lam + 1,
                              tables.inf) for v in kids]
    return X, charge_folds(X, k, l + 1), witness._least_folds([tables.M[v] for v in kids], k, {})
