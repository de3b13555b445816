"""Reference tree builder for the identity tests of ``build_rooted_tree``.

This is the builder ``treecut.tree`` used before its flat pass: one vertex
and one edge at a time through a dict, a set of seen pairs and adjacency
lists of tuples, a deque BFS, and per-vertex subtree sums over the
children lists.  It checks and raises as it reads, so its first error is
by construction the first fault in input order.  It returns the tree's
public fields as a dict; ``reference_dense`` builds ``dense_arrays`` from
them the way the old ``RootedTree.dense_arrays`` did, walking the
children lists.
"""

import math
from collections import deque

from treecut.errors import (
    InvalidInput,
    NonPositiveVertexWeight,
    NotATree,
    UnknownVertexId,
)
from treecut.values import parse_rational


def _as_number(value):
    if type(value) is int:
        return value
    f = parse_rational(value)
    return f.numerator if f.denominator == 1 else f


def _lcm_of_denominators(values) -> int:
    d = 1
    for f in values:
        if type(f) is int:
            continue
        q = f.denominator
        if q != 1:
            d = d * q // math.gcd(d, q)
    return d


def _scaled_int(value, scale: int) -> int:
    return value * scale if type(value) is int else int(value * scale)


def reference_build(vertices, edges, root) -> dict:
    ids = []
    index = {}
    weights = []
    potentials = []
    for entry in vertices:
        if len(entry) == 2:
            vid, w = entry
            p = 0
        else:
            vid, w, p = entry
        if vid in index:
            raise NotATree(f"duplicate vertex id: {vid!r}")
        w = _as_number(w)
        if w <= 0:
            raise NonPositiveVertexWeight(f"vertex {vid!r} has weight {w}")
        p = _as_number(p)
        if p < 0:
            raise InvalidInput(f"vertex {vid!r} has negative potential {p}")
        index[vid] = len(ids)
        ids.append(vid)
        weights.append(w)
        potentials.append(p)

    n = len(ids)
    if n == 0:
        raise NotATree("a tree needs at least one vertex")
    if root not in index:
        raise UnknownVertexId(f"root {root!r} is not a declared vertex")

    adjacency = [[] for _ in range(n)]
    seen_pairs = set()
    edge_count = 0
    for u, v, cost in edges:
        if u not in index or v not in index:
            missing = u if u not in index else v
            raise UnknownVertexId(f"edge endpoint {missing!r} is not a declared vertex")
        ui, vi = index[u], index[v]
        if ui == vi:
            raise NotATree(f"self-loop at {u!r}")
        key = (min(ui, vi), max(ui, vi))
        if key in seen_pairs:
            raise NotATree(f"duplicate edge {u!r}-{v!r}")
        seen_pairs.add(key)
        cost = _as_number(cost)
        if cost < 0:
            raise InvalidInput(f"edge {u!r}-{v!r} has negative cost {cost}")
        adjacency[ui].append((vi, cost))
        adjacency[vi].append((ui, cost))
        edge_count += 1
    if edge_count != n - 1:
        raise NotATree(f"{n} vertices need exactly {n - 1} edges, got {edge_count}")

    root_idx = index[root]
    parent = [-1] * n
    costs = [0] * n
    children = [[] for _ in range(n)]
    visited = [False] * n
    visited[root_idx] = True
    bfs = [root_idx]
    queue = deque([root_idx])
    while queue:
        u = queue.popleft()
        for v, cost in adjacency[u]:
            if visited[v]:
                continue
            visited[v] = True
            parent[v] = u
            costs[v] = cost
            children[u].append(v)
            bfs.append(v)
            queue.append(v)
    if len(bfs) != n:
        raise NotATree("edges do not connect all vertices")

    scale = 1
    for group in (weights, costs, potentials):
        g = _lcm_of_denominators(group)
        scale = scale * g // math.gcd(scale, g)
    w_s = [_scaled_int(f, scale) for f in weights]
    c_s = [_scaled_int(f, scale) for f in costs]
    p_s = [_scaled_int(f, scale) for f in potentials]

    order = list(reversed(bfs))
    w_sub = [0] * n
    p_sub = [0] * n
    sz = [0] * n
    for u in order:
        w, p, s = w_s[u], p_s[u], 1
        for v in children[u]:
            w += w_sub[v]
            p += p_sub[v]
            s += sz[v]
        w_sub[u], p_sub[u], sz[u] = w, p, s
    return {
        "ids": ids, "index": index, "root": root_idx, "parent_idx": parent,
        "children_idx": children, "order_idx": order, "scale": scale,
        "weight_scaled": w_s, "cost_scaled": c_s, "potential_scaled": p_s,
        "subtree_weight_scaled": w_sub, "subtree_potential_scaled": p_sub,
        "subtree_size": sz,
    }


def reference_dense(fields: dict) -> dict:
    import numpy as np

    bfs = np.array(list(reversed(fields["order_idx"])), dtype=np.int64)
    pos = np.empty_like(bfs)
    pos[bfs] = np.arange(bfs.size)
    counts = np.array([len(c) for c in fields["children_idx"]], dtype=np.int64)[bfs]
    cend = 1 + counts.cumsum()
    return {
        "size": np.array(fields["subtree_size"], dtype=np.int64)[bfs],
        "bfs": bfs,
        "pos": pos,
        "w_sub": np.array(fields["subtree_weight_scaled"], dtype=np.int64)[bfs],
        "p_sub": np.array(fields["subtree_potential_scaled"], dtype=np.int64)[bfs],
        "c_edge": np.array(fields["cost_scaled"], dtype=np.int64)[bfs],
        "cstart": cend - counts,
        "cend": cend,
    }
