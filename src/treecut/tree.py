"""Rooted weighted trees with precomputed subtree aggregates.

A :class:`RootedTree` is immutable after construction.  Vertices keep their
caller-supplied ids; internally everything is indexed densely (0..n-1) and
stored in flat lists so the dynamic programs can run over arrays.

All rationals are multiplied through by the least common denominator at
build time, so weights, costs and potentials live as exact integers in a
single global scale (``tree.scale``).  The root carries a virtual parent
edge of cost exactly 0; it never appears as a real vertex or edge.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from .errors import (
    InvalidInput,
    NonPositiveVertexWeight,
    NotATree,
    NotForestAfterDeletion,
    UnknownVertexId,
)
from .values import format_rational, parse_rational


class RootedTree:
    """Immutable rooted tree with per-vertex weights, parent-edge costs and
    optional potentials, plus subtree aggregates and a bottom-up order.

    Do not call the constructor directly; use :func:`build_rooted_tree` or
    :func:`tree_from_json`.
    """

    __slots__ = (
        "ids",
        "index",
        "root",
        "parent_idx",
        "children_idx",
        "order_idx",
        "scale",
        "weight_scaled",
        "cost_scaled",
        "potential_scaled",
        "subtree_weight_scaled",
        "subtree_potential_scaled",
        "subtree_size",
        "_dense_cache",
        "_totals_cache",
    )

    def __init__(self, ids, index, root, parent_idx, children_idx, order_idx,
                 scale, weight_scaled, cost_scaled, potential_scaled):
        self.ids = ids
        self.index = index
        self.root = root
        self.parent_idx = parent_idx
        self.children_idx = children_idx
        self.order_idx = order_idx
        self.scale = scale
        self.weight_scaled = weight_scaled
        self.cost_scaled = cost_scaled
        self.potential_scaled = potential_scaled

        n = len(ids)
        w_sub = [0] * n
        p_sub = [0] * n
        sz = [0] * n
        for u in order_idx:  # children precede parents
            w = weight_scaled[u]
            p = potential_scaled[u]
            s = 1
            for v in children_idx[u]:
                w += w_sub[v]
                p += p_sub[v]
                s += sz[v]
            w_sub[u] = w
            p_sub[u] = p
            sz[u] = s
        self.subtree_weight_scaled = w_sub
        self.subtree_potential_scaled = p_sub
        self.subtree_size = sz
        self._dense_cache = None
        self._totals_cache = None

    # -- id-level accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.ids)

    @property
    def root_id(self):
        return self.ids[self.root]

    def vertex_ids(self) -> tuple:
        return tuple(self.ids)

    def _idx(self, vertex) -> int:
        try:
            return self.index[vertex]
        except KeyError:
            raise UnknownVertexId(f"unknown vertex id: {vertex!r}") from None

    def weight(self, vertex) -> Fraction:
        return Fraction(self.weight_scaled[self._idx(vertex)], self.scale)

    def potential(self, vertex) -> Fraction:
        return Fraction(self.potential_scaled[self._idx(vertex)], self.scale)

    def parent_edge_cost(self, vertex) -> Fraction:
        """Cost of the edge toward the root; exactly 0 for the root itself."""
        return Fraction(self.cost_scaled[self._idx(vertex)], self.scale)

    def parent_of(self, vertex):
        p = self.parent_idx[self._idx(vertex)]
        return None if p < 0 else self.ids[p]

    def children_of(self, vertex) -> tuple:
        return tuple(self.ids[c] for c in self.children_idx[self._idx(vertex)])

    def subtree_weight(self, vertex) -> Fraction:
        return Fraction(self.subtree_weight_scaled[self._idx(vertex)], self.scale)

    def subtree_potential(self, vertex) -> Fraction:
        return Fraction(self.subtree_potential_scaled[self._idx(vertex)], self.scale)

    def subtree_vertex_count(self, vertex) -> int:
        return self.subtree_size[self._idx(vertex)]

    def total_weight(self) -> Fraction:
        return Fraction(self.subtree_weight_scaled[self.root], self.scale)

    def total_potential(self) -> Fraction:
        return Fraction(self.subtree_potential_scaled[self.root], self.scale)

    def total_edge_cost(self) -> Fraction:
        return Fraction(sum(self.cost_scaled), self.scale)

    def min_weight(self) -> Fraction:
        return Fraction(min(self.weight_scaled), self.scale)

    def has_potentials(self) -> bool:
        return any(self.potential_scaled)

    def scaled_totals(self) -> tuple[int, int]:
        """(total edge cost, total potential) in scaled units, cached."""
        if self._totals_cache is None:
            self._totals_cache = (sum(self.cost_scaled),
                                  sum(self.potential_scaled))
        return self._totals_cache

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical JSON form; rationals rendered as exact ``p/q`` strings."""
        vertices = []
        for i, vid in enumerate(self.ids):
            entry = {"id": vid, "weight": format_rational(Fraction(self.weight_scaled[i], self.scale))}
            if self.potential_scaled[i]:
                entry["potential"] = format_rational(Fraction(self.potential_scaled[i], self.scale))
            vertices.append(entry)
        edges = []
        for u in self._bfs_order():
            for c in self.children_idx[u]:
                edges.append({
                    "u": self.ids[u],
                    "v": self.ids[c],
                    "cost": format_rational(Fraction(self.cost_scaled[c], self.scale)),
                })
        return {"root": self.root_id, "vertices": vertices, "edges": edges}

    def _bfs_order(self):
        return list(reversed(self.order_idx))

    def dense_arrays(self):
        """Numpy form of the tree for the int64 kernel (cached).

        Vertices are relabeled by BFS position, which makes each vertex's
        children a contiguous range ``[cstart, cend)`` and the bottom-up
        sweep a plain descending scan, so the kernel streams memory
        sequentially.  BFS also keeps each depth contiguous: depth 0 is
        position 0, depth ``d > 0`` occupies ``[level_end[d-1],
        level_end[d])``, and the children of one depth are exactly the
        next.  ``level_size`` holds each depth's largest subtree size.
        """
        if self._dense_cache is None:
            import numpy as np

            bfs = np.array(self._bfs_order(), dtype=np.int64)
            pos = np.empty_like(bfs)
            pos[bfs] = np.arange(bfs.size)
            w_sub = np.array(self.subtree_weight_scaled, dtype=np.int64)[bfs]
            p_sub = np.array(self.subtree_potential_scaled, dtype=np.int64)[bfs]
            c_edge = np.array(self.cost_scaled, dtype=np.int64)[bfs]
            counts = np.array([len(c) for c in self.children_idx], dtype=np.int64)[bfs]
            # BFS enqueues each vertex's children consecutively, so the
            # children of positions [0, p) are exactly [1, 1 + their count)
            cend = 1 + counts.cumsum()
            below = cend.tolist()
            level_end = [1]
            while level_end[-1] < bfs.size:
                level_end.append(below[level_end[-1] - 1])
            size = np.array(self.subtree_size, dtype=np.int64)[bfs]
            self._dense_cache = {
                "level_size": np.maximum.reduceat(size, [0] + level_end[:-1]),
                "size": size,
                "pos": pos,
                "w_sub": w_sub,
                "p_sub": p_sub,
                "c_edge": c_edge,
                "cstart": cend - counts,
                "cend": cend,
                "level_end": level_end,
            }
        return self._dense_cache

    def heavy_paths(self):
        """Heavy-path rounds of the dense layout, for the chain sweep of
        ``treecut._fastlane`` (built on first use, cached with
        ``dense_arrays``).

        A vertex's heavy child is its child with the largest subtree, the
        first of equal ones.  A heavy path starts at the root or at a
        light child and follows heavy children down to a leaf.  Round
        ``r`` holds the vertices with ``r`` light edges above them, so
        there are at most ``log2(n) + 1`` rounds.  Each round is a dict:

        * ``vert``: the round's BFS positions, each path contiguous from
          its top down to its leaf, paths ordered by the round position
          of their top's parent (then by top), so that the tops of round
          ``r + 1`` come grouped by parent;
        * ``top``: round positions of the path tops;
        * ``reach``: steps from each vertex down to its path's leaf;
        * ``lpar``, ``lcount``: the round positions that have light
          children (the tops of round ``r + 1``, in order), and how many.
        """
        dense = self.dense_arrays()
        if "rounds" not in dense:
            dense["rounds"] = _heavy_path_rounds(dense)
        return dense["rounds"]

    def __repr__(self):
        return f"RootedTree(n={self.vertex_count}, root={self.root_id!r})"


def _heavy_path_rounds(dense) -> list:
    """The rounds of ``RootedTree.heavy_paths``, in O(n log n) array
    operations: pointer jumping finds each vertex's path top, and one pass
    per light depth climbs from every top to the next."""
    import numpy as np

    size = dense["size"]
    n = size.size
    kids = dense["cend"] - dense["cstart"]
    pos = np.arange(n)
    parent = np.zeros(n, dtype=np.int64)
    parent[1:] = np.repeat(pos, kids)
    inner = np.flatnonzero(kids)
    first = dense["cstart"][inner] - 1
    # children ranges tile [1, n): the heavy child is the first of the
    # largest subtrees in its parent's range
    largest = np.repeat(np.maximum.reduceat(size[1:], first), kids[inner])
    heavy = np.minimum.reduceat(np.where(size[1:] == largest, pos[1:], n), first)
    is_top = np.ones(n, dtype=bool)
    is_top[heavy] = False
    top = np.where(is_top, pos, parent)
    while True:
        jumped = top[top]
        if np.array_equal(jumped, top):
            break
        top = jumped
    light = np.zeros(n, dtype=np.int64)
    idx = np.flatnonzero(top)
    cur = top[idx]
    while idx.size:
        light[idx] += 1
        cur = top[parent[cur]]
        keep = np.flatnonzero(cur)
        idx, cur = idx[keep], cur[keep]

    grouped = np.argsort(light, kind="stable")
    bounds = np.searchsorted(light[grouped], np.arange(int(light.max()) + 2))
    rpos = np.empty(n, dtype=np.int64)
    rounds = []
    for r in range(bounds.size - 1):
        vert = grouped[bounds[r]:bounds[r + 1]]
        if r:
            # BFS positions grow down a path, and lexsort is stable
            vert = vert[np.lexsort((top[vert], rpos[parent[top[vert]]]))]
        m = vert.size
        rpos[vert] = np.arange(m)
        t = top[vert]
        start = np.flatnonzero(np.diff(t, prepend=-1))
        end = np.append(start[1:], m) - 1
        rounds.append({"vert": vert, "top": start,
                       "reach": np.repeat(end, end - start + 1) - np.arange(m)})
    for here, below in zip(rounds, rounds[1:]):
        # the tops' parents, ascending: one run per parent
        par = rpos[parent[below["vert"][below["top"]]]]
        first = np.flatnonzero(np.diff(par, prepend=-1))
        here["lpar"] = par[first]
        here["lcount"] = np.diff(np.append(first, par.size))
    rounds[-1]["lpar"] = rounds[-1]["lcount"] = np.zeros(0, dtype=np.int64)
    return rounds


def _as_number(value):
    """Parse to int when integral (the common case), Fraction otherwise."""
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


def build_rooted_tree(vertices, edges, root) -> RootedTree:
    """Build a :class:`RootedTree` from vertex and edge lists.

    ``vertices`` is an iterable of ``(id, weight)`` or ``(id, weight,
    potential)``; ``edges`` of ``(u, v, cost)``.  Edge direction is
    irrelevant; the parent relation is induced by ``root``.  Child order
    follows the input edge order, which fixes every tie-break downstream.

    Raises :class:`NotATree` if the edges are not a tree on the declared
    vertices, :class:`NonPositiveVertexWeight` for weights <= 0, and
    :class:`UnknownVertexId` for undeclared endpoints.
    """
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
    costs = [0] * n  # root keeps the virtual zero-cost edge
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

    if scale == 1:
        w_s, c_s, p_s = weights, costs, potentials
    else:
        w_s = [_scaled_int(f, scale) for f in weights]
        c_s = [_scaled_int(f, scale) for f in costs]
        p_s = [_scaled_int(f, scale) for f in potentials]

    order = list(reversed(bfs))
    return RootedTree(ids, index, root_idx, parent, children, order,
                      scale, w_s, c_s, p_s)


def build_rooted_forest(vertices, edges) -> list:
    """Build one :class:`RootedTree` per connected component of an acyclic
    graph.

    ``vertices`` is a sequence of ``(id, weight, potential)`` with numeric
    weights; ``edges`` of ``(u, v, cost)`` between declared vertices.  Each
    tree keeps its vertices and its edges in the given order and is rooted
    at its heaviest vertex, ties going to the first; trees come out in
    order of their first vertex.

    Raises :class:`NotForestAfterDeletion` if the edges close a cycle.
    """
    index = {entry[0]: i for i, entry in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _cost in edges:
        ru, rv = find(index[u]), find(index[v])
        if ru == rv:
            raise NotForestAfterDeletion(
                f"cycle through {u!r}-{v!r}; the graph is not a forest")
        parent[ru] = rv

    # dicts keep insertion order: components by first vertex, and each
    # component's vertices and edges in input order
    members = {}
    for i, entry in enumerate(vertices):
        members.setdefault(find(i), []).append(entry)
    comp_edges = {}
    for edge in edges:
        comp_edges.setdefault(find(index[edge[0]]), []).append(edge)

    # max keeps the first of equal weights
    return [build_rooted_tree(group, comp_edges.get(comp, ()),
                              max(group, key=lambda entry: entry[1])[0])
            for comp, group in members.items()]


def processing_order(tree: RootedTree) -> tuple:
    """Vertex ids in the order the dynamic programs consume them: the
    reverse of a root-out BFS, so every child precedes its parent and the
    root comes last.  Deterministic given the input child order."""
    return tuple(tree.ids[i] for i in tree.order_idx)


def scale_instance(tree: RootedTree, xi) -> tuple[RootedTree, tuple[int, int]]:
    """Re-express a tree and a threshold in common integer units.

    Returns a tree whose weights, costs and potentials are integers, plus an
    integer pair ``(num, den)`` with ``xi == num/den`` and ``den`` equal to
    the scaling factor, so threshold comparisons reduce to cross
    multiplication.  Relative order of all compared quantities is preserved;
    with integer inputs and integer ``xi`` this is the identity.
    """
    xi = parse_rational(xi)
    if xi < 0:
        raise InvalidInput(f"threshold must be nonnegative, got {xi}")
    factor = tree.scale
    q = xi.denominator
    factor = factor * q // math.gcd(factor, q)
    mult = factor // tree.scale

    vertices = []
    for i, vid in enumerate(tree.ids):
        vertices.append((vid, tree.weight_scaled[i] * mult,
                         tree.potential_scaled[i] * mult))
    edges = []
    for u in tree._bfs_order():
        for c in tree.children_idx[u]:
            edges.append((tree.ids[u], tree.ids[c], tree.cost_scaled[c] * mult))
    scaled = build_rooted_tree(vertices, edges, tree.root_id)
    return scaled, (int(xi * factor), factor)


def tree_from_json(data: dict) -> RootedTree:
    """Build a tree from the JSON schema:
    ``{"root": id, "vertices": [{"id", "weight", "potential"?}],
    "edges": [{"u", "v", "cost"}]}`` with rationals as numbers, decimal
    strings, or ``"p/q"`` strings."""
    from .errors import ParseError

    if not isinstance(data, dict):
        raise ParseError("tree JSON must be an object")
    for key in ("root", "vertices", "edges"):
        if key not in data:
            raise ParseError(f"tree JSON is missing {key!r}")
    vertices = []
    for i, v in enumerate(data["vertices"]):
        if "id" not in v or "weight" not in v:
            raise ParseError(f"vertex #{i} needs 'id' and 'weight'")
        try:
            vertices.append((v["id"], parse_rational(v["weight"]),
                             parse_rational(v.get("potential", 0))))
        except ValueError as exc:
            raise ParseError(f"vertex #{i}: {exc}") from exc
    edges = []
    for i, e in enumerate(data["edges"]):
        if "u" not in e or "v" not in e or "cost" not in e:
            raise ParseError(f"edge #{i} needs 'u', 'v' and 'cost'")
        try:
            edges.append((e["u"], e["v"], parse_rational(e["cost"])))
        except ValueError as exc:
            raise ParseError(f"edge #{i}: {exc}") from exc
    return build_rooted_tree(vertices, edges, data["root"])
