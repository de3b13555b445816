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
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from .errors import (
    InvalidInput,
    NonPositiveVertexWeight,
    NotATree,
    NotForestAfterDeletion,
    ParseError,
    UnknownVertexId,
)
from .values import (
    format_rational,
    least_numerator,
    parse_number,
    parse_numbers,
    parse_rational,
)


class RootedTree:
    """Immutable rooted tree with per-vertex weights, parent-edge costs and
    optional potentials, plus subtree aggregates and a bottom-up order.

    Do not call the constructor directly; use :func:`build_rooted_tree`,
    :func:`tree_from_json` or :func:`build_forest`, which all run one flat
    pass, or :func:`forest_layout` for a :class:`ForestLayout`.

    The builder's BFS order (``_bfs``) lists each vertex's children as one
    contiguous range, in input edge order: the children of BFS position
    ``i`` sit at positions ``[_cend[i - 1], _cend[i])`` (``[1, _cend[0])``
    for the root), and depth ``d > 0`` at ``[_level_end[d - 1],
    _level_end[d])``.  ``children_idx`` is sliced from them on first use.
    """

    __slots__ = (
        "ids",
        "index",
        "root",
        "parent_idx",
        "order_idx",
        "scale",
        "weight_scaled",
        "cost_scaled",
        "potential_scaled",
        "subtree_weight_scaled",
        "subtree_potential_scaled",
        "subtree_size",
        "_bfs",
        "_cend",
        "_level_end",
        "_children",
        "_dense_cache",
        "_totals_cache",
    )

    # position 0 of the BFS order is a real vertex (see ForestLayout)
    virtual_root = False

    def __init__(self, ids, index, parent_idx, bfs, cend, level_end, scale,
                 weight_scaled, cost_scaled, potential_scaled,
                 subtree_weight_scaled, subtree_potential_scaled, subtree_size):
        self.ids = ids
        self.index = index
        self.root = bfs[0]
        self.parent_idx = parent_idx
        self.order_idx = bfs[::-1]  # children precede parents
        self.scale = scale
        self.weight_scaled = weight_scaled
        self.cost_scaled = cost_scaled
        self.potential_scaled = potential_scaled
        self.subtree_weight_scaled = subtree_weight_scaled
        self.subtree_potential_scaled = subtree_potential_scaled
        self.subtree_size = subtree_size
        self._bfs = bfs
        self._cend = cend
        self._level_end = level_end
        self._children = None
        self._dense_cache = None
        self._totals_cache = None

    @property
    def children_idx(self) -> list:
        """Each vertex's children, in input edge order (built on first use
        and cached; the numpy sweep never asks for it)."""
        if self._children is None:
            bfs = self._bfs
            children = [None] * len(bfs)
            lo = 1
            for u, hi in zip(bfs, self._cend):
                children[u] = bfs[lo:hi]
                lo = hi
            self._children = children
        return self._children

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
        # BFS order lists each vertex's children together, in edge order
        edges = [{"u": self.ids[self.parent_idx[c]],
                  "v": self.ids[c],
                  "cost": format_rational(Fraction(self.cost_scaled[c], self.scale))}
                 for c in self._bfs[1:]]
        return {"root": self.root_id, "vertices": vertices, "edges": edges}

    def _bfs_order(self):
        return self._bfs

    def dense_arrays(self):
        """Numpy form of the tree for the chain sweep of
        ``treecut._fastlane`` (cached).

        Vertices are relabeled by BFS position, which makes each vertex's
        children a contiguous range ``[cstart, cend)`` and the bottom-up
        sweep a plain descending scan, so the kernel streams memory
        sequentially.  ``bfs`` holds the tree index at each position.
        Subtree weights, subtree
        potentials and edge costs are int64, or Python ints (dtype object)
        where the scaled totals leave int64.
        """
        if self._dense_cache is None:
            import numpy as np

            c_total, p_total = self.scaled_totals()
            big = max(self.subtree_weight_scaled[self.root], c_total, p_total) >> 63
            values = object if big else np.int64
            bfs = np.array(self._bfs, dtype=np.int64)
            cend = np.array(self._cend, dtype=np.int64)
            cstart = np.empty_like(cend)
            cstart[0] = 1
            cstart[1:] = cend[:-1]
            self._dense_cache = {
                "size": np.array(self.subtree_size, dtype=np.int64)[bfs],
                "bfs": bfs,
                "w_sub": np.array(self.subtree_weight_scaled, dtype=values)[bfs],
                "p_sub": np.array(self.subtree_potential_scaled, dtype=values)[bfs],
                "c_edge": np.array(self.cost_scaled, dtype=values)[bfs],
                "cstart": cstart,
                "cend": cend,
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

        A virtual root has no heavy child, so round 0 is the root alone
        and every tree of a forest tops its own paths in round 1.
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
    # a virtual root (position 0, with children) has no heavy child
    is_top[heavy[1:] if dense.get("virtual_root") else heavy] = False
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


def _column(values: list) -> tuple[list, int]:
    """An input column as ints where integral and Fractions otherwise
    (:func:`values.parse_numbers`), with the least common denominator; a
    column of ints is returned as it is, with denominator 1."""
    parsed = parse_numbers(values)
    if parsed is values:
        return values, 1
    return parsed, math.lcm(*{v.denominator for v in parsed if type(v) is not int})


def _scaled(values: list, scale: int) -> list:
    if scale == 1:
        return values
    return [v * scale if type(v) is int else int(v * scale) for v in values]


def build_rooted_tree(vertices, edges, root) -> RootedTree:
    """Build a :class:`RootedTree` from vertex and edge lists.

    ``vertices`` is an iterable of ``(id, weight)`` or ``(id, weight,
    potential)``; ``edges`` of ``(u, v, cost)``.  Edge direction is
    irrelevant; the parent relation is induced by ``root``.  Child order
    follows the input edge order, which fixes every tie-break downstream.

    Raises :class:`NotATree` if the edges are not a tree on the declared
    vertices, :class:`NonPositiveVertexWeight` for weights <= 0, and
    :class:`UnknownVertexId` for undeclared endpoints.  Of several faults,
    the first in input order is reported: vertices in order (duplicate id,
    weight, potential), the root, edges in order (unknown endpoint,
    self-loop, duplicate edge, negative cost), then the edge count and
    connectivity.

    The tuples are read into columns, the endpoints straight into their
    indices, and the flat pass of :func:`build_forest` builds the tree
    from them with one walk from the root.  Memory: building a 10^5-vertex
    path with integer columns peaks at most 600 bytes per vertex above its
    input (``tracemalloc``; 437 measured on CPython 3.11, about 330 of
    them kept by the tree), most of it Python ints and the ``index``
    dict.
    """
    if not isinstance(vertices, (list, tuple)):
        vertices = list(vertices)
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    tree = None
    try:
        shapes = set(map(len, vertices))
        if shapes <= {2, 3} and set(map(len, edges)) <= {3}:
            potentials = ([0] * len(vertices) if shapes == {2} else
                          [entry[2] if len(entry) == 3 else 0 for entry in vertices])
            # the endpoints go to indices straight from the tuples
            tree = _rooted([entry[0] for entry in vertices], [entry[1] for entry in vertices],
                           potentials, map(itemgetter(0), edges), map(itemgetter(1), edges),
                           [edge[2] for edge in edges], root)
    except (KeyError, TypeError, ValueError):
        pass  # a malformed entry, named below
    if tree is None:
        _raise_first_fault(vertices, edges, root)
    return tree


def _rooted(ids, weights, potentials, us, vs, costs, root):
    """The tree of :func:`build_rooted_tree` on columns, with the edges'
    endpoints (any iterables) and the ``root`` given by id, or None when a
    check fails."""
    try:
        index = dict(zip(ids, range(len(ids))))
        trees = _flat_forest(ids, weights, potentials, [index[u] for u in us],
                             [index[v] for v in vs], costs, index[root], index)
    except (KeyError, TypeError, ValueError):
        return None
    return trees and trees[0]


def _csr(n, us, vs, costs):
    """The adjacency of ``n`` vertices by counting sort: the arcs of vertex
    x lead to ``nbr`` at cost ``arc_cost`` over ``[start[x], start[x +
    1])``, in input edge order."""
    fill = [0] * n
    for u in us:
        fill[u] += 1
    for v in vs:
        fill[v] += 1
    start = list(accumulate(fill, initial=0))
    fill = start[:-1]
    m = len(us)
    nbr = [0] * (2 * m)
    arc_cost = [0] * (2 * m)
    for u, v, c in zip(us, vs, costs):
        k = fill[u]
        fill[u] = k + 1
        nbr[k] = v
        arc_cost[k] = c
        k = fill[v]
        fill[v] = k + 1
        nbr[k] = u
        arc_cost[k] = c
    return start, nbr, arc_cost


def _walk(top, start, nbr, arc_cost, seen, parent, pcost):
    """The BFS order from ``top`` over the vertices not ``seen``, with its
    children ends and depth ends (see :class:`RootedTree`); marks the
    vertices it reaches seen and sets their ``parent`` and parent-edge
    cost ``pcost``.  Each vertex appends its unseen neighbours, its
    children, as one range of the order, and a depth ends where the one
    before it was done."""
    seen[top] = 1
    bfs = [top]
    cend = []
    level_end = []
    depth_end = 1
    for i, u in enumerate(bfs):
        if i == depth_end:
            level_end.append(i)
            depth_end = len(bfs)
        for k in range(start[u], start[u + 1]):
            v = nbr[k]
            if not seen[v]:
                seen[v] = 1
                parent[v] = u
                pcost[v] = arc_cost[k]
                bfs.append(v)
        cend.append(len(bfs))
    level_end.append(len(bfs))
    return bfs, cend, level_end


def _summed(ids, index, parent, bfs, cend, level_end, scale, weights, costs, potentials):
    """The :class:`RootedTree` of a BFS walk, its subtree aggregates
    summed in one reverse pass."""
    w_sub = weights[:]
    size = [1] * len(weights)
    below = bfs[:0:-1]  # children before parents, root left out
    for u in below:
        p = parent[u]
        w_sub[p] += w_sub[u]
        size[p] += size[u]
    p_sub = potentials[:]
    if any(potentials):
        for u in below:
            p_sub[parent[u]] += p_sub[u]
    return RootedTree(ids, index, parent, bfs, cend, level_end, scale,
                      weights, costs, potentials, w_sub, p_sub, size)


def _raise_first_fault(vertices, edges, root):
    """Raise the error for the first fault in input order, once the flat
    pass has found one (see :func:`build_rooted_tree`)."""
    index = {}
    for entry in vertices:
        if len(entry) == 2:
            vid, w = entry
            p = 0
        else:
            vid, w, p = entry
        if vid in index:
            raise NotATree(f"duplicate vertex id: {vid!r}")
        w = parse_number(w)
        if w <= 0:
            raise NonPositiveVertexWeight(f"vertex {vid!r} has weight {w}")
        p = parse_number(p)
        if p < 0:
            raise InvalidInput(f"vertex {vid!r} has negative potential {p}")
        index[vid] = len(index)

    n = len(index)
    if n == 0:
        raise NotATree("a tree needs at least one vertex")
    if root not in index:
        raise UnknownVertexId(f"root {root!r} is not a declared vertex")

    seen_pairs = set()
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
        cost = parse_number(cost)
        if cost < 0:
            raise InvalidInput(f"edge {u!r}-{v!r} has negative cost {cost}")
    if len(edges) != n - 1:
        raise NotATree(f"{n} vertices need exactly {n - 1} edges, got {len(edges)}")
    # n - 1 edges with no self-loop and no duplicate that fail the flat
    # pass leave some vertex unreached
    raise NotATree("edges do not connect all vertices")


def build_forest(ids, weights, potentials, us, vs, costs) -> list:
    """Build one :class:`RootedTree` per connected component of an acyclic
    graph given as columns: the vertices' ``ids``, ``weights`` and
    ``potentials``, and each edge's endpoints ``us``, ``vs`` as indices
    into them, with its ``cost``.  Each tree keeps its vertices and its
    edges in the given order and is rooted at its heaviest vertex, ties
    going to the first; trees come out in order of their first vertex.

    Raises :class:`NotForestAfterDeletion` if the edges close a cycle.

    One flat pass over the columns: each column is read once (a column of
    ints is neither parsed nor scaled), one counting-sorted CSR adjacency
    holds every edge, each vertex's arcs in input edge order, and one BFS
    per component gives the parents, the children as contiguous ranges of
    the BFS order and the depths; one reverse pass per tree sums the
    subtree aggregates.  The BFS starts are the vertices by decreasing
    weight, the first in input order among equal weights, so the first
    unseen start of each component is its heaviest vertex.  The input is a
    forest iff it has as many edges as vertices less trees, so no
    union-find is needed.  Each tree keeps its own scale, the least common
    multiple of its own denominators.

    Where a check fails, the union-find and per-component builds of
    :func:`_forest_by_components` run instead and name the fault.
    """
    try:
        trees = _flat_forest(ids, weights, potentials, us, vs, costs)
    except (KeyError, TypeError, ValueError):
        trees = None
    if trees is None:
        trees = _forest_by_components(
            list(zip(ids, weights, potentials)),
            [(ids[u], ids[v], c) for u, v, c in zip(us, vs, costs)])
    return trees


def _flat_forest(ids, weights, potentials, us, vs, costs, root=None, index=None):
    """The trees of :func:`build_forest`, or None when a check fails.

    With a ``root`` index, the one walk starts there, and only a tree
    passes: the walk must reach every vertex.  ``index`` maps the ids to
    their indices where the caller has built that map already."""
    n, m = len(ids), len(us)
    if not n or not len(weights) == len(potentials) == n or not len(vs) == len(costs) == m:
        return None
    weights, dw = _column(weights)
    potentials, dp = _column(potentials)
    costs, dc = _column(costs)
    # a column of ints has denominator 1, and min needs no Fraction there
    least = [min if d == 1 else least_numerator for d in (dw, dp, dc)]
    if least[0](weights) <= 0 or least[1](potentials) < 0 or (m and least[2](costs) < 0):
        return None

    start, nbr, arc_cost = _csr(n, us, vs, costs)
    # one BFS per component, from its heaviest vertex (sorted is stable)
    tops = [root] if root is not None else sorted(range(n), key=weights.__getitem__,
                                                  reverse=True)
    seen = bytearray(n)
    parent = [-1] * n
    pcost = [0] * n  # each root keeps its virtual edge of cost 0
    # per component: its BFS order, children ends and depth ends
    walks = [_walk(top, start, nbr, arc_cost, seen, parent, pcost)
             for top in tops if not seen[top]]
    if 0 in seen or m != n - len(walks):
        return None  # a vertex unreached, a cycle, a self-loop or a repeated edge

    if len(walks) == 1:
        # one tree holds every vertex and edge in input order: sum it in place
        if index is None:
            index = dict(zip(ids, range(n)))
        if len(index) != n:
            return None  # a repeated id
        scale = math.lcm(dw, dp, dc)
        return [_summed(ids, index, parent, *walks[0], scale, _scaled(weights, scale),
                        _scaled(pcost, scale), _scaled(potentials, scale))]

    # trees by first vertex, each with its vertices in input order and
    # scaled by the least common multiple of its own denominators
    walks.sort(key=lambda walk: min(walk[0]))
    loc = [0] * (n + 1)
    loc[n] = -1  # a root's parent, -1, reads loc[-1]
    ints = dw == dp == dc == 1
    trees = []
    for bfs, cend, level_end in walks:
        members = sorted(bfs)
        for j, v in enumerate(members):
            loc[v] = j
        ids_t = [ids[v] for v in members]
        columns = ([weights[v] for v in members], [pcost[v] for v in members],
                   [potentials[v] for v in members])
        scale = 1 if ints else math.lcm(*{x.denominator for column in columns
                                          for x in column if type(x) is not int})
        trees.append(_summed(ids_t, dict(zip(ids_t, range(len(ids_t)))),
                             [loc[parent[v]] for v in members], [loc[v] for v in bfs],
                             cend, level_end, scale,
                             *(_scaled(column, scale) for column in columns)))
    return trees


def _forest_by_components(vertices, edges) -> list:
    """:func:`build_forest` by a union-find over the edges and one
    :func:`build_rooted_tree` per component, which names the first fault:
    the first edge that closes a cycle, then the trees' own faults."""
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


class ForestLayout(RootedTree):
    """Disjoint rooted trees laid out as one tree under a virtual root
    whose children are the trees' roots; built by :func:`forest_layout`.

    The virtual root is not a vertex.  It has no id and no weight, so
    ``ids``, ``index`` and ``vertex_count`` cover the trees' vertices
    only, while the per-vertex lists hold one more entry, the root's, at
    index ``vertex_count``: weight, cost and potential 0, subtree size
    ``vertex_count``, subtree weight and potential the sums of the
    trees'.  The sweeps never let it top a part or spend an outlier unit
    on it: they fold only its children's least budgets there.

    Each tree keeps its own scaled units, so ``scale`` is None.  No value
    of one tree is ever added to or compared with a value of another,
    since only least budgets, which count vertices, cross the root, and a
    part's expansion is a ratio of values of one tree; the root's sums
    bound every tree's totals, which is all that the int64 bound and the
    sweeps' infinity read from them.
    """

    __slots__ = ()
    virtual_root = True

    def dense_arrays(self):
        """``RootedTree.dense_arrays``, marked ``virtual_root`` for the
        sweeps: BFS position 0 is the virtual root."""
        dense = super().dense_arrays()
        dense["virtual_root"] = True
        return dense

    def __repr__(self):
        return f"ForestLayout(n={self.vertex_count}, trees={self._cend[0] - 1})"


def part_cap(sizes, kappa: int, lam: int) -> int:
    """The most parts any one of trees of ``sizes`` vertices holds in a
    feasible split of ``kappa`` parts at outlier budget ``lam`` (both
    clamped to the forest's vertex count), or 0 when no split is
    feasible.

    A tree of more than ``lam`` vertices must hold a part, or all its
    vertices would be outliers.  With ``need`` such trees, a tree holds at
    most ``kappa - need + 1`` parts (``kappa`` when need is 0), and
    ``need > kappa`` leaves every split infeasible."""
    need = sum(s > lam for s in sizes)
    if need > kappa:
        return 0
    return kappa - need + 1 if need else kappa


def forest_layout(trees) -> ForestLayout:
    """One or more trees with disjoint ids as a :class:`ForestLayout`.

    Tree ``t``'s vertices keep their indices, offset by the vertex counts
    of the trees before it.  In the BFS order the root comes first, then
    the trees' roots in order, and each depth below lists the trees'
    vertices of that depth tree by tree (a stable sort of the trees' BFS
    orders by depth), so every vertex's children stay one contiguous
    range in input edge order.
    """
    import numpy as np

    n = sum(t.vertex_count for t in trees)
    root = n
    ids, parent, weight, cost, pot, w_sub, p_sub, size = ([] for _ in range(8))
    bfs, depth, kids = [], [], []  # the trees' BFS orders, one after another
    off = 0
    for t in trees:
        ids += t.ids
        parent += [p + off for p in t.parent_idx]
        parent[off + t.root] = root
        weight += t.weight_scaled
        cost += t.cost_scaled
        pot += t.potential_scaled
        w_sub += t.subtree_weight_scaled
        p_sub += t.subtree_potential_scaled
        size += t.subtree_size
        bfs += [u + off for u in t._bfs]
        lo = 0
        for d, hi in enumerate(t._level_end):
            depth += [d] * (hi - lo)
            lo = hi
        kids += [e - s for s, e in zip([1] + t._cend, t._cend)]
        off += t.vertex_count
    parent.append(-1)
    weight.append(0)
    cost.append(0)
    pot.append(0)
    w_sub.append(sum(t.subtree_weight_scaled[t.root] for t in trees))
    p_sub.append(sum(t.subtree_potential_scaled[t.root] for t in trees))
    size.append(n)
    depth = np.array(depth)
    order = np.argsort(depth, kind="stable")
    bfs = [root] + np.array(bfs)[order].tolist()
    cend = list(accumulate([len(trees)] + np.array(kids)[order].tolist(), initial=1))[1:]
    level_end = list(accumulate([1] + np.bincount(depth).tolist()))
    return ForestLayout(ids, dict(zip(ids, range(n))), parent, bfs, cend, level_end,
                        None, weight, cost, pot, w_sub, p_sub, size)


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
    edges = [(tree.ids[tree.parent_idx[c]], tree.ids[c], tree.cost_scaled[c] * mult)
             for c in tree._bfs[1:]]
    scaled = build_rooted_tree(vertices, edges, tree.root_id)
    return scaled, (int(xi * factor), factor)


def _json_id(value):
    """A vertex id from JSON: a string, number, bool or null, since an
    array or object cannot key a vertex."""
    if isinstance(value, (list, dict)):
        raise ValueError(f"vertex id must be a string or number, got {value!r}")
    return value


def _json_entries(data: dict, key: str, what: str, required: tuple):
    """Each index and entry of ``data[key]``, checked to be a JSON array
    of objects (``what #i`` in messages) holding the keys ``required``."""
    entries = data[key]
    if not isinstance(entries, list):
        raise ParseError(f"{key!r} must be a JSON array")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or any(k not in entry for k in required):
            names = ", ".join(map(repr, required[:-1])) + f" and {required[-1]!r}"
            raise ParseError(f"{what} #{i} needs {names}")
        yield i, entry


def json_columns(data: dict, distance: bool = False):
    """The columns ``(ids, weights, potentials, us, vs, costs,
    distances)`` of a tree or graph JSON object, numbers read by
    :func:`values.parse_numbers` (``distances`` holds None where an edge
    has none, and is None without ``distance``), or None where any check
    fails: then :func:`_json_vertices_edges` names the first fault.

    Each field is one comprehension over its entries; entry and id types
    are checked once per distinct type."""
    vertices, edges = data["vertices"], data["edges"]
    if not (isinstance(vertices, list) and isinstance(edges, list)):
        return None
    vkinds, ekinds = set(map(type, vertices)), set(map(type, edges))
    if not all(issubclass(kind, dict) for kind in vkinds | ekinds):
        return None
    # a dict subclass may answer a missing key, so test its keys
    if vkinds - {dict} and not all("id" in v and "weight" in v for v in vertices):
        return None
    if ekinds - {dict} and not all("u" in e and "v" in e and "cost" in e for e in edges):
        return None
    try:
        ids = [v["id"] for v in vertices]
        weights = parse_numbers([v["weight"] for v in vertices])
        potentials = parse_numbers([v.get("potential", 0) for v in vertices])
        us = [e["u"] for e in edges]
        vs = [e["v"] for e in edges]
        costs = parse_numbers([e["cost"] for e in edges])
        dists = None
        if distance:
            dists = [None] * len(edges)
            given = [i for i, e in enumerate(edges) if "distance" in e]
            for i, d in zip(given, parse_numbers([edges[i]["distance"] for i in given])):
                dists[i] = d
    except (KeyError, TypeError, ValueError):
        return None
    if any(issubclass(kind, (list, dict))
           for kind in set(map(type, ids)) | set(map(type, us)) | set(map(type, vs))):
        return None  # an array or object cannot key a vertex
    return ids, weights, potentials, us, vs, costs, dists


def _json_vertices_edges(data: dict, distance: bool = False):
    """The vertices ``(id, weight, potential)`` and edges ``(u, v, cost)``
    of a tree or graph JSON object, numbers read by ``parse_number``; with
    ``distance``, each edge ends with its ``distance`` or None.

    :func:`json_columns` one entry and one value at a time, raising
    :class:`ParseError` for the first fault in input order."""
    vertices = []
    for i, v in _json_entries(data, "vertices", "vertex", ("id", "weight")):
        try:
            vertices.append((_json_id(v["id"]), parse_number(v["weight"]),
                             parse_number(v.get("potential", 0))))
        except ValueError as exc:
            raise ParseError(f"vertex #{i}: {exc}") from exc
    edges = []
    for i, e in _json_entries(data, "edges", "edge", ("u", "v", "cost")):
        try:
            edge = (_json_id(e["u"]), _json_id(e["v"]), parse_number(e["cost"]))
            if distance:
                edge += (parse_number(e["distance"]) if "distance" in e else None,)
        except ValueError as exc:
            raise ParseError(f"edge #{i}: {exc}") from exc
        edges.append(edge)
    return vertices, edges


def tree_from_json(data: dict) -> RootedTree:
    """Build a tree from the JSON schema:
    ``{"root": id, "vertices": [{"id", "weight", "potential"?}],
    "edges": [{"u", "v", "cost"}]}`` with rationals as numbers, decimal
    strings, or ``"p/q"`` strings."""
    if not isinstance(data, dict):
        raise ParseError("tree JSON must be an object")
    for key in ("root", "vertices", "edges"):
        if key not in data:
            raise ParseError(f"tree JSON is missing {key!r}")
    try:
        root = _json_id(data["root"])
    except ValueError as exc:
        raise ParseError(f"root: {exc}") from exc
    columns = json_columns(data)
    if columns is None:
        return build_rooted_tree(*_json_vertices_edges(data), root)
    ids, weights, potentials, us, vs, costs, _ = columns
    tree = _rooted(ids, weights, potentials, us, vs, costs, root)
    if tree is None:
        _raise_first_fault(list(zip(ids, weights, potentials)), list(zip(us, vs, costs)), root)
    return tree
