"""Reference graph front end for the identity tests of ``treecut.graphs``.

This is the front end ``treecut.graphs`` used before it kept integral
values as ints: ``ReferenceGraph`` turns every weight, potential, cost and
distance into a ``Fraction`` as it reads them, and ``reference_order``
ranks the edges for Kruskal by sorting ``(distance, lo, hi, edge index)``
tuples keyed by those Fractions.  ``ReferenceGraph`` subclasses
``WeightedGraph`` with only its constructor replaced, so every other
method, and every function that takes a graph, runs the library's code on
Fraction values.

``reference_forest`` is the forest builder ``treecut.tree`` used before
its one-pass build: a union-find over the edges, then one
``build_rooted_tree`` per component, rooted at its heaviest vertex.
"""

from treecut.errors import (
    DuplicateEdge,
    InvalidInput,
    NonPositiveVertexWeight,
    NotForestAfterDeletion,
    SelfLoop,
    UnknownVertexId,
)
from treecut.graphs import WeightedGraph
from treecut.search import Forest
from treecut.tree import build_rooted_tree
from treecut.values import parse_rational
from treecut.witness import sorted_ids


class ReferenceGraph(WeightedGraph):
    __slots__ = ("adj",)

    def __init__(self, vertices, edges):
        order = sorted_ids([v[0] for v in vertices])
        by_id = {}
        for vid, w, p in vertices:
            if vid in by_id:
                raise InvalidInput(f"duplicate vertex id {vid!r}")
            w = parse_rational(w)
            p = parse_rational(p)
            if w <= 0:
                raise NonPositiveVertexWeight(f"vertex {vid!r} has weight {w}")
            if p < 0:
                raise InvalidInput(f"vertex {vid!r} has negative potential {p}")
            by_id[vid] = (w, p)
        self.ids = list(order)
        self.index = {vid: i for i, vid in enumerate(self.ids)}
        self.weights = [by_id[vid][0] for vid in self.ids]
        self.potentials = [by_id[vid][1] for vid in self.ids]

        self.edges = []
        self.adj = [[] for _ in self.ids]
        seen = set()
        for u, v, cost, dist in edges:
            if u not in self.index or v not in self.index:
                missing = u if u not in self.index else v
                raise UnknownVertexId(f"edge endpoint {missing!r} is not declared")
            ui, vi = self.index[u], self.index[v]
            if ui == vi:
                raise SelfLoop(f"self-loop at {u!r}")
            key = (min(ui, vi), max(ui, vi))
            if key in seen:
                raise DuplicateEdge(f"duplicate edge {u!r}-{v!r}")
            seen.add(key)
            cost = parse_rational(cost)
            if cost <= 0:
                raise InvalidInput(f"edge {u!r}-{v!r} needs positive cost, got {cost}")
            if dist is not None:
                dist = parse_rational(dist)
                if dist <= 0:
                    raise InvalidInput(f"edge {u!r}-{v!r} needs positive distance, got {dist}")
            eidx = len(self.edges)
            self.edges.append((ui, vi, cost, dist))
            self.adj[ui].append((vi, eidx))
            self.adj[vi].append((ui, eidx))


def reference_order(graph) -> list:
    """Edge indices in Kruskal's order: by the Fraction distance 1/cost
    (or the override), then smaller endpoint, larger endpoint."""
    assert isinstance(graph, ReferenceGraph), "an int cost would make 1 / cost a float"
    ranked = []
    for eidx, (ui, vi, cost, dist) in enumerate(graph.edges):
        d = dist if dist is not None else 1 / cost
        lo, hi = (ui, vi) if ui <= vi else (vi, ui)
        ranked.append((d, lo, hi, eidx))
    ranked.sort()
    return [eidx for _d, _lo, _hi, eidx in ranked]


def reference_acceptance(graph) -> list:
    """The spanning forest's edges ``(u, v, cost)`` in acceptance order."""
    parent = list(range(graph.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for eidx in reference_order(graph):
        ui, vi, cost, _dd = graph.edges[eidx]
        ru, rv = find(ui), find(vi)
        if ru != rv:
            parent[ru] = rv
            chosen.append((graph.ids[ui], graph.ids[vi], cost))
    return chosen


def reference_forest(vertices, edges) -> list:
    """One tree per component of ``vertices`` ``(id, weight, potential)``
    and ``edges`` ``(u, v, cost)``: each keeps its vertices and edges in
    input order and is rooted at its heaviest vertex, the first of equal
    ones; trees by first vertex.  A cycle raises at the first edge that
    closes one."""
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

    members = {}
    for i, entry in enumerate(vertices):
        members.setdefault(find(i), []).append(entry)
    comp_edges = {}
    for edge in edges:
        comp_edges.setdefault(find(index[edge[0]]), []).append(edge)
    return [build_rooted_tree(group, comp_edges.get(comp, ()),
                              max(group, key=lambda entry: entry[1])[0])
            for comp, group in members.items()]


def reference_spanning_tree(graph):
    trees = reference_forest(list(zip(graph.ids, graph.weights, graph.potentials)),
                             reference_acceptance(graph))
    if len(trees) == 1:
        return trees[0]
    return Forest(tuple(trees))
