"""File ingestion and the spanning-tree front end for general graphs.

Similarity graphs come in as JSON (same schema as trees, minus the root)
or as edge CSV.  Edge costs are similarities: the spanning tree is minimum
with respect to distance 1/cost (or an explicit per-edge distance), which
makes it the maximum-similarity spanning tree.  Tree edge costs stay the
original similarities, since those are what boundary computations consume.

Expansions downstream are computed on the spanning tree, not on the input
graph; the tree is an approximation device and results are labeled as
tree-side numbers.
"""

from __future__ import annotations

import csv
import json
import operator
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .errors import (
    DuplicateEdge,
    EmptyGraph,
    InvalidInput,
    NonPositiveVertexWeight,
    ParseError,
    SelfLoop,
    UnknownVertexId,
)
from .search import Forest
from .tree import (
    RootedTree,
    _json_vertices_edges,
    build_forest,
    json_columns,
    tree_from_json,
)
from .values import least_numerator, parse_number, parse_numbers
from .witness import sorted_ids


class WeightedGraph:
    """Simple undirected graph with vertex weights, optional potentials,
    positive similarity costs and optional per-edge distance overrides.

    Vertices are ordered by id at construction; edges keep input order.
    Every value is stored exactly as :func:`values.parse_number` reads it:
    an int where the value is integral, a :class:`Fraction` otherwise, so
    integral columns reach the tree builder as ints and are neither parsed
    nor scaled there again.
    """

    __slots__ = ("ids", "index", "weights", "potentials", "edges")

    def __init__(self, vertices, edges):
        # vertices: iterable of (id, weight, potential); edges: (u, v, cost, dist|None)
        order = sorted_ids([v[0] for v in vertices])
        by_id = {}
        for vid, w, p in vertices:
            if vid in by_id:
                raise InvalidInput(f"duplicate vertex id {vid!r}")
            w = parse_number(w)
            p = parse_number(p)
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
            cost = parse_number(cost)
            if cost <= 0:
                raise InvalidInput(f"edge {u!r}-{v!r} needs positive cost, got {cost}")
            if dist is not None:
                dist = parse_number(dist)
                if dist <= 0:
                    raise InvalidInput(f"edge {u!r}-{v!r} needs positive distance, got {dist}")
            self.edges.append((ui, vi, cost, dist))

    @classmethod
    def _from_columns(cls, ids, weights, potentials, us, vs, costs, dists):
        """A graph from columns a reader has already parsed (``dists`` holds
        None where an edge has no distance), checked in bulk; where a check
        fails, the constructor ``cls`` runs on them and names the first
        fault."""
        graph = cls.__new__(cls)
        if graph._set_columns(ids, weights, potentials, us, vs, costs, dists):
            return graph
        return cls(list(zip(ids, weights, potentials)), list(zip(us, vs, costs, dists)))

    def _set_columns(self, ids, weights, potentials, us, vs, costs, dists) -> bool:
        """Take parsed columns if every check holds, each checked in bulk;
        False, with nothing set, if one fails."""
        n, m = len(ids), len(us)
        order = sorted_ids(ids)
        try:
            index = dict(zip(order, range(n)))
            ui = [index[u] for u in us]
            vi = [index[v] for v in vs]
        except (KeyError, TypeError):
            return False
        if len(index) != n or any(map(operator.eq, ui, vi)):
            return False  # a duplicate id or a self-loop
        if n and (least_numerator(weights) <= 0 or least_numerator(potentials) < 0):
            return False
        given = [d for d in dists if d is not None]
        if (m and least_numerator(costs) <= 0) or (given and least_numerator(given) <= 0):
            return False
        # with no self-loop, an edge repeats iff an arc does, either way round
        arcs = set(zip(ui, vi))
        if len(arcs) != m or not arcs.isdisjoint(zip(vi, ui)):
            return False
        if order != ids:
            at = dict(zip(ids, range(n)))
            perm = [at[vid] for vid in order]
            weights = list(map(weights.__getitem__, perm))
            potentials = list(map(potentials.__getitem__, perm))
        self.ids = order
        self.index = index
        self.weights = weights
        self.potentials = potentials
        self.edges = list(zip(ui, vi, costs, dists))
        return True

    @property
    def vertex_count(self) -> int:
        return len(self.ids)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertex_ids(self) -> tuple:
        return tuple(self.ids)

    def weight(self, vertex) -> int | Fraction:
        return self.weights[self._idx(vertex)]

    def potential(self, vertex) -> int | Fraction:
        return self.potentials[self._idx(vertex)]

    def _idx(self, vertex) -> int:
        try:
            return self.index[vertex]
        except KeyError:
            raise UnknownVertexId(f"unknown vertex id: {vertex!r}") from None

    def edge_records(self):
        """Yield (u_id, v_id, cost, distance_or_None) in input order."""
        for ui, vi, cost, dist in self.edges:
            yield self.ids[ui], self.ids[vi], cost, dist

    def components(self) -> list:
        """Connected components as lists of ids, each ordered by id, ordered
        by their smallest member."""
        adj = [[] for _ in self.ids]
        for ui, vi, _cost, _dist in self.edges:
            adj[ui].append(vi)
            adj[vi].append(ui)
        seen = [False] * len(self.ids)
        comps = []
        for start in range(len(self.ids)):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            members = []
            while stack:
                u = stack.pop()
                members.append(self.ids[u])
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted_ids(members))
        return comps

    def expansion(self, part, use_potentials: bool = False) -> Fraction:
        """Exact edge expansion of a vertex set in this graph."""
        return self.expansions((part,), use_potentials)[0]

    def expansions(self, parts, use_potentials: bool = False) -> tuple:
        """Exact edge expansions of disjoint vertex sets in this graph, in
        one pass over the edges: each vertex is labelled with its part,
        and an edge whose ends differ in label charges the parts of both."""
        members = [{self._idx(v) for v in part} for part in parts]
        if not all(members):
            raise InvalidInput("expansion of the empty set is undefined")
        label = [-1] * len(self.ids)
        for j, idxs in enumerate(members):
            for i in idxs:
                label[i] = j
        cut = [0] * len(members)
        for ui, vi, cost, _d in self.edges:
            a, b = label[ui], label[vi]
            if a != b:
                if a >= 0:
                    cut[a] += cost
                if b >= 0:
                    cut[b] += cost
        out = []
        for j, idxs in enumerate(members):
            if use_potentials:
                cut[j] += sum(self.potentials[i] for i in idxs)
            out.append(Fraction(cut[j]) / sum(self.weights[i] for i in idxs))
        return tuple(out)


def tree_as_graph(tree: RootedTree) -> WeightedGraph:
    """View a rooted tree as a weighted graph (the virtual root edge is
    dropped): vertices ordered by id as the constructor orders them, edges
    from parent to child in BFS order.

    The graph is filled from the tree's index columns, which the tree
    builder has checked already, so an edge of cost 0 stays: the positive
    cost the constructor asks for is the one a similarity spanning tree
    needs for its distance 1/cost."""
    # parse_numbers makes integral values ints, as the constructor stores them
    graph = WeightedGraph.__new__(WeightedGraph)
    graph.ids = sorted_ids(tree.ids)
    graph.index = dict(zip(graph.ids, range(len(graph.ids))))
    graph.weights = parse_numbers([tree.weight(vid) for vid in graph.ids])
    graph.potentials = parse_numbers([tree.potential(vid) for vid in graph.ids])
    children = tree._bfs[1:]
    costs = parse_numbers([Fraction(tree.cost_scaled[c], tree.scale) for c in children])
    at = [graph.index[vid] for vid in tree.ids]  # tree index -> graph index
    graph.edges = [(at[tree.parent_idx[c]], at[c], cost, None)
                   for c, cost in zip(children, costs)]
    return graph


def graph_from_json(data: dict) -> WeightedGraph:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ParseError("graph JSON needs 'vertices' and 'edges'")
    columns = json_columns(data, distance=True)
    if columns is None:
        return WeightedGraph(*_json_vertices_edges(data, distance=True))
    return WeightedGraph._from_columns(*columns)


def _not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def _csv_header(path, reader) -> tuple:
    """The column positions of ``u``, ``v``, ``cost`` and ``distance``
    (None if absent) named by an edge CSV's header row."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty CSV") from None
    cols = [h.strip().lower() for h in header]
    for required in ("u", "v", "cost"):
        if required not in cols:
            raise ParseError(f"{path}: header must name 'u', 'v', 'cost'")
    idist = cols.index("distance") if "distance" in cols else None
    return cols.index("u"), cols.index("v"), cols.index("cost"), idist


def _csv_columns(rows, iu, iv, ic, idist):
    """The columns ``(us, vs, costs, distances)`` of an edge CSV's rows
    after the header, or None where any check fails: then
    :func:`_csv_edges` names the first fault.  Empty rows are skipped."""
    if not all(rows):
        rows = [row for row in rows if row]
    try:
        us = [row[iu].strip() for row in rows]
        vs = [row[iv].strip() for row in rows]
        costs = parse_numbers([row[ic] for row in rows])
        cells = [] if idist is None else [row[idist] if idist < len(row) else ""
                                          for row in rows]
        given = [i for i, cell in enumerate(cells) if cell and not cell.isspace()]
        parsed = parse_numbers([cells[i] for i in given])
    except (IndexError, ValueError):
        return None
    if (rows and least_numerator(costs) <= 0) or (given and least_numerator(parsed) <= 0):
        return None
    dists = [None] * len(rows)
    for i, d in zip(given, parsed):
        dists[i] = d
    return us, vs, costs, dists


def _csv_edges(path, rows, iu, iv, ic, idist):
    """:func:`_csv_columns` one row at a time, raising
    :class:`ParseError` for the first fault; rows of blank cells are
    skipped."""
    us, vs, costs, dists = [], [], [], []
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            u = row[iu].strip()
            v = row[iv].strip()
            cost = parse_number(row[ic].strip())
            dist = None
            if idist is not None and idist < len(row) and row[idist].strip():
                dist = parse_number(row[idist].strip())
        except (IndexError, ValueError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if cost <= 0:
            raise ParseError(f"{path}:{lineno}: cost must be positive, got {cost}")
        if dist is not None and dist <= 0:
            raise ParseError(f"{path}:{lineno}: distance must be positive, got {dist}")
        us.append(u)
        vs.append(v)
        costs.append(cost)
        dists.append(dist)
    return us, vs, costs, dists


def graph_from_csv(path) -> WeightedGraph:
    """Edge list CSV with a header: ``u,v,cost[,distance]``.  Vertices are
    inferred from endpoints with weight 1; ids stay strings.  A UTF-8
    byte order mark before the header is skipped."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = _csv_header(path, reader)
            rows = []
            try:
                rows.extend(reader)
            except (csv.Error, UnicodeDecodeError):
                # a fault in the rows before the unreadable one comes first
                _csv_edges(path, rows, *header)
                raise
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    columns = _csv_columns(rows, *header)
    us, vs, costs, dists = columns or _csv_edges(path, rows, *header)

    vertex_ids = list(dict.fromkeys(chain.from_iterable(zip(us, vs))))
    if not vertex_ids:
        raise ParseError(f"{path}: no edges")
    n = len(vertex_ids)
    try:
        return WeightedGraph._from_columns(vertex_ids, [1] * n, [0] * n,
                                           us, vs, costs, dists)
    except (SelfLoop, DuplicateEdge) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_instance(path, fmt: str | None = None):
    """Load a tree or graph from disk.

    JSON objects carrying a ``root`` key become a :class:`RootedTree`;
    JSON without a root and any CSV become a :class:`WeightedGraph`.
    Rationals are preserved exactly; a graph keeps each integral value as
    an int and every other value as a :class:`Fraction`.
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    if fmt not in ("json", "csv"):
        raise InvalidInput(f"unknown format {fmt!r}")
    if fmt == "csv":
        return graph_from_csv(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if isinstance(data, dict) and "root" in data:
        return tree_from_json(data)
    return graph_from_json(data)


def similarity_spanning_tree(graph: WeightedGraph):
    """Maximum spanning tree with respect to similarity, built as the
    minimum spanning tree of distance 1/cost (or the explicit distance
    override).  Ties break on (distance, smaller endpoint, larger endpoint),
    so the result is deterministic.  Returns a single tree for a connected
    graph, otherwise a :class:`Forest` with one tree per component.

    Kruskal's order is found on int keys: each distinct ``(cost,
    distance)`` pair gets its exact distance once, the distinct distances
    are sorted once, and every edge sorts by ``(rank, lo, hi, edge
    index)``.  Equal distances share a rank whichever form they came in,
    so the order is the one of the exact distances.  The graph's values
    go to the tree builder as they are."""
    if graph.vertex_count == 0:
        raise EmptyGraph("cannot build a spanning tree with no vertices")
    trees = build_forest(graph.ids, graph.weights, graph.potentials, *_kruskal_edges(graph))
    if len(trees) == 1:
        return trees[0]
    return Forest(tuple(trees))


def _distance_ranks(edges) -> list:
    """Each edge's rank among the distinct exact distances, smallest 0."""
    slots = {}  # (cost, distance override) -> slot, in first-seen order
    edge_slot = [slots.setdefault((cost, dist), len(slots))
                 for _ui, _vi, cost, dist in edges]
    # Fraction(1, cost), not 1 / cost: an int cost would give a float
    try:
        dists = [Fraction(1, cost) if dist is None else dist for cost, dist in slots]
    except ZeroDivisionError:  # a tree's edge of cost 0 (tree_as_graph)
        raise InvalidInput("a similarity spanning tree needs positive edge costs, got 0") \
            from None
    order = sorted(range(len(dists)), key=dists.__getitem__)
    slot_rank = [0] * len(dists)
    rank = 0
    for prev, s in zip(order, order[1:]):
        rank += dists[prev] < dists[s]
        slot_rank[s] = rank
    return [slot_rank[s] for s in edge_slot]


def _kruskal_edges(graph: WeightedGraph) -> tuple[list, list, list]:
    """The spanning forest's edges in acceptance order, as the columns
    ``(us, vs, costs)`` with endpoints as indices into ``graph.ids``."""
    ranked = [(rank, ui, vi, eidx) if ui <= vi else (rank, vi, ui, eidx)
              for eidx, (rank, (ui, vi, _c, _d))
              in enumerate(zip(_distance_ranks(graph.edges), graph.edges))]
    ranked.sort()

    parent = list(range(graph.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    us, vs, costs = [], [], []
    for _r, _lo, _hi, eidx in ranked:
        ui, vi, cost, _dd = graph.edges[eidx]
        ru, rv = find(ui), find(vi)
        if ru != rv:
            parent[ru] = rv
            us.append(ui)
            vs.append(vi)
            costs.append(cost)
    return us, vs, costs


def forest_from_graph(graph: WeightedGraph):
    """Interpret an already-acyclic graph as a :class:`Forest` (one rooted
    tree per component, rooted at the heaviest vertex, ties to the smallest
    id).  Raises :class:`NotForestAfterDeletion` if the graph has a cycle."""
    if graph.vertex_count == 0:
        raise EmptyGraph("cannot build a forest with no vertices")
    edges = graph.edges
    return Forest(tuple(build_forest(
        graph.ids, graph.weights, graph.potentials, [e[0] for e in edges],
        [e[1] for e in edges], [e[2] for e in edges])))
