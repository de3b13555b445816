"""Graph values kept as ints: identity with the Fraction-valued front end
in ``tests/_graphs.py``, exact ranking of spanning-tree edges, and equal
errors whatever form a token takes."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from _graphs import (
    ReferenceGraph,
    reference_acceptance,
    reference_forest,
    reference_order,
    reference_spanning_tree,
)
from treecut import (
    Forest,
    InvalidInput,
    NonPositiveVertexWeight,
    ParseError,
    UnknownVertexId,
    WeightedGraph,
    decide_semisupervised,
    forest_from_graph,
    similarity_spanning_tree,
)
from treecut import graphs
from treecut.cli import main
from treecut.graphs import _distance_ranks, _kruskal_edges, graph_from_csv, graph_from_json
from treecut.tree import build_forest, build_rooted_tree

# every denominator divides 100, so each value has an exact decimal and
# an exact shortest float repr
_DENOMS = (1, 1, 1, 2, 4, 5, 10)


def _value(rng, positive=True):
    q = rng.choice(_DENOMS)
    return Fraction(rng.randint(1 if positive else 0, 6 * q), q)


def _token(rng, x: Fraction):
    """``x`` as an int, an int string, a ``"p/q"`` string, a decimal
    string, a Fraction or a float."""
    hundredths = x.numerator * (100 // x.denominator)
    forms = [f"{x.numerator}/{x.denominator}", f"{hundredths // 100}.{hundredths % 100:02d}",
             x, float(x)]
    if x.denominator == 1:
        forms += [x.numerator, str(x.numerator)]
    return rng.choice(forms)


def _ids(rng, n):
    return rng.sample(range(100), n) if rng.random() < 0.5 else [f"v{i}" for i in range(n)]


def _vertices(rng, ids):
    return [(v, _token(rng, _value(rng)),
             _token(rng, _value(rng, positive=False)) if rng.random() < 0.5 else 0)
            for v in ids]


def _edge(rng, u, v, overrides):
    dist = _token(rng, _value(rng)) if overrides and rng.random() < 0.4 else None
    return (u, v, _token(rng, _value(rng)), dist) if rng.random() < 0.5 else \
        (v, u, _token(rng, _value(rng)), dist)


def _random_graph(rng):
    n = rng.randint(1, 12)
    ids = _ids(rng, n)
    overrides = rng.random() < 0.5
    edges = [_edge(rng, ids[i], ids[j], overrides)
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    rng.shuffle(edges)
    return _vertices(rng, ids), edges


def _random_forest(rng, ids, overrides):
    """Edges of a random forest on ``ids``, in random order."""
    edges = [_edge(rng, ids[rng.randrange(i)], ids[i], overrides)
             for i in range(1, len(ids)) if rng.random() < 0.85]
    rng.shuffle(edges)
    return edges


def _accepted(graph):
    """``_kruskal_edges``' index columns as ``(u, v, cost)`` id triples."""
    us, vs, costs = _kruskal_edges(graph)
    return [(graph.ids[u], graph.ids[v], c) for u, v, c in zip(us, vs, costs)]


def _trees_json(result):
    trees = result.trees if isinstance(result, Forest) else (result,)
    return [t.to_json() for t in trees]


def _values_as_parsed(graph):
    """Every stored value is an int where integral, else a Fraction."""
    values = [*graph.weights, *graph.potentials,
              *(x for _u, _v, c, d in graph.edges for x in (c, d) if x is not None)]
    return all(type(x) is (int if Fraction(x).denominator == 1 else Fraction)
               for x in values)


class TestMatchesFractionReference:
    def test_spanning_tree_and_acceptance_order(self):
        rng = random.Random(1201)
        for _ in range(400):
            vertices, edges = _random_graph(rng)
            g, ref = WeightedGraph(vertices, edges), ReferenceGraph(vertices, edges)
            assert _values_as_parsed(g)
            assert g.weights == ref.weights and g.edges == ref.edges
            assert _accepted(g) == reference_acceptance(ref)
            assert _trees_json(similarity_spanning_tree(g)) == \
                _trees_json(reference_spanning_tree(ref))

    def test_forest_from_graph(self):
        rng = random.Random(1202)
        for _ in range(300):
            ids = _ids(rng, rng.randint(1, 14))
            vertices = _vertices(rng, ids)
            edges = _random_forest(rng, ids, rng.random() < 0.5)
            g, ref = WeightedGraph(vertices, edges), ReferenceGraph(vertices, edges)
            assert _trees_json(forest_from_graph(g)) == _trees_json(forest_from_graph(ref))

    def test_decide_semisupervised(self):
        rng = random.Random(1203)
        answers = set()
        for _ in range(120):
            ids = _ids(rng, rng.randint(3, 12))
            hubs = rng.sample(ids, rng.randint(1, 2))
            survivors = [v for v in ids if v not in hubs]
            edges = _random_forest(rng, survivors, rng.random() < 0.5)
            for h in hubs:
                edges += [_edge(rng, h, v, False)
                          for v in rng.sample(survivors, min(3, len(survivors)))]
            rng.shuffle(edges)
            vertices = _vertices(rng, ids)
            g, ref = WeightedGraph(vertices, edges), ReferenceGraph(vertices, edges)
            forbid = frozenset(rng.sample(survivors, rng.randint(0, 1)))
            parts = rng.randint(1, 3)
            outliers = len(hubs) + rng.randint(0, 2)
            for xi, pot in itertools.product(
                    (Fraction(1, 4), Fraction(3, 4), Fraction(3, 2), 3, 10), (False, True)):
                got = decide_semisupervised(g, hubs, forbid, xi, parts, outliers,
                                            use_potentials=pot)
                want = decide_semisupervised(ref, hubs, forbid, xi, parts, outliers,
                                             use_potentials=pot)
                assert got[0] == want[0]
                if want[1] is None:
                    assert got[1] is None
                else:
                    assert got[1].parts == want[1].parts
                    assert got[1].residue == want[1].residue
                    assert got[1].per_part_expansion == want[1].per_part_expansion
                    assert got[1].max_expansion == want[1].max_expansion
                answers.add(got[0])
        assert answers == {True, False}


def _graph_file(tmp_path, name, as_token):
    """A forest of 9 vertices with weights, potentials and one distance
    override, and the same forest with a hub ``h`` joined to four of its
    vertices, as graph JSON whose every number is ``as_token(n)``."""
    rng = random.Random(1204)
    ids = [f"v{i}" for i in range(9)]
    vertices = [{"id": v, "weight": as_token(rng.randint(1, 5)),
                 "potential": as_token(rng.randint(0, 2))} for v in ids]
    edges = [{"u": ids[rng.randrange(i)], "v": ids[i], "cost": as_token(rng.randint(1, 6))}
             for i in range(1, 9)]
    edges[3]["distance"] = as_token(2)
    hub = [{"u": "h", "v": v, "cost": as_token(rng.randint(1, 6))}
           for v in ("v1", "v4", "v6", "v8")]
    paths = []
    for suffix, data in (("forest", {"vertices": vertices, "edges": edges}),
                         ("hub", {"vertices": vertices + [{"id": "h", "weight": as_token(1)}],
                                  "edges": edges + hub})):
        p = tmp_path / f"{name}-{suffix}.json"
        p.write_text(json.dumps(data))
        paths.append(str(p))
    return paths


class TestCliStdoutByForm:
    @pytest.mark.parametrize("argv", [
        ("cluster", "hub", "--parts", "3", "--outliers", "1"),
        ("cluster", "forest", "--parts", "2", "--outliers", "0"),
        ("decide", "hub", "--xi", "2", "--parts", "2", "--outliers", "2",
         "--require-outlier", "h"),
        ("optimize", "forest", "--parts", "3", "--outliers", "1", "--potentials"),
    ])
    def test_int_and_n_over_1_tokens_print_the_same(self, tmp_path, capsys, argv):
        outs = []
        for name, as_token in (("ints", int), ("ratios", lambda n: f"{n}/1")):
            forest, hub = _graph_file(tmp_path, name, as_token)
            cmd, which, *rest = argv
            code = main([cmd, "--input", hub if which == "hub" else forest, *rest])
            outs.append((code, capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert json.loads(outs[0][1])

    def test_csv_int_and_n_over_1_tokens_print_the_same(self, tmp_path, capsys):
        rows = ["u,v,cost,distance", "a,b,3,", "b,c,2,1/2", "a,c,1,", "c,d,4,", "b,d,2,"]
        outs = []
        for name, fmt in (("ints", "{}"), ("ratios", "{}/1")):
            p = tmp_path / f"{name}.csv"
            p.write_text("\n".join(
                ",".join(fmt.format(c) if c.isdigit() else c for c in row.split(","))
                for row in rows) + "\n")
            code = main(["cluster", "--input", str(p), "--parts", "2", "--outliers", "1"])
            outs.append((code, capsys.readouterr().out))
        assert outs[0] == outs[1]


class TestExactRanking:
    def test_reciprocals_equal_as_floats_keep_the_stronger_edge(self):
        big = 10 ** 30
        assert 1 / big == 1 / (big + 1)  # a float key would tie them
        g = WeightedGraph([(v, 1, 0) for v in "abc"],
                          [("a", "b", big, None), ("a", "c", big + 1, None),
                           ("b", "c", 10 ** 31, None)])
        ranks = _distance_ranks(g.edges)
        assert ranks == [2, 1, 0]
        assert _accepted(g) == [("b", "c", 10 ** 31), ("a", "c", big + 1)]
        assert similarity_spanning_tree(g).total_edge_cost() == 10 ** 31 + big + 1

    @pytest.mark.parametrize("explicit_first", [True, False])
    def test_cost_and_explicit_distance_tie_on_endpoints(self, explicit_first):
        # cost 2 gives distance 1/2; the override gives 1/2 on a cost-7
        # edge: one rank, and the smaller endpoints win the cycle a-b-c
        cost_edge = ("b", "c", 2, None) if explicit_first else ("a", "c", 2, None)
        dist_edge = ("a", "c", 7, "1/2") if explicit_first else ("b", "c", 7, "0.5")
        g = WeightedGraph([(v, 1, 0) for v in "abc"],
                          [cost_edge, dist_edge, ("a", "b", 100, None)])
        ranks = _distance_ranks(g.edges)
        assert ranks[0] == ranks[1] == 1 and ranks[2] == 0
        kept = ("a", "c", 7) if explicit_first else ("a", "c", 2)
        assert _accepted(g) == [("a", "b", 100), kept]
        ref = ReferenceGraph([(v, 1, 0) for v in "abc"],
                             [cost_edge, dist_edge, ("a", "b", 100, None)])
        assert reference_acceptance(ref) == _accepted(g)

    def test_twenty_thousand_distinct_costs(self):
        # worst case for the ranking: every distance is its own rank
        rng = random.Random(1205)
        n = 400
        pairs = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], 20000)
        costs = set()
        while len(costs) < len(pairs):
            costs.add(Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4)))
        costs = list(costs)
        rng.shuffle(costs)
        vertices = [(v, 1, 0) for v in range(n)]
        edges = [(u, v, c, None) for (u, v), c in zip(pairs, costs)]
        g, ref = WeightedGraph(vertices, edges), ReferenceGraph(vertices, edges)
        ranks = _distance_ranks(g.edges)
        assert sorted(ranks) == list(range(len(edges)))
        assert [e for _r, e in sorted(zip(ranks, range(len(edges))))] == reference_order(ref)
        assert _accepted(g) == reference_acceptance(ref)


def _faults():
    """(name, vertices, edges) of each fault, built by ``t`` from an int
    so the test can pass each token as an int, an int string or a
    Fraction."""
    ok = lambda t: [("a", t(1), t(0)), ("b", t(2), t(1))]
    return [
        ("zero weight", lambda t: [("a", t(0), t(0)), ("b", t(2), t(1))],
         lambda t: [("a", "b", t(1), None)]),
        ("negative weight", lambda t: [("a", t(1), t(0)), ("b", t(-2), t(1))],
         lambda t: [("a", "b", t(1), None)]),
        ("negative potential", lambda t: [("a", t(1), t(-1)), ("b", t(2), t(1))],
         lambda t: [("a", "b", t(1), None)]),
        ("zero cost", ok, lambda t: [("a", "b", t(0), None)]),
        ("zero distance", ok, lambda t: [("a", "b", t(1), t(0))]),
        ("negative distance", ok, lambda t: [("a", "b", t(1), t(-3))]),
        ("bool weight", lambda t: [("a", True, t(0)), ("b", t(2), t(1))],
         lambda t: [("a", "b", t(1), None)]),
        ("bool cost", ok, lambda t: [("a", "b", False, None)]),
        ("unparseable weight", lambda t: [("a", t(1), t(0)), ("b", "2x", t(1))],
         lambda t: [("a", "b", t(1), None)]),
        ("unparseable distance", ok, lambda t: [("a", "b", t(1), "1/0")]),
        ("duplicate id", lambda t: [("a", t(1), t(0)), ("a", t(2), t(1))],
         lambda t: [("a", "b", t(1), None)]),
        ("unknown endpoint", ok, lambda t: [("a", "z", t(1), None)]),
    ]


_FORMS = (int, str, Fraction)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def _as_json(vertices, edges):
    data = {"vertices": [{"id": v, "weight": w, "potential": p} for v, w, p in vertices],
            "edges": [{"u": u, "v": v, "cost": c} for u, v, c, _d in edges]}
    for e, (_u, _v, _c, d) in zip(data["edges"], edges):
        if d is not None:
            e["distance"] = d
    return data


class TestErrorParity:
    @pytest.mark.parametrize("name,vertices,edges", _faults(), ids=[f[0] for f in _faults()])
    def test_graph_and_json_raise_alike_in_every_form(self, monkeypatch, name, vertices,
                                                      edges):
        got = set()
        for graph_class in (WeightedGraph, ReferenceGraph):
            monkeypatch.setattr(graphs, "WeightedGraph", graph_class)
            got |= {(_raised(graph_class, vertices(t), edges(t)),
                     _raised(graph_from_json, _as_json(vertices(t), edges(t))))
                    for t in _FORMS}
        assert len(got) == 1, got
        (graph_error, json_error), = got
        if name.startswith(("bool", "unparseable")):
            assert graph_error[0] is ValueError and json_error[0] is ParseError
        else:
            assert graph_error == json_error
            assert issubclass(graph_error[0], (InvalidInput, NonPositiveVertexWeight,
                                               UnknownVertexId))

    @pytest.mark.parametrize("row", ["a,b,<0>,", "a,b,<-2>,", "a,b,<1>,<0>", "a,b,<1>,<-1>",
                                     "a,b,True,", "a,b,<1>,x", "a,a,<1>,",
                                     "a,b,<1>,\nb,a,<2>,"])
    def test_csv_raises_alike_in_every_form(self, tmp_path, monkeypatch, row):
        p = tmp_path / "g.csv"
        got = set()
        for form in ("{}", "{}/1", "{}.0"):
            text = row
            for n in range(-2, 3):
                text = text.replace(f"<{n}>", form.format(n))
            p.write_text(f"u,v,cost,distance\n{text}\n")
            for graph_class in (WeightedGraph, ReferenceGraph):
                monkeypatch.setattr(graphs, "WeightedGraph", graph_class)
                got.add(_raised(graph_from_csv, p))
        assert len(got) == 1, got


_TREE_FIELDS = ("ids", "index", "root", "parent_idx", "children_idx", "order_idx", "scale",
                "weight_scaled", "cost_scaled", "potential_scaled", "subtree_weight_scaled",
                "subtree_potential_scaled", "subtree_size", "_bfs", "_cend", "_level_end")


def _fields(trees):
    return [{f: getattr(t, f) for f in _TREE_FIELDS} for t in trees]


def _forest_instance(rng):
    """Vertices ``(id, weight, potential)`` and edges ``(u, v, cost)`` of a
    random forest: trees of 1-9 vertices (isolated vertices among them),
    ids shuffled across the trees, of one type or of mixed types, weights
    from a few values so that the heaviest vertex often ties, and values
    as ints or Fractions whose denominators differ from tree to tree."""
    trees = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
    n = sum(trees)
    kind = rng.choice(("int", "str", "mixed"))
    labels = rng.sample(range(1000), n)
    ids = [x if kind == "int" or (kind == "mixed" and x % 2) else f"v{x}" for x in labels]
    members = []
    for size in trees:
        members.append([ids.pop() for _ in range(size)])
    vertices, edges = [], []
    for group in members:
        q = rng.choice((1, 1, 2, 3, 4, 6))

        def value(low, q=q):
            x = Fraction(rng.randint(low, 6), q)
            return x.numerator if x.denominator == 1 and rng.random() < 0.7 else x

        vertices += [(v, value(1) if rng.random() < 0.5 else rng.choice((2, 3)),
                      value(0) if rng.random() < 0.4 else 0) for v in group]
        edges += [(group[rng.randrange(i)], group[i], value(0)) if rng.random() < 0.5
                  else (group[i], group[rng.randrange(i)], value(0))
                  for i in range(1, len(group))]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return vertices, edges


def _columns(vertices, edges):
    index = {v: i for i, (v, _w, _p) in enumerate(vertices)}
    return ([v for v, _w, _p in vertices], [w for _v, w, _p in vertices],
            [p for _v, _w, p in vertices], [index[u] for u, _v, _c in edges],
            [index[v] for _u, v, _c in edges], [c for _u, _v, c in edges])


class TestForestBuilderMatchesReference:
    """``build_forest`` against the union-find and per-component builds of
    ``tests/_graphs.py``."""

    def test_random_forests(self):
        rng = random.Random(1206)
        scales = set()
        for _ in range(400):
            vertices, edges = _forest_instance(rng)
            want = _fields(reference_forest(vertices, edges))
            assert _fields(build_forest(*_columns(vertices, edges))) == want
            if len(want) == 1:
                # one walk covers every vertex: the same tree as a rooted
                # build from the heaviest vertex, the first of equal ones
                root = max(vertices, key=lambda entry: entry[1])[0]
                assert _fields([build_rooted_tree(vertices, edges, root)]) == want
            scales.add(tuple(t["scale"] for t in want))
        assert any(len(set(s)) > 1 for s in scales)  # trees of one forest, own scales

    def test_ties_for_the_heaviest_vertex_go_to_the_first(self):
        vertices = [("a", 1, 0), ("b", 3, 0), ("c", 3, 0), ("d", 3, 0), ("e", 2, 0)]
        edges = [("a", "c", 1), ("d", "e", 1), ("c", "b", 1)]
        trees = build_forest(*_columns(vertices, edges))
        assert [t.root_id for t in trees] == ["b", "d"]
        assert _fields(trees) == _fields(reference_forest(vertices, edges))

    def test_graph_forests(self):
        rng = random.Random(1207)
        for _ in range(150):
            ids = _ids(rng, rng.randint(1, 14))
            g = WeightedGraph(_vertices(rng, ids), _random_forest(rng, ids, False))
            want = reference_forest(list(zip(g.ids, g.weights, g.potentials)),
                                    [(u, v, c) for u, v, c, _d in g.edge_records()])
            assert _fields(forest_from_graph(g).trees) == _fields(want)

    @pytest.mark.parametrize("fault", [
        "cycle", "self-loop", "repeated edge", "zero weight", "negative potential",
        "negative cost", "unparseable cost"])
    def test_faults_raise_as_the_reference(self, fault):
        rng = random.Random(1208)
        for _ in range(40):
            vertices, edges = _forest_instance(rng)
            ids = [v for v, _w, _p in vertices]
            u, v = rng.choice(ids), rng.choice(ids)
            at = rng.randint(0, len(edges))
            i = rng.randrange(len(vertices))
            if fault == "cycle" and u != v:
                edges += [(u, v, 1), (v, u, 2)]
            elif fault == "self-loop":
                edges.insert(at, (u, u, 1))
            elif fault == "repeated edge" and edges:
                x = edges[at - 1]
                edges.insert(at, (x[1], x[0], x[2]))
            elif fault == "zero weight":
                vertices[i] = (vertices[i][0], 0, 0)
            elif fault == "negative potential":
                vertices[i] = (vertices[i][0], 1, Fraction(-1, 2))
            elif fault in ("negative cost", "unparseable cost") and edges:
                x = edges[at - 1]
                edges[at - 1] = x[:2] + (-1 if fault == "negative cost" else "1/x",)
            else:
                continue
            want = _raised(reference_forest, vertices, edges)
            assert _raised(build_forest, *_columns(vertices, edges)) == want
