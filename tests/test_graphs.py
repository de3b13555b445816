import json
import random
from fractions import Fraction

import pytest

from conftest import path_tree
from treecut import (
    DuplicateEdge,
    EmptyGraph,
    Forest,
    InvalidInput,
    NotForestAfterDeletion,
    ParseError,
    RootedTree,
    SelfLoop,
    WeightedGraph,
    build_rooted_tree,
    forest_from_graph,
    load_instance,
    similarity_spanning_tree,
    tree_as_graph,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestWeightedGraph:
    def test_simple_graph_invariants(self):
        with pytest.raises(SelfLoop):
            WeightedGraph([("a", 1, 0)], [("a", "a", 1, None)])
        with pytest.raises(DuplicateEdge):
            WeightedGraph([("a", 1, 0), ("b", 1, 0)],
                          [("a", "b", 1, None), ("b", "a", 2, None)])
        with pytest.raises(InvalidInput):
            WeightedGraph([("a", 1, 0), ("b", 1, 0)], [("a", "b", 0, None)])

    def test_vertices_ordered_by_id(self):
        g = WeightedGraph([("c", 1, 0), ("a", 1, 0), ("b", 1, 0)], [])
        assert g.vertex_ids() == ("a", "b", "c")

    def test_expansion(self):
        g = WeightedGraph([(v, 1, 0) for v in "abc"],
                          [("a", "b", 3, None), ("b", "c", 2, None),
                           ("a", "c", 1, None)])
        assert g.expansion({"a"}) == 4
        assert g.expansion({"a", "b"}) == Fraction(3, 2)
        assert g.expansion({"a", "b", "c"}) == 0

    def test_expansions_of_disjoint_parts_in_one_pass(self):
        # against expansion part by part and against its definition (the
        # cut edges' costs, plus the potentials, over the weight), on
        # random graphs with Fraction and int values; vertices outside
        # every part
        rng = random.Random(41)

        def value():
            return rng.choice((rng.randint(1, 9), Fraction(rng.randint(1, 9), rng.randint(2, 7))))

        for trial in range(60):
            n = rng.randint(1, 25)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            g = WeightedGraph([(i, value(), rng.choice((0, value()))) for i in range(n)],
                              [(u, v, value(), None) for u, v in pairs])
            order = rng.sample(range(n), n)
            cuts = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            parts = [set(order[lo:hi]) for lo, hi in zip([0] + cuts, cuts)
                     if rng.random() < 0.8]
            for use_pot in (False, True):
                want = []
                for part in parts:
                    cut = sum((c for u, v, c, _ in g.edge_records() if (u in part) != (v in part)),
                              Fraction(0))
                    if use_pot:
                        cut += sum(g.potential(v) for v in part)
                    want.append(cut / sum(g.weight(v) for v in part))
                got = g.expansions(parts, use_potentials=use_pot)
                assert got == tuple(want) == tuple(
                    g.expansion(p, use_potentials=use_pot) for p in parts)
                assert all(type(x) is Fraction for x in got)
        with pytest.raises(InvalidInput):
            g.expansions([{0}, set()])

    def test_components(self):
        g = WeightedGraph([(v, 1, 0) for v in "abcd"],
                          [("a", "b", 1, None), ("c", "d", 1, None)])
        assert g.components() == [["a", "b"], ["c", "d"]]


class TestLoadInstance:
    def test_tree_json_round_trip(self, tmp_path):
        t = path_tree(("a", "b", "c"))
        p = _write(tmp_path, "t.json", json.dumps(t.to_json()))
        loaded = load_instance(p)
        assert isinstance(loaded, RootedTree)
        assert loaded.to_json() == t.to_json()

    def test_graph_json_without_root(self, tmp_path):
        data = {"vertices": [{"id": 1, "weight": "2"}, {"id": 2, "weight": "1/2"}],
                "edges": [{"u": 1, "v": 2, "cost": "3/4"}]}
        p = _write(tmp_path, "g.json", json.dumps(data))
        g = load_instance(p)
        assert isinstance(g, WeightedGraph)
        assert g.weight(2) == Fraction(1, 2)

    def test_csv_triangle(self, tmp_path):
        p = _write(tmp_path, "g.csv", "u,v,cost\na,b,3\nb,c,2\na,c,1\n")
        g = load_instance(p)
        assert isinstance(g, WeightedGraph)
        assert g.edge_count == 3
        assert g.weight("a") == 1

    def test_csv_rejects_nonpositive_cost(self, tmp_path):
        p = _write(tmp_path, "bad.csv", "u,v,cost\na,b,0\n")
        with pytest.raises(ParseError):
            load_instance(p)

    def test_csv_needs_header(self, tmp_path):
        p = _write(tmp_path, "bad.csv", "a,b,3\nb,c,2\n")
        with pytest.raises(ParseError):
            load_instance(p)

    def test_csv_distance_column(self, tmp_path):
        p = _write(tmp_path, "g.csv", "u,v,cost,distance\na,b,1,5\nb,c,1,1\na,c,1,2\n")
        g = load_instance(p)
        tree = similarity_spanning_tree(g)
        kept = {frozenset((u, v)) for u, v, _c, _d in
                (e for e in _tree_edges(tree))}
        assert kept == {frozenset(("b", "c")), frozenset(("a", "c"))}

    def test_bad_json(self, tmp_path):
        p = _write(tmp_path, "bad.json", "{nope")
        with pytest.raises(ParseError):
            load_instance(p)

    def test_unknown_format(self, tmp_path):
        p = _write(tmp_path, "x.csv", "u,v,cost\na,b,1\n")
        with pytest.raises(InvalidInput):
            load_instance(p, fmt="xml")


def _tree_edges(tree):
    for u in tree._bfs_order():
        for c in tree.children_idx[u]:
            yield tree.ids[u], tree.ids[c], tree.cost_scaled[c], None


class TestSpanningTree:
    def test_triangle_keeps_strongest_similarities(self):
        g = WeightedGraph([(v, 1, 0) for v in "abc"],
                          [("a", "b", 3, None), ("b", "c", 2, None),
                           ("a", "c", 1, None)])
        tree = similarity_spanning_tree(g)
        assert isinstance(tree, RootedTree)
        kept = {frozenset((u, v)) for u, v, _c, _d in _tree_edges(tree)}
        assert kept == {frozenset(("a", "b")), frozenset(("b", "c"))}
        # costs on the tree are the original similarities
        child = "a" if tree.parent_of("a") == "b" else "b"
        assert tree.parent_edge_cost(child) == 3

    def test_tree_input_is_identity(self):
        t = path_tree(("a", "b", "c"))
        g = tree_as_graph(t)
        back = similarity_spanning_tree(g)
        assert {frozenset((u, v)) for u, v, _c, _d in _tree_edges(back)} == \
               {frozenset(("a", "b")), frozenset(("b", "c"))}

    def test_tree_with_zero_cost_edge(self):
        # a valid tree, but its similarity distance 1/cost is undefined
        t = build_rooted_tree([("a", 1), ("b", 1), ("c", 1)],
                              [("a", "b", 0), ("b", "c", 2)], "a")
        g = tree_as_graph(t)
        assert [c for _u, _v, c, _d in g.edge_records()] == [0, 2]
        with pytest.raises(InvalidInput, match="positive edge costs"):
            similarity_spanning_tree(g)

    def test_tie_break_is_deterministic(self):
        g = WeightedGraph([(v, 1, 0) for v in "abc"],
                          [("b", "c", 1, None), ("a", "c", 1, None),
                           ("a", "b", 1, None)])
        tree = similarity_spanning_tree(g)
        kept = {frozenset((u, v)) for u, v, _c, _d in _tree_edges(tree)}
        # equal costs: (min-id, max-id) order keeps ab then ac
        assert kept == {frozenset(("a", "b")), frozenset(("a", "c"))}
        again = similarity_spanning_tree(g)
        assert {frozenset((u, v)) for u, v, _c, _d in _tree_edges(again)} == kept

    def test_root_is_heaviest_vertex(self):
        g = WeightedGraph([("a", 1, 0), ("b", 5, 0), ("c", 5, 0)],
                          [("a", "b", 1, None), ("b", "c", 1, None)])
        tree = similarity_spanning_tree(g)
        assert tree.root_id == "b"

    def test_disconnected_graph_gives_forest(self):
        g = WeightedGraph([(v, 1, 0) for v in "abcd"],
                          [("a", "b", 1, None), ("c", "d", 1, None)])
        forest = similarity_spanning_tree(g)
        assert isinstance(forest, Forest)
        assert len(forest.trees) == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            similarity_spanning_tree(WeightedGraph([], []))


class TestForestFromGraph:
    def test_cycle_rejected(self):
        g = WeightedGraph([(v, 1, 0) for v in "abc"],
                          [("a", "b", 1, None), ("b", "c", 1, None),
                           ("a", "c", 1, None)])
        with pytest.raises(NotForestAfterDeletion):
            forest_from_graph(g)

    def test_forest_shapes_pass_through(self):
        g = WeightedGraph([(v, 1, 0) for v in "abcd"],
                          [("a", "b", 1, None), ("c", "d", 1, None)])
        forest = forest_from_graph(g)
        assert len(forest.trees) == 2
        assert {t.root_id for t in forest.trees} == {"a", "c"}

    def test_many_components_match_per_component_builds(self):
        # 4000 components of 1-4 vertices, ids shuffled across them and
        # edges interleaved in random order: each tree keeps its vertex
        # order, its edges in input order and its heaviest root
        rng = random.Random(9)
        ids = rng.sample(range(100000), 16000)
        comps, edges_of, vertices = [], [], []
        for _ in range(4000):
            size = rng.randint(1, 4)
            members = [ids.pop() for _ in range(size)]
            comps.append(members)
            edges_of.append([(members[rng.randrange(i)], members[i], rng.randint(1, 5))
                             for i in range(1, size)])
            vertices += [(v, rng.randint(1, 3), rng.randint(0, 1)) for v in members]
        pending = [list(reversed(e)) for e in edges_of]
        order = [c for c, e in enumerate(edges_of) for _ in e]
        rng.shuffle(order)
        g = WeightedGraph(vertices, [(u, v, c, None) for u, v, c in
                                     (pending[i].pop() for i in order)])

        weight = {v: w for v, w, _p in vertices}
        potential = {v: p for v, _w, p in vertices}

        def want(order):
            trees = []
            for members, edges in sorted(zip(comps, edges_of), key=lambda ce: min(ce[0])):
                members = sorted(members)
                root = max(members, key=lambda v: (weight[v], -v))
                trees.append(build_rooted_tree(
                    [(v, weight[v], potential[v]) for v in members], order(edges), root))
            return trees

        # the spanning tree keeps each component whole, its edges in the
        # order Kruskal accepts them: by distance 1/cost, then endpoints
        kruskal = lambda edges: sorted(edges, key=lambda e: (Fraction(1, e[2]),
                                                             min(e[:2]), max(e[:2])))
        for forest, order in ((forest_from_graph(g), list),
                              (similarity_spanning_tree(g), kruskal)):
            assert isinstance(forest, Forest) and len(forest.trees) == 4000
            for got, tree in zip(forest.trees, want(order)):
                assert got.ids == tree.ids
                assert got.root_id == tree.root_id
                assert got.children_idx == tree.children_idx
                assert got.to_json() == tree.to_json()
