import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_tree, prufer_edges, random_tree, star_tree
from treecut import (
    InvalidInput,
    NonPositiveVertexWeight,
    NotATree,
    UnknownVertexId,
    build_rooted_tree,
    processing_order,
    scale_instance,
    tree_from_json,
)
from treecut.errors import ParseError


class TestBuild:
    def test_single_vertex(self):
        t = build_rooted_tree([("a", 1)], [], "a")
        assert t.subtree_weight("a") == 1
        assert t.subtree_vertex_count("a") == 1
        assert t.parent_edge_cost("a") == 0

    def test_two_vertex_path(self):
        t = path_tree(("a", "b"), root="b")
        assert t.children_of("b") == ("a",)
        assert t.subtree_weight("b") == 2
        assert t.subtree_weight("a") == 1
        assert processing_order(t) == ("a", "b")

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            build_rooted_tree([("a", 1), ("b", 1), ("c", 1)],
                              [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)], "a")

    def test_disconnected_rejected(self):
        with pytest.raises(NotATree):
            build_rooted_tree([("a", 1), ("b", 1), ("c", 1), ("d", 1)],
                              [("a", "b", 1), ("a", "b", 2), ("c", "d", 1)], "a")

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(NotATree):
            build_rooted_tree([("a", 1), ("b", 1)], [], "a")

    def test_self_loop_rejected(self):
        with pytest.raises(NotATree):
            build_rooted_tree([("a", 1), ("b", 1)],
                              [("a", "a", 1), ("a", "b", 1)], "a")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(NotATree):
            build_rooted_tree([("a", 1), ("a", 2)], [], "a")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NonPositiveVertexWeight):
            build_rooted_tree([("a", 0)], [], "a")
        with pytest.raises(NonPositiveVertexWeight):
            build_rooted_tree([("a", "-1/2")], [], "a")

    def test_unknown_ids_rejected(self):
        with pytest.raises(UnknownVertexId):
            build_rooted_tree([("a", 1), ("b", 1)], [("a", "c", 1)], "a")
        with pytest.raises(UnknownVertexId):
            build_rooted_tree([("a", 1)], [], "z")

    def test_negative_cost_and_potential_rejected(self):
        with pytest.raises(InvalidInput):
            build_rooted_tree([("a", 1), ("b", 1)], [("a", "b", -1)], "a")
        with pytest.raises(InvalidInput):
            build_rooted_tree([("a", 1, "-1/3")], [], "a")

    def test_rational_inputs_are_exact(self):
        t = build_rooted_tree([("a", "1/3"), ("b", "0.5")], [("a", "b", "2/7")], "a")
        assert t.weight("a") == Fraction(1, 3)
        assert t.weight("b") == Fraction(1, 2)
        assert t.parent_edge_cost("b") == Fraction(2, 7)
        assert t.subtree_weight("a") == Fraction(5, 6)
        # scale is a common denominator of every input
        assert t.scale % 3 == 0 and t.scale % 2 == 0 and t.scale % 7 == 0


class TestProcessingOrder:
    def test_single(self):
        assert processing_order(build_rooted_tree([("r", 1)], [], "r")) == ("r",)

    def test_path_children_first(self):
        t = path_tree(("a", "b", "c"), root="c")
        assert processing_order(t) == ("a", "b", "c")

    def test_star_root_last(self):
        t = star_tree()
        order = processing_order(t)
        assert sorted(order[:3]) == ["x", "y", "z"]
        assert order[3] == "r"

    def test_idempotent_and_topological(self):
        rng = random.Random(5)
        for _ in range(25):
            t = random_tree(rng, rng.randint(1, 12))
            order = processing_order(t)
            assert order == processing_order(t)
            position = {v: i for i, v in enumerate(order)}
            for v in t.vertex_ids():
                p = t.parent_of(v)
                if p is not None:
                    assert position[v] < position[p]
            assert order[-1] == t.root_id


class TestAggregates:
    def _dfs_weight(self, tree, v):
        total = tree.weight(v)
        for c in tree.children_of(v):
            total += self._dfs_weight(tree, c)
        return total

    def test_subtree_weight_matches_dfs(self):
        rng = random.Random(11)
        for _ in range(20):
            t = random_tree(rng, rng.randint(1, 10))
            for v in t.vertex_ids():
                assert t.subtree_weight(v) == self._dfs_weight(t, v)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_subtree_counts(self, data):
        n = data.draw(st.integers(1, 9))
        seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(max(0, n - 2)))
        root = data.draw(st.integers(0, n - 1))
        t = build_rooted_tree([(i, 1) for i in range(n)],
                              [(u, v, 1) for u, v in prufer_edges(seq, n)], root)
        assert t.subtree_vertex_count(t.root_id) == n
        assert sum(len(t.children_idx[u]) for u in range(n)) == n - 1
        for v in t.vertex_ids():
            kids = t.children_of(v)
            assert t.subtree_vertex_count(v) == 1 + sum(
                t.subtree_vertex_count(c) for c in kids)


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        t = build_rooted_tree(
            [("a", "1/3", "1/7"), ("b", 2), ("c", "0.5")],
            [("b", "a", "2/7"), ("b", "c", 3)], "b")
        again = tree_from_json(t.to_json())
        assert again.to_json() == t.to_json()
        assert processing_order(again) == processing_order(t)
        for v in t.vertex_ids():
            assert again.subtree_weight(v) == t.subtree_weight(v)
            assert again.parent_edge_cost(v) == t.parent_edge_cost(v)
            assert again.potential(v) == t.potential(v)

    def test_schema_errors(self):
        with pytest.raises(ParseError):
            tree_from_json({"vertices": [], "edges": []})
        with pytest.raises(ParseError):
            tree_from_json({"root": "a", "vertices": [{"id": "a"}], "edges": []})
        with pytest.raises(ParseError):
            tree_from_json({"root": "a",
                            "vertices": [{"id": "a", "weight": "bogus"}],
                            "edges": []})


class TestScaleInstance:
    def test_integer_instance_is_identity(self):
        t = path_tree(("a", "b"))
        scaled, (num, den) = scale_instance(t, 1)
        assert den == 1 and num == 1
        assert scaled.weight_scaled == t.weight_scaled
        assert scaled.cost_scaled == t.cost_scaled

    def test_common_denominator_covers_threshold(self):
        t = build_rooted_tree([("a", 1), ("b", 1)], [("a", "b", "1/2")], "a")
        scaled, (num, den) = scale_instance(t, "1/3")
        assert den == 6
        assert num == 2
        assert scaled.parent_edge_cost("b") == 3

    def test_zero_threshold_keeps_costs(self):
        t = build_rooted_tree([("a", 1), ("b", 1)], [("a", "b", 7)], "a")
        scaled, (num, den) = scale_instance(t, 0)
        assert num == 0 and den == 1
        assert scaled.cost_scaled[scaled.index["b"]] == 7

    def test_rejects_negative_threshold(self):
        with pytest.raises(InvalidInput):
            scale_instance(path_tree(), "-1/2")


def _positions(dense):
    """The dense position of each tree index, from ``bfs``."""
    pos = np.empty_like(dense["bfs"])
    pos[dense["bfs"]] = np.arange(pos.size)
    return pos


class TestDenseLayout:
    def test_children_are_contiguous_ranges(self):
        rng = random.Random(3)
        for _ in range(20):
            t = random_tree(rng, rng.randint(1, 14))
            dense = t.dense_arrays()
            pos = _positions(dense)
            for u in range(t.vertex_count):
                kids = t.children_idx[u]
                pu = pos[u]
                assert dense["cend"][pu] - dense["cstart"][pu] == len(kids)
                got = sorted(pos[c] for c in kids)
                assert got == list(range(dense["cstart"][pu], dense["cend"][pu]))
            # root sits at position 0; children always after parents
            assert pos[t.root] == 0
            for u in range(t.vertex_count):
                for c in t.children_idx[u]:
                    assert pos[c] > pos[u]

    def test_heavy_paths_follow_the_largest_first_child(self):
        # against a walk over the tree's lists: each heavy path runs top
        # down through first largest children to a leaf, round r holds the
        # vertices r light edges below the root, and each round's light
        # children are the next round's tops, grouped by parent
        rng = random.Random(4)
        for trial in range(40):
            n = rng.randint(1, 30)
            t = random_tree(rng, n) if trial % 3 else path_tree(range(n), root=0)
            pos = _positions(t.dense_arrays())
            at = {int(p): u for u, p in enumerate(pos)}
            heavy = {u: max(kids, key=lambda c: (t.subtree_size[c], -kids.index(c)))
                     for u, kids in enumerate(t.children_idx) if kids}
            depth = {t.root: 0}
            for u in reversed(t.order_idx):
                for c in t.children_idx[u]:
                    depth[c] = depth[u] + (heavy[u] != c)
            rounds = t.heavy_paths()
            assert sorted(at[int(p)] for r in rounds for p in r["vert"]) == list(range(n))
            for r, rnd in enumerate(rounds):
                verts = [at[int(p)] for p in rnd["vert"]]
                assert all(depth[u] == r for u in verts)
                tops = set(rnd["top"].tolist())
                for i, u in enumerate(verts):
                    if i + 1 in tops or i + 1 == len(verts):
                        assert rnd["reach"][i] == 0 and not t.children_idx[u]
                    else:
                        assert heavy[u] == verts[i + 1]
                        assert rnd["reach"][i] == rnd["reach"][i + 1] + 1
                below = rounds[r + 1] if r + 1 < len(rounds) else None
                light = [at[int(below["vert"][i])] for i in below["top"]] if below else []
                assert [t.parent_idx[c] for c in light] == [
                    verts[i] for i, k in zip(rnd["lpar"], rnd["lcount"]) for _ in range(k)]
