"""The flat-pass ``build_rooted_tree`` against the reference builder in
``tests/_builder.py``: equal fields on valid trees, equal errors on
invalid ones, a lazy ``children_idx``, a stated memory bound, and integer
tokens parsed without the ``Fraction`` string parser."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _builder import reference_build, reference_dense
from treecut import ProblemSpec, build_rooted_tree, decide
from treecut import _fastlane
from treecut.tree import _heavy_path_rounds
from treecut.values import parse_number, parse_rational

FIELDS = ("ids", "index", "root", "parent_idx", "children_idx", "order_idx",
          "scale", "weight_scaled", "cost_scaled", "potential_scaled",
          "subtree_weight_scaled", "subtree_potential_scaled", "subtree_size")


def _parents(rng, n, shape):
    """Parent of each vertex 1..n-1 under vertex 0."""
    if shape == "path":
        return list(range(n - 1))
    if shape == "star":
        return [0] * (n - 1)
    if shape == "caterpillar":
        spine = max(1, n // 2)
        return [i - 1 for i in range(1, spine)] + \
               [rng.randrange(spine) for _ in range(spine, n)]
    if shape == "broom":
        handle = max(1, n // 2)
        return [i - 1 for i in range(1, handle)] + [handle - 1] * (n - handle)
    return [rng.randrange(i) for i in range(1, n)]


def _number(rng, kind, low):
    value = rng.randint(low, 9)
    if kind == "int":
        return value
    if kind == "decimal":
        return rng.choice([str(value), f"{value}.25", f"{value}.5"])
    if kind == "frac":
        return rng.choice([f"{value}/{rng.randint(1, 6)}", Fraction(value, 3), value])
    return rng.choice([value, str(value), f" {value} ", f"{value}/4", f"{value}.5",
                       Fraction(value, 7), float(value) / 2])


def _instance(rng, n, shape, kind, potentials):
    labels = list(range(n))
    rng.shuffle(labels)
    ids = [f"v{x}" if kind != "int" else x for x in labels]
    vertices = []
    for vid in ids:
        w = _number(rng, kind, 1)
        if potentials == "none" or (potentials == "some" and rng.random() < 0.5):
            vertices.append((vid, w))
        else:
            vertices.append((vid, w, _number(rng, kind, 0)))
    edges = []
    for child, par in enumerate(_parents(rng, n, shape), start=1):
        u, v = ids[par], ids[child]
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v, _number(rng, kind, 0)))
    rng.shuffle(edges)
    return vertices, edges, rng.choice(ids)


def _same_dense(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, list):
            assert got[key] == value, key
        else:
            assert got[key].dtype == value.dtype, key
            assert np.array_equal(got[key], value), key


def _same_rounds(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in w:
            assert np.array_equal(g[key], w[key]), key


def _assert_identical(vertices, edges, root):
    want = reference_build(vertices, edges, root)
    tree = build_rooted_tree(vertices, edges, root)
    for name in FIELDS:
        assert getattr(tree, name) == want[name], name
    dense = reference_dense(want)
    _same_dense(tree.dense_arrays(), dense)
    _same_rounds(tree.heavy_paths(), _heavy_path_rounds(dict(dense)))


class TestIdentity:
    @pytest.mark.parametrize("shape", ["path", "star", "caterpillar", "broom", "random"])
    def test_shapes_kinds_and_potentials(self, shape):
        rng = random.Random(shape)
        for n in (1, 2, 3, 7, 40, 300):
            for kind in ("int", "decimal", "frac", "mixed"):
                for potentials in ("none", "some", "all"):
                    _assert_identical(*_instance(rng, n, shape, kind, potentials))

    @pytest.mark.parametrize("shape", ["path", "star", "caterpillar", "broom", "random"])
    def test_large_trees(self, shape):
        rng = random.Random(7)
        for kind, potentials in (("int", "all"), ("frac", "some")):
            _assert_identical(*_instance(rng, 10_000, shape, kind, potentials))

    def test_generator_inputs(self):
        rng = random.Random(2)
        vertices, edges, root = _instance(rng, 50, "random", "mixed", "some")
        want = reference_build(vertices, edges, root)
        tree = build_rooted_tree(iter(vertices), (e for e in edges), root)
        for name in FIELDS:
            assert getattr(tree, name) == want[name], name


# -- invalid input: two faults in either order --------------------------------
#
# The base instance is the path v0 - v1 - ... - v7 rooted at v0.  Each fault
# is applied at an early or a late position (vertex 2 or 5, edge 1 or 4);
# every ordered pair of distinct faults runs once with the first fault early
# and the second late.

_N = 8


def _vertex_fault(kind):
    def apply(vertices, edges, root, at):
        i = (2, 5)[at]
        vid, w, p = vertices[i]
        vertices[i] = {
            "dup_id": (vertices[i - 1][0], w, p),
            "zero_weight": (vid, 0, p),
            "negative_weight": (vid, "-1/2", p),
            "negative_potential": (vid, w, "-1/3"),
            "junk_weight": (vid, "abc", p),
            "junk_potential": (vid, w, "1e"),
            "short_vertex": (vid,),
            "long_vertex": (vid, w, p, 0),
        }[kind]
        return root
    return apply


def _edge_fault(kind):
    def apply(vertices, edges, root, at):
        j = (1, 4)[at]
        u, v, c = edges[j]
        edges[j] = {
            "unknown_endpoint": (u, "ghost", c),
            "self_loop": (u, u, c),
            "duplicate_edge": (edges[j - 1][1], edges[j - 1][0], c),
            "negative_cost": (u, v, -1),
            "junk_cost": (u, v, "1/0"),
            "short_edge": (u, v),
            # a chord inside v{j+1} .. v7: n - 1 edges, no self-loop and no
            # duplicate, yet v0 .. v{j} are cut off from the rest
            "chord": (f"v{j + 1}", f"v{_N - 1}", c),
        }[kind]
        return root
    return apply


def _unknown_root(vertices, edges, root, at):
    return "nowhere"


def _extra_edge(vertices, edges, root, at):
    edges.insert(0, ("v0", "v2", 1))
    return root


def _missing_edge(vertices, edges, root, at):
    edges.pop()
    return root


FAULTS = {
    **{k: _vertex_fault(k) for k in ("dup_id", "zero_weight", "negative_weight",
                                     "negative_potential", "junk_weight",
                                     "junk_potential", "short_vertex", "long_vertex")},
    **{k: _edge_fault(k) for k in ("unknown_endpoint", "self_loop", "duplicate_edge",
                                   "negative_cost", "junk_cost", "short_edge", "chord")},
    "unknown_root": _unknown_root,
    "extra_edge": _extra_edge,
    "missing_edge": _missing_edge,
}


def _outcome(builder, vertices, edges, root):
    try:
        builder(vertices, edges, root)
    except Exception as exc:  # the outcome under test is the exception itself
        return type(exc), str(exc)
    return None


class TestInvalidInput:
    @pytest.mark.parametrize("first,second",
                             list(itertools.permutations(sorted(FAULTS), 2)))
    def test_two_faults_raise_as_the_reference(self, first, second):
        vertices = [(f"v{i}", 1 + i % 3, i % 2) for i in range(_N)]
        edges = [(f"v{i}", f"v{i + 1}", 1 + i % 4) for i in range(_N - 1)]
        root = "v0"
        root = FAULTS[first](vertices, edges, root, 0)
        root = FAULTS[second](vertices, edges, root, 1)
        want = _outcome(reference_build, vertices, edges, root)
        assert want is not None
        assert _outcome(build_rooted_tree, vertices, edges, root) == want

    @pytest.mark.parametrize("vertices,edges,root", [
        ([], [], "a"),
        ([("a", 1)], [("a", "a", 1)], "a"),
        ([("a", 1), ("b", 1)], [("a", "b", 1), ("b", "a", 1)], "a"),
        ([("a", 1), ("b", 1), ("c", 1)], [("a", "b", 1), ("a", "b", 2)], "a"),
        ([("a", True)], [], "a"),
        ([(["a"], 1)], [], ["a"]),
        ([("a", 1), ("b", 1)], [(["a"], "b", 1)], "a"),
        # n - 1 edges, but a triangle leaves "a" out of the walk from "b"
        ([("a", 1), ("b", 1), ("c", 1), ("d", 1)],
         [("b", "c", 1), ("c", "d", 1), ("d", "b", 1)], "b"),
    ])
    def test_single_faults_raise_as_the_reference(self, vertices, edges, root):
        want = _outcome(reference_build, vertices, edges, root)
        assert want is not None
        assert _outcome(build_rooted_tree, vertices, edges, root) == want


# -- laziness and memory -------------------------------------------------------

def _int_tree(n, shape, seed=1):
    rng = random.Random(seed)
    vertices = [(i, rng.randint(1, 9), rng.randint(0, 3)) for i in range(n)]
    edges = [(p, i, rng.randint(1, 9))
             for i, p in enumerate(_parents(rng, n, shape), start=1)]
    return vertices, edges, 0


class TestLazyAndMemory:
    @pytest.mark.parametrize("shape", ["star", "path"])
    def test_numpy_decision_leaves_children_unbuilt(self, shape):
        tree = build_rooted_tree(*_int_tree(10_000, shape))
        assert _fastlane.fits(tree, (Fraction(5),), 3, 2)
        decide(tree, ProblemSpec(5, 3, 2, use_potentials=True))
        assert tree._children is None
        assert tree.children_idx[tree.root] == tree._bfs[1:tree._cend[0]]

    def test_path_build_peak_per_vertex(self):
        # the figure stated in build_rooted_tree's docstring
        n = 100_000
        vertices, edges, root = _int_tree(n, "path")
        tracemalloc.start()
        try:
            tree = build_rooted_tree(vertices, edges, root)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.vertex_count == n
        assert peak <= 600 * n


# -- integer tokens ------------------------------------------------------------

TOKENS = ["7", "+7", "-7", " 7 ", "\t-12\n", "007", "-0", "+0", "0",
          "123456789012345678901234567890", "0.5", "-1.25", "1.", ".5", "1/3",
          "-2/4", "3/1", " 1/2 ", "1/ 2", "1e3", "1E-2", "2.5e1", "", " ", "+",
          "-", "--1", "+-1", "abc", "1/0", "1_000", "0x10", "inf", "nan", "٣",
          "²", "７", 7, -3, 0, Fraction(3, 4), Fraction(4, 2), 0.1, 2.0, True,
          None, [1]]


def _parsed(parse, token):
    try:
        return parse(token)
    except Exception as exc:  # the outcome under test is the exception itself
        return type(exc), str(exc)


@pytest.mark.parametrize("token", TOKENS, ids=repr)
def test_integer_tokens_parse_as_fractions_do(token):
    got, want = _parsed(parse_number, token), _parsed(parse_rational, token)
    assert got == want
    if not isinstance(want, tuple):
        assert type(got) is (int if want.denominator == 1 else Fraction)
