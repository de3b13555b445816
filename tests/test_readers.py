"""Column readers of tree JSON, graph JSON and edge CSV: the same values,
types and errors as the per-entry readers they fall back to, byte order
marks, spanning-tree cost text and the memory a graph load takes."""

import gc
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from treecut import ParseError, WeightedGraph
from treecut import graphs, tree
from treecut.cli import main
from treecut.graphs import graph_from_csv, graph_from_json, load_instance
from treecut.tree import tree_from_json
from treecut.values import format_rational, parse_number, parse_numbers

# -- tokens --------------------------------------------------------------------


def _as_fraction(token):
    """``token`` as a Fraction object where it parses."""
    try:
        return Fraction(parse_number(token))
    except ValueError:
        return token


# Fraction strings take "_" from Python 3.11 on
_UNDERSCORES = not isinstance(_as_fraction("1_0/1"), str)


def _good_token(rng, x: Fraction, strings_only=False):
    """``x`` > 0 in one of the forms a file may hold it."""
    forms = [f"{x.numerator}/{x.denominator}",
             f"{2 * x.numerator}/{2 * x.denominator}",
             f" {x.numerator}/{x.denominator}"]
    if x.denominator in (1, 2, 4, 5):
        forms.append(str(float(x)))
    if x.denominator == 1:
        n = x.numerator
        forms += [str(n), f"+{n}", f"00{n}", f" {n} ", f"\t{n}",
                  "".join(chr(0x660 + int(d)) for d in str(n))]  # Arabic-Indic
        if _UNDERSCORES:
            forms += [f"{n}_0/1_0", f"0_{n}"]
        if not strings_only:
            forms += [n, n, n]
    if not strings_only:
        forms += [float(x)] if x.denominator in (1, 2, 4) else []
    return rng.choice(forms)


_BAD_TOKENS = ("1/0", "-3/4", "0", "-0", "-2", "0/5", "x", "", " ", "1//2", "/3",
               "3/", "1.5.2", True, False, None, [1], {"n": 1})


def _bad_token(rng, strings_only=False):
    return rng.choice([t for t in _BAD_TOKENS if not strings_only or type(t) is str])


def _value(rng):
    return Fraction(rng.randint(1, 12), rng.choice((1, 1, 1, 2, 3, 4)))


def test_parse_numbers_matches_parse_number_token_by_token():
    rng = random.Random(1901)
    tokens = list(_BAD_TOKENS) + ["1_000", "٣", "３", "+5", "-7/2", "07/14", "2.50",
                                  "1e3", 2.5, 3.0, Fraction(6, 3), Fraction(1, 3), 4]
    for _ in range(300):
        tokens.append(_good_token(rng, _value(rng)))
    for _ in range(2000):
        size = rng.randint(0, 6)
        pool = rng.choice((tokens, [t for t in tokens if type(t) is str],
                           [f"{rng.randint(0, 99)}" for _ in range(4)] + ["9/2", "3/3"],
                           # digits, signs and slashes, well-formed or not
                           ["".join(rng.choice("0123456789+-/") for _ in range(rng.randint(1, 4)))
                            for _ in range(6)]))
        column = [rng.choice(pool) for _ in range(size)]
        want = []
        try:
            for t in column:
                want.append(parse_number(t))
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                parse_numbers(column)
            assert str(info.value) == str(exc)
            continue
        got = parse_numbers(column)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want], column


# -- documents -----------------------------------------------------------------


def _ids(rng, n):
    kind = rng.random()
    if kind < 0.4:
        return rng.sample(range(1000), n)
    if kind < 0.8:
        return [f"v{i}" for i in rng.sample(range(1000), n)]
    return [rng.choice((i, f"v{i}")) for i in range(n)]


def _doc(rng, shape: str, strings_only=False):
    """A tree or graph document, as dicts, with tokens of mixed forms."""
    n = rng.randint(1, 14)
    ids = _ids(rng, n)
    tok = lambda: _good_token(rng, _value(rng), strings_only)  # noqa: E731
    vertices = []
    for v in ids:
        entry = {"id": v, "weight": tok()}
        if rng.random() < 0.4:
            entry["potential"] = tok() if rng.random() < 0.8 else 0
        vertices.append(entry)
    if shape == "tree":
        pairs = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    else:
        pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
    edges = []
    for u, v in pairs:
        if rng.random() < 0.5:
            u, v = v, u
        entry = {"u": u, "v": v, "cost": tok()}
        if shape == "graph" and rng.random() < 0.3:
            entry["distance"] = tok()
        edges.append(entry)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    doc = {"vertices": vertices, "edges": edges}
    if shape == "tree":
        doc["root"] = rng.choice(ids)
    return doc


# faults of a graph's values, then of the JSON that holds them
_GRAPH_FAULTS = ("unknown endpoint", "self-loop", "duplicate edge", "duplicate id",
                 "non-positive", "bad token")
_FAULTS = ("non-object", "missing key", "array id", "object id") + _GRAPH_FAULTS
# an edge CSV declares no vertices, and may have a row too short
_CSV_FAULTS = ("self-loop", "duplicate edge", "non-positive", "bad token", "short row")


def _inject(rng, doc, fault):
    """Put one ``fault`` at a random position of ``doc``; returns False
    when the document has no place for it."""
    vs, es = doc["vertices"], doc["edges"]
    if fault in ("unknown endpoint", "self-loop", "duplicate edge") and not es:
        return False
    if fault == "non-object":
        col = rng.choice((vs, es)) if es else vs
        col[rng.randrange(len(col))] = rng.choice((5, "x", None, [1, 2]))
    elif fault == "missing key":
        if es and rng.random() < 0.5:
            del rng.choice(es)[rng.choice(("u", "v", "cost"))]
        else:
            del rng.choice(vs)[rng.choice(("id", "weight"))]
    elif fault in ("array id", "object id"):
        bad = ["a"] if fault == "array id" else {"a": 1}
        if es and rng.random() < 0.5:
            rng.choice(es)[rng.choice(("u", "v"))] = bad
        else:
            rng.choice(vs)["id"] = bad
    elif fault == "unknown endpoint":
        rng.choice(es)[rng.choice(("u", "v"))] = "nowhere"
    elif fault == "self-loop":
        e = rng.choice(es)
        e["v"] = e["u"]
    elif fault == "duplicate edge":
        e = dict(rng.choice(es))
        if rng.random() < 0.5:
            e["u"], e["v"] = e["v"], e["u"]
        es.insert(rng.randint(0, len(es)), e)
    elif fault == "duplicate id":
        vs.insert(rng.randint(0, len(vs)), {"id": rng.choice(vs)["id"], "weight": 1})
    elif fault == "non-positive":
        col = rng.choice((vs, es)) if es else vs
        entry = rng.choice(col)
        key = rng.choice(("weight", "potential") if col is vs else ("cost", "distance"))
        entry[key] = rng.choice(("0", 0, "-1", "-1/2", -3, "0.0"))
    else:
        col = rng.choice((vs, es)) if es else vs
        entry = rng.choice(col)
        key = rng.choice(("weight", "potential") if col is vs else ("cost", "distance"))
        entry[key] = _bad_token(rng)
    return True


def _typed(x):
    """``x`` with every value paired with its type, through containers."""
    if isinstance(x, (list, tuple)):
        return type(x), [_typed(y) for y in x]
    if isinstance(x, dict):
        return type(x), {k: _typed(v) for k, v in x.items()}
    return type(x), x


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return "error", (type(exc), str(exc))


def _graph_state(g):
    return _typed((g.ids, g.index, g.weights, g.potentials, g.edges))


def _tree_state(t):
    return (t.to_json(), _typed((t.ids, t.scale, t.weight_scaled, t.cost_scaled,
                                 t.potential_scaled, t.parent_idx, t._bfs)))


@pytest.fixture()
def per_entry(monkeypatch):
    """Make every column path fail, so each reader runs its per-entry
    function; ``per_entry(fn, *args)`` is ``fn``'s outcome that way."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(tree, "json_columns", lambda *a, **k: None)
            m.setattr(graphs, "json_columns", lambda *a, **k: None)
            m.setattr(graphs, "_csv_columns", lambda *a, **k: None)
            m.setattr(WeightedGraph, "_set_columns", lambda self, *a: False)
            return _outcome(fn, *args)
    return run


@pytest.fixture()
def no_per_entry(monkeypatch):
    """Fail the test if a per-entry function runs: the per-entry readers,
    the tree builder on tuples, and the fault finder behind both builders."""
    def refuse(*args, **kwargs):
        raise AssertionError("a per-entry reader ran on a valid document")
    with monkeypatch.context() as m:
        m.setattr(tree, "_json_vertices_edges", refuse)
        m.setattr(tree, "build_rooted_tree", refuse)
        m.setattr(tree, "_raise_first_fault", refuse)
        m.setattr(graphs, "_json_vertices_edges", refuse)
        m.setattr(graphs, "_csv_edges", refuse)
        m.setattr(WeightedGraph, "__init__", refuse)
        yield


class TestReaderParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_tree_json(self, per_entry, seed):
        rng = random.Random(1910 + seed)
        seen = set()
        for _ in range(250):
            doc = _doc(rng, "tree")
            if rng.random() < 0.6:
                _inject(rng, doc, rng.choice(_FAULTS))
            got = _outcome(tree_from_json, doc)
            want = per_entry(tree_from_json, doc)
            if got[0] == "value" and want[0] == "value":
                assert _tree_state(got[1]) == _tree_state(want[1])
            else:
                assert got == want
            seen.add(got[0])
        assert seen == {"value", "error"}

    @pytest.mark.parametrize("seed", range(4))
    def test_graph_json(self, per_entry, seed):
        rng = random.Random(1920 + seed)
        errors = set()
        for _ in range(250):
            doc = _doc(rng, "graph")
            if rng.random() < 0.6:
                _inject(rng, doc, rng.choice(_FAULTS))
            got = _outcome(graph_from_json, doc)
            want = per_entry(graph_from_json, doc)
            if got[0] == "value" and want[0] == "value":
                assert _graph_state(got[1]) == _graph_state(want[1])
            else:
                assert got == want
                errors.add(got[1][0])
        assert len(errors) >= 4

    @pytest.mark.parametrize("seed", range(3))
    def test_graph_tuples(self, seed):
        """``WeightedGraph._from_columns`` on parsed columns against the
        constructor on the raw tuples, Fractions and floats included."""
        rng = random.Random(1930 + seed)
        compared = 0
        for _ in range(250):
            doc = _doc(rng, "graph")
            if rng.random() < 0.6:
                _inject(rng, doc, rng.choice(_GRAPH_FAULTS))
            vertices = [(v.get("id"), v.get("weight", 1), v.get("potential", 0))
                        for v in doc["vertices"] if isinstance(v, dict)]
            edges = [(e.get("u"), e.get("v"), e.get("cost", 1), e.get("distance"))
                     for e in doc["edges"] if isinstance(e, dict)]
            if rng.random() < 0.3:
                vertices = [(v, _as_fraction(w), p) for v, w, p in vertices]
            try:
                ids, weights, potentials = (list(c) for c in zip(*vertices))
                us, vs, costs, dists = (list(c) for c in zip(*edges)) if edges else ([],) * 4
                weights, potentials, costs = map(parse_numbers, (weights, potentials, costs))
                dists = [None if d is None else parse_number(d) for d in dists]
            except ValueError:
                continue  # the constructor may meet another fault first
            got = _outcome(WeightedGraph._from_columns, ids, weights, potentials,
                           us, vs, costs, dists)
            want = _outcome(WeightedGraph, vertices, edges)
            if got[0] == "value" and want[0] == "value":
                assert _graph_state(got[1]) == _graph_state(want[1])
            else:
                assert got == want
            compared += 1
        assert compared >= 100

    @pytest.mark.parametrize("seed", range(3))
    def test_edge_csv(self, tmp_path, per_entry, seed):
        rng = random.Random(1940 + seed)
        path = tmp_path / "g.csv"
        errors = set()
        for _ in range(200):
            doc = _doc(rng, "graph", strings_only=True)
            fault = rng.choice(_CSV_FAULTS) if rng.random() < 0.6 else None
            if fault in _FAULTS:
                _inject(rng, doc, fault)
            header = rng.choice((["u", "v", "cost", "distance"], ["cost", "U", " v "],
                                 ["v", "u", "cost"]))
            lines = [",".join(header)]
            for e in doc["edges"]:
                cells = {"u": e["u"], "v": e["v"], "cost": e["cost"],
                         "distance": e.get("distance", "")}
                row = [str(cells[h.strip().lower()]) for h in header]
                if "distance" in header and not row[-1] and rng.random() < 0.5:
                    row.pop()  # a short row: no distance cell at all
                lines.append(",".join(f'"{c}"' if "," in c else c for c in row))
                if rng.random() < 0.1:
                    lines.append(rng.choice(("", ",,", " , , ")))
            if fault == "short row":
                lines.insert(rng.randint(1, len(lines)), "a,b")
            path.write_text("\n".join(lines) + "\n")
            got = _outcome(graph_from_csv, path)
            want = per_entry(graph_from_csv, path)
            if got[0] == "value" and want[0] == "value":
                assert _graph_state(got[1]) == _graph_state(want[1])
            else:
                assert got == want
                errors.add(got[1][0])
        assert len(errors) >= 3

    def test_valid_documents_never_reach_the_per_entry_readers(self, tmp_path,
                                                               no_per_entry):
        rng = random.Random(1950)
        for _ in range(150):
            tree_from_json(_doc(rng, "tree"))
            graph_from_json(_doc(rng, "graph"))
            doc = _doc(rng, "graph", strings_only=True)
            if doc["edges"]:
                p = tmp_path / "g.csv"
                p.write_text("u,v,cost,distance\n" + "".join(
                    f"{e['u']},{e['v']},{e['cost']},{e.get('distance', '')}\n"
                    for e in doc["edges"]) + "\n")
                graph_from_csv(p)


# -- byte order marks ----------------------------------------------------------

_BOM = b"\xef\xbb\xbf"


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestByteOrderMark:
    @pytest.mark.parametrize("name,body,argv", [
        ("g.csv", b"u,v,cost,distance\na,b,3,\nb,c,5/2,1/2\na,c,1,\nc,d,4,\n",
         ("cluster", "--parts", "2", "--outliers", "1")),
        ("g.json", json.dumps({"vertices": [{"id": v, "weight": "2"} for v in "abcd"],
                               "edges": [{"u": "a", "v": "b", "cost": "3/2"},
                                         {"u": "b", "v": "c", "cost": 2},
                                         {"u": "c", "v": "a", "cost": 1},
                                         {"u": "c", "v": "d", "cost": "4"}]}).encode(),
         ("cluster", "--parts", "2", "--outliers", "1")),
        ("t.json", json.dumps({"root": "a",
                               "vertices": [{"id": v, "weight": 1} for v in "abc"],
                               "edges": [{"u": "a", "v": "b", "cost": 1},
                                         {"u": "b", "v": "c", "cost": "1/3"}]}).encode(),
         ("optimize", "--parts", "2", "--outliers", "0")),
    ])
    def test_bom_prints_what_the_plain_file_prints(self, tmp_path, capsys, name, body, argv):
        plain, marked = tmp_path / f"plain-{name}", tmp_path / f"bom-{name}"
        plain.write_bytes(body)
        marked.write_bytes(_BOM + body)
        cmd, *rest = argv
        want = _cli(capsys, cmd, "--input", str(plain), *rest)
        got = _cli(capsys, cmd, "--input", str(marked), *rest)
        assert got == want
        assert want[0] in (0, 1) and json.loads(want[1])

    @pytest.mark.parametrize("name,body", [
        ("g.csv", _BOM + b"u,v,cost\na,\xe9,1\n"),
        ("g.csv", b"u,v,cost\n" + _BOM + b"a,b,1\nb,\xff,2\n"),
        ("g.json", _BOM + b'{"vertices": [{"id": "\xe9", "weight": 1}], "edges": []}'),
        ("g.json", b"\xff\xfe{}"),
    ])
    def test_bytes_that_are_not_utf8_still_fail(self, tmp_path, capsys, name, body):
        p = tmp_path / name
        p.write_bytes(body)
        with pytest.raises(ParseError, match="not UTF-8"):
            load_instance(p)
        code, out, err = _cli(capsys, "cluster", "--input", str(p), "--parts", "1",
                              "--outliers", "0")
        assert code == 2 and out == "" and "not UTF-8" in err


# -- spanning-tree cost text ---------------------------------------------------


class TestScaledCostText:
    def test_cluster_and_dot_print_each_cost_as_its_fraction(self, tmp_path, capsys):
        rng = random.Random(1960)
        n = 40
        rows = ["u,v,cost"]
        pairs = {(rng.randrange(i), i) for i in range(1, n)}
        pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(30)}
        for u, v in sorted(pairs):
            rows.append(f"v{u},v{v},{rng.randint(1, 30)}/{rng.choice((1, 2, 3, 6, 7, 12))}")
        p = tmp_path / "g.csv"
        p.write_text("\n".join(rows) + "\n")
        dot = tmp_path / "g.dot"
        code, out, _err = _cli(capsys, "cluster", "--input", str(p), "--parts", "3",
                               "--outliers", "1", "--emit-dot", str(dot))
        assert code == 0
        backbone = graphs.similarity_spanning_tree(load_instance(p))
        assert backbone.scale > 1
        want = [{"u": backbone.ids[backbone.parent_idx[c]], "v": backbone.ids[c],
                 "cost": format_rational(backbone.parent_edge_cost(backbone.ids[c]))}
                for u in backbone._bfs_order() for c in backbone.children_idx[u]]
        assert json.loads(out)["spanning_tree"]["edges"] == want
        assert any(not e["cost"].endswith("/1") for e in want)
        lines = dot.read_text().splitlines()
        for e in want:
            assert f'  "{e["u"]}" -- "{e["v"]}" [label="{e["cost"]}"];' in lines


# -- memory --------------------------------------------------------------------


def test_graph_load_memory_per_vertex():
    """Reading a 10^5-vertex graph with integer tokens (a tree's n - 1
    edges) peaks at most 450 bytes per vertex above the parsed JSON
    (``tracemalloc``; 342 measured on CPython 3.11, 551 with the
    per-entry readers)."""
    rng = random.Random(1970)
    n = 10 ** 5
    data = {"vertices": [{"id": i, "weight": rng.randint(1, 9)} for i in range(n)],
            "edges": [{"u": rng.randrange(i), "v": i, "cost": rng.randint(1, 9)}
                      for i in range(1, n)]}
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph = graph_from_json(data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert graph.vertex_count == n and graph.edge_count == n - 1
    assert peak / n <= 450, f"{peak / n:.0f} bytes per vertex"
