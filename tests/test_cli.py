import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import path_tree, random_tree, star_tree
from treecut import (
    ProblemSpec,
    _fastlane,
    cli,
    make_subpartition,
    min_xi,
    reconstruct_subpartition,
    solve,
    tree_from_json,
    validate_subpartition,
)
from treecut.cli import main


@pytest.fixture()
def tree_file(tmp_path):
    p = tmp_path / "path.json"
    p.write_text(json.dumps(path_tree(("a", "b")).to_json()))
    return str(p)


@pytest.fixture()
def star_file(tmp_path):
    p = tmp_path / "star.json"
    p.write_text(json.dumps(star_tree().to_json()))
    return str(p)


@pytest.fixture()
def triangle_csv(tmp_path):
    p = tmp_path / "tri.csv"
    p.write_text("u,v,cost\na,b,3\nb,c,2\na,c,1\n")
    return str(p)


def _tree_json(**fields) -> bytes:
    """A two-vertex tree's JSON file, with ``fields`` replaced."""
    tree = {"root": "a", "vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 1}],
            "edges": [{"u": "a", "v": "b", "cost": 1}], **fields}
    return json.dumps(tree).encode()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_feasible(self, capsys, tree_file):
        code, out, _ = run_cli(capsys, "decide", "--xi", "1", "--parts", "2",
                               "--outliers", "0", "--input", tree_file)
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] is True
        assert sorted(map(tuple, data["witness"]["parts"])) == [("a",), ("b",)]

    def test_infeasible(self, capsys, tree_file):
        code, out, _ = run_cli(capsys, "decide", "--xi", "1/2", "--parts", "2",
                               "--outliers", "0", "--input", tree_file)
        assert code == 1
        assert json.loads(out) == {"feasible": False}

    def test_tree_decide_is_one_solve(self, capsys, monkeypatch, tmp_path):
        # one solve answers a yes or a no and keeps the witness tables,
        # and the output is what the tables alone give
        tree = random_tree(random.Random(14), 30)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree.to_json()))
        solved = []
        monkeypatch.setattr(cli, "solve", lambda *a: solved.append(a) or solve(*a))
        best = min_xi(tree, 3, 2).xi_star
        for xi in (best, best - Fraction(1, 1000), Fraction(0)):
            spec = ProblemSpec(xi, 3, 2)
            tables = solve(tree, spec)
            want = {"feasible": tables.feasible}
            if tables.feasible:
                want["witness"] = reconstruct_subpartition(tree, spec, tables).to_json()
            code, out, _ = run_cli(capsys, "decide", "--xi", str(xi), "--parts", "3",
                                   "--outliers", "2", "--input", str(path))
            assert code == (0 if tables.feasible else 1)
            assert json.loads(out) == json.loads(json.dumps(want))
            assert len(solved) == 1
            solved.clear()

    def test_forbid_flag(self, capsys, tmp_path):
        hub = tmp_path / "hub.json"
        hub.write_text(json.dumps({
            "root": "b",
            "vertices": [{"id": "b", "weight": "1"}] + [
                {"id": v, "weight": "4"} for v in "acd"],
            "edges": [{"u": "b", "v": v, "cost": "1"} for v in "acd"],
        }))
        base = ["decide", "--xi", "1/4", "--parts", "3", "--outliers", "1",
                "--input", str(hub)]
        assert run_cli(capsys, *base)[0] == 0
        assert run_cli(capsys, *base, "--forbid", "b")[0] == 1

    def test_require_outlier_on_tree(self, capsys, tmp_path):
        p = tmp_path / "abc.json"
        p.write_text(json.dumps(path_tree(("a", "b", "c")).to_json()))
        code, out, _ = run_cli(capsys, "decide", "--xi", "1", "--parts", "2",
                               "--outliers", "1", "--require-outlier", "b",
                               "--input", str(p))
        assert code == 0
        data = json.loads(out)
        assert data["witness"]["residue"] == ["b"]

    def test_repeated_calls_share_no_values(self, capsys, monkeypatch, tmp_path):
        # one parser serves every call in a process: the lists --forbid and
        # --require-outlier append to start empty on each call, and a
        # handler replaced after the parser was built still runs
        p = tmp_path / "abc.json"
        p.write_text(json.dumps(path_tree(("a", "b", "c")).to_json()))
        base = ["decide", "--xi", "1", "--parts", "2", "--outliers", "1", "--input", str(p)]
        plain = run_cli(capsys, *base)
        code, out, _ = run_cli(capsys, *base, "--require-outlier", "b", "--forbid", "a,c")
        assert code == 0 and json.loads(out)["witness"]["residue"] == ["b"]
        assert run_cli(capsys, *base) == plain
        assert cli._parser() is cli._parser()
        seen = []
        monkeypatch.setattr(cli, "_cmd_decide",
                            lambda args: seen.append((args.forbid, args.require_outlier)) or 7)
        assert main(base + ["--forbid", "c", "--require-outlier", "a"]) == 7
        assert main(base) == 7
        assert seen == [(["c"], ["a"]), ([], [])]

    def test_require_outlier_on_tree_with_zero_cost_edge(self, capsys, tmp_path):
        # a cost of 0 is valid on a tree, with the flag as without it
        p = tmp_path / "abcd.json"
        p.write_text(json.dumps({
            "root": "a",
            "vertices": [{"id": v, "weight": 1} for v in "abcd"],
            "edges": [{"u": "a", "v": "b", "cost": 1}, {"u": "b", "v": "c", "cost": 0},
                      {"u": "c", "v": "d", "cost": 1}],
        }))
        base = ["decide", "--xi", "1", "--parts", "1", "--outliers", "1", "--input", str(p)]
        assert run_cli(capsys, *base)[0] == 0
        code, out, err = run_cli(capsys, *base, "--require-outlier", "d")
        assert (code, err) == (0, "")
        witness = json.loads(out)["witness"]
        assert witness["residue"] == ["d"]
        assert witness["max_expansion"] == "1/3"  # c's edge to d, over a, b, c

    def test_potentials_flag_on_graph_input(self, capsys, tmp_path):
        # vertex potentials count only with --potentials, as for optimize
        p = tmp_path / "abc.json"
        p.write_text(json.dumps({
            "vertices": [{"id": "a", "weight": 1, "potential": 5},
                         {"id": "b", "weight": 1}, {"id": "c", "weight": 1}],
            "edges": [{"u": "a", "v": "b", "cost": 1}, {"u": "b", "v": "c", "cost": 1}],
        }))
        budgets = ["--parts", "2", "--outliers", "0", "--input", str(p)]
        for flag, xi_star in (((), "1/1"), (("--potentials",), "3/1")):
            code, out, _ = run_cli(capsys, "optimize", *budgets, *flag)
            assert (code, json.loads(out)["xi_star"]) == (0, xi_star)
            code, out, _ = run_cli(capsys, "decide", "--xi", xi_star, *budgets, *flag)
            assert code == 0
            assert json.loads(out)["witness"]["max_expansion"] == xi_star
        assert run_cli(capsys, "decide", "--xi", "1", *budgets, "--potentials")[0] == 1

    def test_graph_input_must_be_forest_without_requirements(self, capsys,
                                                             triangle_csv):
        code, _, err = run_cli(capsys, "decide", "--xi", "1", "--parts", "1",
                               "--outliers", "0", "--input", triangle_csv)
        assert code == 2
        assert "cycle" in err

    def test_unknown_forbid_id(self, capsys, tree_file):
        code, _, err = run_cli(capsys, "decide", "--xi", "1", "--parts", "1",
                               "--outliers", "0", "--forbid", "zz",
                               "--input", tree_file)
        assert code == 2
        assert "zz" in err


class TestOptimize:
    def test_exact(self, capsys, tree_file):
        code, out, _ = run_cli(capsys, "optimize", "--parts", "2",
                               "--outliers", "0", "--input", tree_file)
        assert code == 0
        data = json.loads(out)
        assert data["xi_star"] == "1/1"
        assert data["probes"] >= 2
        assert "sweeps" not in data
        assert data["witness"]["max_expansion"] == "1/1"

    def test_whole_tree_is_free(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "optimize", "--parts", "1",
                               "--outliers", "0", "--input", star_file)
        assert code == 0
        assert json.loads(out)["xi_star"] == "0/1"

    def test_infeasible_exit(self, capsys, tree_file):
        code, out, _ = run_cli(capsys, "optimize", "--parts", "3",
                               "--outliers", "0", "--input", tree_file)
        assert code == 1
        assert json.loads(out)["xi_star"] is None

    def test_tolerance_mode(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "optimize", "--parts", "4",
                               "--outliers", "0", "--mode", "tol",
                               "--tol", "1/32", "--input", star_file)
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "tol"


class TestKmax:
    def test_star(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "kmax", "--xi", "1", "--outliers", "0",
                               "--input", star_file)
        assert code == 0
        assert json.loads(out) == {"k_max": 3}

    def test_rejects_graph_input(self, capsys, triangle_csv):
        code, _, err = run_cli(capsys, "kmax", "--xi", "1", "--outliers", "0",
                               "--input", triangle_csv)
        assert code == 2
        assert "tree" in err


class TestCluster:
    def test_pipeline_and_dot(self, capsys, triangle_csv, tmp_path):
        dot = tmp_path / "out.dot"
        code, out, _ = run_cli(capsys, "cluster", "--parts", "2",
                               "--outliers", "0", "--input", triangle_csv,
                               "--emit-dot", str(dot))
        assert code == 0
        data = json.loads(out)
        kept = {frozenset((e["u"], e["v"])) for e in data["spanning_tree"]["edges"]}
        assert kept == {frozenset(("a", "b")), frozenset(("b", "c"))}
        assert data["xi_star"] == "2/1"
        text = dot.read_text()
        assert text.startswith("graph")
        assert '"a" -- "b"' in text

    def test_matches_direct_optimize_on_tree_input(self, capsys, tmp_path):
        t = path_tree(("a", "b", "c"))
        p = tmp_path / "t.json"
        p.write_text(json.dumps(t.to_json()))
        code1, out1, _ = run_cli(capsys, "cluster", "--parts", "2",
                                 "--outliers", "0", "--input", str(p))
        code2, out2, _ = run_cli(capsys, "optimize", "--parts", "2",
                                 "--outliers", "0", "--input", str(p))
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["xi_star"] == d2["xi_star"]
        assert d1["witness"] == d2["witness"]

    def test_byte_stable(self, capsys, triangle_csv):
        _, out1, _ = run_cli(capsys, "cluster", "--parts", "2", "--outliers",
                             "1", "--input", triangle_csv)
        _, out2, _ = run_cli(capsys, "cluster", "--parts", "2", "--outliers",
                             "1", "--input", triangle_csv)
        assert out1 == out2

    def test_witness_validates(self, capsys, triangle_csv):
        _, out, _ = run_cli(capsys, "cluster", "--parts", "2", "--outliers",
                            "0", "--input", triangle_csv)
        data = json.loads(out)
        # re-derive the spanning tree and check the emitted witness on it
        tree = tree_from_json({
            "root": "a",
            "vertices": [{"id": v, "weight": "1"} for v in "abc"],
            "edges": data["spanning_tree"]["edges"],
        })
        spec = ProblemSpec(Fraction(data["xi_star"]), 2, 0)
        assert min_xi(tree, 2, 0).xi_star == spec.xi
        sub = make_subpartition(tree, [set(p) for p in data["witness"]["parts"]],
                                set(data["witness"]["residue"]))
        assert validate_subpartition(tree, spec, sub) == []


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "decide", "--xi", "1", "--parts", "1",
                               "--outliers", "0", "--input", "/nonexistent.json")
        assert code == 2
        assert err

    @pytest.mark.parametrize("name, content, says", [
        pytest.param("bad.json", b"{broken", "JSON", id="broken"),
        # entries that are not objects, as a tree and as a graph
        pytest.param("bad.json", _tree_json(vertices=[1, 2]), "vertex #0 needs",
                     id="int-vertices"),
        pytest.param("bad.json", _tree_json(edges=[5]), "edge #0 needs", id="int-edges"),
        pytest.param("bad.json", _tree_json(vertices=5), "'vertices' must be a JSON array",
                     id="int-vertex-list"),
        pytest.param("bad.json", json.dumps({"vertices": [1], "edges": []}).encode(),
                     "vertex #0 needs", id="graph-int-vertices"),
        pytest.param("bad.json", json.dumps({"vertices": [], "edges": [5]}).encode(),
                     "edge #0 needs", id="graph-int-edges"),
        # ids that are arrays or objects cannot key a vertex
        pytest.param("bad.json", _tree_json(root=["a"]), "root: vertex id", id="list-root"),
        pytest.param("bad.json", _tree_json(vertices=[{"id": ["a"], "weight": 1}]),
                     "vertex #0: vertex id", id="list-id"),
        pytest.param("bad.json", _tree_json(edges=[{"u": ["a"], "v": "b", "cost": 1}]),
                     "edge #0: vertex id", id="list-u"),
        pytest.param("bad.json", _tree_json(edges=[{"u": "a", "v": {}, "cost": 1}]),
                     "edge #0: vertex id", id="object-v"),
        pytest.param("bad.json",
                     json.dumps({"vertices": [{"id": ["a"], "weight": 1}], "edges": []}).encode(),
                     "vertex #0: vertex id", id="graph-list-id"),
        # text that is not UTF-8
        pytest.param("bad.json", _tree_json().replace(b'"b"', b'"\xe9"'), "not UTF-8",
                     id="latin-1-json"),
        pytest.param("bad.csv", b"u,v,cost\na,\xe9,1\n", "not UTF-8", id="latin-1-csv"),
    ])
    def test_malformed_json(self, capsys, tmp_path, name, content, says):
        p = tmp_path / name
        p.write_bytes(content)
        code, _, err = run_cli(capsys, "decide", "--xi", "1", "--parts", "1",
                               "--outliers", "0", "--input", str(p))
        assert code == 2
        assert err.startswith("treecut: ") and says in err


    @pytest.mark.parametrize("command", ["decide", "optimize", "kmax", "cluster"])
    def test_tables_over_the_memory_gate(self, capsys, monkeypatch, star_file, command):
        # a gate one byte: every command exits 2 with the figure it
        # refuses and the gate in its message, and prints no answer.
        # kmax refuses its sweep; the others the witness tables they keep
        monkeypatch.setattr(_fastlane, "_MAX_TABLE_BYTES", 1)
        args = {"decide": ["--xi", "1", "--parts", "2"], "optimize": ["--parts", "2"],
                "kmax": ["--xi", "1"], "cluster": ["--parts", "2"]}[command]
        code, out, err = run_cli(capsys, command, *args, "--outliers", "0",
                                 "--input", star_file)
        assert code == 2 and not out
        held = (r"the sweep would hold up to \d+ bytes per threshold" if command == "kmax"
                else r"the witness tables would hold \d+ bytes")
        assert re.fullmatch(rf"treecut: {held}, over the memory gate of 1 bytes\n", err)

    def test_weights_past_the_int64_bound(self, capsys, tmp_path):
        # weights around 2^70 leave int64: the sweep on Python ints
        # answers decide and optimize as on the unit path
        tree = {"root": "a", "vertices": [{"id": v, "weight": 2 ** 70} for v in "abc"],
                "edges": [{"u": "a", "v": "b", "cost": 2 ** 70},
                          {"u": "b", "v": "c", "cost": 2 ** 70}]}
        p = tmp_path / "big.json"
        p.write_text(json.dumps(tree))
        code, out, _ = run_cli(capsys, "decide", "--xi", "1", "--parts", "2",
                               "--outliers", "0", "--input", str(p))
        assert code == 0 and json.loads(out)["feasible"] is True
        code, out, _ = run_cli(capsys, "optimize", "--parts", "3", "--outliers", "0",
                               "--input", str(p))
        assert code == 0 and json.loads(out)["xi_star"] == "2/1"


class TestEntryPoint:
    def test_module_invocation(self, tree_file):
        proc = subprocess.run(
            [sys.executable, "-m", "treecut", "decide", "--xi", "1",
             "--parts", "2", "--outliers", "0", "--input", tree_file],
            capture_output=True, text=True,
            # the package may be on this process's path only (pytest's
            # pythonpath setting), not installed
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["feasible"] is True
