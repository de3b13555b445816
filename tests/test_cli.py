import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import path_tree, star_tree
from treecut import (
    ProblemSpec,
    make_subpartition,
    min_xi,
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
        assert data["probes"] >= 3
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

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        code, _, err = run_cli(capsys, "decide", "--xi", "1", "--parts", "1",
                               "--outliers", "0", "--input", str(p))
        assert code == 2
        assert "JSON" in err

    def test_bad_threads(self, capsys, tree_file):
        code, _, _ = run_cli(capsys, "decide", "--xi", "1", "--parts", "1",
                             "--outliers", "0", "--threads", "0",
                             "--input", tree_file)
        assert code == 2

    def test_threads_flag_accepted(self, capsys, tree_file):
        code, _, _ = run_cli(capsys, "decide", "--xi", "1", "--parts", "2",
                             "--outliers", "0", "--threads", "2",
                             "--input", tree_file)
        assert code == 0


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

    def test_env_threads(self, tree_file):
        proc = subprocess.run(
            [sys.executable, "-m", "treecut", "optimize", "--parts", "2",
             "--outliers", "0", "--input", tree_file],
            capture_output=True, text=True,
            env={"PATH": "", "TREECUT_THREADS": "2",
                 "PYTHONPATH": ":".join(sys.path)})
        assert proc.returncode == 0
