"""One workload in one fresh process: set up, check, time, report.

``run.py`` starts this script; it reads the inputs ``run.py`` generated
(a pickle of plain data), so input generation stays out of ``setup_s``.
With ``--setup-only`` it times the set-up and exits; otherwise it then runs
the correctness gate and the timed rounds and prints one JSON line.

Timed rounds: the workload's ops form a round of about NOMINAL_ROUND_S
seconds on a 2-core x86 VM; ``--seconds`` / NOMINAL_ROUND_S whole rounds
run (at least MIN_ROUNDS), so every run measures the same mix.  One client calls one operation at a time (a
closed loop).  ``gc.collect()`` runs between operations, outside the
timings.  Each answer is checked after its timer stops: fully in the first
round, and against the first round's answer after that.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import pickle
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (imports nothing from treecut)
from inputs import _components  # noqa: E402

tc = None  # the treecut package, imported inside the timed set-up


# -- set-up --------------------------------------------------------------------

def set_up(workload: str, data: dict, tracer=None):
    """Import treecut and build every instance the workload holds.  Returns
    (seconds, trees).  The clock starts before the first treecut import."""
    global tc
    t0 = perf_counter()
    import treecut
    import treecut._fastlane
    if workload == "pipeline-cli":
        import treecut.cli  # noqa: F401
    treecut._fastlane.warm_up()
    if tracer is not None:
        tracer.op = "setup"
        tracer.install()
    trees = [treecut.build_rooted_tree(t["vertices"], t["edges"], t["root"])
             for t in data.get("trees", ())]
    if tracer is not None:
        tracer.uninstall()
    tc = treecut
    return perf_counter() - t0, trees


# -- machine speed ---------------------------------------------------------------
#
# This benchmark runs on shared machines whose speed drifts by tens of
# percent over seconds.  Every timing is therefore also taken at a fixed
# reference speed: it is scaled by CALIBRATION_REF_S / k, where k is the
# mean of the kernel times taken just before and just after it.  The
# kernel never changes with treecut and does the kind of work the DP's
# inner loops do (row allocation, None tests, small-int arithmetic), so its
# time tracks the speed the program sees.  Each kernel time is the least of
# a few short runs, because an interrupt can only lengthen one.  The raw
# wall-clock figures are reported next to the scaled ones.

CALIBRATION_REF_S = 0.0006
CALIBRATION_RUNS = 5

# Every op runs in several rounds and its latency is the least of its
# reference-speed times: a slowdown the calibration missed (the machine
# changed speed in the middle of a long op) rarely hits every round.  The
# round count comes from --seconds alone, never from measured speed, so a
# faster program does not get more tries at a low minimum.
MIN_ROUNDS = 2
NOMINAL_ROUND_S = 6.0


def _calibration_kernel() -> int:
    rows = []
    for r in range(300):
        row = [None] * 16
        for i in range(1, 16, 2):
            row[i] = (r * i) % 7
        rows.append(row)
    total = 0
    for row in rows:
        for v in row:
            if v is not None and v > 2:
                total += v
    return total


def calibration_seconds() -> float:
    best = float("inf")
    for _ in range(CALIBRATION_RUNS):
        t0 = perf_counter()
        _calibration_kernel()
        best = min(best, perf_counter() - t0)
    return best


# -- graph-side checks (independent of treecut) --------------------------------

def _lcm_denominators(values) -> int:
    d = 1
    for v in values:
        q = Fraction(v).denominator
        d = d * q // math.gcd(d, q)
    return d


def scaled_total_weight(vertices, edges) -> int:
    """Total weight in the units that make every weight, cost and
    potential integral; every achievable expansion has a reduced
    denominator at most this."""
    scale = _lcm_denominators([w for _v, w, _p in vertices]
                              + [p for _v, _w, p in vertices]
                              + [e[2] for e in edges])
    return scale * sum(Fraction(w) for _v, w, _p in vertices)


def just_below(xi: Fraction, total_scaled: int) -> Fraction:
    """A threshold strictly between ``xi`` and the next smaller achievable
    expansion: distinct fractions with denominators <= W differ by at
    least 1 / (q W)."""
    return xi - Fraction(1, 2 * xi.denominator * int(total_scaled))


def graph_violations(vertices, edges, parts, residue, n_parts, outliers, xi,
                     use_pot=False, required=(), forbidden=()):
    """Problems with a subpartition of a graph, and its largest expansion.
    ``edges`` are ``(u, v, cost, ...)``; expansions count every edge that
    leaves a part, including edges into the residue."""
    problems = []
    ids = {v for v, _w, _p in vertices}
    weight = {v: Fraction(w) for v, w, _p in vertices}
    pot = {v: Fraction(p) for v, _w, p in vertices}
    residue = set(residue)
    if len(parts) != n_parts:
        problems.append(f"{len(parts)} parts, expected {n_parts}")
    covered = set()
    for p in parts:
        if not p or covered & set(p):
            problems.append("empty or overlapping part")
        covered |= set(p)
    if covered & residue or covered | residue != ids:
        problems.append("parts and residue do not partition the vertices")
    if len(residue) > outliers:
        problems.append(f"{len(residue)} outliers > budget {outliers}")
    if not set(required) <= residue:
        problems.append("a required outlier is covered")
    if set(forbidden) & residue:
        problems.append("a forbidden outlier is uncovered")
    adj = {v: [] for v in ids}
    for e in edges:
        adj[e[0]].append(e[1])
        adj[e[1]].append(e[0])
    worst = None
    for p in parts:
        members = set(p)
        if not members:
            continue
        start = next(iter(members))
        seen, stack = {start}, [start]
        while stack:
            for v in adj[stack.pop()]:
                if v in members and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != members:
            problems.append("disconnected part")
        cut = sum((Fraction(e[2]) for e in edges
                   if (e[0] in members) != (e[1] in members)), Fraction(0))
        if use_pot:
            cut += sum(pot[v] for v in members)
        value = cut / sum(weight[v] for v in members)
        if value > xi:
            problems.append(f"part expansion {value} > {xi}")
        worst = value if worst is None else max(worst, value)
    return problems, worst


def min_spanning_distance(vertices, edges) -> Fraction:
    """Kruskal on distance = explicit override or 1/cost."""
    ranked = sorted((d if d is not None else 1 / Fraction(c), u, v)
                    for u, v, c, d in edges)
    parent = {v: v for v, _w, _p in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = Fraction(0)
    for d, u, v in ranked:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += d
    return total


# -- operations ----------------------------------------------------------------
#
# Each op kind has prepare (untimed), call (timed), canonical (the answer as
# plain data, for the digest and for comparing repeats) and check (untimed,
# the first time an op runs; returns a list of problems).

class Ops:
    def __init__(self, data: dict, trees: list, workdir: Path):
        self.data = data
        self.trees = trees
        self.workdir = workdir
        self.stdout_bytes = 0
        self.tracer = None

    def prepare(self, op):
        """The instance: a built tree, or the CLI's argument list."""
        if op["kind"] not in ("decide", "min_xi", "k_max"):
            return self.cli_argv(op)
        t = op["tree"]
        if isinstance(t, int):
            return self.trees[t]
        return tc.build_rooted_tree(t["vertices"], t["edges"], t["root"])

    def call(self, op, prepared):
        kind = op["kind"]
        if kind == "decide":
            spec = tc.ProblemSpec(op["xi"], op["parts"], op["outliers"],
                                  op["use_pot"], frozenset(op["forbidden"]))
            return tc.decide(prepared, spec)
        if kind == "min_xi":
            return tc.min_xi(prepared, op["parts"], op["outliers"],
                             use_potentials=op["use_pot"],
                             forbidden_outliers=frozenset(op["forbidden"]))
        if kind == "k_max":
            return tc.k_max(prepared, op["xi"], op["outliers"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tc.cli.main(prepared)
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        return code, text, err.getvalue()

    def canonical(self, op, result):
        kind = op["kind"]
        if kind in ("decide", "k_max"):
            return result
        if kind == "min_xi":
            if not result.feasible:
                return {"xi_star": None}
            return {"xi_star": str(result.xi_star),
                    "witness": result.witness.to_json()}
        code, text, _err = result
        payload = json.loads(text)
        payload.pop("probes", None)  # search effort, not part of the answer
        return [code, payload]

    def check(self, op, result, prepared, oracle: bool):
        return getattr(self, "check_" + op["kind"])(op, result, prepared, oracle)

    # decide / min_xi / k_max ---------------------------------------------

    def check_decide(self, op, result, tree, oracle):
        if oracle:
            spec = tc.ProblemSpec(op["xi"], op["parts"], op["outliers"],
                                  op["use_pot"], frozenset(op["forbidden"]))
            expect = tc.oracle_decide(tree, spec)
        else:
            expect = op["expect"]
        if expect is not None and result != expect:
            return [f"decide said {result}, expected {expect}"]
        return []

    def check_min_xi(self, op, result, tree, oracle):
        forb = frozenset(op["forbidden"])
        if oracle:
            best = tc.oracle_min_xi(tree, op["parts"], op["outliers"],
                                    use_potentials=op["use_pot"],
                                    forbidden_outliers=forb)
            if best != result.xi_star:
                return [f"min_xi {result.xi_star}, oracle {best}"]
            if best is None:
                return []
        elif not result.feasible:
            return ["min_xi found no threshold on a feasible instance"]
        xi = result.xi_star
        spec = tc.ProblemSpec(xi, op["parts"], op["outliers"], op["use_pot"], forb)
        problems = list(tc.validate_subpartition(tree, spec, result.witness))
        if result.witness.max_expansion != xi:
            problems.append(f"witness max expansion {result.witness.max_expansion} != {xi}")
        if xi > 0 and not oracle:
            below = just_below(xi, op["total_weight"])  # integer weights
            if tc.decide(tree, spec.with_xi(below)):
                problems.append(f"feasible below the returned optimum {xi}")
        return problems

    def check_k_max(self, op, result, tree, oracle):
        n = tree.vertex_count
        if not oracle:
            return [] if 0 <= result <= n else [f"k_max {result} outside 0..{n}"]
        budget = tc.EnumerationBudget(max_vertices=10, max_parts=10)
        expect = 0
        for k in range(n, 0, -1):
            if tc.oracle_decide(tree, tc.ProblemSpec(op["xi"], k, op["outliers"]), budget):
                expect = k
                break
        return [] if result == expect else [f"k_max {result}, oracle {expect}"]

    # CLI ------------------------------------------------------------------

    def graph_view(self, name):
        """(vertices, edges) of a generated file as the CLI sees it: CSV
        ids are ``v<n>`` strings with weight 1."""
        fmt, g = self.data["files"][name]
        if fmt == "csv":
            return ([(f"v{v}", 1, 0) for v, _w, _p in g["vertices"]],
                    [(f"v{u}", f"v{v}", c, d) for u, v, c, d in g["edges"]])
        return g["vertices"], g["edges"]

    def cli_argv(self, op):
        fmt, _g = self.data["files"][op["file"]]
        path = str(self.workdir / f"{op['file']}.{fmt}")
        budgets = ["--parts", str(op["parts"]), "--outliers", str(op["outliers"])]
        if op["kind"] == "cluster":
            return ["cluster", "--input", path, *budgets]
        if op["kind"] == "optimize":
            return (["optimize", "--input", path, *budgets]
                    + (["--potentials"] if op.get("potentials") else []))
        required = self.data["files"][op["file"]][1]["required"]
        return ["decide", "--input", path, "--xi", str(op["xi"]), *budgets,
                "--require-outlier", ",".join(map(str, required))]

    def _parse_cli(self, result, answer_key):
        code, text, err = result
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return None, [f"stdout is not JSON (exit {code}): {err.strip()}"]
        feasible = payload.get(answer_key) not in (None, False)
        if code != (0 if feasible else 1):
            return payload, [f"exit code {code} with {answer_key}={payload.get(answer_key)}"]
        return payload, []

    @staticmethod
    def _witness_sets(payload):
        w = payload["witness"]
        return [list(p) for p in w["parts"]], list(w["residue"])

    def check_cluster(self, op, result, prepared, oracle):
        payload, problems = self._parse_cli(result, "xi_star")
        if problems:
            return problems
        vertices, edges = self.graph_view(op["file"])
        tree_edges = [(e["u"], e["v"], Fraction(e["cost"]))
                      for e in payload["spanning_tree"]["edges"]]
        input_edges = {frozenset((u, v)): (c, d) for u, v, c, d in edges}
        if len(tree_edges) != len(vertices) - 1:
            problems.append("spanning tree has the wrong edge count")
        span = Fraction(0)
        for u, v, c in tree_edges:
            c_in, d_in = input_edges.get(frozenset((u, v)), (None, None))
            if c_in != c:
                return problems + [f"tree edge {u}-{v} is not an input edge"]
            span += d_in if d_in is not None else 1 / c
        if span != min_spanning_distance(vertices, edges):
            problems.append("spanning tree is not a maximum-similarity tree")
        if payload["xi_star"] is None:
            return problems + ["cluster found no threshold"]
        xi = Fraction(payload["xi_star"])
        root = vertices[0][0]
        tree = tc.build_rooted_tree(vertices, tree_edges, root)
        if oracle:
            best = tc.oracle_min_xi(tree, op["parts"], op["outliers"])
            if best != xi:
                problems.append(f"cluster xi* {xi}, oracle {best}")
        parts, residue = self._witness_sets(payload)
        found, worst = graph_violations(vertices, tree_edges, parts, residue,
                                        op["parts"], op["outliers"], xi)
        problems += found
        if worst != xi:
            problems.append(f"witness max expansion {worst} != xi* {xi}")
        if xi > 0 and not oracle:
            below = just_below(xi, scaled_total_weight(vertices, tree_edges))
            if tc.decide(tree, tc.ProblemSpec(below, op["parts"], op["outliers"])):
                problems.append(f"feasible below the returned optimum {xi}")
        return problems

    def check_optimize(self, op, result, prepared, oracle):
        payload, problems = self._parse_cli(result, "xi_star")
        if problems:
            return problems
        vertices, edges = self.graph_view(op["file"])
        use_pot = bool(op.get("potentials"))
        if oracle:
            best = self.forest_oracle(vertices, edges, op["parts"], op["outliers"], use_pot)
            got = None if payload["xi_star"] is None else Fraction(payload["xi_star"])
            if best != got:
                return [f"optimize xi* {got}, oracle {best}"]
        elif (payload["xi_star"] is not None) != op["expect_feasible"]:
            return [f"optimize feasibility {payload['xi_star']}, expected {op['expect_feasible']}"]
        if payload["xi_star"] is None:
            return problems
        xi = Fraction(payload["xi_star"])
        parts, residue = self._witness_sets(payload)
        found, worst = graph_violations(vertices, edges, parts, residue,
                                        op["parts"], op["outliers"], xi, use_pot)
        problems += found
        if worst != xi:
            problems.append(f"witness max expansion {worst} != xi* {xi}")
        if xi > 0 and not oracle:
            path = prepared[prepared.index("--input") + 1]
            forest = tc.forest_from_graph(tc.load_instance(path))
            spec = tc.ProblemSpec(just_below(xi, scaled_total_weight(vertices, edges)),
                                  op["parts"], op["outliers"], use_pot)
            if tc.decide_forest(forest, spec, want_witness=False)[0]:
                problems.append(f"feasible below the returned optimum {xi}")
        return problems

    def forest_oracle(self, vertices, edges, parts, outliers, use_pot):
        """Brute-force optimum on a forest: the per-tree oracle over every
        split of parts and outlier budget across trees."""
        trees = []
        for members in _components(vertices, [e[:3] for e in edges]):
            ms = set(members)
            vs = [v for v in vertices if v[0] in ms]
            es = [e[:3] for e in edges if e[0] in ms]
            trees.append(tc.build_rooted_tree(vs, es, members[0]))
        # best[(k, l)] over the trees so far: min of the max expansion, or
        # -1 for "feasible with no parts yet"
        best = {(0, l): -1 for l in range(outliers + 1)}
        for tree in trees:
            n = tree.vertex_count
            nxt = {}
            for (k0, l0), v0 in best.items():
                for k in range(0, parts - k0 + 1):
                    for l in range(0, outliers - l0 + 1):
                        if k == 0:
                            if n > l:
                                continue
                            v = -1
                        else:
                            v = tc.oracle_min_xi(tree, k, l, use_potentials=use_pot,
                                                 budget=tc.EnumerationBudget(10, 10))
                            if v is None:
                                continue
                        key = (k0 + k, l0 + l)
                        val = max(v0, v)
                        if key not in nxt or val < nxt[key]:
                            nxt[key] = val
            best = nxt
        found = [v for (k, _l), v in best.items() if k == parts]
        return min(found) if found else None

    def check_semisup(self, op, result, prepared, oracle):
        payload, problems = self._parse_cli(result, "feasible")
        if problems:
            return problems
        vertices, edges = self.graph_view(op["file"])
        required = self.data["files"][op["file"]][1]["required"]
        expect = op.get("expect")
        if oracle:
            hubs = set(required)
            extra = {v: Fraction(0) for v, _w, _p in vertices}
            for u, v, c, _d in edges:
                if u in hubs and v not in hubs:
                    extra[v] += c
                elif v in hubs and u not in hubs:
                    extra[u] += c
            vs = [(v, w, p + extra[v]) for v, w, p in vertices if v not in hubs]
            es = [(u, v, c) for u, v, c, _d in edges if u not in hubs and v not in hubs]
            tree = tc.build_rooted_tree(vs, es, vs[0][0])
            expect = tc.oracle_decide(tree, tc.ProblemSpec(
                op["xi"], op["parts"], op["outliers"] - len(hubs), True))
        if expect is not None and payload["feasible"] != expect:
            problems.append(f"decide said {payload['feasible']}, expected {expect}")
        if payload["feasible"]:
            parts, residue = self._witness_sets(payload)
            found, _worst = graph_violations(vertices, edges, parts, residue,
                                             op["parts"], op["outliers"], op["xi"],
                                             required=required)
            problems += found
        return problems


# -- running -------------------------------------------------------------------

def _decision_key(op):
    t = op["tree"]
    tree_key = t if isinstance(t, int) else id(t)
    return (tree_key, op["parts"], op["outliers"], op["use_pot"], op["forbidden"])


def monotonicity_failures(ops, answers) -> set:
    """Indices of decide ops whose tree and budget show a yes below a no."""
    groups = {}
    for i, op in enumerate(ops):
        if op["kind"] == "decide" and answers[i] in (True, False):
            groups.setdefault(_decision_key(op), []).append(i)
    bad = set()
    for idx in groups.values():
        idx.sort(key=lambda i: ops[i]["xi"])
        seen_yes = False
        for i in idx:
            if answers[i]:
                seen_yes = True
            elif seen_yes:
                bad.update(idx)
                break
    return bad


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what, problems):
        self.failed += 1
        for p in problems:
            print(f"FAIL {what}: {p}", file=sys.stderr)


def run_once(ops_ctl: Ops, op, tally: Tally, where: str, reference=None,
             oracle=False):
    """Run one op; returns (seconds, reference-speed seconds, canonical
    answer or None if it failed).  With ``reference`` the answer must equal
    it; otherwise it is checked (against the brute force with ``oracle``).
    Timed ops are bracketed by calibration runs and start after a full
    collection; the gate's untimed ones skip both."""
    prepared = ops_ctl.prepare(op)
    if not oracle:
        k_before = calibration_seconds()
        gc.collect()
    tally.attempted += 1
    t0 = perf_counter()
    try:
        result = ops_ctl.call(op, prepared)
    except Exception:  # a raising op is a failed op; keep measuring
        dt = perf_counter() - t0
        tally.fail(where, [traceback.format_exc()])
        return dt, dt, None
    dt = perf_counter() - t0
    scaled = dt if oracle else dt * CALIBRATION_REF_S * 2 / (k_before + calibration_seconds())
    try:
        answer = ops_ctl.canonical(op, result)
        if reference is not None:
            problems = [] if answer == reference else ["answer differs from the first round"]
        else:
            problems = ops_ctl.check(op, result, prepared, oracle)
    except Exception:
        answer, problems = None, [traceback.format_exc()]
    if problems:
        tally.fail(where, problems)
        return dt, scaled, None
    return dt, scaled, answer


def gate(ops_ctl: Ops, small, tally: Tally) -> list:
    """Small instances (n <= 10) against the brute force, before timing."""
    answers = [run_once(ops_ctl, op, tally, f"small #{i}", oracle=True)[2]
               for i, op in enumerate(small)]
    for i in sorted(monotonicity_failures(small, answers)):
        tally.fail(f"small #{i}", ["decisions are not monotone in xi"])
    return answers


def timed_round(ops_ctl: Ops, ops, tally: Tally, reference):
    """One pass over the round.  Returns ``{op index: (seconds,
    reference-speed seconds)}`` for the correct ops, and every op's
    canonical answer."""
    latencies, answers = {}, []
    for i, op in enumerate(ops):
        ref = None if reference is None else reference[i]
        if ops_ctl.tracer is not None:
            ops_ctl.tracer.op = i
        dt, scaled, answer = run_once(ops_ctl, op, tally, f"op #{i}", ref)
        answers.append(answer)
        if answer is not None:
            latencies[i] = (dt, scaled)
    if reference is None:
        for i in sorted(monotonicity_failures(ops, answers)):
            tally.fail(f"op #{i}", ["decisions are not monotone in xi"])
    return latencies, answers


def latency_metrics(latencies) -> dict:
    """ops_per_s, op_p50_s and op_p90_s of a list of latencies."""
    if not latencies:
        return {"ops_per_s": 0.0, "op_p50_s": 0.0, "op_p90_s": 0.0}
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_s": statistics.median(latencies), "op_p90_s": p90}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where the traced run writes spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with open(args.inputs, "rb") as fh:
        data = pickle.load(fh)  # written by run.py for this run
    gc.collect()
    tracer = tracing.Tracer() if args.trace else None
    calibration_seconds()  # the first run in a fresh process pays for arenas
    k_before = calibration_seconds()
    setup_raw, trees = set_up(args.workload, data, tracer)
    setup_s = setup_raw * CALIBRATION_REF_S * 2 / (k_before + calibration_seconds())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    # only the built trees stay: the plain copies would add to every
    # collection and to peak_rss_mb without being part of the program
    data["trees"] = None
    gc.collect()
    ops_ctl = Ops(data, trees, Path(args.inputs).parent)
    tally = Tally()
    t_gate = perf_counter()
    gate_answers = gate(ops_ctl, data["small"], tally)
    t_gate = perf_counter() - t_gate

    ops = data["ops"]
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw, "gate_s": t_gate,
              "fastlane_available": bool(tc._fastlane.available())}
    if args.trace:
        # the same round untraced, then traced: the difference is the overhead
        lat_u, reference = timed_round(ops_ctl, ops, tally, None)
        ops_ctl.stdout_bytes = 0
        ops_ctl.tracer = tracer
        tracer.install()
        lat_t, _ = timed_round(ops_ctl, ops, tally, reference)
        tracer.uninstall()
        metrics = tracing.layer_metrics(
            tracer.spans, ops_ctl.stdout_bytes,
            traced_ops_per_s=latency_metrics([s for _d, s in lat_t.values()])["ops_per_s"],
            untraced_ops_per_s=latency_metrics([s for _d, s in lat_u.values()])["ops_per_s"])
        result["per_layer"] = metrics
        result["engaged_ratio"] = metrics["fastlane.engaged_ratio"]["value"]
        result["rounds"] = 2
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                           "spans": tracer.spans}, fh)
    else:
        lane = tracing.Tracer(tracing.LANE_ONLY)
        lane.install()
        start = perf_counter()
        best, reference = timed_round(ops_ctl, ops, tally, None)
        rounds = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S))
        for _ in range(rounds - 1):
            more, _ = timed_round(ops_ctl, ops, tally, reference)
            best = {i: (min(best[i][0], more[i][0]), min(best[i][1], more[i][1]))
                    for i in best if i in more}
        result["timed_s"] = perf_counter() - start
        latencies = list(best.values())
        lane.uninstall()
        engaged = sum(1 for span in lane.spans if span[5] is not None)
        result["engaged_ratio"] = engaged / len(lane.spans) if lane.spans else 0.0
        result["rounds"] = rounds
        result["ops"] = len(latencies)
        result["metrics"] = latency_metrics([s for _d, s in latencies])
        result["raw"] = latency_metrics([d for d, _s in latencies])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = hashlib.sha256(json.dumps([gate_answers, reference], sort_keys=True,
                                       default=str).encode()).hexdigest()
    result.update(attempted=tally.attempted, failed=tally.failed, digest=digest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
