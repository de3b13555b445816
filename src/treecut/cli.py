"""Command-line front end.

Four subcommands: ``decide`` answers one threshold query, ``optimize``
minimizes the threshold, ``kmax`` reports the largest feasible part count,
and ``cluster`` runs the whole pipeline (similarity graph -> spanning tree
-> optimize).  Results are JSON on stdout; rationals are always exact
``"p/q"`` strings.  Exit codes: 0 feasible, 1 infeasible, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InvalidInput, TreecutError
from .graphs import (
    WeightedGraph,
    forest_from_graph,
    load_instance,
    similarity_spanning_tree,
    tree_as_graph,
)
from .search import Forest, decide_semisupervised, k_max, min_xi
from .solver import ProblemSpec, solve
from .tree import RootedTree
from .values import format_rational, format_scaled, parse_rational
from .witness import reconstruct_subpartition, sorted_ids

_PART_COLORS = (
    "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854",
    "#ffd92f", "#e5c494", "#b3b3b3",
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _rational(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecut",
        description="Exact connected multi-way sparsest cut on weighted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_xi=False, with_parts=False, with_mode=False):
        p.add_argument("--input", required=True, help="tree/graph JSON or edge CSV")
        if with_xi:
            p.add_argument("--xi", required=True, type=_rational,
                           help="expansion threshold (rational, e.g. 1/3 or 0.25)")
        if with_parts:
            p.add_argument("--parts", required=True, type=int, help="number of parts")
        p.add_argument("--outliers", required=True, type=_positive_int,
                       help="maximum number of uncovered vertices")
        if with_mode:
            p.add_argument("--mode", choices=("exact", "tol"), default="exact")
            p.add_argument("--tol", type=_rational, default=None,
                           help="interval width for --mode tol")
        p.add_argument("--potentials", action="store_true",
                       help="add vertex potentials to cut numerators")
        p.add_argument("--forbid", action="append", default=[],
                       help="comma-separated vertex ids that must be covered")

    p = sub.add_parser("decide", help="answer one threshold query")
    common(p, with_xi=True, with_parts=True)
    p.add_argument("--require-outlier", action="append", default=[],
                   help="comma-separated vertex ids that must be uncovered")

    p = sub.add_parser("optimize", help="minimize the expansion threshold")
    common(p, with_parts=True, with_mode=True)

    p = sub.add_parser("kmax", help="largest feasible part count")
    common(p, with_xi=True)

    p = sub.add_parser("cluster", help="spanning tree + optimize on a similarity graph")
    common(p, with_parts=True, with_mode=True)
    p.add_argument("--emit-dot", metavar="PATH", default=None,
                   help="write a DOT rendering of parts and residue")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built once per process: parsing leaves
    it unchanged, and every list an option appends to is the parse's
    own."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a handler replaced after the parser was built
    # still runs
    handler = {"decide": _cmd_decide, "optimize": _cmd_optimize, "kmax": _cmd_kmax,
               "cluster": _cmd_cluster}[args.command]
    try:
        return handler(args)
    except TreecutError as exc:
        print(f"treecut: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"treecut: {exc}", file=sys.stderr)
        return 2


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _split_ids(raw_lists) -> list:
    tokens = []
    for chunk in raw_lists:
        tokens.extend(t.strip() for t in chunk.split(",") if t.strip())
    return tokens


def _resolve_ids(tokens, known_ids):
    """Map CLI tokens onto instance ids (tries verbatim, then int)."""
    known = set(known_ids)
    out = []
    for tok in tokens:
        if tok in known:
            out.append(tok)
            continue
        try:
            as_int = int(tok)
        except ValueError:
            as_int = None
        if as_int is not None and as_int in known:
            out.append(as_int)
        else:
            raise InvalidInput(f"vertex {tok!r} is not in the instance")
    return out


def _cmd_decide(args) -> int:
    instance = load_instance(args.input)
    ids = instance.vertex_ids()
    forbid = frozenset(_resolve_ids(_split_ids(args.forbid), ids))
    require = _resolve_ids(_split_ids(args.require_outlier), ids)

    if require or isinstance(instance, WeightedGraph):
        graph = instance if isinstance(instance, WeightedGraph) else tree_as_graph(instance)
        feasible, witness = decide_semisupervised(
            graph, frozenset(require), forbid, args.xi, args.parts,
            args.outliers, use_potentials=args.potentials)
    else:
        spec = ProblemSpec(args.xi, args.parts, args.outliers,
                           args.potentials, forbid)
        tables = solve(instance, spec)
        feasible = tables.feasible
        witness = (reconstruct_subpartition(instance, spec, tables)
                   if feasible else None)

    payload = {"feasible": feasible}
    if witness is not None:
        payload["witness"] = witness.to_json()
    _emit(payload)
    return 0 if feasible else 1


def _as_solver_instance(instance):
    """Trees pass through; graphs must already be forests."""
    if isinstance(instance, RootedTree):
        return instance
    forest = forest_from_graph(instance)
    return forest.trees[0] if len(forest.trees) == 1 else forest


def _cmd_optimize(args) -> int:
    instance = _as_solver_instance(load_instance(args.input))
    ids = (instance.vertex_ids() if isinstance(instance, RootedTree)
           else tuple(v for t in instance.trees for v in t.vertex_ids()))
    forbid = frozenset(_resolve_ids(_split_ids(args.forbid), ids))
    result = min_xi(instance, args.parts, args.outliers, mode=args.mode,
                    tol=args.tol, use_potentials=args.potentials,
                    forbidden_outliers=forbid)
    payload = {
        "xi_star": format_rational(result.xi_star) if result.feasible else None,
        "witness": result.witness.to_json() if result.witness else None,
        "probes": result.probes,
        "mode": result.mode,
    }
    _emit(payload)
    return 0 if result.feasible else 1


def _cmd_kmax(args) -> int:
    instance = load_instance(args.input)
    if not isinstance(instance, RootedTree):
        raise InvalidInput("kmax needs a rooted tree input (JSON with a root)")
    forbid = frozenset(_resolve_ids(_split_ids(args.forbid), instance.vertex_ids()))
    value = k_max(instance, args.xi, args.outliers,
                  use_potentials=args.potentials, forbidden_outliers=forbid)
    _emit({"k_max": value})
    return 0


def _cmd_cluster(args) -> int:
    loaded = load_instance(args.input)
    if isinstance(loaded, RootedTree):
        backbone = loaded
    else:
        backbone = similarity_spanning_tree(loaded)
    trees = backbone.trees if isinstance(backbone, Forest) else (backbone,)

    ids = tuple(v for t in trees for v in t.vertex_ids())
    forbid = frozenset(_resolve_ids(_split_ids(args.forbid), ids))
    result = min_xi(backbone, args.parts, args.outliers, mode=args.mode,
                    tol=args.tol, use_potentials=args.potentials,
                    forbidden_outliers=forbid)

    edges = []
    for tree in trees:
        for u in tree._bfs_order():
            for c in tree.children_idx[u]:
                edges.append({
                    "u": tree.ids[u],
                    "v": tree.ids[c],
                    "cost": format_scaled(tree.cost_scaled[c], tree.scale),
                })
    payload = {
        "spanning_tree": {"components": len(trees), "edges": edges},
        "xi_star": format_rational(result.xi_star) if result.feasible else None,
        "witness": result.witness.to_json() if result.witness else None,
        "probes": result.probes,
        "mode": result.mode,
    }
    _emit(payload)

    if args.emit_dot:
        with open(args.emit_dot, "w") as fh:
            fh.write(render_dot(trees, result.witness))
    return 0 if result.feasible else 1


def _dot_id(vertex) -> str:
    text = str(vertex).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def render_dot(trees, witness) -> str:
    """DOT rendering of the spanning tree: parts share a fill color,
    residue vertices are dashed diamonds."""
    lines = ["graph treecut {", "  node [style=filled, fillcolor=white];"]
    if witness is not None:
        for i, part in enumerate(witness.parts):
            color = _PART_COLORS[i % len(_PART_COLORS)]
            for v in sorted_ids(part):
                lines.append(f"  {_dot_id(v)} [fillcolor=\"{color}\"];")
        for v in sorted_ids(witness.residue):
            lines.append(f"  {_dot_id(v)} [shape=diamond, style=\"dashed,filled\"];")
    for tree in trees:
        for u in tree._bfs_order():
            for c in tree.children_idx[u]:
                cost = format_scaled(tree.cost_scaled[c], tree.scale)
                lines.append(
                    f"  {_dot_id(tree.ids[u])} -- {_dot_id(tree.ids[c])}"
                    f" [label=\"{cost}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
