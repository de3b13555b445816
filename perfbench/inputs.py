"""Seeded input generation for the treecut benchmark.

Everything here is plain Python data (ints, Fractions, tuples, strings) and
never imports treecut, so generating inputs costs the measured program
nothing.  The same seed always gives the same inputs.

Each workload is a fixed list of *slots*: a slot pins the tree size, shape,
budgets, variant switches and the kind of threshold, and the seed only
draws the fine structure (attachment points, weights, costs, potentials,
which vertices are forbidden).  Per-operation cost therefore hardly moves
from seed to seed, while every seed still tests new instances.

Besides the instances, this module computes the benchmark's own reference
facts, with code that shares nothing with treecut:

* ``witness_bound`` builds an explicit connected k-partition and returns
  its largest expansion X; a decision at threshold X must say yes.
* ``floor_bound`` is c_min / (2W).  With k >= 2 parts in a connected
  instance every part has a boundary edge, so its expansion is at least
  c_min / W; a decision there must say no.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from fractions import Fraction

SHAPES = ("recursive", "path", "star", "caterpillar")


# -- trees -------------------------------------------------------------------

def make_tree(rng: random.Random, n: int, shape: str, potentials: bool,
              id_base: int = 0) -> dict:
    """A weighted tree as plain data: ``vertices`` are ``(id, w, p)``,
    ``edges`` are ``(u, v, cost)``; ids run from ``id_base``.

    Paths are rooted at an end (deep and thin), stars at the centre (wide),
    random recursive trees at their first vertex (depth about log n), and
    caterpillars at one end of a spine holding half the vertices.
    """
    if shape == "recursive":
        parents = [rng.randrange(i) for i in range(1, n)]
    elif shape == "path":
        parents = list(range(n - 1))
    elif shape == "star":
        parents = [0] * (n - 1)
    elif shape == "caterpillar":
        spine = max(1, n // 2)
        parents = [i - 1 for i in range(1, spine)]
        parents += [rng.randrange(spine) for _ in range(spine, n)]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    vertices = [(id_base + i, rng.randint(1, 9),
                 rng.randint(0, 3) if potentials else 0) for i in range(n)]
    edges = [(id_base + p, id_base + i, rng.randint(1, 9))
             for i, p in enumerate(parents, start=1)]
    return {"vertices": vertices, "edges": edges, "root": id_base}


def _rooted(vertices, edges, root):
    """BFS order, parent and parent-edge cost, keyed by vertex id."""
    adj = {v[0]: [] for v in vertices}
    for u, v, c in edges:
        adj[u].append((v, c))
        adj[v].append((u, c))
    parent = {root: None}
    pcost = {root: 0}
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, c in adj[u]:
            if v not in parent:
                parent[v] = u
                pcost[v] = c
                order.append(v)
                queue.append(v)
    return order, parent, pcost


def witness_bound(tree: dict, parts: int, use_pot: bool) -> Fraction:
    """Largest expansion of an explicit connected ``parts``-partition.

    Cuts ``parts - 1`` parent edges: first greedily where the uncut weight
    below a vertex reaches W / parts, then (for wide trees, where no
    subtree is that heavy) the edges with the cheapest cost per weight.
    Removing m edges of a tree leaves m + 1 components, so any choice gives
    exactly ``parts`` nonempty connected parts and no residue.
    """
    vertices = tree["vertices"]
    order, parent, pcost = _rooted(vertices, tree["edges"], tree["root"])
    weight = {v: w for v, w, _p in vertices}
    pot = {v: p for v, _w, p in vertices}
    cut = _cut_vertices(weight, order, parent, pcost, parts)
    comp = {}
    for u in order:
        if parent[u] is None or u in cut:
            comp[u] = u
        else:
            comp[u] = comp[parent[u]]
    num = {c: 0 for c in set(comp.values())}
    den = {c: 0 for c in num}
    for u in order:
        den[comp[u]] += weight[u]
        if use_pot:
            num[comp[u]] += pot[u]
        if u in cut:
            num[comp[u]] += pcost[u]
            num[comp[parent[u]]] += pcost[u]
    return max(Fraction(num[c], den[c]) for c in num)


def _cut_vertices(weight, order, parent, pcost, parts) -> set:
    """``parts - 1`` non-root vertices whose parent edges to cut."""
    total = sum(weight[v] for v in order)
    remaining = {v: weight[v] for v in order}
    cut = set()
    for u in reversed(order):
        if parent[u] is None:
            continue
        if len(cut) < parts - 1 and remaining[u] * parts >= total:
            cut.add(u)
        else:
            remaining[parent[u]] += remaining[u]
    if len(cut) < parts - 1:
        # which edges is only a heuristic for a low X; any choice is valid
        spare = (v for v in order if parent[v] is not None and v not in cut)
        cut.update(heapq.nsmallest(parts - 1 - len(cut), spare,
                                   key=lambda v: (pcost[v] / weight[v], v)))
    return cut


def floor_bound(edges, vertices) -> Fraction:
    """A threshold below every achievable expansion when parts >= 2."""
    return Fraction(min(c for _u, _v, c in edges),
                    2 * sum(w for _v, w, _p in vertices))


# -- workloads ---------------------------------------------------------------
#
# A workload returns {"trees": [...], "ops": [...], "small": [...]}.  The
# ops form one *round*; the timed phase repeats whole rounds, so every run
# measures the same mix.  "small" holds the n <= 10 instances checked
# against the brute-force oracle before timing starts.


def _small_trees(rng: random.Random, count: int, potentials: bool = True):
    """n <= 10 trees of every shape; with ``potentials`` every other one
    carries vertex potentials."""
    return [make_tree(rng, rng.randint(3, 10), SHAPES[i % len(SHAPES)],
                      potentials=potentials and i % 2 == 1)
            for i in range(count)]


def _forbidden(rng: random.Random, tree: dict, count: int) -> tuple:
    ids = [v for v, _w, _p in tree["vertices"]]
    return tuple(sorted(rng.sample(ids, min(count, len(ids) - 1))))


# decide-large: (n, shape, [(parts, outliers, threshold kind)...], variant)
# Threshold kinds: "yes" = witness_bound (must be feasible), "no" =
# floor_bound (must be infeasible), "half"/"eighth" = witness_bound scaled
# down, answer unknown but monotone.  How many table cells are finite, and
# so what a decision costs, depends on the side of the boundary; the
# unknown kinds therefore appear only on the many 10^3-vertex trees, where
# the seed-to-seed differences average out.  10^5-vertex trees use (2, 0)
# only: at (5, 3) one such decision takes up to 8.5 s on the Python lane.
_DECIDE_BUDGETS = ((2, 0), (3, 2), (5, 3))
_DECIDE_KINDS = ("yes", "half", "eighth", "no")


def decide_large(seed: int) -> dict:
    rng = random.Random(seed)
    slots = []
    for shape in ("path", "star"):
        slots.append((100_000, shape, [(2, 0, "yes")], "plain"))
    slots.append((30_000, "recursive", [(2, 0, "yes")], "potentials"))
    for i, shape in enumerate(SHAPES):
        variant = ("plain", "potentials", "forbidden", "plain")[i]
        slots.append((10_000, shape,
                      [(p, l, kind) for (p, l), kind
                       in zip(_DECIDE_BUDGETS, ("yes", "yes", "no"))], variant))
    for i, shape in enumerate(SHAPES):
        variant = ("plain", "potentials", "forbidden", "potentials")[i]
        slots.append((1_000, shape,
                      [(p, l, kind) for p, l in _DECIDE_BUDGETS
                       for kind in _DECIDE_KINDS], variant))

    trees, ops = [], []
    for n, shape, queries, variant in slots:
        use_pot = variant == "potentials"
        tree = make_tree(rng, n, shape, use_pot)
        forb = _forbidden(rng, tree, max(2, n // 200)) if variant == "forbidden" else ()
        t = len(trees)
        trees.append(tree)
        floor = floor_bound(tree["edges"], tree["vertices"])
        bounds = {}
        for parts, outliers, kind in queries:
            if parts not in bounds:
                bounds[parts] = witness_bound(tree, parts, use_pot)
            x = bounds[parts]
            xi, expect = {"yes": (x, True), "half": (x / 2, None),
                          "eighth": (x / 8, None), "no": (floor, False)}[kind]
            ops.append({"kind": "decide", "tree": t, "parts": parts,
                        "outliers": outliers, "use_pot": use_pot,
                        "forbidden": forb, "xi": xi, "expect": expect})
    # interleave sizes so no stretch of the round is all large trees
    rng.shuffle(ops)

    small = []
    for tree in _small_trees(rng, 16):
        use_pot = any(p for _v, _w, p in tree["vertices"])
        forb = _forbidden(rng, tree, 1) if rng.random() < 0.3 else ()
        for parts, outliers in _DECIDE_BUDGETS:
            x = witness_bound(tree, min(parts, len(tree["vertices"])), use_pot)
            for xi in sorted({x, x / 2, Fraction(1, 3)}):
                small.append({"kind": "decide", "tree": tree, "parts": parts,
                              "outliers": outliers, "use_pot": use_pot,
                              "forbidden": forb, "xi": xi})
    return {"trees": trees, "ops": ops, "small": small}


# optimize-exact: (n, shape, parts, outliers, potentials) per slot.
def optimize_exact(seed: int) -> dict:
    rng = random.Random(seed)
    slots = []
    for shape in SHAPES:
        slots.append((200, shape, 3, 2, False))
        slots.append((200, shape, 3, 2, True))
    slots.append((500, "recursive", 3, 2, True))
    slots.append((500, "star", 2, 1, False))
    slots.append((500, "caterpillar", 4, 2, True))
    slots.append((1000, "recursive", 3, 2, True))
    slots.append((1000, "caterpillar", 3, 2, False))
    slots.append((2000, "path", 3, 2, True))

    trees, ops = [], []
    for n, shape, parts, outliers, use_pot in slots:
        tree = make_tree(rng, n, shape, use_pot)
        forb = _forbidden(rng, tree, 3) if len(trees) % 3 == 2 else ()
        ops.append({"kind": "min_xi", "tree": len(trees), "parts": parts,
                    "outliers": outliers, "use_pot": use_pot, "forbidden": forb,
                    "total_weight": sum(w for _v, w, _p in tree["vertices"])})
        trees.append(tree)
    rng.shuffle(ops)

    small = []
    for tree in _small_trees(rng, 32):
        use_pot = any(p for _v, _w, p in tree["vertices"])
        forb = _forbidden(rng, tree, 1) if rng.random() < 0.3 else ()
        for parts, outliers in ((2, 0), (3, 2), (4, 1)):
            small.append({"kind": "min_xi", "tree": tree, "parts": parts,
                          "outliers": outliers, "use_pot": use_pot,
                          "forbidden": forb})
    return {"trees": trees, "ops": ops, "small": small}


# kmax-wide: (n, shape, outliers) per slot; the threshold is the instance's
# average cost per weight, which leaves k_max near n/2.
def kmax_wide(seed: int) -> dict:
    rng = random.Random(seed)
    # two trees per slot: the costliest k_max calls vary most from tree to
    # tree, and a pair halves that variance
    slots = []
    for i, shape in enumerate(SHAPES):
        slots += [(50, shape, (5, 4, 3, 2)[i])] * 2
        slots += [(100, shape, (0, 1, 2, 3)[i])] * 2
        slots += [(150, shape, (2, 0, 1, 0)[i])] * 2
    trees, ops = [], []
    for n, shape, outliers in slots:
        tree = make_tree(rng, n, shape, False)
        xi = Fraction(sum(c for _u, _v, c in tree["edges"]),
                      sum(w for _v, w, _p in tree["vertices"]))
        ops.append({"kind": "k_max", "tree": len(trees), "xi": xi,
                    "outliers": outliers})
        trees.append(tree)
    rng.shuffle(ops)

    small = []
    for tree in _small_trees(rng, 24, potentials=False):
        total = Fraction(sum(c for _u, _v, c in tree["edges"]),
                         sum(w for _v, w, _p in tree["vertices"]))
        for outliers in (0, 2):
            for xi in (total / 2, 2 * total):
                small.append({"kind": "k_max", "tree": tree, "xi": xi,
                              "outliers": outliers})
    return {"trees": trees, "ops": ops, "small": small}


# -- pipeline-cli --------------------------------------------------------------

def _graph_with_cycles(rng: random.Random, n: int, extra: int) -> dict:
    """Connected similarity graph: a random recursive spanning tree plus
    ``extra`` chords.  Some costs are rational strings and some edges carry
    a distance override, so the CLI parses every rational form."""
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    seen = {frozenset(p) for p in pairs}
    while len(pairs) < n - 1 + extra:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            pairs.append((a, b))
    vertices = [(i, rng.randint(1, 5), 0) for i in range(n)]
    edges = []
    for a, b in pairs:
        r = rng.random()
        cost = Fraction(rng.randint(1, 18), 2) if r < 0.3 else Fraction(rng.randint(1, 9))
        dist = Fraction(rng.randint(1, 9), 10) if r > 0.9 else None
        edges.append((a, b, cost, dist))
    return {"vertices": vertices, "edges": edges}


def _forest(rng: random.Random, sizes, potentials: bool = False) -> dict:
    vertices, edges = [], []
    for i, size in enumerate(sizes):
        tree = make_tree(rng, size, SHAPES[i % len(SHAPES)], potentials,
                         id_base=len(vertices))
        vertices += tree["vertices"]
        edges += [(u, v, Fraction(c), None) for u, v, c in tree["edges"]]
    return {"vertices": vertices, "edges": edges}


def _semisup_graph(rng: random.Random, sizes, required: int, links: int) -> dict:
    """A forest plus ``required`` hub vertices, each joined to ``links``
    forest vertices.  Deleting the hubs leaves the forest, and the hubs make
    the graph connected with cycles through them."""
    g = _forest(rng, sizes)
    n = len(g["vertices"])
    roots, base = [], 0
    for size in sizes:
        roots.append(base)
        base += size
    hubs = list(range(n, n + required))
    for h in hubs:
        g["vertices"].append((h, rng.randint(1, 5), 0))
    for i, h in enumerate(hubs):
        targets = set(rng.sample(range(n), links))
        targets.update(roots[i::required])  # every component touches a hub
        for t in sorted(targets):
            g["edges"].append((h, t, Fraction(rng.randint(1, 9)), None))
    g["required"] = tuple(hubs)
    return g


def semisup_witness_bound(graph: dict, parts: int) -> Fraction:
    """Largest graph-side expansion of an explicit witness for the
    semi-supervised decision: the required hubs are the residue, and each
    remaining component is cut into parts as in :func:`witness_bound`
    (parts shared out by component size)."""
    hubs = set(graph["required"])
    forest_edges = [(u, v, int(c)) for u, v, c, _d in graph["edges"]
                    if u not in hubs and v not in hubs]
    verts = [v for v in graph["vertices"] if v[0] not in hubs]
    comps = _components(verts, forest_edges)
    share = [1] * len(comps)
    for i in sorted(range(len(comps)), key=lambda i: -len(comps[i]))[:parts - len(comps)]:
        share[i] += 1
    weight = {v: w for v, w, _p in graph["vertices"]}
    labels = {}
    for ci, members in enumerate(comps):
        ms = set(members)
        order, parent, pcost = _rooted([v for v in verts if v[0] in ms],
                                       [e for e in forest_edges if e[0] in ms],
                                       members[0])
        cuts = _cut_vertices(weight, order, parent, pcost, share[ci])
        for u in order:
            labels[u] = (ci, u) if parent[u] is None or u in cuts else labels[parent[u]]
    num, den = {}, {}
    for v, lab in labels.items():
        den[lab] = den.get(lab, 0) + weight[v]
        num.setdefault(lab, Fraction(0))
    for u, v, c, _d in graph["edges"]:
        lu, lv = labels.get(u), labels.get(v)
        if lu != lv:
            for lab in (lu, lv):
                if lab is not None:
                    num[lab] += c
    return max(num[lab] / den[lab] for lab in num)


def _components(vertices, edges):
    parent = {v[0]: v[0] for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _c in edges:
        parent[find(u)] = find(v)
    groups = {}
    for v, _w, _p in vertices:
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values(), key=min)


def pipeline_cli(seed: int) -> dict:
    """Graph files (written to disk by the caller) and the CLI calls over
    them.  Each op names a file and carries what the check needs."""
    rng = random.Random(seed)
    files = {}
    ops = []

    for n, fmt, parts, outliers in ((500, "json", 2, 0), (800, "json", 2, 1),
                                    (1000, "json", 3, 2), (700, "csv", 2, 0),
                                    (1000, "csv", 2, 0)):
        name = f"cluster-{n}-{fmt}"
        g = _graph_with_cycles(rng, n, n)
        if fmt == "csv":
            g["vertices"] = [(v, 1, 0) for v, _w, _p in g["vertices"]]
        files[name] = (fmt, g)
        ops.append({"kind": "cluster", "file": name, "parts": parts,
                    "outliers": outliers})

    for sizes, parts, outliers, kinds in (
            ((900, 750, 600, 450), 6, 5, ("yes", "quarter", "no")),
            ((1500, 1200, 900), 5, 4, ("yes", "quarter", "no")),
            ((1000, 800, 600), 4, 4, ("yes", "no"))):
        name = f"semisup-{sum(sizes)}"
        g = _semisup_graph(rng, sizes, required=3, links=6)
        files[name] = ("json", g)
        x = semisup_witness_bound(g, parts)
        floor = floor_bound([(u, v, c) for u, v, c, _d in g["edges"]],
                            g["vertices"])
        thresholds = {"yes": (x, True), "quarter": (x / 4, None), "no": (floor, False)}
        for xi, expect in (thresholds[k] for k in kinds):
            ops.append({"kind": "semisup", "file": name, "parts": parts,
                        "outliers": outliers, "xi": xi, "expect": expect})

    for comps in (500, 1000):
        name = f"forest-many-{comps}"
        files[name] = ("json", _forest(rng, [rng.randint(2, 4) for _ in range(comps)]))
        # each component needs a part or two outliers, so 3 parts and 2
        # outliers cannot cover hundreds of components: exit code 1
        ops.append({"kind": "optimize", "file": name, "parts": 3,
                    "outliers": 2, "expect_feasible": False})
    for sizes in ((150, 120, 90, 60), (200, 150, 100, 80, 50, 40)):
        name = f"forest-few-{len(sizes)}"
        files[name] = ("json", _forest(rng, sizes, potentials=True))
        ops.append({"kind": "optimize", "file": name, "parts": len(sizes) + 2,
                    "outliers": 2, "potentials": True, "expect_feasible": True})
    rng.shuffle(ops)

    small = []
    for i in range(10):
        n = rng.randint(4, 8)
        name = f"small-cluster-{i}"
        g = _graph_with_cycles(rng, n, 2)
        files[name] = ("csv" if i % 2 else "json", g)
        if i % 2:
            g["vertices"] = [(v, 1, 0) for v, _w, _p in g["vertices"]]
        small.append({"kind": "cluster", "file": name, "parts": 2 + i % 2,
                      "outliers": i % 3})
    for i in range(10):
        name = f"small-tree-{i}"
        t = make_tree(rng, rng.randint(3, 10), SHAPES[i % 4], potentials=i % 2 == 1)
        files[name] = ("json", {"vertices": t["vertices"],
                                "edges": [(u, v, Fraction(c), None) for u, v, c in t["edges"]]})
        small.append({"kind": "optimize", "file": name, "parts": 2 + i % 3,
                      "outliers": i % 3, "potentials": i % 2 == 1})
    for i in range(8):
        name = f"small-forest-{i}"
        files[name] = ("json", _forest(rng, [rng.randint(1, 4), rng.randint(2, 4)],
                                       potentials=i % 2 == 0))
        small.append({"kind": "optimize", "file": name, "parts": 2 + i % 2,
                      "outliers": i % 3, "potentials": i % 2 == 0})
    for i in range(10):
        name = f"small-semisup-{i}"
        # one hub over a single tree keeps the reduced instance a tree
        g = _semisup_graph(rng, [rng.randint(3, 8)], required=1, links=2)
        files[name] = ("json", g)
        x = semisup_witness_bound(g, 2)
        for xi in (x, x / 2, Fraction(1, 2), Fraction(2)):
            small.append({"kind": "semisup", "file": name, "parts": 2,
                          "outliers": 1 + i % 2, "xi": xi})
    return {"files": files, "ops": ops, "small": small}


WORKLOADS = {
    "decide-large": decide_large,
    "optimize-exact": optimize_exact,
    "kmax-wide": kmax_wide,
    "pipeline-cli": pipeline_cli,
}


# -- file formats --------------------------------------------------------------

def _rational_text(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def graph_json(graph: dict) -> dict:
    """The CLI's graph JSON schema (no root key, so it loads as a graph)."""
    vertices = []
    for v, w, p in graph["vertices"]:
        entry = {"id": v, "weight": _rational_text(w)}
        if p:
            entry["potential"] = _rational_text(p)
        vertices.append(entry)
    edges = []
    for u, v, c, d in graph["edges"]:
        entry = {"u": u, "v": v, "cost": _rational_text(c)}
        if d is not None:
            entry["distance"] = _rational_text(d)
        edges.append(entry)
    return {"vertices": vertices, "edges": edges}


def graph_csv(graph: dict) -> str:
    """Edge CSV with string ids; vertex weights are implicitly 1."""
    lines = ["u,v,cost,distance"]
    for u, v, c, d in graph["edges"]:
        lines.append(f"v{u},v{v},{_rational_text(c)},"
                     f"{'' if d is None else _rational_text(d)}")
    return "\n".join(lines) + "\n"
