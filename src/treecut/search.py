"""Drivers above the decision DP: exact threshold minimization, maximum
part count, forests, and the semi-supervised reduction.

Exact minimization never enumerates candidate ratios.  Every achievable
maximum expansion is a fraction whose reduced denominator is at most the
scaled total vertex weight W, and two such fractions differ by at least
1/W^2.  The search opens at an achievable threshold: the largest expansion
of one explicit partition with no residue (see ``_opening_bound``), so a
``no`` there can only mean a broken DP.  If the Farey predecessor of that
threshold is infeasible, the threshold is the optimum and no bisection
runs.  Otherwise the predecessor becomes the upper end, and bisecting the
decision procedure down to an interval shorter than 1/W^2 and rounding
the midpoint with a continued-fraction (Stern-Brocot) step recovers the
optimum exactly; one verification probe at the result and one at its
Farey predecessor guard against bugs.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidInput,
    LambdaTooSmall,
    MonotonicityViolation,
    NotForestAfterDeletion,
    PrecollisionError,
    UnknownVertexId,
)
from .solver import ProblemSpec, decide, root_feasibility, solve
from .tree import RootedTree, build_rooted_tree
from .values import parse_rational
from .witness import Subpartition, _collect, make_subpartition, reconstruct_subpartition, sorted_ids


@dataclass(frozen=True)
class Forest:
    """Disjoint rooted trees treated as one instance; vertex id spaces must
    not overlap."""

    trees: tuple

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        seen = set()
        for t in self.trees:
            ids = set(t.ids)
            if seen & ids:
                raise InvalidInput("forest trees share vertex ids")
            seen |= ids

    @property
    def vertex_count(self) -> int:
        return sum(t.vertex_count for t in self.trees)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of threshold minimization.  ``xi_star`` is None when no
    subpartition satisfies the combinatorial constraints at any threshold."""

    xi_star: Fraction | None
    witness: Subpartition | None
    probes: int
    mode: str
    tol: Fraction | None = None

    @property
    def feasible(self) -> bool:
        return self.xi_star is not None


def _farey_predecessor(x: Fraction, limit: int) -> Fraction | None:
    """Largest fraction with denominator <= limit strictly below x > 0.

    ``x`` itself must have a reduced denominator of at most ``limit``.
    """
    a, b = x.numerator, x.denominator
    if b > limit:
        raise InvalidInput(f"{x} has a denominator above the limit {limit}")
    if a <= 0:
        return None
    if b == 1:
        return Fraction(a * limit - 1, limit)
    q0 = pow(a, -1, b)
    q = q0 + ((limit - q0) // b) * b
    return Fraction((a * q - 1) // b, q)


class _Prober:
    """Memoized decision probe with a monotonicity tripwire: a ``yes`` above
    a ``no`` would mean the DP is broken, so the search aborts loudly rather
    than return garbage."""

    def __init__(self, fn):
        self.fn = fn
        self.cache = {}
        self.calls = 0
        self.max_no = None
        self.min_yes = None

    def __call__(self, xi: Fraction) -> bool:
        if xi in self.cache:
            return self.cache[xi]
        ans = self.fn(xi)
        self.calls += 1
        self.cache[xi] = ans
        if ans:
            if self.min_yes is None or xi < self.min_yes:
                self.min_yes = xi
        else:
            if self.max_no is None or xi > self.max_no:
                self.max_no = xi
        if (self.min_yes is not None and self.max_no is not None
                and self.min_yes < self.max_no):
            raise MonotonicityViolation(
                f"decision said yes at {self.min_yes} but no at {self.max_no}")
        return ans


def _instance_trees(instance):
    return instance.trees if isinstance(instance, Forest) else (instance,)


def _balanced_partition(tree: RootedTree, parts: int, use_potentials: bool):
    """An explicit partition of the whole tree into ``1 <= parts <= n``
    connected parts, with no residue.

    Walking children before parents, a vertex's parent edge is cut once the
    uncut weight below it reaches W/parts.  That cuts at most ``parts - 1``
    edges, since every piece cut off weighs at least W/parts and the root's
    piece is not empty; any cuts still missing go to the edges of least
    cost per subtree weight.  Any ``parts - 1`` distinct edges leave
    exactly ``parts`` pieces, so the result satisfies every outlier budget
    and forbidden set.
    """
    parent = tree.parent_idx
    w_sub = tree.subtree_weight_scaled
    total = w_sub[tree.root]
    need = parts - 1
    below = list(tree.weight_scaled)
    is_cut = [False] * tree.vertex_count
    cuts = 0
    for u in tree.order_idx:  # children precede parents
        p = parent[u]
        if p < 0:
            continue
        if below[u] * parts >= total:
            is_cut[u] = True
            cuts += 1
        else:
            below[p] += below[u]
    if cuts < need:
        c_s = tree.cost_scaled
        rest = sorted((v for v in range(tree.vertex_count)
                       if parent[v] >= 0 and not is_cut[v]),
                      key=lambda v: Fraction(c_s[v], w_sub[v]))
        for v in rest[:need - cuts]:
            is_cut[v] = True

    head = [0] * tree.vertex_count
    groups = {}
    for u in reversed(tree.order_idx):  # parents precede children
        h = u if parent[u] < 0 or is_cut[u] else head[parent[u]]
        head[u] = h
        groups.setdefault(h, []).append(tree.ids[u])
    return make_subpartition(tree, groups.values(), frozenset(), use_potentials)


def _opening_bound(trees, parts: int, use_potentials: bool):
    """Threshold at which the search opens, and whether it is achievable.

    With at least one part per tree, each tree gets one part and the extra
    parts go, one at a time, to the tree with the most weight per part; the
    bound is the largest expansion of the resulting explicit partition, so
    the decision must say yes there.  With fewer parts than trees the bound
    is total cost (plus potential) over the least vertex weight, which is
    feasible whenever anything is.
    """
    if parts < len(trees):
        cost_total = sum((t.total_edge_cost() for t in trees), Fraction(0))
        if use_potentials:
            cost_total += sum((t.total_potential() for t in trees), Fraction(0))
        return cost_total / min(t.min_weight() for t in trees), False
    share = [1] * len(trees)
    heap = [(-t.total_weight(), i) for i, t in enumerate(trees)
            if t.vertex_count > 1]
    heapq.heapify(heap)
    for _ in range(parts - len(trees)):
        _, i = heapq.heappop(heap)
        share[i] += 1
        if share[i] < trees[i].vertex_count:
            heapq.heappush(heap, (-trees[i].total_weight() / share[i], i))
    return max(_balanced_partition(t, k, use_potentials).max_expansion
               for t, k in zip(trees, share)), True


def min_xi(instance, parts: int, outliers: int, mode: str = "exact",
           tol=None, use_potentials: bool = False,
           forbidden_outliers=frozenset(), threads: int = 1) -> OptimizationResult:
    """Minimize the expansion threshold for a tree or forest.

    Both modes open at the largest expansion of an explicit partition
    whenever there are at least as many parts as trees (with fewer, at
    total cost over the least vertex weight).  Exact mode returns the true
    minimum as a reduced fraction: it first probes the Farey predecessor
    of the opening bound, which settles the search when it is infeasible,
    and otherwise bisects below it.  Tolerance mode bisects until the
    bracketing interval is no longer than ``tol`` and returns its feasible
    upper end.  The witness attains the returned threshold.

    Raises :class:`MonotonicityViolation` when the decisions contradict
    each other or the explicit partition's threshold.
    """
    if mode not in ("exact", "tol"):
        raise InvalidInput(f"mode must be 'exact' or 'tol', got {mode!r}")
    if mode == "tol":
        if tol is None:
            raise InvalidInput("tolerance mode needs tol")
        tol = parse_rational(tol)
        if tol <= 0:
            raise InvalidInput(f"tol must be positive, got {tol}")

    trees = _instance_trees(instance)
    n_total = sum(t.vertex_count for t in trees)

    def raw_decide(xi: Fraction) -> bool:
        spec = ProblemSpec(xi, parts, outliers, use_potentials, forbidden_outliers)
        if isinstance(instance, Forest):
            ans, _ = decide_forest(instance, spec, want_witness=False, threads=threads)
            return ans
        return decide(instance, spec)

    probe = _Prober(raw_decide)

    if parts > n_total:
        return OptimizationResult(None, None, probe.calls, mode, tol)

    hi, achievable = _opening_bound(trees, parts, use_potentials)
    if not probe(hi):
        if achievable:
            raise MonotonicityViolation(
                f"decision said no at {hi}, the expansion of an explicit partition")
        return OptimizationResult(None, None, probe.calls, mode, tol)

    zero = Fraction(0)
    if probe(zero):
        xi_star = zero
    elif mode == "tol":
        lo = zero
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if probe(mid):
                hi = mid
            else:
                lo = mid
        xi_star = hi
    else:
        denom_limit = max(t.subtree_weight_scaled[t.root] for t in trees)
        lo = zero
        prev = _farey_predecessor(hi, denom_limit) if achievable else None
        if prev is not None and not probe(prev):
            # nothing achievable lies strictly between prev and hi
            lo, xi_star = prev, hi
        else:
            if prev is not None:
                hi = prev
            gap = Fraction(1, denom_limit * denom_limit)
            while hi - lo >= gap:
                mid = (lo + hi) / 2
                if probe(mid):
                    hi = mid
                else:
                    lo = mid
            xi_star = ((lo + hi) / 2).limit_denominator(denom_limit)
        if not (lo < xi_star <= hi) or not probe(xi_star):
            raise MonotonicityViolation(
                f"recovered threshold {xi_star} failed verification")
        prev = _farey_predecessor(xi_star, denom_limit)
        if prev is not None and prev >= 0 and probe(prev):
            raise MonotonicityViolation(
                f"predecessor {prev} of {xi_star} is feasible; optimum is wrong")

    spec_star = ProblemSpec(xi_star, parts, outliers, use_potentials,
                            forbidden_outliers)
    if isinstance(instance, Forest):
        _, witness = decide_forest(instance, spec_star, want_witness=True,
                                   threads=threads)
    else:
        witness = reconstruct_subpartition(instance, spec_star,
                                           solve(instance, spec_star))
    return OptimizationResult(xi_star, witness, probe.calls, mode, tol)


def k_max(tree: RootedTree, xi, outliers: int, use_potentials: bool = False,
          forbidden_outliers=frozenset()) -> int:
    """Largest part count for which the decision problem is feasible at
    threshold ``xi`` and the given outlier budget; 0 if none.

    One DP run with the part budget set to n contains every smaller count.
    Feasibility is not monotone in the part count (dropping a part pushes
    its vertices into the residue), so the whole row is scanned.
    """
    n = tree.vertex_count
    spec = ProblemSpec(parse_rational(xi), n, outliers, use_potentials,
                       forbidden_outliers)
    row = root_feasibility(tree, spec)
    lam = min(outliers, n)
    for k in range(n, 0, -1):
        if row[k][lam]:
            return k
    return 0


def _tree_spec(spec: ProblemSpec, tree: RootedTree) -> ProblemSpec:
    # splitting parts/budget across trees routinely exceeds one tree's size;
    # clamp up front so per-tree solves don't warn about it
    forb = frozenset(v for v in spec.forbidden_outliers if v in tree.index)
    return ProblemSpec(spec.xi, min(spec.parts, tree.vertex_count),
                       min(spec.outliers, tree.vertex_count),
                       spec.use_potentials, forb)


def _map_trees(fn, trees, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, trees))
    return [fn(t) for t in trees]


def decide_forest(forest: Forest, spec: ProblemSpec, want_witness: bool = True,
                  threads: int = 1):
    """Decide the problem on a forest by folding per-tree feasibility grids:
    parts and outlier budget are split across trees, with no extra charge at
    tree boundaries.  Returns ``(feasible, witness_or_None)``."""
    trees = forest.trees
    n_total = forest.vertex_count
    if not trees or spec.parts > n_total:
        return False, None

    rows = _map_trees(lambda t: root_feasibility(t, _tree_spec(spec, t)),
                      trees, threads)

    kappa = min(spec.parts, n_total)
    lam = min(spec.outliers, n_total)

    def mu_of(i: int, k: int, l: int) -> int:
        ni = trees[i].vertex_count
        if k > ni:
            return 0
        return rows[i][k][min(l, ni, spec.outliers)]

    combined = [[mu_of(0, k, l) for l in range(lam + 1)] for k in range(kappa + 1)]
    back = []
    for i in range(1, len(trees)):
        nxt = [[0] * (lam + 1) for _ in range(kappa + 1)]
        ptr = [[None] * (lam + 1) for _ in range(kappa + 1)]
        for k in range(kappa + 1):
            for l in range(lam + 1):
                hit = None
                for kp in range(k + 1):
                    row = combined[kp]
                    for lp in range(l + 1):
                        if row[lp] and mu_of(i, k - kp, l - lp):
                            hit = (kp, lp)
                            break
                    if hit:
                        break
                if hit:
                    nxt[k][l] = 1
                    ptr[k][l] = hit
        combined = nxt
        back.append(ptr)

    feasible = bool(combined[kappa][lam])
    if not feasible or not want_witness:
        return feasible, None

    # the witness needs every tree's choice records, so only now
    tabs = _map_trees(lambda t: solve(t, _tree_spec(spec, t)), trees, threads)

    budgets = [None] * len(trees)
    ck, cl = kappa, lam
    for i in range(len(trees) - 1, 0, -1):
        kp, lp = back[i - 1][ck][cl]
        budgets[i] = (ck - kp, cl - lp)
        ck, cl = kp, lp
    budgets[0] = (ck, cl)

    all_parts = []
    all_residue = set()
    expansions = []
    for i, tree in enumerate(trees):
        ki, li = budgets[i]
        li = min(li, tree.vertex_count, spec.outliers)
        parts_idx, residue_idx = _collect(tabs[i], ki, li)
        for p in parts_idx:
            part = frozenset(tree.ids[j] for j in p)
            all_parts.append(part)
            sub = make_subpartition(tree, [part], frozenset(), spec.use_potentials)
            expansions.append(sub.per_part_expansion[0])
        all_residue |= {tree.ids[j] for j in residue_idx}

    witness = Subpartition(tuple(all_parts), frozenset(all_residue),
                           tuple(expansions), max(expansions))
    return True, witness


def decide_semisupervised(graph, required_outliers, forbidden_outliers, xi,
                          parts: int, outliers: int, want_witness: bool = True,
                          threads: int = 1):
    """Decide the problem on a general graph where ``required_outliers``
    must be uncovered and ``forbidden_outliers`` must be covered.

    Deleting the required set must leave a forest.  Each deleted vertex
    spends one unit of the outlier budget; its incident edge costs turn
    into potentials on the surviving endpoints, so expansions computed on
    the forest equal expansions on the original graph.  The returned
    witness lives on the original graph.
    """
    xi = parse_rational(xi)
    known = set(graph.vertex_ids())
    s1 = frozenset(required_outliers)
    s2 = frozenset(forbidden_outliers)
    for v in s1 | s2:
        if v not in known:
            raise UnknownVertexId(f"constraint vertex {v!r} is not in the graph")
    if s1 & s2:
        raise PrecollisionError(
            f"vertices {sorted_ids(s1 & s2)} are both required and forbidden outliers")
    if outliers < len(s1):
        raise LambdaTooSmall(
            f"outlier budget {outliers} cannot cover {len(s1)} required outliers")

    survivors = [v for v in graph.vertex_ids() if v not in s1]
    if not survivors:
        return False, None

    extra_potential = {v: Fraction(0) for v in survivors}
    forest_edges = []
    for u, v, cost, _dist in graph.edge_records():
        if u in s1 and v in s1:
            continue
        if u in s1:
            extra_potential[v] += cost
        elif v in s1:
            extra_potential[u] += cost
        else:
            forest_edges.append((u, v, cost))

    comp = {v: v for v in survivors}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v, _cost in forest_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise NotForestAfterDeletion(
                f"cycle through {u!r}-{v!r} survives the deletion")
        comp[ru] = rv

    groups = {}
    for v in survivors:
        groups.setdefault(find(v), []).append(v)
    components = sorted(groups.values(), key=lambda g: str(sorted_ids(g)[0]))

    # one pass over the edges, each to its component, in input order
    comp_edges = {}
    for u, v, c in forest_edges:
        comp_edges.setdefault(find(u), []).append((u, v, c))

    trees = []
    for members in components:
        vertices = [(v, graph.weight(v), graph.potential(v) + extra_potential[v])
                    for v in members]
        edges = comp_edges.get(find(members[0]), [])
        root = _component_root(members, graph)
        trees.append(build_rooted_tree(vertices, edges, root))

    spec = ProblemSpec(xi, parts, outliers - len(s1), use_potentials=True,
                       forbidden_outliers=s2)
    feasible, wit = decide_forest(Forest(tuple(trees)), spec,
                                  want_witness=want_witness, threads=threads)
    if not feasible or wit is None:
        return feasible, None

    use_graph_pot = graph.has_potentials()
    expansions = tuple(graph.expansion(p, use_potentials=use_graph_pot)
                       for p in wit.parts)
    witness = Subpartition(wit.parts, frozenset(wit.residue | s1),
                           expansions, max(expansions))
    return True, witness


def _component_root(members, graph):
    """Deterministic root: maximum weight, ties to the smallest id."""
    ordered = sorted_ids(members)
    best = ordered[0]
    for v in ordered[1:]:
        if graph.weight(v) > graph.weight(best):
            best = v
    return best
