"""Decision procedure for connected multi-way sparsest cut on rooted trees.

Two dynamic programs run bottom-up over the tree.  For a vertex ``u`` and
budgets ``(k, l)``:

* ``gamma[u][k][l]`` is the cheapest total cut charge over subpartitions of
  the subtree below ``u`` that keep ``u`` in the first part, use ``k`` parts,
  leave at most ``l`` vertices uncovered, and make every part other than the
  first meet the expansion threshold.  The charge of cutting the edge above
  vertex ``v`` is ``xi * subtree_weight(v) + cost(v)`` (minus the subtree
  potential when potentials are enabled).
* ``mu[u][k][l]`` says whether the subtree below ``u`` admits a connected
  ``k``-subpartition with every expansion within ``xi`` and at most ``l``
  uncovered vertices.  It holds either because ``gamma[u][k][l]`` passes the
  threshold test (``u`` is covered) or because ``u`` itself goes uncovered
  and the children's subtrees combine with one unit of the budget spent on
  ``u``.

All arithmetic is exact: values are integers in units of
``1 / (tree.scale * xi.denominator)``.  Infinity marks infeasible cells.

The residue-combination step charges the uncovered root exactly one unit of
budget in total; combining children never spends budget by itself.  A
per-combination-step decrement would over-charge vertices with three or
more children and is rejected by the brute-force oracle (see the erratum
regression in the acceptance suite).

A decision query answers with the root's least budgets: per part count,
the smallest outlier budget that makes it feasible (``_root_least``).
``decide`` and ``k_max`` read them directly; ``root_feasibility`` alone
expands them into a 0/1 grid.  A forest is decided as one tree, its
``tree.ForestLayout``: there the root is virtual, never tops a part and
spends no outlier unit, and every sweep folds only the trees' least
budgets at it, a (min,+) product over the part count with no cut-charge
table.  The least budgets come from one of two sweeps (``decide_batch``
batches the numpy one):

* the numpy int64 chain sweep of ``treecut._fastlane``, one batch of
  array operations per heavy-path round, row by row or step by step up
  its paths;
* this module's least-budget sweep (``_least_budgets``), one vertex at a
  time on Python ints: only where the numpy sweep does not engage, for
  values over the int64 bound or tables over the kernel's memory gate.

The int64 kernel engages only when a conservative bound proves
64-bit arithmetic cannot overflow.  Witnesses come from the Python sweep:
``solve`` runs it keeping every vertex's tables and partial folds, and
``treecut.witness`` replays one witness top down from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidInput, RootHasNoParentEdge, UnknownVertexId
from .tree import RootedTree, part_cap
from .values import ScaledValue, parse_rational


@dataclass(frozen=True)
class ProblemSpec:
    """One decision instance: threshold, part count, outlier budget and
    variant switches.

    ``forbidden_outliers`` lists vertex ids that must not end up uncovered;
    ``use_potentials`` adds per-vertex potentials to cut numerators.
    """

    xi: Fraction
    parts: int
    outliers: int
    use_potentials: bool = False
    forbidden_outliers: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "xi", parse_rational(self.xi))
        object.__setattr__(self, "forbidden_outliers",
                           frozenset(self.forbidden_outliers))
        if self.parts < 1:
            raise InvalidInput(f"need at least one part, got {self.parts}")
        if self.outliers < 0:
            raise InvalidInput(f"outlier budget must be >= 0, got {self.outliers}")
        if self.xi < 0:
            raise InvalidInput(f"threshold must be >= 0, got {self.xi}")

    def with_xi(self, xi) -> "ProblemSpec":
        return ProblemSpec(xi, self.parts, self.outliers,
                           self.use_potentials, self.forbidden_outliers)


# -- the least-budget sweep -------------------------------------------------
#
# The DP in the small state of the numpy sweep (see ``treecut._fastlane``):
#
# * mu is monotone in the outlier budget, so a vertex keeps only the least
#   sufficient budget per part count (``lam + 1`` when no budget in range
#   suffices), and combining the children's mu is a (min,+) product over
#   the part count alone;
# * a subtree of s vertices holds at most s parts, so its cut-charge table
#   keeps ``min(kappa, s)`` rows (row i holds i + 1 parts), the
#   tree-knapsack bound on the merge work; below a virtual root, ``kappa``
#   gives way to the most parts a tree holds in a feasible split
#   (``tree.part_cap``), and rows up to that read only rows up to it;
# * a decision drops a vertex's tables once its parent has read them;
#   ``solve`` keeps them, with the partial folds over each vertex's
#   children, for the witness replay.
#
# Cut-charge tables are flat row-major lists of Python ints, exact at any
# size.  An infeasible cell holds ``inf`` or more plus charges, still
# above every finite value and every threshold, so no cell needs a test
# for infinity.  The (min,+) products run from index plans built once per
# table shape and call.


class WitnessTables:
    """The tables ``solve`` keeps of the least-budget sweep, from which
    ``treecut.witness`` replays a witness without rerunning any fold.

    Per vertex ``u``: ``G[u]``, its flat cut-charge table with ``lam + 1``
    columns (row i holds i + 1 parts, u's own among them); ``M[u]``, its
    least budgets by part count; and, when u has children ``c0, c1, ...``,
    ``folds[u][i - 1] = (Y, U, X)`` for each ``i >= 1``: the cut-charge
    table and least budgets of the children before ``ci`` folded together,
    and ``ci``'s table as a child of u (row i holds i + 1 parts, u's
    among them, whether ci joins u's part or its edge is cut).  A virtual
    root keeps no cut-charge table, and ``folds[root][i - 1]`` holds only
    the least budgets of the trees before tree i folded together.
    ``eps`` is each parent edge's cut charge, ``thr`` each vertex's
    threshold test.
    ``feasible`` answers the decision problem at the spec's budgets.
    """

    def __init__(self, tree: RootedTree, spec: ProblemSpec):
        self.tree = tree
        self.spec = spec
        self.lam = min(spec.outliers, tree.vertex_count)

    @property
    def feasible(self) -> bool:
        if self.spec.parts > self.tree.vertex_count:
            return False
        return self.M[self.tree.root][self.spec.parts] <= self.lam


def _min_plus_plan(ny: int, nx: int, rows: int, cols: int) -> list:
    """Flat index pairs ``(p, q)`` of ``out[c][l] = min Y[i][j] + X[c-i][l-j]``
    over ``ny`` and ``nx`` rows of ``cols`` columns, one list per output
    cell ``(c, l)`` with ``c < rows``, in row-major order."""
    return [[(i * cols + j, (c - i) * cols + l - j)
             for i in range(max(0, c - nx + 1), min(c + 1, ny))
             for j in range(l + 1)]
            for c in range(rows) for l in range(cols)]


def _least_budgets(tree: RootedTree, spec: ProblemSpec,
                   keep: WitnessTables | None = None) -> list:
    """Least outlier budget at the root per part count: ``out[k]`` for
    ``k <= kappa`` is the smallest ``l <= lam`` with ``mu[root][k][l]``, or
    ``lam + 1`` when there is none (``kappa`` and ``lam`` clamped to the
    vertex count).  With ``keep``, every vertex's tables and partial folds
    are stored there instead of being dropped.  A virtual root only folds
    its children's least budgets, whose rows stop at ``tree.part_cap``."""
    n = tree.vertex_count
    for v in spec.forbidden_outliers:
        if v not in tree.index:
            raise UnknownVertexId(f"forbidden outlier {v!r} is not in the tree")
    forb = {tree.index[v] for v in spec.forbidden_outliers}
    kappa = min(spec.parts, n)
    lam = min(spec.outliers, n)
    lp1 = none = lam + 1
    a, b = spec.xi.numerator, spec.xi.denominator
    w_sub = tree.subtree_weight_scaled
    c_s = tree.cost_scaled
    size = tree.subtree_size
    children = tree.children_idx
    root = tree.root
    cap = kappa
    if tree.virtual_root:
        # 1 where nothing is feasible: the root's entries are none anyway;
        # the trees' rows add up to kappa or more, so the root keeps
        # kappa + 1 entries
        cap = max(1, part_cap([size[v] for v in children[root]], kappa, lam))
    # the charge of cutting each parent edge, and the threshold test of a
    # part topped at each vertex (a leaf passes it iff thr >= 0)
    if spec.use_potentials:
        eps = [a * w + b * (c - p)
               for w, c, p in zip(w_sub, c_s, tree.subtree_potential_scaled)]
    else:
        eps = [a * w + b * c for w, c in zip(w_sub, c_s)]
    thr = [e - 2 * b * c for e, c in zip(eps, c_s)]
    # a cell sums the charges of cut vertices none of which lies below
    # another, so a finite cell lies in [-b * P, a * W + b * C] and a
    # threshold is at most a * W: over W, C, P, totals of weight, cost
    # and potential, a cell holding inf stays above both
    c_total, p_total = tree.scaled_totals()
    inf = a * w_sub[tree.root] + b * (c_total + p_total) + 1

    cut_plans = {}   # rows -> (row, column) of each flat cell
    gamma_plans = {}
    mu_plans = {}

    def fold_mu(U, mv, rows):
        key = len(U), len(mv), rows
        plan = mu_plans.get(key)
        if plan is None:
            plan = mu_plans[key] = _min_plus_plan(
                len(U), len(mv), min(rows, len(U) + len(mv) - 1), 1)
        return [min([U[p] + mv[q] for p, q in cell]) for cell in plan]

    leaf = [0] * lp1
    slots = len(w_sub)  # a virtual root's entry too
    G = [None] * slots   # cut-charge tables
    M = [None] * slots   # least budgets by part count
    folds = [None] * slots if keep is not None else None
    order = tree.order_idx
    if tree.virtual_root:
        order = order[:-1]  # the root comes last
    for u in order:
        kids = children[u]
        if not kids:
            # its own part alone, or the leaf itself as the outlier
            G[u] = leaf
            M[u] = [none if u in forb else 1, 0 if thr[u] >= 0 else none]
            continue
        Y = U = None
        kept = [] if folds is not None else None
        for v in kids:
            e = eps[v]
            g, mv = G[v], M[v]
            if kept is None:
                G[v] = M[v] = None
            # row i (i + 1 parts with u's): the child joins u's part, or
            # its edge is cut at charge e with i parts in its subtree;
            # cut off, a subtree of s vertices fills one row more, row s
            if size[v] < cap:
                g = g + [inf] * lp1
            rx = len(g) // lp1
            plan = cut_plans.get(rx)
            if plan is None:
                plan = cut_plans[rx] = [(i, l) for i in range(rx) for l in range(lp1)]
            X = [e if e < x and l >= mv[i] else x for x, (i, l) in zip(g, plan)]
            if Y is None:
                Y, U = X, mv
                continue
            if kept is not None:
                # U goes unused with no outlier budget: no vertex is residue
                kept.append((Y, U, X))
            ry = len(Y) // lp1
            plan = gamma_plans.get((ry, rx))
            if plan is None:
                plan = gamma_plans[ry, rx] = _min_plus_plan(
                    ry, rx, min(cap, ry + rx - 1), lp1)
            Y = [min([Y[p] + X[q] for p, q in cell]) for cell in plan]
            if lam:
                U = fold_mu(U, mv, cap + 1)
        if kept:
            folds[u] = kept
        # u covered: the least budget whose cut charge passes the threshold
        # test (charges fall as the budget grows) ...
        t = thr[u]
        if lam:
            ok = [x <= t for x in Y]
            m = [none] + [lp1 - sum(ok[i:i + lp1]) for i in range(0, len(Y), lp1)]
            # ... or u the outlier, one unit on top of its children's budget
            if u not in forb:
                for k, need in enumerate(U):
                    if need < m[k] - 1:
                        m[k] = need + 1
        else:
            m = [none] + [0 if x <= t else none for x in Y]
        G[u] = Y
        M[u] = m
    if tree.virtual_root:
        # no part, no outlier unit: the trees' least budgets folded alone
        U, *rest = (M[v] for v in children[root])
        kept = []
        for mv in rest:
            kept.append(U)
            U = fold_mu(U, mv, kappa + 1)
        M[root] = [min(x, none) for x in U]
        if folds is not None:
            folds[root] = kept
    if keep is not None:
        keep.G, keep.M, keep.folds, keep.eps, keep.thr = G, M, folds, eps, thr
    return M[root]


def solve(tree: RootedTree, spec: ProblemSpec) -> WitnessTables:
    """Run the least-budget sweep keeping every vertex's tables.

    ``tables.feasible`` answers the decision problem, and
    ``treecut.witness.reconstruct_subpartition`` replays a witness from
    the tables.  Takes the sweep's time; the tables kept are the ones the
    sweep builds, at most three cut-charge tables per vertex.
    """
    tables = WitnessTables(tree, spec)
    _least_budgets(tree, spec, keep=tables)
    return tables


def _root_least(tree: RootedTree, spec: ProblemSpec) -> list:
    """Least outlier budget at the root per part count, ``kappa + 1``
    Python ints with ``lam + 1`` for "no budget suffices" (``kappa`` and
    ``lam`` clamped to the vertex count), from the numpy sweep, or from the
    Python sweep where it does not engage."""
    from . import _fastlane

    n = tree.vertex_count
    least = _fastlane.root_row(tree, spec.xi, min(spec.parts, n), min(spec.outliers, n),
                               spec.use_potentials, spec.forbidden_outliers)
    return _least_budgets(tree, spec) if least is None else least


def root_feasibility(tree: RootedTree, spec: ProblemSpec) -> list:
    """Feasibility bits ``row[k][l]`` at the root for all k, l in table
    range: a list of ``kappa + 1`` rows, one per part count, each a list of
    ``lam + 1`` ints 0/1 (``kappa`` and ``lam`` being the budgets clamped
    to the vertex count), expanded from the least budgets."""
    lam = min(spec.outliers, tree.vertex_count)
    return [[1 if l >= need else 0 for l in range(lam + 1)]
            for need in _root_least(tree, spec)]


def decide(tree: RootedTree, spec: ProblemSpec) -> bool:
    """Answer the decision problem without materializing a witness."""
    if spec.parts > tree.vertex_count:
        return False
    return _root_least(tree, spec)[spec.parts] <= min(spec.outliers, tree.vertex_count)


def decide_batch(tree: RootedTree, spec: ProblemSpec, xis) -> list[bool]:
    """Decide one instance at many thresholds (shared tree and budgets).

    Equivalent to ``[decide(tree, spec.with_xi(x)) for x in xis]`` but runs
    the numpy kernel once over the whole batch when it applies.
    """
    from . import _fastlane

    xis = [parse_rational(x) for x in xis]
    if spec.parts > tree.vertex_count:
        return [False] * len(xis)
    n = tree.vertex_count
    answers = _fastlane.decide_many(tree, xis, min(spec.parts, n), min(spec.outliers, n),
                                    spec.use_potentials, spec.forbidden_outliers)
    if answers is None:
        return [decide(tree, spec.with_xi(x)) for x in xis]
    return answers


def edge_charge(tree: RootedTree, xi, vertex, use_potentials: bool = False) -> ScaledValue:
    """Charge incurred by cutting the parent edge of ``vertex``:
    ``xi * subtree_weight + cost`` (minus the subtree potential in the
    potential variant), as an exact integer in units of
    ``1 / (tree.scale * xi.denominator)``.

    The root has no real parent edge to cut.
    """
    xi = parse_rational(xi)
    if xi < 0:
        raise InvalidInput(f"threshold must be >= 0, got {xi}")
    u = tree._idx(vertex)
    if u == tree.root:
        raise RootHasNoParentEdge(f"{vertex!r} is the root")
    a, b = xi.numerator, xi.denominator
    value = a * tree.subtree_weight_scaled[u] + b * tree.cost_scaled[u]
    if use_potentials:
        value -= b * tree.subtree_potential_scaled[u]
    return ScaledValue(value)


__all__ = [
    "ProblemSpec",
    "WitnessTables",
    "solve",
    "decide",
    "decide_batch",
    "root_feasibility",
    "edge_charge",
]
