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

Decision queries (``root_feasibility``, ``decide``, ``decide_batch``, and
through them the forest fold and ``k_max``) take one of two paths:

* the numpy int64 kernel of ``treecut._fastlane``, one batch of array
  operations per tree level;
* this module's least-budget sweep (``_least_budgets``), one vertex at a
  time on Python ints: the trees on which the numpy kernel would be slower
  (tiny ones, and deep, thin ones; see ``_fastlane.python_is_faster``),
  and the values over the int64 bound.

The int64 kernel engages only when a conservative bound proves 64-bit
arithmetic cannot overflow.  The ``DpTables`` loops below (``solve``) keep
every vertex's full grids and the choice records, and run only for
witnesses (``treecut.witness``) and for callers that read the tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidInput, RootHasNoParentEdge, UnknownVertexId
from .tree import RootedTree
from .values import INFINITY, ScaledValue, parse_rational

# mu branch markers (backtracking)
INFEASIBLE = 0
BRANCH_GAMMA = 1    # u is covered; witness comes from the gamma tables
BRANCH_RESIDUE = 2  # u is an outlier; witness combines the children


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


class DpTables:
    """Per-vertex DP grids plus the backtracking records that drive witness
    reconstruction.

    Table dimensions are clamped to the vertex count: more parts than
    vertices is unsatisfiable and a larger outlier budget cannot change any
    answer.  ``feasible`` reads the root cell at the requested budgets.
    """

    def __init__(self, tree: RootedTree, spec: ProblemSpec, record_choices: bool = True):
        n = tree.vertex_count
        for v in spec.forbidden_outliers:
            if v not in tree.index:
                raise UnknownVertexId(f"forbidden outlier {v!r} is not in the tree")
        if spec.parts > n or spec.outliers > n:
            warnings.warn(
                f"clamping table sizes to n={n} (parts={spec.parts}, "
                f"outliers={spec.outliers}); answers are unaffected",
                stacklevel=3,
            )
        self.tree = tree
        self.spec = spec
        self.kappa = min(spec.parts, n)
        self.lam = min(spec.outliers, n)
        self.a = spec.xi.numerator
        self.b = spec.xi.denominator
        self.use_pot = spec.use_potentials
        self.forb = frozenset(tree.index[v] for v in spec.forbidden_outliers)
        self.record_choices = record_choices

        self._gamma = [None] * n
        self._mu = [None] * n
        self._mu_branch = [None] * n if record_choices else None
        self._xcut = [None] * n if record_choices else None
        self._ysplit = [None] * n if record_choices else None
        self._usplit = [None] * n if record_choices else None

    # -- public views ---------------------------------------------------

    @property
    def feasible(self) -> bool:
        if self.spec.parts > self.tree.vertex_count:
            return False
        return bool(self._mu[self.tree.root][self.spec.parts][self.lam])

    def gamma_value(self, vertex, k: int, l: int) -> ScaledValue:
        """Cheapest cut charge at ``vertex`` for ``k`` parts and outlier
        budget ``l``, in units of 1/(tree.scale * xi.denominator)."""
        row = self._gamma[self.tree._idx(vertex)]
        return ScaledValue(row[k][l])

    def mu_value(self, vertex, k: int, l: int) -> bool:
        return bool(self._mu[self.tree._idx(vertex)][k][l])

    def root_row(self) -> tuple:
        """Feasibility bits at the root for every (k, l) in table range."""
        return tuple(tuple(row) for row in self._mu[self.tree.root])

    def same_tables(self, other: "DpTables") -> bool:
        """Exact cell-by-cell equality of both grids (same tree required)."""
        if self.tree.vertex_count != other.tree.vertex_count:
            return False
        if (self.kappa, self.lam) != (other.kappa, other.lam):
            return False
        return self._gamma == other._gamma and self._mu == other._mu


def fill_leaf_rows(tables: DpTables, vertex) -> None:
    """Base case for a childless vertex: one part containing the leaf costs
    nothing and is feasible iff its parent edge passes the threshold test;
    the leaf may instead be the sole outlier of its subtree."""
    _leaf_rows(tables, tables.tree._idx(vertex))


def fill_gamma_row(tables: DpTables, vertex) -> None:
    """Combine complete child rows into the cut-charge row of ``vertex``
    (children folded left to right, splitting parts and budget)."""
    _gamma_row(tables, tables.tree._idx(vertex))


def fill_mu_row(tables: DpTables, vertex) -> None:
    """Derive the feasibility row of ``vertex`` from its cut-charge row and
    the children's feasibility rows."""
    _mu_row(tables, tables.tree._idx(vertex))


def _leaf_rows(T: DpTables, u: int) -> None:
    tree = T.tree
    kap, lam = T.kappa, T.lam
    gamma = [[None] * (lam + 1) for _ in range(kap + 1)]
    gamma[1] = [0] * (lam + 1)
    mu = [[0] * (lam + 1) for _ in range(kap + 1)]
    rec = T.record_choices
    branch = [[INFEASIBLE] * (lam + 1) for _ in range(kap + 1)] if rec else None

    if u not in T.forb:
        for l in range(1, lam + 1):
            mu[0][l] = 1
            if rec:
                branch[0][l] = BRANCH_RESIDUE

    numerator = T.b * tree.cost_scaled[u]
    if T.use_pot:
        numerator += T.b * tree.subtree_potential_scaled[u]
    if numerator <= T.a * tree.subtree_weight_scaled[u]:
        for l in range(lam + 1):
            mu[1][l] = 1
            if rec:
                branch[1][l] = BRANCH_GAMMA

    T._gamma[u] = gamma
    T._mu[u] = mu
    if rec:
        T._mu_branch[u] = branch
        T._xcut[u] = []
        T._ysplit[u] = []
        T._usplit[u] = []


def _gamma_row(T: DpTables, u: int) -> None:
    tree = T.tree
    kap, lam = T.kappa, T.lam
    a, b = T.a, T.b
    w_sub = tree.subtree_weight_scaled
    p_sub = tree.subtree_potential_scaled
    c_s = tree.cost_scaled
    children = tree.children_idx[u]
    rec = T.record_choices
    xcuts = [] if rec else None
    ysplits = [] if rec else None

    Y = None
    for ci, v in enumerate(children):
        eps = a * w_sub[v] + b * c_s[v]
        if T.use_pot:
            eps -= b * p_sub[v]
        gv = T._gamma[v]
        mv = T._mu[v]
        X = [None] * (kap + 1)
        xc = [[False] * (lam + 1) for _ in range(kap + 1)] if rec else None
        for k in range(1, kap + 1):
            grow = gv[k]
            mrow = mv[k - 1]
            xrow = [None] * (lam + 1)
            for l in range(lam + 1):
                g = grow[l]
                if mrow[l] and (g is None or eps <= g):
                    xrow[l] = eps
                    if rec:
                        xc[k][l] = True
                else:
                    xrow[l] = g
            X[k] = xrow
        if rec:
            xcuts.append(xc)

        if ci == 0:
            Y = X
            if rec:
                ysplits.append(None)
            continue

        Ynew = [None] * (kap + 1)
        ys = [[None] * (lam + 1) for _ in range(kap + 1)] if rec else None
        for k in range(1, kap + 1):
            yrow = [None] * (lam + 1)
            for l in range(lam + 1):
                best = None
                barg = None
                for lp in range(l + 1):
                    for kp in range(1, k + 1):
                        yv = Y[kp][lp]
                        if yv is None:
                            continue
                        xv = X[k + 1 - kp][l - lp]
                        if xv is None:
                            continue
                        s = yv + xv
                        if best is None or s < best:
                            best = s
                            barg = (kp, lp)
                yrow[l] = best
                if rec:
                    ys[k][l] = barg
            Ynew[k] = yrow
        Y = Ynew
        if rec:
            ysplits.append(ys)

    gamma = [[None] * (lam + 1)]
    gamma.extend(Y[k] for k in range(1, kap + 1))
    T._gamma[u] = gamma
    if rec:
        T._xcut[u] = xcuts
        T._ysplit[u] = ysplits


def _mu_row(T: DpTables, u: int) -> None:
    tree = T.tree
    kap, lam = T.kappa, T.lam
    children = tree.children_idx[u]
    rec = T.record_choices

    threshold = T.a * tree.subtree_weight_scaled[u] - T.b * tree.cost_scaled[u]
    if T.use_pot:
        threshold -= T.b * tree.subtree_potential_scaled[u]

    gamma = T._gamma[u]
    mu = [[0] * (lam + 1) for _ in range(kap + 1)]
    branch = [[INFEASIBLE] * (lam + 1) for _ in range(kap + 1)] if rec else None
    for k in range(1, kap + 1):
        grow = gamma[k]
        for l in range(lam + 1):
            g = grow[l]
            if g is not None and g <= threshold:
                mu[k][l] = 1
                if rec:
                    branch[k][l] = BRANCH_GAMMA

    U = [row[:] for row in T._mu[children[0]]]
    usplits = [None] if rec else None
    for ci in range(1, len(children)):
        mv = T._mu[children[ci]]
        Unew = [[0] * (lam + 1) for _ in range(kap + 1)]
        us = [[None] * (lam + 1) for _ in range(kap + 1)] if rec else None
        for k in range(kap + 1):
            urow_new = Unew[k]
            for l in range(lam + 1):
                if l and urow_new[l - 1]:
                    # more budget never hurts; reuse the cheaper combination
                    urow_new[l] = 1
                    if rec:
                        us[k][l] = us[k][l - 1]
                    continue
                hit = None
                for kp in range(k + 1):
                    urow = U[kp]
                    mrow = mv[k - kp]
                    for lp in range(l + 1):
                        if urow[lp] and mrow[l - lp]:
                            hit = (kp, lp)
                            break
                    if hit:
                        break
                if hit:
                    urow_new[l] = 1
                    if rec:
                        us[k][l] = hit
        U = Unew
        if rec:
            usplits.append(us)

    if u not in T.forb:
        for k in range(kap + 1):
            murow = mu[k]
            urow = U[k]
            for l in range(1, lam + 1):
                if not murow[l] and urow[l - 1]:
                    murow[l] = 1
                    if rec:
                        branch[k][l] = BRANCH_RESIDUE

    T._mu[u] = mu
    if rec:
        T._mu_branch[u] = branch
        T._usplit[u] = usplits


def solve(tree: RootedTree, spec: ProblemSpec, record_choices: bool = True) -> DpTables:
    """Run the full bottom-up sweep and return the populated tables.

    ``tables.feasible`` answers the decision problem; with
    ``record_choices`` (the default) the tables can be fed to
    ``treecut.witness.reconstruct_subpartition``.  Runs in
    O((outliers+1)^2 * parts^2 * n) time.
    """
    T = DpTables(tree, spec, record_choices)
    _sweep(T)
    return T


def _sweep(T: DpTables) -> None:
    children = T.tree.children_idx
    for u in T.tree.order_idx:
        if children[u]:
            _gamma_row(T, u)
            _mu_row(T, u)
        else:
            _leaf_rows(T, u)


# -- the decision sweep ------------------------------------------------------
#
# Decisions read only the root's feasibility bits, so they skip the
# DpTables grids and choice records above, which exist for witnesses, and
# run the same recurrences in the smaller state of the numpy lane (see
# ``treecut._fastlane``):
#
# * mu is monotone in the outlier budget, so a vertex keeps only the least
#   sufficient budget per part count (``lam + 1`` when no budget in range
#   suffices), and combining the children's mu is a (min,+) product over
#   the part count alone;
# * a subtree of s vertices holds at most s parts, so its cut-charge table
#   keeps ``min(kappa, s)`` rows (row i holds i + 1 parts), the
#   tree-knapsack bound on the merge work;
# * a vertex's tables are dropped once its parent has read them.
#
# Cut-charge tables are flat row-major lists of Python ints, exact at any
# size.  An infeasible cell holds ``inf`` or more plus charges, still
# above every finite value and every threshold, so no cell needs a test
# for infinity.  The (min,+) products run from index plans built once per
# table shape and call.


def _min_plus_plan(ny: int, nx: int, rows: int, cols: int) -> list:
    """Flat index pairs ``(p, q)`` of ``out[c][l] = min Y[i][j] + X[c-i][l-j]``
    over ``ny`` and ``nx`` rows of ``cols`` columns, one list per output
    cell ``(c, l)`` with ``c < rows``, in row-major order."""
    return [[(i * cols + j, (c - i) * cols + l - j)
             for i in range(max(0, c - nx + 1), min(c + 1, ny))
             for j in range(l + 1)]
            for c in range(rows) for l in range(cols)]


def _least_budgets(tree: RootedTree, spec: ProblemSpec) -> list:
    """Least outlier budget at the root per part count: ``out[k]`` for
    ``k <= kappa`` is the smallest ``l <= lam`` with ``mu[root][k][l]``, or
    ``lam + 1`` when there is none (``kappa`` and ``lam`` clamped to the
    vertex count)."""
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
    leaf = [0] * lp1
    G = [None] * n   # cut-charge tables
    M = [None] * n   # least budgets by part count
    children = tree.children_idx
    for u in tree.order_idx:
        kids = children[u]
        if not kids:
            # its own part alone, or the leaf itself as the outlier
            G[u] = leaf
            M[u] = [none if u in forb else 1, 0 if thr[u] >= 0 else none]
            continue
        Y = U = None
        for v in kids:
            e = eps[v]
            g, mv = G[v], M[v]
            G[v] = M[v] = None
            # row i (i + 1 parts with u's): the child joins u's part, or
            # its edge is cut at charge e with i parts in its subtree;
            # cut off, a subtree of s vertices fills one row more, row s
            if size[v] < kappa:
                g = g + [inf] * lp1
            rx = len(g) // lp1
            plan = cut_plans.get(rx)
            if plan is None:
                plan = cut_plans[rx] = [(i, l) for i in range(rx) for l in range(lp1)]
            X = [e if e < x and l >= mv[i] else x for x, (i, l) in zip(g, plan)]
            if Y is None:
                Y, U = X, mv
                continue
            ry = len(Y) // lp1
            plan = gamma_plans.get((ry, rx))
            if plan is None:
                plan = gamma_plans[ry, rx] = _min_plus_plan(
                    ry, rx, min(kappa, ry + rx - 1), lp1)
            Y = [min([Y[p] + X[q] for p, q in cell]) for cell in plan]
            if lam:
                plan = mu_plans.get((len(U), len(mv)))
                if plan is None:
                    plan = mu_plans[len(U), len(mv)] = _min_plus_plan(
                        len(U), len(mv), min(kappa + 1, len(U) + len(mv) - 1), 1)
                U = [min([U[p] + mv[q] for p, q in cell]) for cell in plan]
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
    return M[tree.root]


def root_feasibility(tree: RootedTree, spec: ProblemSpec) -> list:
    """Feasibility bits ``row[k][l]`` at the root for all k, l in table
    range, computed by the faster exact path.

    Both paths return the same shape: a list of ``kappa + 1`` rows, one
    per part count, each a list of ``lam + 1`` ints 0/1 (``kappa`` and
    ``lam`` being the budgets clamped to the vertex count).
    """
    from . import _fastlane

    n = tree.vertex_count
    kappa = min(spec.parts, n)
    lam = min(spec.outliers, n)
    if not _fastlane.python_is_faster(tree, kappa, lam):
        row = _fastlane.root_row(tree, spec.xi, kappa, lam,
                                 spec.use_potentials, spec.forbidden_outliers)
        if row is not None:
            return row
    least = _least_budgets(tree, spec)
    return [[1 if l >= need else 0 for l in range(lam + 1)] for need in least]


def decide(tree: RootedTree, spec: ProblemSpec) -> bool:
    """Answer the decision problem without materializing a witness."""
    if spec.parts > tree.vertex_count:
        return False
    row = root_feasibility(tree, spec)
    return bool(row[spec.parts][min(spec.outliers, tree.vertex_count)])


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
    kappa = min(spec.parts, n)
    lam = min(spec.outliers, n)
    if not _fastlane.python_is_faster(tree, kappa, lam, len(xis)):
        answers = _fastlane.decide_many(tree, xis, kappa, lam,
                                        spec.use_potentials, spec.forbidden_outliers)
        if answers is not None:
            return answers
    return [decide(tree, spec.with_xi(x)) for x in xis]


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
    "DpTables",
    "solve",
    "decide",
    "decide_batch",
    "root_feasibility",
    "edge_charge",
    "fill_leaf_rows",
    "fill_gamma_row",
    "fill_mu_row",
    "INFINITY",
    "BRANCH_GAMMA",
    "BRANCH_RESIDUE",
    "INFEASIBLE",
]
