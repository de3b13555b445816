"""The least-budget sweep: the DP one vertex at a time on Python ints,
the reference the chain sweep of ``treecut._fastlane`` is tested
against (root rows, and every vertex's tables with ``keep``)."""

from __future__ import annotations

from treecut.errors import UnknownVertexId
from treecut.solver import ProblemSpec, WitnessTables, _infinity
from treecut.tree import RootedTree, part_cap
from treecut.witness import _min_plus_plan

# The DP in the small state of the chain sweep (see ``treecut._fastlane``):
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
#   with ``keep`` it keeps them, as ``solver.solve`` does for the witness
#   replay.
#
# Cut-charge tables are flat row-major lists of Python ints, exact at any
# size.  An infeasible cell holds ``inf`` or more plus charges, still
# above every finite value and every threshold, so no cell needs a test
# for infinity.  The (min,+) products run from index plans built once per
# table shape and call.


def _charges(tree: RootedTree, spec: ProblemSpec):
    """The charge of cutting each parent edge, and the threshold test of
    a part topped at each vertex (a leaf passes it iff thr >= 0)."""
    a, b = spec.xi.numerator, spec.xi.denominator
    w_sub = tree.subtree_weight_scaled
    c_s = tree.cost_scaled
    if spec.use_potentials:
        eps = [a * w + b * (c - p)
               for w, c, p in zip(w_sub, c_s, tree.subtree_potential_scaled)]
    else:
        eps = [a * w + b * c for w, c in zip(w_sub, c_s)]
    return eps, [e - 2 * b * c for e, c in zip(eps, c_s)]


def _least_budgets(tree: RootedTree, spec: ProblemSpec,
                   keep: WitnessTables | None = None) -> list:
    """Least outlier budget at the root per part count: ``out[k]`` for
    ``k <= kappa`` is the smallest ``l <= lam`` with ``mu[root][k][l]``, or
    ``lam + 1`` when there is none (``kappa`` and ``lam`` clamped to the
    vertex count).  With ``keep``, every vertex's tables are stored there
    instead of being dropped.  A virtual root only folds
    its children's least budgets, whose rows stop at ``tree.part_cap``."""
    n = tree.vertex_count
    for v in spec.forbidden_outliers:
        if v not in tree.index:
            raise UnknownVertexId(f"forbidden outlier {v!r} is not in the tree")
    forb = {tree.index[v] for v in spec.forbidden_outliers}
    kappa = min(spec.parts, n)
    lam = min(spec.outliers, n)
    lp1 = none = lam + 1
    size = tree.subtree_size
    children = tree.children_idx
    root = tree.root
    cap = kappa
    if tree.virtual_root:
        # 1 where nothing is feasible: the root's entries are none anyway;
        # the trees' rows add up to kappa or more, so the root keeps
        # kappa + 1 entries
        cap = max(1, part_cap([size[v] for v in children[root]], kappa, lam))
    eps, thr = _charges(tree, spec)
    inf = _infinity(tree, spec.xi)

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
    slots = len(size)  # a virtual root's entry too
    G = [None] * slots   # cut-charge tables
    M = [None] * slots   # least budgets by part count
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
        for v in kids:
            e = eps[v]
            g, mv = G[v], M[v]
            if keep is None:
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
            ry = len(Y) // lp1
            plan = gamma_plans.get((ry, rx))
            if plan is None:
                plan = gamma_plans[ry, rx] = _min_plus_plan(
                    ry, rx, min(cap, ry + rx - 1), lp1)
            Y = [min([Y[p] + X[q] for p, q in cell]) for cell in plan]
            if lam:
                U = fold_mu(U, mv, cap + 1)
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
        for mv in rest:
            U = fold_mu(U, mv, kappa + 1)
        M[root] = [min(x, none) for x in U]
    if keep is not None:
        keep.G, keep.M = G, M
        keep.eps, keep.thr, keep.inf = eps, thr, inf
    return M[root]
