"""The grid DP: the paper's recurrences over full per-vertex grids.

The most literal transcription of the decision DP: for every vertex the
full ``(kappa + 1) x (lam + 1)`` grids of ``gamma`` (cheapest cut charge
with the vertex in the first part) and ``mu`` (feasibility), filled
bottom-up by folding the children left to right, with the choice each
cell took recorded for backtracking.  ``treecut.solver`` no longer runs
it; the tests keep it as a reference next to the brute force in
``_brute``: table invariants read its grids, and witness identity tests
compare ``treecut``'s witnesses with the ones its recorded choices give.

``solve(tree, spec)`` fills the grids; ``witness(tree, spec, tables)``
backtracks one witness from them (None when infeasible).
``decide_forest(forest, spec)`` folds the trees' root grids cell by cell
with back pointers, the forest fold ``treecut.search`` ran before it
folded least budgets, with each tree's witness from these grids.
``fold_forest(forest, spec)`` is the least-budget fold it ran next,
before a forest was decided as one tree under a virtual root: each
tree's least budgets by themselves, folded one tree at a time by a 1-D
(min,+) product over the part count, split back by first fit, and each
tree's witness from its own ``treecut.solver.solve``.
"""

from treecut.errors import TableMismatch, UnknownVertexId
from treecut.solver import ProblemSpec, _root_least
from treecut.solver import solve as solve_tree
from treecut.tree import RootedTree
from treecut.values import ScaledValue
from treecut.witness import Subpartition, _collect as collect_tree
from treecut.witness import expansion, make_subpartition

# mu branch markers (backtracking)
INFEASIBLE = 0
BRANCH_GAMMA = 1    # u is covered; witness comes from the gamma tables
BRANCH_RESIDUE = 2  # u is an outlier; witness combines the children


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


def witness(tree: RootedTree, spec: ProblemSpec, tables: DpTables):
    """The witness the recorded choices give, or None if infeasible."""
    if not tables.feasible:
        return None
    parts_idx, residue_idx = _collect(tables, spec.parts, tables.lam)
    ids = tree.ids
    parts = [frozenset(ids[i] for i in p) for p in parts_idx]
    residue = frozenset(ids[i] for i in residue_idx)
    return make_subpartition(tree, parts, residue, spec.use_potentials)


def _collect(tables: DpTables, k0: int, l0: int):
    """Iterative backtrack over the recorded choices.

    Two task kinds: ``mu`` resolves a feasibility cell (either opening a new
    part rooted at the cell's vertex or sending the vertex to the residue
    and splitting budgets across children); ``gamma`` grows an existing part
    downward, cutting or keeping each child edge as recorded.
    """
    tree = tables.tree
    children_of = tree.children_idx
    parts: list[set] = []
    residue: set = set()
    # task: (is_gamma, vertex, k, l, part_slot)
    stack = [(False, tree.root, k0, l0, -1)]
    while stack:
        is_gamma, u, k, l, slot = stack.pop()
        kids = children_of[u]
        d = len(kids)
        if not is_gamma:
            br = tables._mu_branch[u][k][l]
            if br == BRANCH_GAMMA:
                parts.append({u})
                stack.append((True, u, k, l, len(parts) - 1))
            elif br == BRANCH_RESIDUE:
                residue.add(u)
                if d == 0:
                    continue
                ck, cl = k, l - 1
                for ci in range(d - 1, 0, -1):
                    kp, lp = tables._usplit[u][ci][ck][cl]
                    # pushed deepest-child first, so pops run in child order
                    stack.append((False, kids[ci], ck - kp, cl - lp, -1))
                    ck, cl = kp, lp
                stack.append((False, kids[0], ck, cl, -1))
            else:
                raise TableMismatch(
                    f"backtrack reached an infeasible cell (k={k}, l={l})")
        else:
            if slot >= 0 and u not in parts[slot]:
                parts[slot].add(u)
            if d == 0:
                continue
            ck, cl = k, l
            portions = []
            for ci in range(d - 1, 0, -1):
                kp, lp = tables._ysplit[u][ci][ck][cl]
                portions.append((ci, ck + 1 - kp, cl - lp))
                ck, cl = kp, lp
            portions.append((0, ck, cl))
            for ci, pk, pl in portions:
                child = kids[ci]
                if tables._xcut[u][ci][pk][pl]:
                    stack.append((False, child, pk - 1, pl, -1))
                else:
                    stack.append((True, child, pk, pl, slot))
    return parts, residue


def decide_forest(forest, spec: ProblemSpec, want_witness: bool = True):
    """Decide the problem on a forest by folding per-tree feasibility grids:
    parts and outlier budget are split across trees, with no extra charge at
    tree boundaries.  Returns ``(feasible, witness_or_None)``."""
    trees = forest.trees
    n_total = forest.vertex_count
    if not trees or spec.parts > n_total:
        return False, None

    tabs = [solve(t, _tree_spec(spec, t)) for t in trees]
    rows = [[list(r) for r in tab.root_row()] for tab in tabs]

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


def _tree_spec(spec: ProblemSpec, tree: RootedTree) -> ProblemSpec:
    # splitting parts/budget across trees routinely exceeds one tree's
    # size; clamping to it changes no answer
    forb = frozenset(v for v in spec.forbidden_outliers if v in tree.index)
    return ProblemSpec(spec.xi, min(spec.parts, tree.vertex_count),
                       min(spec.outliers, tree.vertex_count),
                       spec.use_potentials, forb)


def forest_folds(forest, spec: ProblemSpec):
    """Each tree's least budgets by itself (``rows``) and their prefix
    folds (``folds[i]``: trees 0 to i together, ``C'[k] = min C[kp] +
    B[k - kp]``), ``kappa + 1`` entries each with ``lam + 1`` for "no
    budget suffices" (``kappa`` and ``lam`` clamped to the forest's
    vertex count, ``spec.parts`` at most that)."""
    n_total = forest.vertex_count
    kappa = min(spec.parts, n_total)
    lam = min(spec.outliers, n_total)
    none = lam + 1

    def least(tree):
        # a tree's own "none" is its clamped budget plus one, which may lie
        # within lam; part counts beyond the tree's size are infeasible
        tree_spec = _tree_spec(spec, tree)
        out = [b if b <= tree_spec.outliers else none
               for b in _root_least(tree, tree_spec)]
        return out + [none] * (kappa + 1 - len(out))

    rows = [least(t) for t in forest.trees]
    folds = [rows[0]]
    for B in rows[1:]:
        C = folds[-1]
        folds.append([min(none, min(C[kp] + B[k - kp] for kp in range(k + 1)))
                      for k in range(kappa + 1)])
    return rows, folds


def fold_forest(forest, spec: ProblemSpec, want_witness: bool = True):
    """Decide the problem on a forest by folding each tree's least budgets
    one tree at a time (``forest_folds``).  The witness splits the
    budgets back, giving each tree, last first, the fewest parts left to
    the trees before it that still fit, and all the budget they leave,
    and replays each tree from its own tables.  Returns ``(feasible,
    witness_or_None)``."""
    trees = forest.trees
    if not trees or spec.parts > forest.vertex_count:
        return False, None
    kappa = min(spec.parts, forest.vertex_count)
    lam = min(spec.outliers, forest.vertex_count)
    rows, folds = forest_folds(forest, spec)
    feasible = folds[-1][kappa] <= lam
    if not feasible or not want_witness:
        return feasible, None

    budgets = []
    ck, cl = kappa, lam
    for C, B in zip(reversed(folds[:-1]), reversed(rows[1:])):
        kp = next(kp for kp in range(ck + 1) if C[kp] + B[ck - kp] <= cl)
        budgets.append((ck - kp, cl - C[kp]))
        ck, cl = kp, C[kp]
    budgets.append((ck, cl))

    parts, residue, expansions = [], set(), []
    for tree, (ki, li) in zip(trees, reversed(budgets)):
        tab = solve_tree(tree, _tree_spec(spec, tree))
        parts_idx, residue_idx = collect_tree(tab, ki, min(li, tab.lam))
        for p in parts_idx:
            part = frozenset(tree.ids[j] for j in p)
            parts.append(part)
            expansions.append(expansion(tree, part, spec.use_potentials))
        residue.update(tree.ids[j] for j in residue_idx)
    return True, Subpartition(tuple(parts), frozenset(residue),
                              tuple(expansions), max(expansions))
