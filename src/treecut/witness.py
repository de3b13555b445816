"""Witness subpartitions: reconstruction from DP tables and validation.

A witness is an explicit list of vertex sets.  Reconstruction replays the
sweep top down from every vertex's tables, which ``treecut.solver.solve``
keeps: at each cell it visits it reads the choice off the tables under
fixed tie-breaking.  Where it splits a cell between a vertex's children it
folds their tables again, left to right, but only the cells up to the
one it splits, which read no others.
Validation re-checks every problem constraint from scratch with exact
arithmetic and reports violations as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyPart, TableMismatch
from .solver import ProblemSpec, WitnessTables
from .tree import RootedTree


@dataclass(frozen=True)
class Subpartition:
    """k disjoint connected vertex sets plus the uncovered residue.

    ``parts`` are in discovery order of the reconstruction (deterministic);
    expansions are exact rationals measured in the full tree, so a part's
    boundary includes edges into the residue and into other parts.
    """

    parts: tuple
    residue: frozenset
    per_part_expansion: tuple
    max_expansion: Fraction

    def to_json(self) -> dict:
        return {
            "parts": [sorted_ids(p) for p in self.parts],
            "residue": sorted_ids(self.residue),
            "expansions": [f"{e.numerator}/{e.denominator}"
                           for e in self.per_part_expansion],
            "max_expansion": (f"{self.max_expansion.numerator}/"
                              f"{self.max_expansion.denominator}"),
        }


def sorted_ids(ids) -> list:
    """Deterministic ordering for possibly mixed-type vertex ids."""
    try:
        return sorted(ids)
    except TypeError:
        return sorted(ids, key=lambda x: (type(x).__name__, str(x)))


def expansion(tree: RootedTree, part, use_potentials: bool = False) -> Fraction:
    """Exact edge expansion of a vertex set, measured in the full tree:
    boundary cost (plus the set's potential when enabled) over the set's
    weight.  The virtual root edge never contributes."""
    return _expansion(tree, {tree._idx(v) for v in part}, use_potentials)


def _expansion(tree: RootedTree, idxs: set, use_potentials: bool) -> Fraction:
    """``expansion`` of the vertices at tree indices ``idxs``."""
    if not idxs:
        raise EmptyPart("expansion of the empty set is undefined")
    cut = 0
    weight = 0
    pot = 0
    c_s = tree.cost_scaled
    children = tree.children_idx
    parent = tree.parent_idx
    for u in idxs:
        weight += tree.weight_scaled[u]
        pot += tree.potential_scaled[u]
        for c in children[u]:
            if c not in idxs:
                cut += c_s[c]
        p = parent[u]
        if p >= 0 and p not in idxs:
            cut += c_s[u]
    numerator = cut + pot if use_potentials else cut
    return Fraction(numerator, weight)


def make_subpartition(tree: RootedTree, parts, residue,
                      use_potentials: bool = False) -> Subpartition:
    """Bundle raw vertex sets into a Subpartition with exact expansions."""
    parts = tuple(frozenset(p) for p in parts)
    expansions = tuple(expansion(tree, p, use_potentials) for p in parts)
    return Subpartition(parts, frozenset(residue), expansions, max(expansions))


def _indexed_subpartition(tree: RootedTree, parts, residue,
                          use_potentials: bool) -> Subpartition:
    """``make_subpartition`` of vertex sets given by tree index, priced
    from the indices."""
    ids = tree.ids
    expansions = tuple(_expansion(tree, p, use_potentials) for p in parts)
    return Subpartition(tuple(frozenset(ids[i] for i in p) for p in parts),
                        frozenset(ids[i] for i in residue), expansions, max(expansions))


def reconstruct_subpartition(tree: RootedTree, spec: ProblemSpec,
                             tables: WitnessTables):
    """Rebuild one witness from the tables, or return None if infeasible.

    Raises TableMismatch unless the tables were produced for exactly this
    tree and spec.
    """
    if tables.tree is not tree:
        raise TableMismatch("tables belong to a different tree")
    if tables.spec != spec:
        raise TableMismatch("tables were computed for a different spec")
    if not tables.feasible:
        return None
    parts, residue = _collect(tables, spec.parts, tables.lam)
    return _indexed_subpartition(tree, parts, residue, spec.use_potentials)


def _collect(tables: WitnessTables, k0: int, l0: int):
    """Iterative top-down replay of the sweep's choices.

    Two task kinds: ``mu`` resolves a feasibility cell, ``k`` parts within
    outlier budget ``l`` below ``u``: u tops a new part when ``k >= 1`` and
    its cut-charge cell passes u's threshold test, and otherwise u goes to
    the residue and ``(k, l - 1)`` is split across its children.
    ``gamma`` grows an existing part downward through a cut-charge cell,
    splitting ``(k, l)`` across the children and cutting or keeping each
    child edge.  Children are visited in order, so parts come out in a
    fixed order.  A split reads the children before each child folded
    together, as the sweep folds them left to right, in the cells up to
    the task's own (``_least_folds``, ``_charge_folds``), from index plans
    built once per shape in the call.
    """
    tree = tables.tree
    children_of = tree.children_idx
    size = tree.subtree_size
    lp1 = tables.lam + 1
    G, M, eps, thr = tables.G, tables.M, tables.eps, tables.thr
    plans = {}
    parts: list[set] = []
    residue: set = set()
    # task: (is_gamma, vertex, k, l, part_slot)
    if tree.virtual_root:
        stack = _tree_tasks(tables, k0, l0, plans)
    else:
        stack = [(False, tree.root, k0, l0, -1)]
    while stack:
        is_gamma, u, k, l, slot = stack.pop()
        kids = children_of[u]
        d = len(kids)
        if not is_gamma:
            if k >= len(M[u]) or M[u][k] > l:
                raise TableMismatch(
                    f"backtrack reached an infeasible cell (k={k}, l={l})")
            g = G[u]
            if k and (k - 1) * lp1 < len(g) and g[(k - 1) * lp1 + l] <= thr[u]:
                parts.append({u})
                stack.append((True, u, k, l, len(parts) - 1))
                continue
            residue.add(u)
            ck, cl = k, l - 1
            if d > 1:
                folds = _least_folds([M[v] for v in kids], k, plans)
            for ci in range(d - 1, 0, -1):
                kp, lp = _residue_split(folds[ci - 1], M[kids[ci]], ck)
                # pushed deepest-child first, so pops run in child order
                stack.append((False, kids[ci], ck - kp, cl - lp, -1))
                ck, cl = kp, lp
            if d:
                stack.append((False, kids[0], ck, cl, -1))
        else:
            if slot >= 0 and u not in parts[slot]:
                parts[slot].add(u)
            if d == 0:
                continue
            ck, cl = k, l
            portions = []
            if d > 1 and k == 1 and l == 0:
                # u's part alone at no budget: every split is (1, 0)
                portions = [(ci, 1, 0) for ci in range(d - 1, 0, -1)]
            elif d > 1:
                X = [_child_cells(G[v], M[v], eps[v], min(k, size[v] + 1), l, lp1,
                                  tables.inf) for v in kids]
                folds = _charge_folds(X, k, l + 1, plans)
                for ci in range(d - 1, 0, -1):
                    if ck == 1 and cl == 0:
                        # as above, for the children before this one
                        portions += [(cj, 1, 0) for cj in range(ci, 0, -1)]
                        break
                    kp, lp = _part_split(folds[ci - 1], X[ci], ck, cl, l + 1)
                    portions.append((ci, ck + 1 - kp, cl - lp))
                    ck, cl = kp, lp
            portions.append((0, ck, cl))
            for ci, pk, pl in portions:
                child = kids[ci]
                if _cut_off(G[child], M[child], eps[child], pk - 1, pl, lp1):
                    stack.append((False, child, pk - 1, pl, -1))
                else:
                    stack.append((True, child, pk, pl, slot))
    return parts, residue


def _tree_tasks(tables: WitnessTables, k: int, l: int, plans: dict) -> list:
    """A virtual root's split of ``k`` parts and budget ``l`` across the
    trees below it, as ``mu`` tasks with the first tree's on top.  Trees
    are visited last first: each takes the most parts with which the
    trees before it still fit (the first ``kp`` for them, in ascending
    order, with ``C[kp] + B[k - kp] <= l``) and all the budget they leave;
    its replay is entered at no more budget than its vertex count.  A
    tree's ``B`` stops at ``tree.part_cap`` parts, which no feasible
    split exceeds, so the split is the one full rows would give."""
    tree = tables.tree
    kids = tree.children_idx[tree.root]
    size = tree.subtree_size
    folds = _least_folds([tables.M[v] for v in kids], k, plans)
    tasks = []
    for ci in range(len(kids) - 1, 0, -1):
        C, B = folds[ci - 1], tables.M[kids[ci]]
        kp = next(kp for kp in range(max(0, k + 1 - len(B)), min(k + 1, len(C)))
                  if C[kp] + B[k - kp] <= l)
        tasks.append((False, kids[ci], k - kp, min(l - C[kp], size[kids[ci]]), -1))
        k, l = kp, C[kp]
    tasks.append((False, kids[0], k, min(l, size[kids[0]]), -1))
    return tasks


def _min_plus_plan(ny: int, nx: int, rows: int, cols: int) -> list:
    """Flat index pairs ``(p, q)`` of ``out[c][l] = min Y[i][j] + X[c-i][l-j]``
    over ``ny`` and ``nx`` rows of ``cols`` columns, one list per output
    cell ``(c, l)`` with ``c < rows``, in row-major order."""
    return [[(i * cols + j, (c - i) * cols + l - j)
             for i in range(max(0, c - nx + 1), min(c + 1, ny))
             for j in range(l + 1)]
            for c in range(rows) for l in range(cols)]


def _fold(Y, X, rows: int, w: int, plans: dict) -> list:
    """``out[c][j] = min Y[i][b] + X[c - i][j - b]`` over two flat tables
    of ``w`` columns, in rows below ``rows``, by the index plan of their
    shape (``_min_plus_plan``), built once into ``plans``."""
    ry, rx = len(Y) // w, len(X) // w
    key = ry, rx, rows, w
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _min_plus_plan(ry, rx, min(rows, ry + rx - 1), w)
    return [min([Y[p] + X[q] for p, q in cell]) for cell in plan]


def _least_folds(Ms, k: int, plans: dict) -> list:
    """The least budgets ``Ms`` of children folded left to right: entry
    ``i - 1`` is those of the first ``i`` children together, for ``i``
    below their count, by part count up to ``k``.  A fold takes the least
    sum of one entry of each side per part count; where the sweep kept
    more part counts, the ones up to ``k`` read only these."""
    folds = [Ms[0][:k + 1]]
    for mv in Ms[1:-1]:
        folds.append(_fold(folds[-1], mv, k + 1, 1, plans))
    return folds


def _child_cells(g, m, e, rows: int, l: int, lp1: int, inf) -> list:
    """A child's cut-charge table as its parent's fold takes it, in its
    first ``rows`` rows and budgets up to ``l``: the child joins the
    parent's part (its own table ``g`` of ``lp1`` columns, ``inf`` in the
    rows past it), or its edge is cut at charge ``e`` with its least
    budgets ``m``.  Row i holds i + 1 parts, the parent's among them."""
    out = []
    for i in range(rows):
        row = g[i * lp1:i * lp1 + l + 1] or [inf] * (l + 1)
        need = m[i]
        out += row[:need]
        out += [e if e < x else x for x in row[need:]]
    return out


def _charge_folds(X, k: int, w: int, plans: dict) -> list:
    """The children's cut-charge tables ``X`` (``w`` columns) folded left
    to right: entry ``i - 1`` is the first ``i`` children's together, for
    ``i`` below their count, in rows below ``k``.  A cell takes the least
    sum of one cell of each side at no more parts and no more budget, so
    the cells kept read only kept cells."""
    folds = [X[0]]
    for x in X[1:-1]:
        folds.append(_fold(folds[-1], x, k, w, plans))
    return folds


def _part_split(Y, X, k: int, l: int, w: int):
    """The split of a cut-charge cell ``(k, l)`` between the children
    folded so far (``Y``) and the next one (``X``), both of ``w``
    columns: the first strict minimum of ``Y[kp][lp] + X[k + 1 - kp][l -
    lp]`` over ``lp`` in ``0..l`` (outer) and ``kp`` in ``1..k`` (inner),
    as parts counted with u's own; rows a table does not hold are
    infinite."""
    lo = max(1, k + 1 - len(X) // w)
    hi = min(k, len(Y) // w)
    best = arg = None
    for lp in range(l + 1):
        for kp in range(lo, hi + 1):
            s = Y[(kp - 1) * w + lp] + X[(k - kp) * w + l - lp]
            if best is None or s < best:
                best, arg = s, (kp, lp)
    return arg


def _residue_split(U, Mc, k: int):
    """The split of ``k`` parts of a residue vertex's children between
    those folded so far (least budgets ``U``) and the next one (``Mc``),
    made at the least budget ``l'`` with which they hold ``k`` parts: the
    first ``kp`` with ``U[kp] + Mc[k - kp] <= l'``, and ``lp = U[kp]``.
    Any budget above ``l'`` goes to the next child."""
    lo = max(0, k + 1 - len(Mc))
    need = [U[kp] + Mc[k - kp] for kp in range(lo, min(k + 1, len(U)))]
    kp = lo + need.index(min(need))
    return kp, U[kp]


def _cut_off(g, m, e, i: int, l: int, lp1: int) -> bool:
    """Whether a child with cut-charge table ``g``, least budgets ``m`` and
    edge charge ``e`` is cut off with ``i`` parts below it, rather than
    joined to its parent's part, in row ``i`` at budget ``l``: a tie cuts."""
    return l >= m[i] and (i * lp1 >= len(g) or e <= g[i * lp1 + l])


VIOLATION_PART_COUNT = "part-count"
VIOLATION_EMPTY_PART = "empty-part"
VIOLATION_OVERLAP = "overlap"
VIOLATION_COVERAGE = "coverage"
VIOLATION_DISCONNECTED = "disconnected-part"
VIOLATION_RESIDUE_SIZE = "residue-overflow"
VIOLATION_EXPANSION = "expansion-exceeds-threshold"
VIOLATION_FORBIDDEN = "forbidden-outlier-in-residue"


def validate_subpartition(tree: RootedTree, spec: ProblemSpec,
                          sub: Subpartition) -> list:
    """Re-check every constraint; returns the list of violated conditions
    (empty means valid).  Expansions are recomputed here, not trusted."""
    violations = []
    parts = [set(tree._idx(v) for v in p) for p in sub.parts]
    residue = set(tree._idx(v) for v in sub.residue)

    if len(parts) != spec.parts:
        violations.append(VIOLATION_PART_COUNT)
    if any(not p for p in parts):
        violations.append(VIOLATION_EMPTY_PART)

    covered = set()
    overlap = False
    for p in parts:
        if covered & p:
            overlap = True
        covered |= p
    if overlap or (covered & residue):
        violations.append(VIOLATION_OVERLAP)
    if covered | residue != set(range(tree.vertex_count)):
        violations.append(VIOLATION_COVERAGE)

    for p in parts:
        if p and not _connected(tree, p):
            violations.append(VIOLATION_DISCONNECTED)
            break

    if len(residue) > spec.outliers:
        violations.append(VIOLATION_RESIDUE_SIZE)

    forb = {tree._idx(v) for v in spec.forbidden_outliers}
    if residue & forb:
        violations.append(VIOLATION_FORBIDDEN)

    for p in sub.parts:
        if p and expansion(tree, p, spec.use_potentials) > spec.xi:
            violations.append(VIOLATION_EXPANSION)
            break

    return violations


def _connected(tree: RootedTree, idxs: set) -> bool:
    start = next(iter(idxs))
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in tree.children_idx[u]:
            if v in idxs and v not in seen:
                seen.add(v)
                frontier.append(v)
        p = tree.parent_idx[u]
        if p >= 0 and p in idxs and p not in seen:
            seen.add(p)
            frontier.append(p)
    return len(seen) == len(idxs)
