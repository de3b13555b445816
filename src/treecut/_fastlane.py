"""Int64 decision kernel.

Compute the same decisions as ``treecut.solver`` (no backtracking records)
over flat int64 arrays with numpy, one batch of array operations per tree
level (``_np_sweep``).

It is used only when a conservative a-priori bound proves every
intermediate value fits in 64 bits, so results are exact whenever it
engages; otherwise (values over the bound, a sweep whose memory figure,
``_sweep_bytes``, is over ``_MAX_TABLE_BYTES``) callers fall back to the
Python least-budget sweep of ``treecut.solver``, exact at any size.
Witnesses do not come from it: ``treecut.solver.solve`` runs that Python
sweep keeping its tables, and ``treecut.witness`` replays them.  Which
path is faster is the caller's choice: ``python_is_faster`` says when the
kernel would lose to the Python sweep (tiny trees, and deep, thin ones on
which a level holds too few vertices to pay for its numpy calls), and
``treecut.solver`` then does not call it.

Any finite table value is a sum of at most ``parts + outliers`` edge
charges, so ``(parts + outliers + 2) * max_charge`` bounds every quantity
the kernel compares or adds.

Vertices arrive relabeled in BFS order (see ``RootedTree.dense_arrays``):
position 0 is the root, every vertex's children occupy the contiguous
range ``[cstart[u], cend[u])``, each depth is a contiguous range, and
scanning positions downward visits children before parents.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import UnknownVertexId

_SAFE_LIMIT = 1 << 60
_MAX_TABLE_BYTES = 1 << 31


# -- the kernel ------------------------------------------------------------
#
# The same recurrences, one tree level per step, deepest level first.
# Three facts keep the batches small.  mu is monotone in the outlier
# budget, so a vertex's mu grid is stored as the least sufficient budget
# per part count (over ``lam`` when no budget in range suffices), and
# combining the children's mu grids becomes a (min,+) convolution over k
# alone.  Both folds over children are associative and commutative, so
# every vertex of a level folds its children in pairs, all at once, in
# ceil(log2(degree)) rounds; decisions do not depend on the fold order
# (witnesses would, and they come from the Python sweep).  A subtree of s
# vertices holds at most s parts, so a level's tables and each merge's
# output keep only the rows its subtree sizes can fill (the tree-knapsack
# bound), which keeps ``k_max`` on a 3000-vertex star to a 2 MB peak
# where full ``parts + 1`` rows would take 518 MB.
#
# Finite values stay inside (-2^60, 2^60) by ``_bound_ok``.  Infinity is
# 2^61, so a sum with an infinite operand is at least 2^60 (even when the
# other operand is a negative charge) and is reset to infinity, and two
# infinities still fit in 63 bits.

_NP_INF = np.int64(1) << np.int64(61)
_NP_CHUNK_BYTES = 1 << 25
# Speed rule of the kernel, in microseconds measured on a 2-core VM:
# a level costs the sweep up to ~500 us of numpy calls (its pairwise merge
# rounds included) however few vertices it holds, while the Python
# decision sweep (``treecut.solver._least_budgets``) spends about
# 1 + 1.65 (kappa+1)(lam+1) us per vertex and threshold.  Its cost grows
# faster than the table size on bushy trees, from about 1 us per cell at
# 3-5 parts to 1.3-2.2 us at 60 parts and 4 outliers.  The slope is that
# of the large tables, so at small budgets the rule overrates the sweep's
# cost up to twofold and leaves trees near the break-even to numpy.
_NP_LEVEL_US = 500
_PY_VERTEX_US = 1
_PY_CELL_US = 1.65


def python_is_faster(tree, kappa: int, lam: int, thresholds: int = 1) -> bool:
    """Whether the tree has more levels than the Python sweep's estimated
    time pays for in the numpy kernel, so the Python sweep should answer
    instead: tiny trees, paths, caterpillars, and at 2 parts and no
    outliers any tree averaging fewer than about 80 vertices per level.
    Walks up from the deepest vertex, at most as many steps as the levels
    paid for."""
    n = tree.vertex_count
    python_us = n * thresholds * (_PY_VERTEX_US + _PY_CELL_US * (kappa + 1) * (lam + 1))
    parent = tree.parent_idx
    u = tree.order_idx[0]  # last in BFS order, so as deep as any vertex
    for _ in range(int(python_us // _NP_LEVEL_US)):
        u = parent[u]
        if u < 0:
            return False
    return True


def _min_plus_gamma(Y, X, rows):
    """``out[c, l] = min Y[i, lp] + X[c - i, l - lp]`` for ``c < rows``,
    over shifted cut-charge rows (row ``i`` holds ``i + 1`` parts)."""
    lp1 = Y.shape[3]
    out = np.full(Y.shape[:2] + (rows, lp1), _NP_INF)
    for i in range(min(Y.shape[2], rows)):
        span = min(X.shape[2], rows - i)
        for lp in range(lp1):
            dst = out[:, :, i:i + span, lp:]
            np.minimum(dst, Y[:, :, i, lp, None, None] + X[:, :, :span, :lp1 - lp],
                       out=dst)
    out[out >= _SAFE_LIMIT] = _NP_INF
    return out


def _min_plus_mu(U, M, rows, none):
    """``out[k] = min U[i] + M[k - i]`` for ``k < rows``: the least budget
    with which two groups of subtrees hold ``k`` parts between them."""
    out = np.full(U.shape[:2] + (rows,), none, dtype=U.dtype)
    for i in range(min(U.shape[2], rows)):
        span = min(M.shape[2], rows - i)
        dst = out[:, :, i:i + span]
        np.minimum(dst, U[:, :, i, None] + M[:, :, :span], out=dst)
    return out


def _grow(a, rows, fill):
    """``a`` with axis 2 padded to ``rows`` entries of ``fill``."""
    if a.shape[2] >= rows:
        return a
    out = np.full(a.shape[:2] + (rows,) + a.shape[3:], fill, dtype=a.dtype)
    out[:, :, :a.shape[2]] = a
    return out


def _fold_runs(counts, items, fills, merge):
    """Fold each run of consecutive items (run lengths ``counts``, all >= 1)
    into one item, merging neighbours pairwise round by round.  ``items``
    is a tuple of arrays indexed along axis 0 whose axis 2 may grow in a
    merge; unmerged items are padded with ``fills`` to match."""
    while counts.max() > 1:
        rank = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        left = rank % 2 == 0
        pair = left & (rank + 1 < np.repeat(counts, counts))
        li = np.flatnonzero(pair)
        merged = merge(tuple(x[li] for x in items), tuple(x[li + 1] for x in items))
        keep = np.flatnonzero(left)
        items = tuple(_grow(x[keep], mx.shape[2], fill)
                      for x, mx, fill in zip(items, merged, fills))
        slot = pair[keep]
        for x, mx in zip(items, merged):
            x[slot] = mx
        counts = (counts + 1) // 2
    return items


def _np_sweep(dense, forb, a_arr, b_arr, kappa, lam, use_pot):
    """Least sufficient outlier budget at the root, ``out[j, k]`` for
    threshold ``a_arr[j] / b_arr[j]`` and ``k`` parts; a value over ``lam``
    marks an infeasible cell."""
    level_end = dense["level_end"]
    kids = dense["cend"] - dense["cstart"]
    a = a_arr[None, :]
    b = b_arr[None, :]
    # the charge of cutting each parent edge, and the threshold test of a
    # part topped at each vertex (a leaf passes it iff thr >= 0)
    eps = a * dense["w_sub"][:, None] + b * dense["c_edge"][:, None]
    thr = a * dense["w_sub"][:, None] - b * dense["c_edge"][:, None]
    if use_pot:
        pot = b * dense["p_sub"][:, None]
        eps -= pot
        thr -= pot
    nb = a_arr.shape[0]
    lp1 = lam + 1
    none = lp1
    budgets = np.arange(lp1)

    def merge(left, right):
        # items are (cut-charge rows, least budgets) or least budgets
        # alone; a subtree of s vertices holds at most s parts, so the
        # rows that can be finite add up, up to the level's ``rows``
        mu = _min_plus_mu(left[-1], right[-1],
                          min(rows + 1, left[-1].shape[2] + right[-1].shape[2] - 1), none)
        if len(left) == 1:
            return (mu,)
        return (_min_plus_gamma(left[0], right[0],
                                min(rows, left[0].shape[2] + right[0].shape[2] - 1)), mu)

    # the level below: shifted cut-charge rows (row i holds i + 1 parts,
    # for i below the subtree size), least budgets by part count, sizes
    G = M = S = None
    for d in range(len(level_end) - 1, -1, -1):
        lo = level_end[d - 1] if d else 0
        hi = level_end[d]
        width = hi - lo
        size = np.ones(width, dtype=np.int64)
        if G is not None:
            counts = kids[lo:hi]
            par = np.flatnonzero(counts)
            size[par] += np.add.reduceat(S, np.cumsum(counts[par]) - counts[par])
        rows = min(kappa, int(size.max()))
        # a childless vertex folds nothing: its own part alone, and no
        # parts among its children
        Y = np.full((width, nb, rows, lp1), _NP_INF)
        Y[:, :, 0, :] = 0
        U = np.full((width, nb, rows + 1), none, dtype=np.int64)
        U[:, :, 0] = 0
        if G is not None:
            # a child cut off with all its s vertices as parts fills row s
            G = _grow(G, min(kappa, G.shape[2] + 1), _NP_INF)
            e = eps[hi:level_end[d + 1], :, None, None]
            cut = (budgets >= M[:, :, :G.shape[2], None]) & (e <= G)
            Yf, Uf = _fold_runs(counts[par], (np.where(cut, e, G), M),
                                (_NP_INF, none), merge)
            Y[par, :, :Yf.shape[2]] = Yf
            U[par, :, :Uf.shape[2]] = Uf
        m = np.empty((width, nb, rows + 1), dtype=np.int64)
        m[:, :, 0] = none
        m[:, :, 1:] = lp1 - np.count_nonzero(Y <= thr[lo:hi, :, None, None], axis=3)
        np.minimum(m, np.where(forb[lo:hi, None, None] == 0, U + 1, none), out=m)
        G, M, S = Y, m, size
    return M[0]


def available() -> bool:
    """True: the int64 kernel needs only numpy, so it exists everywhere."""
    return True


def _bound_ok(tree, a: int, b: int, kappa: int, lam: int) -> bool:
    # (a+1) keeps raw subtree weights storable even at threshold zero; this
    # must run BEFORE dense_arrays so oversized ints never reach numpy
    w_total = tree.subtree_weight_scaled[tree.root]
    c_total, p_total = tree.scaled_totals()
    charge = (a + 1) * w_total + b * (c_total + p_total) + 1
    return (kappa + lam + 2) * charge < _SAFE_LIMIT


def _forb_array(tree, forbidden_ids):
    pos = tree.dense_arrays()["pos"]
    forb = np.zeros(tree.vertex_count, dtype=np.uint8)
    for vid in forbidden_ids:
        if vid not in tree.index:
            raise UnknownVertexId(f"forbidden outlier {vid!r} is not in the tree")
        forb[pos[tree.index[vid]]] = 1
    return forb


# Memory figure of a sweep, per threshold.  A level's table holds width x
# min(kappa, largest subtree in the level) x (lam + 1) int64 cells; while
# it is built, the level below (grown by a row), the cut choices, the
# pairs and outputs of each merge round of ``_fold_runs`` and the sums
# inside ``_min_plus_gamma`` coexist with it, and the least-budget arrays
# add up to two cells per table row.  The figure allows ``_LEVEL_COPIES``
# copies of the largest level table, ``_VERTEX_WORDS`` int64 per vertex
# for the charges, thresholds and their temporaries, and ``_FIXED_BYTES``
# that do not grow with the tree.  Measured with tracemalloc (numpy 2.4)
# on stars, paths, caterpillars, random trees and brooms of 400-16,501
# vertices, with parts up to n and up to 20 outliers, the peak of one
# threshold's ``root_row`` stayed within 53% of the figure; stars come
# closest, as their fold items are as many as the level is wide.
_LEVEL_COPIES = 32
_VERTEX_WORDS = 8
_FIXED_BYTES = 1 << 20


def _sweep_bytes(tree, kappa: int, lam: int) -> int:
    """Bytes one threshold's sweep may hold at once, beyond the fixed
    ``_FIXED_BYTES``: ``_LEVEL_COPIES`` copies of the largest level table
    and ``_VERTEX_WORDS`` int64 per vertex."""
    dense = tree.dense_arrays()
    width = np.diff(dense["level_end"], prepend=0)
    cells = int((width * np.minimum(kappa, dense["level_size"])).max()) * (lam + 1)
    return 8 * (_LEVEL_COPIES * cells + _VERTEX_WORDS * tree.vertex_count)


def _engages(tree, xis, kappa: int, lam: int) -> bool:
    """The kernel's guards: no value may come near 2^60, and one
    threshold's sweep stays under ``_MAX_TABLE_BYTES``.  The bound runs
    first, so that oversized ints never reach ``dense_arrays``."""
    a_max = max(x.numerator for x in xis)
    b_max = max(x.denominator for x in xis)
    return (_bound_ok(tree, a_max, b_max, kappa, lam)
            and _sweep_bytes(tree, kappa, lam) <= _MAX_TABLE_BYTES)


def root_row(tree, xi: Fraction, kappa: int, lam: int, use_pot: bool,
             forbidden_ids) -> list | None:
    """Least outlier budget at the root per part count: a list of
    ``kappa + 1`` Python ints, ``lam + 1`` where no budget up to ``lam``
    suffices, as ``treecut.solver._least_budgets`` returns.  None when the
    kernel cannot engage."""
    if not _engages(tree, (xi,), kappa, lam):
        return None
    return _np_sweep(tree.dense_arrays(), _forb_array(tree, forbidden_ids),
                     np.array([xi.numerator], dtype=np.int64),
                     np.array([xi.denominator], dtype=np.int64),
                     kappa, lam, use_pot)[0].tolist()


def decide_many(tree, xis, kappa: int, lam: int, use_pot: bool,
                forbidden_ids) -> list | None:
    """Batched decisions over thresholds, or None when the kernel cannot
    engage (any single threshold out of bounds disqualifies the batch).
    Thresholds share each sweep, in chunks small enough that the sweep's
    memory figure (``_sweep_bytes`` per threshold) stays within
    ``_NP_CHUNK_BYTES``."""
    if not xis:
        return []
    if not _engages(tree, xis, kappa, lam):
        return None
    dense = tree.dense_arrays()
    forb = _forb_array(tree, forbidden_ids)
    chunk = max(1, _NP_CHUNK_BYTES // _sweep_bytes(tree, kappa, lam))
    out = []
    for j in range(0, len(xis), chunk):
        part = xis[j:j + chunk]
        least = _np_sweep(dense, forb,
                          np.array([x.numerator for x in part], dtype=np.int64),
                          np.array([x.denominator for x in part], dtype=np.int64),
                          kappa, lam, use_pot)
        out.extend(bool(v) for v in least[:, kappa] <= lam)
    return out


def warm_up() -> None:
    """Nothing to do: the numpy kernel compiles nothing (kept for timing
    harnesses that warm the kernel before a measured region)."""
