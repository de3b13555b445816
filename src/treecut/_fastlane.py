"""Int64 decision kernel.

Compute the same decisions as ``treecut.solver`` (no backtracking records)
over flat int64 arrays with numpy, by one of two sweeps:

* the level sweep (``_np_sweep``): one batch of array operations per tree
  level, for all vertices of the level at once;
* the chain sweep (``_chain_sweep``): one batch per heavy-path round (at
  most ``log2(n) + 1`` of them) and table row, scanning all heavy paths of
  the round at once, so that paths and caterpillars, with as many levels
  as vertices, take a few batches.

They are used only when a conservative a-priori bound proves every
intermediate value fits in 64 bits, so results are exact whenever they
engage; otherwise (values over the bound, a sweep whose memory figure,
``_sweep_bytes`` or ``_chain_bytes``, is over ``_MAX_TABLE_BYTES``)
callers fall back to the Python least-budget sweep of ``treecut.solver``,
exact at any size.  Witnesses do not come from them: ``treecut.solver.solve``
runs that Python sweep keeping its tables, and ``treecut.witness`` replays
them.  One cost rule, ``lane``, prices the two numpy sweeps from the
tree's shape, the budgets and the threshold count, and names the cheaper
that engages, or the Python sweep when neither does; ``root_row`` and
``decide_many`` run the sweep it names and return None for the Python
one, and ``treecut.search`` sizes its bisection rounds by its estimates
(``cost_us``, ``fits``).

Any finite table value is a sum of at most ``parts + outliers`` edge
charges, so ``(parts + outliers + 2) * max_charge`` bounds every quantity
the kernel compares or adds.

Vertices arrive relabeled in BFS order (see ``RootedTree.dense_arrays``):
position 0 is the root, every vertex's children occupy the contiguous
range ``[cstart[u], cend[u])``, each depth is a contiguous range, and
scanning positions downward visits children before parents.  A forest's
layout marks position 0 ``virtual_root``: both sweeps then end by folding
the trees' least budgets alone (``_fold_least``), with no cut-charge rows.

Every array of both sweeps puts the vertex axis last: cut-charge tables
are ``(rows, lam + 1, thresholds, vertices)``, least budgets ``(rows + 1,
thresholds, vertices)``, charges ``(thresholds, vertices)`` and the chain
sweep's row arrays ``(lam + 1, thresholds, vertices)``.  Once the part
and outlier budgets are fixed the work per vertex is constant, so the
sweeps' time goes to moving numpy data: with the many vertices of a level
or round innermost and contiguous, each (min,+) product, threshold test
and scan walks long runs of memory, where a vertex-first layout gives
every numpy call runs of ``lam + 1`` cells.  Only the returned rows are
``(thresholds, parts + 1)``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import UnknownVertexId
from .tree import part_cap

_SAFE_LIMIT = 1 << 60
_MAX_TABLE_BYTES = 1 << 31


# -- the level sweep --------------------------------------------------------
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
# where full ``parts + 1`` rows would take 518 MB.  Below a virtual root
# no vertex keeps more rows than a tree of the forest can hold parts in
# a feasible split (``_row_cap``): rows up to the cap read only rows up
# to it, so the root's fold is the same for every part count.
#
# A level's cut-charge table is laid out ``(rows, lam + 1, thresholds,
# vertices)`` and its least budgets ``(rows + 1, thresholds, vertices)``,
# so each product, test and count runs along the whole level (see the
# module docstring), and row merges work along axis 0.  Gathers of
# vertices go through ``np.take(x, idx, axis=-1)``, which keeps the
# vertex axis innermost; ``x[..., idx]`` would lay the gathered axis out
# outermost in memory.
#
# Finite values stay inside (-2^60, 2^60) by ``_bound_ok``.  Infinity is
# 2^61, so a sum with an infinite operand is at least 2^60 (even when the
# other operand is a negative charge) and is reset to infinity, and two
# infinities still fit in 63 bits.

_NP_INF = np.int64(1) << np.int64(61)
_NP_CHUNK_BYTES = 1 << 25


def _min_plus_gamma(Y, X, rows):
    """``out[c, l] = min Y[i, lp] + X[c - i, l - lp]`` for ``c < rows``,
    over shifted cut-charge rows (axis 0; row ``i`` holds ``i + 1``
    parts) and budgets (axis 1), saturated as ``_min_plus_budget`` is
    (once: saturating commutes with the minimum)."""
    lp1 = Y.shape[1]
    out = np.full((rows,) + Y.shape[1:], _NP_INF)
    tmp = np.empty((min(X.shape[0], rows),) + X.shape[1:], dtype=np.int64)
    for i in range(min(Y.shape[0], rows)):
        span = min(X.shape[0], rows - i)
        for lp in range(lp1):
            dst, t = out[i:i + span, lp:], tmp[:span, lp:]
            np.add(Y[i, lp], X[:span, :lp1 - lp], out=t)
            np.minimum(dst, t, out=dst)
    np.putmask(out, out >= _SAFE_LIMIT, _NP_INF)
    return out


def _min_plus_mu(U, M, rows, none):
    """``out[k] = min U[i] + M[k - i]`` for ``k < rows`` (axis 0): the
    least budget with which two groups of subtrees hold ``k`` parts
    between them."""
    out = np.full((rows,) + U.shape[1:], none, dtype=U.dtype)
    for i in range(min(U.shape[0], rows)):
        span = min(M.shape[0], rows - i)
        dst = out[i:i + span]
        np.minimum(dst, U[i] + M[:span], out=dst)
    return out


def _grow(a, rows, fill):
    """``a`` with axis 0 padded to ``rows`` entries of ``fill``."""
    if a.shape[0] >= rows:
        return a
    out = np.full((rows,) + a.shape[1:], fill, dtype=a.dtype)
    out[:a.shape[0]] = a
    return out


def _take(x, idx):
    """``x[..., idx]`` for a slice or an index array, vertex axis last."""
    return x[..., idx] if isinstance(idx, slice) else np.take(x, idx, axis=-1)


def _fold_plan(counts):
    """Pairing indices of ``_fold_runs`` for runs of ``counts`` items (all
    >= 1): per merge round, the left items of the pairs, the items kept
    and which of the kept ones take a merge output."""
    plan = []
    while counts.max() > 1:
        rank = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        left = rank % 2 == 0
        pair = left & (rank + 1 < np.repeat(counts, counts))
        keep = np.flatnonzero(left)
        plan.append((np.flatnonzero(pair), keep, pair[keep]))
        counts = (counts + 1) // 2
    return plan


def _cached_plan(dense, key, counts):
    """``_fold_plan(counts)``, kept with the dense arrays under ``key`` (a
    tree level or heavy-path round, whose counts never change) when it
    holds a merge round; an empty plan costs one ``max`` to rebuild, less
    than the entry that would keep it."""
    plans = dense.setdefault("fold_plans", {})
    plan = plans.get(key)
    if plan is None:
        plan = _fold_plan(counts)
        if plan:
            plans[key] = plan
    return plan


def _fold_runs(plan, items, fills, merge):
    """Fold each run of consecutive items into one item, merging
    neighbours pairwise round by round as ``plan`` (``_fold_plan``) pairs
    them.  ``items`` is a tuple of arrays indexed along the last axis
    whose axis 0 may grow in a merge; unmerged items are padded with
    ``fills`` to match."""
    for li, keep, slot in plan:
        merged = merge(tuple(np.take(x, li, axis=-1) for x in items),
                       tuple(np.take(x, li + 1, axis=-1) for x in items))
        items = tuple(_grow(np.take(x, keep, axis=-1), mx.shape[0], fill)
                      for x, mx, fill in zip(items, merged, fills))
        for x, mx in zip(items, merged):
            x[..., slot] = mx
    return items


def _charges(dense, a_arr, b_arr, use_pot):
    """The charge of cutting each parent edge, and the threshold test of a
    part topped at each vertex (a leaf passes it iff thr >= 0), per
    threshold and vertex."""
    a = a_arr[:, None]
    b = b_arr[:, None]
    eps = a * dense["w_sub"] + b * dense["c_edge"]
    thr = a * dense["w_sub"] - b * dense["c_edge"]
    if use_pot:
        pot = b * dense["p_sub"]
        eps -= pot
        thr -= pot
    return eps, thr


def _fold_children(G, M, e, plan, rows, kappa, none):
    """Children's tables folded per parent: ``G``, ``M`` and ``e`` are the
    children's cut-charge rows, least budgets and edge charges, in runs of
    siblings that ``plan`` pairs; the folds keep at most ``rows`` rows
    (``rows + 1`` least budgets)."""
    # a child cut off with all its s vertices as parts fills row s; the
    # child joins its parent's part, or its edge is cut at charge e
    G = _grow(G, min(kappa, G.shape[0] + 1), _NP_INF)
    budgets = np.arange(G.shape[1])[:, None, None]
    cut = (budgets >= M[:G.shape[0], None]) & (e <= G)

    def merge(left, right):
        # a subtree of s vertices holds at most s parts, so the rows that
        # can be finite add up, up to ``rows``
        return (_min_plus_gamma(left[0], right[0],
                                min(rows, left[0].shape[0] + right[0].shape[0] - 1)),
                _min_plus_mu(left[1], right[1],
                             min(rows + 1, left[1].shape[0] + right[1].shape[0] - 1), none))

    return _fold_runs(plan, (np.where(cut, e, G), M), (_NP_INF, none), merge)


def _fold_least(M, plan, kappa, none):
    """The virtual root's fold: its children's least budgets ``M`` (one run
    that ``plan`` pairs) folded into a ``(thresholds, kappa + 1)`` array
    of least budgets, with no cut-charge rows."""
    def merge(left, right):
        return (_min_plus_mu(left[0], right[0],
                             min(kappa + 1, left[0].shape[0] + right[0].shape[0] - 1), none),)

    return _fold_runs(plan, (M,), (none,), merge)[0][..., 0].T


def _row_cap(dense, kappa, lam):
    """The most rows a vertex keeps: ``kappa``, or below a virtual root
    the forest's ``tree.part_cap``; 1 where that is 0, since every root
    entry is then ``none`` whatever the trees hold.  The trees' rows still
    add up to ``kappa`` or more, so the root's fold has ``kappa + 1``
    entries."""
    if not dense.get("virtual_root"):
        return kappa
    trees = dense["size"][dense["cstart"][0]:dense["cend"][0]].tolist()
    return max(1, part_cap(trees, kappa, lam))


def _np_sweep(dense, forb, a_arr, b_arr, kappa, lam, use_pot):
    """Least sufficient outlier budget at the root, ``out[j, k]`` for
    threshold ``a_arr[j] / b_arr[j]`` and ``k`` parts; a value over
    ``lam`` marks an infeasible cell.  The level sweep."""
    level_end = dense["level_end"]
    kids = dense["cend"] - dense["cstart"]
    eps, thr = _charges(dense, a_arr, b_arr, use_pot)
    nb = a_arr.shape[0]
    lp1 = lam + 1
    none = lp1
    cap = _row_cap(dense, kappa, lam)
    # the level below: shifted cut-charge rows (row i holds i + 1 parts,
    # for i below the subtree size) and least budgets by part count
    G = M = None
    for d in range(len(level_end) - 1, -1, -1):
        if not d and dense.get("virtual_root"):
            return _fold_least(M, _cached_plan(dense, ("level", 0), kids[:1]), kappa, none)
        lo = level_end[d - 1] if d else 0
        hi = level_end[d]
        width = hi - lo
        rows = min(cap, int(dense["level_size"][d]))
        # a childless vertex folds nothing: its own part alone, and no
        # parts among its children
        Y = np.full((rows, lp1, nb, width), _NP_INF)
        Y[0] = 0
        U = np.full((rows + 1, nb, width), none, dtype=np.int64)
        U[0] = 0
        if G is not None:
            counts = kids[lo:hi]
            par = np.flatnonzero(counts)
            Yf, Uf = _fold_children(G, M, eps[:, hi:level_end[d + 1]],
                                    _cached_plan(dense, ("level", d), counts[par]),
                                    rows, cap, none)
            Y[:Yf.shape[0], ..., par] = Yf
            U[:Uf.shape[0], ..., par] = Uf
        m = np.empty((rows + 1, nb, width), dtype=np.int64)
        m[0] = none
        m[1:] = lp1 - np.count_nonzero(Y <= thr[:, lo:hi], axis=1)
        np.minimum(m, np.where(forb[lo:hi] == 0, U + 1, none), out=m)
        G, M = Y, m
    return M[..., 0].T


# -- the chain sweep --------------------------------------------------------
#
# The same recurrences, one heavy-path round per step (see
# ``RootedTree.heavy_paths``), deepest round first.  A path vertex u with
# heavy child h folds its light children first, exactly as the level
# sweep folds a level's children: Z (cut-charge rows) and U (least
# budgets); without light children Z is row 0 of zeros and U = [0, none,
# ...].  With z = Z[0], X_h[i][l] = min(G_h[i][l], e_h if l >= M_h[i]),
# and (*) the (min,+) product over the budget:
#
#   G_u[i] = z * G_h[i]  min  D_u[i],
#            D_u[i] = z * C_h[i]  min  min_{i' >= 1} Z[i'] * X_h[i - i'],
#            C_h[i][l] = e_h if l >= M_h[i], else infinity;
#   M_u[k] = min(P_u, q_u + M_h[k]),
#            P_u = min(the least l with G_u[k-1][l] <= thr_u,
#                      1 + min_{k' >= 1} U[k'] + M_h[k - k']),
#            q_u = 1 + U[0],
#
# where a forbidden u drops both "1 +" terms.  D_u[i] and P_u read only
# rows below i (k) and row i of M_h, so the rows go M[0], G[0], M[1], ...
# and each row is one scan of affine maps along all paths of the round
# at once, from each path's leaf up.
#
# As in the level sweep, the round's vertices come last: a row array
# (the row being scanned, z, the composite z's) is ``(lam + 1,
# thresholds, vertices)``, a row of least budgets and the q's ``(thresholds,
# vertices)``, and the tables of the path tops and of the vertices with
# light children ``(rows, lam + 1, thresholds, vertices)``, so that each
# scan, product and test runs along the round's vertices: the scans
# accumulate along the last axis, and budget products work along axis -3.
#
# * M: the maps x -> min(P, q + x) compose by adding q's, so M_u[k] is the
#   least P_t + (the q's from u down to t) over t at or below u.  That is
#   one suffix ``np.minimum.accumulate`` over the round of P + Q, less Q,
#   for Q the prefix sums of q.  A path's leaf and a forbidden vertex have
#   q = none, so nothing below them reaches above them within the cap at
#   none.  Q is at most m (lam + 1) for a round of m vertices, which the
#   memory gate keeps under 2^31 / (8 * _CHAIN_ROW_COPIES) (each row array
#   holds m (lam + 1) cells), far inside int64.
# * G: with z all zeros (no potentials, no outliers, or no light child)
#   the map is x -> min(x, D), so a row is a suffix minimum of D per
#   path: one accumulate when the round is one path, else one per bucket
#   of paths of similar length.  Else the maps x -> z * x min D compose as
#   (z1, D1)(z2, D2) = (z1 * z2, z1 * D2 min D1), and a doubling scan
#   takes ceil(log2(longest path)) steps, with the composite z's built
#   once per round.
#
# z is finite and non-increasing in the budget, as every cut-charge row
# is, so z * C_h[i] is e_h + z[l - M_h[i]]: one gather.  Every (min,+)
# product saturates to infinity, as in the level sweep.


def _min_plus_budget(z, x):
    """``out[l] = min z[lp] + x[l - lp]`` over ``lp <= l``: the (min,+)
    product over the budget axis (-3, before thresholds and vertices),
    broadcast over the axes before it, with sums at or over 2^60 reset to
    infinity."""
    lp1 = z.shape[-3]
    out = z[..., :1, :, :] + x
    if lp1 > 1:
        tmp = np.empty_like(out)
        for lp in range(1, lp1):
            dst, t = out[..., lp:, :, :], tmp[..., lp:, :, :]
            np.add(z[..., lp:lp + 1, :, :], x[..., :lp1 - lp, :, :], out=t)
            np.minimum(dst, t, out=dst)
    np.putmask(out, out >= _SAFE_LIMIT, _NP_INF)
    return out


def _doubling_steps(rnd):
    """Per step of a doubling scan over a round, the round positions at
    least ``d`` steps above their path's leaf and the positions ``d``
    steps below them, for ``d = 1, 2, 4, ...`` (slices when the round is
    one path; cached in the round)."""
    if "steps" not in rnd:
        reach = rnd["reach"]
        m = reach.size
        steps = []
        d = 1
        while d <= reach.max():
            if rnd["top"].size == 1:
                steps.append((slice(0, m - d), slice(d, m)))
            else:
                v = np.flatnonzero(reach >= d)
                steps.append((v, v + d))
            d *= 2
        rnd["steps"] = steps
    return rnd["steps"]


def _path_buckets(rnd):
    """The round's paths of two or more vertices, in buckets of lengths
    within a factor of two: per bucket, a (paths, longest) array of round
    positions, each row one path from its leaf up, padded past the top
    with position 0; the positions it holds, and their places in the
    array (cached in the round)."""
    if "buckets" not in rnd:
        top = rnd["top"]
        length = rnd["reach"][top] + 1
        cls = np.ceil(np.log2(length)).astype(np.int64)
        buckets = []
        for c in np.flatnonzero(np.bincount(cls[length > 1])):
            tops = top[cls == c]
            lens = length[cls == c]
            steps = np.arange(int(lens.max()))
            real = steps < lens[:, None]
            rows = np.where(real, tops[:, None] + lens[:, None] - 1 - steps, 0)
            buckets.append((rows, rows[real], np.flatnonzero(real)))
        rnd["buckets"] = buckets
    return rnd["buckets"]


def _chain_sweep(dense, forb, a_arr, b_arr, kappa, lam, use_pot):
    """``_np_sweep``'s answer from the chain sweep, over the heavy-path
    rounds that ``RootedTree.heavy_paths`` keeps in ``dense``."""
    rounds = dense["rounds"]
    eps, thr = _charges(dense, a_arr, b_arr, use_pot)
    size = dense["size"]
    nb = a_arr.shape[0]
    lp1 = lam + 1
    none = lp1
    budgets = np.arange(lp1)[:, None, None]
    cap = _row_cap(dense, kappa, lam)
    Gt = Mt = None  # the round below's path tops: cut-charge rows, least budgets
    for r in range(len(rounds) - 1, -1, -1):
        rnd = rounds[r]
        if not r and dense.get("virtual_root"):
            # the root alone: below it, each tree tops a path
            return _fold_least(Mt, _cached_plan(dense, ("round", 0), rnd["lcount"]),
                               kappa, none)
        vert, top, lpar = rnd["vert"], rnd["top"], rnd["lpar"]
        m = vert.size
        rows = min(cap, int(size[vert[top]].max()))
        e_r, t_r = np.take(eps, vert, axis=-1), np.take(thr, vert, axis=-1)
        free = forb[vert] == 0
        end = rnd["reach"] == 0
        q = np.ones((nb, m), dtype=np.int64)
        z = None  # the all-zero z's stay implicit
        if lpar.size:
            below = rounds[r + 1]
            Z, U = _fold_children(Gt, Mt, np.take(eps, below["vert"][below["top"]], axis=-1),
                                  _cached_plan(dense, ("round", r), rnd["lcount"]),
                                  rows, cap, none)
            Gt = Mt = None
            q[:, lpar] = np.minimum(U[0] + 1, none)
            if Z[0].any():
                z = np.zeros((lp1, nb, m), dtype=np.int64)
                z[..., lpar] = Z[0]
            h = lpar + 1  # their heavy children
            lfree = free[lpar]
            Xh = np.empty((rows, lp1, nb, lpar.size), dtype=np.int64)
            Mh = np.empty((rows, nb, lpar.size), dtype=np.int64)
        q[:, end | ~free] = none
        Q = np.cumsum(q, axis=-1) - q
        zs = []
        if z is not None:
            steps = _doubling_steps(rnd)
            zc = z.copy()
            zc[..., end] = _NP_INF  # a leaf's map is constant
            for v, down in steps:
                zs.append(np.array(_take(zc, v)))  # a copy: zc changes below
                zc[..., v] = _min_plus_budget(zs[-1], _take(zc, down))
            del zc
        Gt = np.empty((rows, lp1, nb, top.size), dtype=np.int64)
        Mt = np.empty((rows + 1, nb, top.size), dtype=np.int64)
        for k in range(rows + 1):
            # least budgets, row k: u covered, passing its threshold test ...
            if k:
                P = lp1 - np.count_nonzero(Grow <= t_r, axis=0)
            else:
                P = np.full((nb, m), none, dtype=np.int64)
                P[:, end & free] = 1  # ... or a leaf the outlier
            # ... or u the outlier, with some of the parts below it in
            # light subtrees
            K = min(k, U.shape[0] - 1) if lpar.size else 0
            if K:
                W = (U[1:K + 1] + Mh[k - K:k][::-1]).min(axis=0)
                sub = lpar[lfree]
                P[:, sub] = np.minimum(np.take(P, sub, axis=-1), W[:, lfree] + 1)
            P += Q
            Mrow = np.minimum(np.minimum.accumulate(P[:, ::-1], axis=-1)[:, ::-1] - Q, none)
            Mt[k] = np.take(Mrow, top, axis=-1)
            if k == rows:
                break
            # cut-charge rows, row i = k
            i = k
            cut = budgets >= Mrow[:, 1:]
            e_h = e_r[:, 1:]
            D = np.empty((lp1, nb, m), dtype=np.int64)
            if z is None:
                D[..., :-1] = np.where(cut, e_h, _NP_INF)
            else:
                # z is finite: at no budget, every light child joins u
                shift = np.maximum(budgets - Mrow[:, 1:], 0)
                D[..., :-1] = np.where(cut, e_h + np.take_along_axis(z[..., :-1], shift, axis=0),
                                       _NP_INF)
            D[..., end] = 0 if i == 0 else _NP_INF  # a leaf: its own part alone
            I = min(i, Z.shape[0] - 1) if lpar.size else 0
            if I:
                B = _min_plus_budget(Z[I:0:-1], Xh[i - I:i]).min(axis=0)
                D[..., lpar] = np.minimum(np.take(D, lpar, axis=-1), B)
            if z is not None:
                for (v, down), zv in zip(steps, zs):
                    D[..., v] = np.minimum(_take(D, v), _min_plus_budget(zv, _take(D, down)))
            elif top.size == 1:
                D = np.minimum.accumulate(D[..., ::-1], axis=-1)[..., ::-1]
            else:
                for paths, dst, src in _path_buckets(rnd):
                    scanned = np.minimum.accumulate(np.take(D, paths, axis=-1), axis=-1)
                    D[..., dst] = np.take(scanned.reshape(lp1, nb, -1), src, axis=-1)
            Grow = D
            Gt[i] = np.take(Grow, top, axis=-1)
            if lpar.size:
                Mh[i] = np.take(Mrow, h, axis=-1)
                g = np.take(Grow, h, axis=-1)
                e = np.take(e_r, h, axis=-1)
                Xh[i] = np.where((budgets >= Mh[i]) & (e <= g), e, g)
    return Mt[..., 0].T


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
    forb = np.zeros(pos.size, dtype=np.uint8)
    for vid in forbidden_ids:
        if vid not in tree.index:
            raise UnknownVertexId(f"forbidden outlier {vid!r} is not in the tree")
        forb[pos[tree.index[vid]]] = 1
    return forb


# Memory figures, per threshold.
#
# Level sweep: a level's table holds width x min(kappa, largest subtree
# in the level) x (lam + 1) int64 cells; while it is built, the level
# below (grown by a row), the cut choices, the pairs and outputs of each
# merge round of ``_fold_runs`` and the sums inside ``_min_plus_gamma``
# coexist with it, and the least-budget arrays add up to two cells per
# table row.  The figure allows ``_LEVEL_COPIES`` copies of the largest
# level table.
#
# Chain sweep, per round: ``_CHAIN_ROW_COPIES`` row arrays of (lam + 1)
# cells per vertex (the row being scanned, its cut choices and gathers,
# the doubling scan's operands) plus one per doubling step for the
# composite z's; ``_CHAIN_TABLE_COPIES`` tables of min(kappa, largest
# subtree in the round) rows for each path top and each vertex with light
# children (the tops' output, the heavy children's rows that the light
# products read, Z and its products); and, while the light children are
# folded, ``_LEVEL_COPIES`` copies of their tables, as in a level.
#
# Both allow ``_VERTEX_WORDS`` int64 per vertex for the charges,
# thresholds, per-round sums and their temporaries, and ``_FIXED_BYTES``
# that do not grow with the tree.  Measured with tracemalloc (numpy 2.4)
# on stars, paths, caterpillars, random trees, brooms and spiders of
# 150-16,501 vertices, with parts up to n (n <= 2000), up to 20 outliers
# and potentials that make z non-zero, the peak of one threshold's sweep
# stayed within 65% of the level figure and 33% of the chain figure.
#
# The level sweep's first run on a tree also keeps one fold plan per
# level that holds a merge round (``_cached_plan`` keeps no empty plan),
# and the figure prices them: ``_PLAN_ROUND_BYTES`` per merge round (its
# index arrays' headers and the plan's list, tuple and key) and
# ``_PLAN_CHILD_WORDS`` int64 per child folded.  Without them the first
# sweep's peak reached 1.5x the figure on a 5000-vertex caterpillar and
# 3.7x on a 20,000-vertex one, whose plans measured 1.8 and 7.4 MB (790
# bytes per merge round).  A chain sweep keeps at most one plan per
# round, and its scans' indices, within its row arrays.
_LEVEL_COPIES = 32
_CHAIN_ROW_COPIES = 12
_CHAIN_TABLE_COPIES = 6
_VERTEX_WORDS = 8
_FIXED_BYTES = 1 << 20
_PLAN_ROUND_BYTES = 1 << 10
_PLAN_CHILD_WORDS = 3


def _level_stats(dense):
    """Per tree level: width, largest subtree, children in the level below
    and merge rounds of their fold; and the bytes of the fold plans the
    level sweep keeps (cached with the dense arrays)."""
    if "level_stats" not in dense:
        level_end = np.asarray(dense["level_end"])
        width = np.diff(level_end, prepend=0)
        kids = np.maximum.reduceat(dense["cend"] - dense["cstart"],
                                   level_end - width)
        children = np.append(width[1:], 0)
        merges = np.ceil(np.log2(np.maximum(kids, 1)))
        dense["level_stats"] = {
            "width": width,
            "size": dense["level_size"],
            "children": children,
            "merges": merges,
            "plan_bytes": int(_PLAN_ROUND_BYTES * merges.sum()
                              + 8 * _PLAN_CHILD_WORDS * children[merges > 0].sum()),
        }
    return dense["level_stats"]


def _round_stats(tree):
    """Per heavy-path round: vertices, paths, vertices with light
    children, largest subtree, doubling steps, and the paths and largest
    subtree of the round below (cached with the dense arrays)."""
    dense = tree.dense_arrays()
    if "round_stats" not in dense:
        rounds = tree.heavy_paths()
        size = np.array([dense["size"][r["vert"][r["top"]]].max() for r in rounds])
        paths = np.array([r["top"].size for r in rounds])
        dense["round_stats"] = {
            "m": np.array([r["vert"].size for r in rounds]),
            "paths": paths,
            "lpar": np.array([r["lpar"].size for r in rounds]),
            "size": size,
            "steps": np.array([int(r["reach"].max()).bit_length() for r in rounds]),
            "below_paths": np.append(paths[1:], 0),
            "below_size": np.append(size[1:], 0),
            "merges": np.array([np.ceil(np.log2(r["lcount"].max())) if r["lpar"].size
                                else 0 for r in rounds]),
        }
    return dense["round_stats"]


def _sweep_bytes(tree, kappa: int, lam: int) -> int:
    """Bytes one threshold's level sweep may hold at once, beyond the
    fixed ``_FIXED_BYTES``: ``_LEVEL_COPIES`` copies of the largest level
    table, ``_VERTEX_WORDS`` int64 per vertex and the fold plans."""
    st = _level_stats(tree.dense_arrays())
    cells = int((st["width"] * np.minimum(kappa, st["size"])).max()) * (lam + 1)
    return 8 * (_LEVEL_COPIES * cells + _VERTEX_WORDS * tree.vertex_count) + st["plan_bytes"]


def _chain_bytes(tree, kappa: int, lam: int) -> int:
    """Bytes one threshold's chain sweep may hold at once, beyond the fixed
    ``_FIXED_BYTES``: the largest round's row arrays, tables and light
    fold, and ``_VERTEX_WORDS`` int64 per vertex."""
    st = _round_stats(tree)
    cells = (st["m"] * (_CHAIN_ROW_COPIES + st["steps"])
             + _CHAIN_TABLE_COPIES * (st["paths"] + st["lpar"]) * np.minimum(kappa, st["size"])
             + _LEVEL_COPIES * st["below_paths"] * np.minimum(kappa, st["below_size"] + 1))
    return 8 * (int(cells.max()) * (lam + 1) + _VERTEX_WORDS * tree.vertex_count)


# -- the cost rule -----------------------------------------------------------
#
# Each numpy sweep's time is priced as a sum of counts the code can
# observe, each times a constant in microseconds:
#
# * the level sweep: per sweep; per level; per table cell of each level
#   and of its children, per threshold; per numpy call of the merge rounds
#   (one per table row and budget); per cell pair of the merges, per
#   threshold;
# * the chain sweep: per round; per table row of a round (the numpy calls
#   of one row of all its paths); per row cell of a round, per threshold;
#   per numpy call and cell pair of the light products; per cell of the
#   doubling scans (a budget product per step where potentials can make z
#   non-zero); per numpy call and cell pair of the light folds.
#
# A level is thus priced by its width, and a round by its vertices, its
# rows and its longest path.  The constants were fitted by least squares
# on the logarithm of the time, over 247 timed sweeps of each kind (the
# best of three) on one 2-core VM (Python 3.11.7, numpy 2.4.6): paths,
# stars, caterpillars, brooms, spiders and random recursive trees of
# 3-10,000 vertices, 1-20 parts (up to n below 3000 vertices), 0-10
# outliers and 1-16 thresholds, with and without potentials.  On 149
# other such sweeps one estimate in two was within 0.85-1.4x of the
# measured time.
#
# Those sweeps laid their tables out vertex-first.  On 158 level and 159
# chain sweeps of the vertex-last kernels, drawn the same way (sizes
# log-uniform), estimate over time had quartiles 1.20, 1.52 and 1.96 for
# the level sweep (39% within 0.85-1.4x) and 1.06, 1.58 and 2.45 for the
# chain sweep (31%).  A refit of both by the same procedure, on 246 level
# and 247 chain sweeps more, brought the held-out quartiles to 0.87,
# 1.07 and 1.36 (58% within) and 0.85, 1.02 and 1.32 (56%), but ranked
# the lanes worse past the sample's sizes: a 10^5-vertex star at 2 parts
# went to the chain sweep (28.5 ms, against 19.9 ms in the level sweep),
# and the benchmark's decide-large trees took 2% longer (optimize-exact
# 5% and kmax-wide 6% shorter; seed 7, in one process).  The rule is
# there to rank the lanes, so these constants stay until a fit covers
# 10^5-vertex trees.
#
# The Python sweep is not priced: it decides only where no numpy sweep
# engages.  It is faster on trees of a few dozen vertices, but no
# workload that times decisions holds one, and its estimate was the
# loosest of the three.
_LEVEL_US = (73, 51, 0.020, 13, 0.0020)  # sweep, level, cell, merge call
#                                          and cell pair
_CHAIN_US = (75, 43, 0.027, 10, 0.014, 0.00024, 21, 0.0041)  # round, row,
#   row cell, light product call and cell pair, doubling step cell, light
#   fold call and cell pair


def _fold_terms(rows, child_rows, children, merges):
    """(numpy calls, cell pairs) of ``_fold_runs`` merges of ``children``
    tables of ``child_rows`` rows into parents of ``rows`` rows, over
    ``merges`` rounds, summed over arrays of folds."""
    calls = pairs = 0
    for t in range(int(merges.max(initial=0))):
        span = np.minimum(rows, child_rows << t) * (merges > t)
        calls += int(span.sum())
        pairs += float((children * span * span).sum()) / 2 ** (t + 1)
    return calls, pairs


def _cached(dense, key, kappa, build):
    """``build()``, kept with the dense arrays per ``key`` and ``kappa``."""
    cache = dense.setdefault(key, {})
    if kappa not in cache:
        cache[kappa] = build()
    return cache[kappa]


def _numpy_terms(tree, kappa):
    dense = tree.dense_arrays()

    def build():
        lv = _level_stats(dense)
        rows = np.minimum(kappa, lv["size"])
        child_rows = np.minimum(kappa, np.append(lv["size"][1:], 0) + 1)
        ch = _round_stats(tree)
        crows = np.minimum(kappa, ch["size"])
        light = np.minimum(crows, ch["below_size"] + 1)
        doubling = ch["steps"] * crows * ch["m"]
        multi = ch["paths"] > 1
        lit = ch["lpar"] > 0  # rounds with light children
        return {
            "level": (rows.size, int((lv["width"] * rows + lv["children"] * child_rows).sum()))
                     + _fold_terms(rows, child_rows, lv["children"], lv["merges"]),
            "chain": (crows.size, int((crows + 1).sum()), int((ch["m"] * (crows + 1)).sum()),
                      int((crows * lit).sum()),
                      float((ch["lpar"] * crows * (light - 1)).sum()))
                     + _fold_terms(crows, light, ch["below_paths"], ch["merges"]),
            # cells of the scans of rounds of several paths with z all
            # zero; where z can be non-zero, of the doubling scans of the
            # rounds with light children and the scans of those of several
            # paths without
            "steps": (int((doubling * multi).sum()), int((doubling * lit).sum()),
                      int((doubling * (multi & ~lit)).sum())),
        }

    return _cached(dense, "numpy_terms", kappa, build)


def _level_us(tree, kappa, lam, thresholds):
    levels, cells, calls, pairs = _numpy_terms(tree, kappa)["level"]
    lp1 = lam + 1
    c = _LEVEL_US
    return (c[0] + c[1] * levels + c[2] * lp1 * thresholds * cells + c[3] * lp1 * calls
            + c[4] * lp1 * lp1 * thresholds * pairs)


def _chain_us(tree, kappa, lam, thresholds, use_pot):
    terms = _numpy_terms(tree, kappa)
    rounds, rows, cells, lcalls, lpairs, fcalls, fpairs = terms["chain"]
    lp1 = lam + 1
    # with potentials and outliers z can be non-zero: a round with light
    # children then runs a doubling scan of budget products (a round
    # without keeps z implicit)
    z = use_pot and lam > 0 and int(tree.dense_arrays()["p_sub"][0]) > 0
    multi, lit, multi_unlit = terms["steps"]
    step_cells = lit * lp1 + multi_unlit if z else multi
    c = _CHAIN_US
    return (c[0] * rounds + c[1] * rows + c[2] * lp1 * thresholds * cells
            + c[3] * lp1 * lcalls + c[4] * lp1 * lp1 * thresholds * lpairs
            + c[5] * lp1 * thresholds * step_cells
            + c[6] * lp1 * fcalls + c[7] * lp1 * lp1 * thresholds * fpairs)


def fits(tree, xis, kappa: int, lam: int) -> bool:
    """Whether a numpy sweep may take thresholds ``xis``: no value it
    computes may come near 2^60 (``_bound_ok`` on their largest numerator
    and denominator)."""
    return _bound_ok(tree, max(x.numerator for x in xis),
                     max(x.denominator for x in xis), kappa, lam)


def _sweep_costs(tree, xis, kappa: int, lam: int, use_pot: bool) -> dict:
    """Estimated microseconds of each numpy sweep that engages, by name
    (``"level"``, ``"chain"``): none when a value may come near 2^60, and
    a sweep only when one threshold's memory figure stays under
    ``_MAX_TABLE_BYTES``.  The bound runs first, so that oversized ints
    never reach ``dense_arrays``.  No threshold engages none."""
    if not xis or not fits(tree, xis, kappa, lam):
        return {}
    costs = {}
    if _sweep_bytes(tree, kappa, lam) <= _MAX_TABLE_BYTES:
        costs["level"] = _level_us(tree, kappa, lam, len(xis))
    if _chain_bytes(tree, kappa, lam) <= _MAX_TABLE_BYTES:
        costs["chain"] = _chain_us(tree, kappa, lam, len(xis), use_pot)
    return costs


def lane(tree, xis, kappa: int, lam: int, use_pot: bool = False) -> str:
    """The sweep to answer thresholds ``xis`` with: ``"level"`` or
    ``"chain"``, whichever the cost rule prices lower among those that
    engage, or ``"python"`` (the least-budget sweep of ``treecut.solver``)
    when neither does."""
    costs = _sweep_costs(tree, xis, kappa, lam, use_pot)
    return min(costs, key=costs.get) if costs else "python"


def cost_us(tree, xis, kappa: int, lam: int, use_pot: bool = False) -> float:
    """Estimated microseconds of the sweep that ``lane`` names; 0 for the
    Python sweep, which is not priced."""
    return min(_sweep_costs(tree, xis, kappa, lam, use_pot).values(), default=0)


def _numpy_sweep(tree, xis, kappa, lam, use_pot):
    """The cheaper numpy sweep that engages, with its memory figure, or
    None."""
    picked = lane(tree, xis, kappa, lam, use_pot)
    if picked == "python":
        return None
    if picked == "chain":
        return _chain_sweep, _chain_bytes(tree, kappa, lam)
    return _np_sweep, _sweep_bytes(tree, kappa, lam)


def root_row(tree, xi: Fraction, kappa: int, lam: int, use_pot: bool,
             forbidden_ids) -> list | None:
    """Least outlier budget at the root per part count: a list of
    ``kappa + 1`` Python ints, ``lam + 1`` where no budget up to ``lam``
    suffices, as ``treecut.solver._least_budgets`` returns, from the
    cheaper numpy sweep.  None when neither can engage."""
    picked = _numpy_sweep(tree, (xi,), kappa, lam, use_pot)
    if picked is None:
        return None
    return picked[0](tree.dense_arrays(), _forb_array(tree, forbidden_ids),
                     np.array([xi.numerator], dtype=np.int64),
                     np.array([xi.denominator], dtype=np.int64),
                     kappa, lam, use_pot)[0].tolist()


def decide_many(tree, xis, kappa: int, lam: int, use_pot: bool,
                forbidden_ids) -> list | None:
    """Batched decisions over thresholds, or None when no numpy sweep can
    engage (any single threshold out of bounds disqualifies the batch).
    Thresholds share each sweep, in chunks small enough that the sweep's
    memory figure (per threshold) stays within ``_NP_CHUNK_BYTES``."""
    if not xis:
        return []
    picked = _numpy_sweep(tree, xis, kappa, lam, use_pot)
    if picked is None:
        return None
    sweep, figure = picked
    dense = tree.dense_arrays()
    forb = _forb_array(tree, forbidden_ids)
    chunk = max(1, _NP_CHUNK_BYTES // figure)
    out = []
    for j in range(0, len(xis), chunk):
        part = xis[j:j + chunk]
        least = sweep(dense, forb,
                      np.array([x.numerator for x in part], dtype=np.int64),
                      np.array([x.denominator for x in part], dtype=np.int64),
                      kappa, lam, use_pot)
        out.extend(bool(v) for v in least[:, kappa] <= lam)
    return out


def warm_up() -> None:
    """Nothing to do: the numpy kernel compiles nothing (kept for timing
    harnesses that warm the kernel before a measured region)."""
