"""Int64 decision kernel.

Compute the same decisions as ``treecut.solver`` (no backtracking records)
over flat int64 arrays with numpy, by one of two sweeps:

* the level sweep (``_np_sweep``): one batch of array operations per tree
  level, for all vertices of the level at once;
* the chain sweep (``_chain_sweep``): one batch per heavy-path round (at
  most ``log2(n) + 1`` of them) and table row, scanning all heavy paths of
  the round at once, so that paths and caterpillars, with as many levels
  as vertices, take a few batches.  A round whose longest path is shorter
  than its table rows (bushy trees at large part counts, as in ``k_max``)
  runs instead one batch per step up its paths, each a level sweep's
  batch for the positions that many steps above their leaf, and a round
  of single leaves takes its tables in closed form (``_round_kind``).

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
# vertices go through ``x.take(idx, axis=-1)``, which keeps the vertex
# axis innermost; ``x[..., idx]`` would lay the gathered axis out
# outermost in memory.  The sweeps call ndarray methods and ufunc
# reductions (``x.take``, ``A.sum``, ``np.minimum.reduce``, ``np.empty``
# then ``fill``) rather than their ``np.`` wrappers, whose Python-level
# dispatch costs more than the C work on small trees.
#
# The (min,+) products over rows loop over the operand with fewer rows,
# in blocks (``_block_rows``): a block's sums against the other operand
# are written through a strided view (``_diagonals``) that lands each at
# the row it adds to, and one minimum over the block folds them.  A block
# takes about ``_BLOCK_CELLS`` cells per call, so a wide level, or a
# product of a few rows, keeps one row per call while a narrow product of
# many rows (a step of the chain sweep, the last merges of a star's
# leaves) takes a few calls.
#
# Finite values stay inside (-2^60, 2^60) by ``_bound_ok``.  Infinity is
# 2^61, so a sum with an infinite operand is at least 2^60 (even when the
# other operand is a negative charge) and is reset to infinity, and two
# infinities still fit in 63 bits.

_NP_INF = np.int64(1) << np.int64(61)
_NP_CHUNK_BYTES = 1 << 25
_BLOCK_CELLS = 1 << 14
_BLOCK_ROWS = 8


def _block_rows(left, span, cells):
    """Rows of the looped operand that one block of a (min,+) product
    takes, of ``left`` still to loop over, against ``span`` rows of the
    other of ``cells`` cells each: as many as keep a call near
    ``_BLOCK_CELLS`` cells, at most ``span``; one row where that is under
    ``_BLOCK_ROWS``, since a few rows' calls cost less than a block's fill
    and fold."""
    b = min(left, span, _BLOCK_CELLS // (span * cells))
    return b if b >= _BLOCK_ROWS else 1


def _diagonals(b, span, shape, fill):
    """A ``(b, span + b - 1) + shape`` buffer of ``fill``, and a view of it
    whose row ``j`` starts at column ``j``: sums written through the view
    land at the product row they add to, and a minimum over axis 0 of the
    buffer folds the block."""
    W = np.empty((b, span + b - 1) + shape, dtype=np.int64)
    W.fill(fill)
    V = np.ndarray((b, span) + shape, np.int64, W, 0,
                   (W.strides[0] + W.strides[1],) + W.strides[1:])
    return W, V


def _min_plus_gamma(Y, X, rows):
    """``out[c, l] = min Y[i, lp] + X[c - i, l - lp]`` for ``c < rows``,
    over shifted cut-charge rows (axis 0; row ``i`` holds ``i + 1``
    parts) and budgets (axis 1), saturated as ``_min_plus_budget`` is
    (once: saturating commutes with the minimum).  The loop runs over the
    operand with fewer rows, a block of ``_block_rows`` per step."""
    if X.shape[0] < Y.shape[0]:
        Y, X = X, Y
    lp1 = Y.shape[1]
    out = np.empty((rows,) + Y.shape[1:], dtype=np.int64)
    out.fill(_NP_INF)
    tmp = np.empty((min(X.shape[0], rows),) + X.shape[1:], dtype=np.int64)
    loop = min(Y.shape[0], rows)
    cells = tmp[0].size
    i = 0
    while i < loop:
        span = min(X.shape[0], rows - i)
        b = _block_rows(loop - i, span, cells) if loop - i >= _BLOCK_ROWS else 1
        if b == 1:
            for lp in range(lp1):
                dst, t = out[i:i + span, lp:], tmp[:span, lp:]
                np.add(Y[i, lp], X[:span, :lp1 - lp], out=t)
                np.minimum(dst, t, out=dst)
        else:
            W, V = _diagonals(b, span, X.shape[1:], _NP_INF)
            top = min(rows - i, span + b - 1)
            for lp in range(lp1):
                np.add(Y[i:i + b, lp, None, None], X[None, :span, :lp1 - lp],
                       out=V[:, :, lp:])
                dst = out[i:i + top, lp:]
                np.minimum(dst, np.minimum.reduce(W[:, :top, lp:], axis=0), out=dst)
        i += b
    np.putmask(out, out >= _SAFE_LIMIT, _NP_INF)
    return out


def _min_plus_mu(U, M, rows, none):
    """``out[k] = min U[i] + M[k - i]`` for ``k < rows`` (axis 0): the
    least budget with which two groups of subtrees hold ``k`` parts
    between them.  Looped as ``_min_plus_gamma``."""
    if M.shape[0] < U.shape[0]:
        U, M = M, U
    out = np.empty((rows,) + U.shape[1:], dtype=U.dtype)
    out.fill(none)
    loop = min(U.shape[0], rows)
    i = 0
    while i < loop:
        span = min(M.shape[0], rows - i)
        b = _block_rows(loop - i, span, M[0].size) if loop - i >= _BLOCK_ROWS else 1
        if b == 1:
            dst = out[i:i + span]
            np.minimum(dst, U[i] + M[:span], out=dst)
        else:
            W, V = _diagonals(b, span, M.shape[1:], none)
            np.add(U[i:i + b, None], M[None, :span], out=V)
            top = min(rows - i, span + b - 1)
            dst = out[i:i + top]
            np.minimum(dst, np.minimum.reduce(W[:, :top], axis=0), out=dst)
        i += b
    return out


def _grow(a, rows, fill):
    """``a`` with axis 0 padded to ``rows`` entries of ``fill``."""
    if a.shape[0] >= rows:
        return a
    out = np.empty((rows,) + a.shape[1:], dtype=a.dtype)
    out[:a.shape[0]] = a
    out[a.shape[0]:].fill(fill)
    return out


def _fold_plan(counts):
    """Pairing indices of ``_fold_runs`` for runs of ``counts`` items (all
    >= 1): per merge round, the left items of the pairs, the items kept
    and which of the kept ones take a merge output."""
    plan = []
    while counts.max() > 1:
        rank = np.arange(int(counts.sum())) - np.repeat(counts.cumsum() - counts, counts)
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
        merged = merge(tuple(x.take(li, axis=-1) for x in items),
                       tuple(x.take(li + 1, axis=-1) for x in items))
        items = tuple(_grow(x.take(keep, axis=-1), mx.shape[0], fill)
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


def _cut_or_join(G, M, e, kappa):
    """Children's cut-charge rows ``G`` as their parent's fold takes them:
    a child joins its parent's part, or its edge is cut at charge ``e``
    with its least budgets ``M`` (at most ``kappa`` rows)."""
    # a child cut off with all its s vertices as parts fills row s
    G = _grow(G, min(kappa, G.shape[0] + 1), _NP_INF)
    budgets = np.arange(G.shape[1])[:, None, None]
    cut = (budgets >= M[:G.shape[0], None]) & (e <= G)
    return np.where(cut, e, G)


def _fold_children(G, M, e, plan, rows, kappa, none):
    """Children's tables folded per parent: ``G``, ``M`` and ``e`` are the
    children's cut-charge rows, least budgets and edge charges, in runs of
    siblings that ``plan`` pairs; the folds keep at most ``rows`` rows
    (``rows + 1`` least budgets)."""
    def merge(left, right):
        # a subtree of s vertices holds at most s parts, so the rows that
        # can be finite add up, up to ``rows``
        return (_min_plus_gamma(left[0], right[0],
                                min(rows, left[0].shape[0] + right[0].shape[0] - 1)),
                _min_plus_mu(left[1], right[1],
                             min(rows + 1, left[1].shape[0] + right[1].shape[0] - 1), none))

    return _fold_runs(plan, (_cut_or_join(G, M, e, kappa), M), (_NP_INF, none), merge)


def _least_rows(Y, U, thr, free, none):
    """Least budgets by part count of vertices whose children folded to
    cut-charge rows ``Y`` and least budgets ``U``: the least budget with
    which the part topped at the vertex passes its threshold test
    ``thr``, or, where ``free``, the vertex the outlier (``none`` where
    neither can be had)."""
    m = np.empty((Y.shape[0] + 1,) + Y.shape[2:], dtype=np.int64)
    m[0] = none
    m[1:] = none - (Y <= thr).sum(axis=1)
    np.minimum(m, np.where(free, U + 1, none), out=m)
    return m


def _leaf_tables(thr, free, lp1):
    """Cut-charge rows and least budgets of leaves, in closed form: their
    own part alone at no charge, and 0 parts with the leaf the outlier
    (budget 1, where free) or 1 part that passes iff ``thr >= 0``."""
    none = lp1
    G = np.zeros((1, lp1) + thr.shape, dtype=np.int64)
    M = np.empty((2,) + thr.shape, dtype=np.int64)
    M[0] = np.where(free, 1, none)
    M[1] = np.where(thr >= 0, 0, none)
    return G, M


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
        Y = np.empty((rows, lp1, nb, width), dtype=np.int64)
        Y[0] = 0
        Y[1:].fill(_NP_INF)
        U = np.empty((rows + 1, nb, width), dtype=np.int64)
        U[0] = 0
        U[1:].fill(none)
        if G is not None:
            counts = kids[lo:hi]
            par = np.flatnonzero(counts)
            Yf, Uf = _fold_children(G, M, eps[:, hi:level_end[d + 1]],
                                    _cached_plan(dense, ("level", d), counts[par]),
                                    rows, cap, none)
            Y[:Yf.shape[0], ..., par] = Yf
            U[:Uf.shape[0], ..., par] = Uf
        G, M = Y, _least_rows(Y, U, thr[:, lo:hi], forb[lo:hi] == 0, none)
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
# (the row being scanned, the z's and composite z's) is ``(lam + 1,
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
# * G: where z is all zeros the map is x -> min(x, D), so the rows of a
#   round whose z's are all zero (no potentials, no outliers, or no light
#   child with potential) are the plain suffix minima SP of D per path:
#   one accumulate when the round is one path, else one per bucket of
#   paths of similar length.  Else z is 0 at no budget and non-increasing,
#   so z <= 0 and z * x <= x, and every G_u is at most min D over u and
#   everything below it on its path.  Hence:
#
#   - a position u whose z is zero has G_u = min(SP_u, G_s), for s the
#     nearest position at or below u on its path whose z is non-zero
#     (SP_u alone if there is none);
#   - a position s whose z is non-zero maps x -> z_s * x min D'_s, with
#     D'_s = min(D_s, z_s * SP_{s+1}), on x = G_t for t the next such
#     position below s on its path (and is constant, D'_s, at the last).
#     Where s + 1 is itself t, SP_{s+1} >= G_t adds nothing, and D'_s is
#     D_s.
#
#   So the sweep composes maps at the non-zero positions alone, with a
#   doubling scan over each path's sequence of them (``_z_chains``):
#   (z1, D1)(z2, D2) = (z1 * z2, z1 * D2 min D1) takes ceil(log2(their
#   count on the longest path)) steps, usually 0-2, with the composite
#   z's built once per round.  The row is then SP, lowered to G_s above
#   each non-zero s.  The plain D before the scan leaves z * C_h out:
#   where z is zero it is C_h, and where it is not, G_s is at most it.
#   z can be non-zero only at a vertex with a light child of positive
#   subtree potential, since a negative cut charge needs potential (the
#   cost rule counts those vertices, ``_round_stats``).
#
# z is finite and non-increasing in the budget, as every cut-charge row
# is, so z * C_h[i] is e_h + z[l - M_h[i]]: one gather, at the non-zero
# positions.  Every (min,+) product saturates to infinity, as in the
# level sweep.
#
# Step rounds.  A scan makes rows + 1 passes over its round, however short
# its paths; at ``k_max``'s parts = n a 13-position round of a 150-vertex
# tree would take 151.  A round whose longest path is shorter than its
# rows (``_round_kind``) runs instead one step per path position, from the
# leaves up: step j runs a level's recurrences on the positions j steps
# above their path's leaf, with the light fold as one more child.  Each
# heavy child is cut or joined as ``_fold_children`` takes a child
# (``_cut_or_join``), one ``_min_plus_gamma`` and one ``_min_plus_mu``
# merge it with Z and U over all rows at once, and the least budgets
# follow as in a level (``_least_rows``).  z needs no composition there:
# it is row 0 of Z inside the product.  Paths go longest first
# (``_step_plan``), so the positions of step j are a prefix of step j -
# 1's, their heavy children, and the paths that end at step j hand their
# tops' tables to the round's output.  Step 0 is the paths' leaves, and a
# round of single leaves is step 0 alone: both take their tables in
# closed form (``_leaf_tables``).


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


def _z_chains(z, lpar, top, m):
    """The maps of a round's non-zero z's, composed once per sweep (see
    the chain comment), or None when every z is zero.  ``z`` is
    ``(lam + 1, thresholds, light parents)``, one z per round position in
    ``lpar``; ``top`` the round positions of the path tops and ``m`` the
    round's size.

    Returns the non-zero positions ``nz`` and their z's; the indices into
    them ``need`` whose heavy child is not in ``nz`` (their D' reads the
    plain suffix minimum there), with those z's; per doubling step the
    indices, those ``d`` further down the path and the composite z's; and
    the round positions ``fix`` with a non-zero position at or below them
    on their path, with the index ``near`` of the nearest one."""
    nzl = np.flatnonzero(z.reshape(-1, lpar.size).any(axis=0))
    if not nzl.size:
        return None
    nz = lpar[nzl]
    zn = z.take(nzl, axis=-1)
    k = nz.size
    path = np.searchsorted(top, nz, side="right") - 1
    last = np.append(path[1:] != path[:-1], True)
    ends = np.flatnonzero(last)
    at = np.arange(k)
    reach = ends[np.searchsorted(ends, at)] - at  # steps to the path's last nz
    zc = zn.copy()
    zc[..., last] = _NP_INF  # the last map of a path is constant
    steps = []
    d = 1
    while d <= reach.max():
        v = np.flatnonzero(reach >= d)
        zv = zc.take(v, axis=-1)
        steps.append((v, v + d, zv))
        zc[..., v] = _min_plus_budget(zv, zc.take(v + d, axis=-1))
        d *= 2
    need = np.flatnonzero(np.append(nz[1:] != nz[:-1] + 1, True))
    pos = np.arange(m)
    src = np.minimum(np.searchsorted(nz, pos), k - 1)
    fix = np.flatnonzero((nz[src] >= pos) & (pos >= top[path[src]]))
    return nz, zn, need, zn.take(need, axis=-1), steps, fix, src[fix]


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


def _round_kind(rnd, rows):
    """How the chain sweep runs a round of ``rows`` table rows: ``"leaf"``
    when every path is a single leaf (tables in closed form), ``"step"``
    when its longest path is shorter than ``rows`` (step by step up the
    paths) and ``"scan"`` otherwise (row by row along the paths)."""
    longest = int(rnd["reach"].max()) + 1
    if longest == 1:
        return "leaf"
    return "step" if longest < rows else "scan"


def _step_plan(rnd):
    """The steps of a round's paths, longest paths first (cached in the
    round): the path order (indices into ``top``) and, per step ``j``, the
    round positions ``j`` steps above their path's leaf (one per path
    longer than ``j``, in that order), which of them have light children
    and at which index of ``lpar``."""
    if "step_plan" not in rnd:
        top, lpar = rnd["top"], rnd["lpar"]
        length = rnd["reach"][top] + 1
        order = np.argsort(-length, kind="stable")
        length = length[order]
        leaf = top[order] + length - 1
        steps = []
        for j in range(int(length[0])):
            pos = leaf[:np.searchsorted(-length, -j)] - j
            li = np.flatnonzero(np.isin(pos, lpar))
            steps.append((pos, li, np.searchsorted(lpar, pos[li])))
        rnd["step_plan"] = order, steps
    return rnd["step_plan"]


def _step_round(rnd, rows, kappa, Z, U, e_r, t_r, free, size_r, lp1):
    """The tables of a round's path tops, built step by step up its paths
    (see the chain comment): ``Z`` and ``U`` are the light folds of the
    round's ``lpar`` (or None), and ``e_r``, ``t_r``, ``free`` and
    ``size_r`` its vertices' charges, threshold tests, freedom to be an
    outlier and subtree sizes."""
    none = lp1
    order, steps = _step_plan(rnd)
    nb = t_r.shape[0]
    Gt = np.empty((rows, lp1, nb, order.size), dtype=np.int64)
    Gt.fill(_NP_INF)
    Mt = np.empty((rows + 1, nb, order.size), dtype=np.int64)
    Mt.fill(none)
    for j, (pos, li, lz) in enumerate(steps):
        p = pos.size
        if not j:
            G, M = _leaf_tables(t_r.take(pos, axis=-1), free[pos], lp1)
        else:
            # the heavy children, cut or joined, and the light folds (one
            # part of zero charge, and no parts, where there are none)
            X = _cut_or_join(G[..., :p], M[..., :p], e_r.take(pos + 1, axis=-1), kappa)
            rows_j = min(kappa, int(size_r[pos].max()))
            if li.size:
                Zs = np.empty((Z.shape[0], lp1, nb, p), dtype=np.int64)
                Zs[0] = 0
                Zs[1:].fill(_NP_INF)
                Zs[..., li] = Z.take(lz, axis=-1)
                Us = np.empty((U.shape[0], nb, p), dtype=np.int64)
                Us[0] = 0
                Us[1:].fill(none)
                Us[..., li] = U.take(lz, axis=-1)
                G = _min_plus_gamma(Zs, X, rows_j)
                Uu = _min_plus_mu(Us, M[..., :p], rows_j + 1, none)
            else:
                # the heavy children alone (whose rows, sized for their whole
                # step, may pass this one's)
                G = _grow(X[:rows_j], rows_j, _NP_INF)
                Uu = _grow(M[:rows_j + 1, ..., :p], rows_j + 1, none)
            M = _least_rows(G, Uu, t_r.take(pos, axis=-1), free[pos], none)
        # the paths of exactly j + 1 vertices end here, at their tops
        rest = steps[j + 1][0].size if j + 1 < len(steps) else 0
        Gt[:G.shape[0], ..., order[rest:p]] = G[..., rest:]
        Mt[:M.shape[0], ..., order[rest:p]] = M[..., rest:]
    return Gt, Mt


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
        e_r, t_r = eps.take(vert, axis=-1), thr.take(vert, axis=-1)
        free = forb[vert] == 0
        kind = _round_kind(rnd, rows)
        if kind == "leaf":
            Gt, Mt = _leaf_tables(t_r, free, lp1)
            continue
        Z = U = None
        if lpar.size:
            below = rounds[r + 1]
            Z, U = _fold_children(Gt, Mt, eps.take(below["vert"][below["top"]], axis=-1),
                                  _cached_plan(dense, ("round", r), rnd["lcount"]),
                                  rows, cap, none)
            Gt = Mt = None
        if kind == "step":
            Gt, Mt = _step_round(rnd, rows, cap, Z, U, e_r, t_r, free, size[vert], lp1)
            continue
        end = rnd["reach"] == 0
        q = np.ones((nb, m), dtype=np.int64)
        chains = None  # the all-zero z's stay implicit
        if lpar.size:
            q[:, lpar] = np.minimum(U[0] + 1, none)
            chains = _z_chains(Z[0], lpar, top, m)
            h = lpar + 1  # their heavy children
            lfree = free[lpar]
            Xh = np.empty((rows, lp1, nb, lpar.size), dtype=np.int64)
            Mh = np.empty((rows, nb, lpar.size), dtype=np.int64)
        if chains is not None:
            nz, zn, need, zneed, steps, fix, near = chains
            e_nz = e_r.take(nz + 1, axis=-1)
        q[:, end | ~free] = none
        Q = q.cumsum(axis=-1) - q
        Gt = np.empty((rows, lp1, nb, top.size), dtype=np.int64)
        Mt = np.empty((rows + 1, nb, top.size), dtype=np.int64)
        for k in range(rows + 1):
            # least budgets, row k: u covered, passing its threshold test ...
            if k:
                P = lp1 - (Grow <= t_r).sum(axis=0)
            else:
                P = np.empty((nb, m), dtype=np.int64)
                P.fill(none)
                P[:, end & free] = 1  # ... or a leaf the outlier
            # ... or u the outlier, with some of the parts below it in
            # light subtrees
            K = min(k, U.shape[0] - 1) if lpar.size else 0
            if K:
                W = np.minimum.reduce(U[1:K + 1] + Mh[k - K:k][::-1])
                sub = lpar[lfree]
                P[:, sub] = np.minimum(P.take(sub, axis=-1), W[:, lfree] + 1)
            P += Q
            Mrow = np.minimum(np.minimum.accumulate(P[:, ::-1], axis=-1)[:, ::-1] - Q, none)
            Mt[k] = Mrow.take(top, axis=-1)
            if k == rows:
                break
            # cut-charge rows, row i = k: D with z = 0 ...
            i = k
            D = np.empty((lp1, nb, m), dtype=np.int64)
            D[..., :-1] = np.where(budgets >= Mrow[:, 1:], e_r[:, 1:], _NP_INF)
            D[..., end] = 0 if i == 0 else _NP_INF  # a leaf: its own part alone
            I = min(i, Z.shape[0] - 1) if lpar.size else 0
            if I:
                B = np.minimum.reduce(_min_plus_budget(Z[I:0:-1], Xh[i - I:i]))
                D[..., lpar] = np.minimum(D.take(lpar, axis=-1), B)
            if chains is not None:
                # ... and where z is non-zero, z * C_h[i]
                Mn = Mrow.take(nz + 1, axis=-1)
                shift = np.maximum(budgets - Mn, 0)
                Dn = np.minimum(D.take(nz, axis=-1), np.where(
                    budgets >= Mn, e_nz + np.take_along_axis(zn, shift, axis=0), _NP_INF))
            # the suffix minima of D along each path
            if top.size == 1:
                D = np.minimum.accumulate(D[..., ::-1], axis=-1)[..., ::-1]
            else:
                for paths, dst, src in _path_buckets(rnd):
                    scanned = np.minimum.accumulate(D.take(paths, axis=-1), axis=-1)
                    D[..., dst] = scanned.reshape(lp1, nb, -1).take(src, axis=-1)
            if chains is not None:
                if need.size:
                    Dn[..., need] = np.minimum(Dn.take(need, axis=-1), _min_plus_budget(
                        zneed, D.take(nz.take(need) + 1, axis=-1)))
                for v, down, zv in steps:
                    Dn[..., v] = np.minimum(Dn.take(v, axis=-1),
                                            _min_plus_budget(zv, Dn.take(down, axis=-1)))
                D[..., fix] = np.minimum(D.take(fix, axis=-1), Dn.take(near, axis=-1))
            Grow = D
            Gt[i] = Grow.take(top, axis=-1)
            if lpar.size:
                Mh[i] = Mrow.take(h, axis=-1)
                g = Grow.take(h, axis=-1)
                e = e_r.take(h, axis=-1)
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
# its suffix minima and the minima taken back from the composed maps)
# plus, per doubling step of the composition, (lam + 1) cells for each
# vertex where z can be non-zero, for the composite z's;
# ``_CHAIN_TABLE_COPIES`` tables of min(kappa, largest subtree in the
# round) rows for each path top and each vertex with light children
# (the tops' output, the heavy children's rows that the light products
# read, Z and its products); and, while the light children are folded,
# ``_LEVEL_COPIES`` copies of their tables, as in a level.  A step round
# holds, besides its tops' tables and the light fold, a few tables of its
# step's positions (at most its paths) and rows, within the same
# ``_CHAIN_TABLE_COPIES``.
#
# Both allow ``_VERTEX_WORDS`` int64 per vertex for the charges,
# thresholds, per-round sums and their temporaries, ``_BLOCK_BYTES`` for
# one product block (at most ``2 * _BLOCK_CELLS`` cells, and its minimum,
# at most ``_BLOCK_CELLS``), and ``_FIXED_BYTES`` that do not grow with
# the tree.  Measured with tracemalloc (numpy 2.4)
# on stars, paths, caterpillars, random trees, brooms and spiders of
# 150-16,501 vertices, with parts up to n (n <= 2000), up to 20 outliers
# and potentials that make z non-zero, the peak of one threshold's sweep
# stayed within 65% of the level figure and 33% of the chain figure.
# With the chain figure's composite z's counted only where z can be
# non-zero, the chain sweep's peak on caterpillars, random trees, brooms,
# spiders and stars of 150-5000 vertices with potentials, at (3, 20),
# (n, 3), (2, 0), (3, 2) and (20, 5), stayed within 25% of it.  With step
# rounds and product blocks, the chain sweep's peak on stars, paths,
# caterpillars, random trees, brooms, spiders and three-tree forests of
# 150 and 400 vertices, at (3, 20), (n, 3) and (n, 0), with and without
# potentials, stayed within 97% of its figure (the level sweep's within
# 107%), the fixed bytes not counted.
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
_BLOCK_BYTES = 3 * 8 * _BLOCK_CELLS


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
    children, largest subtree, longest path, doubling steps of its plain
    scan, and the paths and largest subtree of the round below; and the
    vertices where z can be non-zero (with a light child of positive
    subtree potential) with the doubling steps of their composition, the
    most of them on one path less one, in bits (cached with the dense
    arrays)."""
    dense = tree.dense_arrays()
    if "round_stats" not in dense:
        rounds = tree.heavy_paths()
        size = np.array([dense["size"][r["vert"][r["top"]]].max() for r in rounds])
        paths = np.array([r["top"].size for r in rounds])
        zk = np.zeros(len(rounds), dtype=np.int64)
        zsteps = np.zeros(len(rounds), dtype=np.int64)
        for j, (here, below) in enumerate(zip(rounds, rounds[1:])):
            charged = dense["p_sub"][below["vert"][below["top"]]] > 0
            first = here["lcount"].cumsum() - here["lcount"]
            zpos = here["lpar"][np.add.reduceat(charged, first) > 0]
            if zpos.size:
                per_path = np.bincount(np.searchsorted(here["top"], zpos, side="right"))
                zk[j] = zpos.size
                zsteps[j] = int(per_path.max() - 1).bit_length()
        dense["round_stats"] = {
            "m": np.array([r["vert"].size for r in rounds]),
            "longest": np.array([int(r["reach"].max()) + 1 for r in rounds]),
            "paths": paths,
            "lpar": np.array([r["lpar"].size for r in rounds]),
            "size": size,
            "steps": np.array([int(r["reach"].max()).bit_length() for r in rounds]),
            "below_paths": np.append(paths[1:], 0),
            "below_size": np.append(size[1:], 0),
            "merges": np.array([np.ceil(np.log2(r["lcount"].max())) if r["lpar"].size
                                else 0 for r in rounds]),
            "zk": zk,
            "zsteps": zsteps,
        }
    return dense["round_stats"]


def _step_stats(tree, rounds, light):
    """Per step of the heavy-path ``rounds`` (indices) in turn: its
    positions, the largest subtree among them and among the step's below
    (0 at step 0), and the rows of the light folds its products take
    (``light`` per round, 1 where no position of the step has light
    children)."""
    dense = tree.dense_arrays()
    stats = [[], [], [], []]
    for j in rounds:
        rnd = tree.heavy_paths()[j]
        reach = rnd["reach"]
        steps = int(reach.max()) + 1
        big = np.zeros(steps, dtype=np.int64)
        np.maximum.at(big, reach, dense["size"][rnd["vert"]])
        lit = np.bincount(reach[rnd["lpar"]], minlength=steps) > 0
        for out, x in zip(stats, (np.bincount(reach), big, np.append(0, big[:-1]),
                                  np.where(lit, light[j], 1))):
            out.append(x)
    return [np.concatenate(x) if x else np.zeros(0, dtype=np.int64) for x in stats]


def _sweep_bytes(tree, kappa: int, lam: int) -> int:
    """Bytes one threshold's level sweep may hold at once, beyond the
    fixed ``_FIXED_BYTES``: ``_LEVEL_COPIES`` copies of the largest level
    table, ``_VERTEX_WORDS`` int64 per vertex and the fold plans."""
    st = _level_stats(tree.dense_arrays())
    cells = int((st["width"] * np.minimum(kappa, st["size"])).max()) * (lam + 1)
    return (8 * (_LEVEL_COPIES * cells + _VERTEX_WORDS * tree.vertex_count)
            + st["plan_bytes"] + _BLOCK_BYTES)


def _chain_bytes(tree, kappa: int, lam: int) -> int:
    """Bytes one threshold's chain sweep may hold at once, beyond the fixed
    ``_FIXED_BYTES``: the largest round's row arrays, tables and light
    fold, and ``_VERTEX_WORDS`` int64 per vertex."""
    st = _round_stats(tree)
    cells = (st["m"] * _CHAIN_ROW_COPIES + st["zk"] * st["zsteps"]
             + _CHAIN_TABLE_COPIES * (st["paths"] + st["lpar"]) * np.minimum(kappa, st["size"])
             + _LEVEL_COPIES * st["below_paths"] * np.minimum(kappa, st["below_size"] + 1))
    return 8 * (int(cells.max()) * (lam + 1) + _VERTEX_WORDS * tree.vertex_count) + _BLOCK_BYTES


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
#   scans of rounds of several paths and, where potentials can make z
#   non-zero, of the budget products that compose its maps and the row
#   arrays that take their minima back; per numpy call and cell pair of
#   the light folds;
# * a step round of the chain sweep, in place of its rows, row cells,
#   light products and scans: the level sweep's constants over its steps,
#   per step, per cell of a step's tables and of its heavy children's,
#   per numpy call of its products (one per block of rows, as
#   ``_block_rows`` takes them) and per cell pair.
#
# A level is thus priced by its width, and a round by its vertices, its
# rows and its longest path.  Two prices stay as they were with no refit,
# so that the rule ranks the lanes near the crossover as before: a leaf
# round keeps a scan's (its closed form takes less), and a step round
# the composition's where potentials can make z non-zero (it composes
# nothing).  The constants were fitted by least squares
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
#   row cell, light product call and cell pair, scan and composition
#   cell, light fold call and cell pair


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
        rows_l = np.minimum(kappa, lv["size"])
        child_rows = np.minimum(kappa, np.append(lv["size"][1:], 0) + 1)
        ch = _round_stats(tree)
        crows = np.minimum(kappa, ch["size"])
        light = np.minimum(crows, ch["below_size"] + 1)
        multi = ch["paths"] > 1
        lit = ch["lpar"] > 0  # rounds with light children
        # how each round runs (``_round_kind``): a step round has none of
        # the scan's terms, and a leaf round keeps a scan's price (see the
        # cost-rule comment)
        leaf = ch["longest"] == 1
        stepped = ~leaf & (ch["longest"] < crows)
        scan = ~leaf & ~stepped
        width, size, prev, z = _step_stats(tree, np.flatnonzero(stepped), light)
        rows = np.minimum(kappa, size)
        below = np.minimum(kappa, prev + 1)  # the heavy children's rows, grown by one
        merge = prev > 0  # step 0 takes the leaves in closed form
        return {
            "level": (rows_l.size, int((lv["width"] * rows_l + lv["children"] * child_rows).sum()))
                     + _fold_terms(rows_l, child_rows, lv["children"], lv["merges"]),
            "chain": (crows.size, int((crows + 1)[~stepped].sum()),
                      int((ch["m"] * (crows + 1))[~stepped].sum()),
                      int((crows * lit)[scan].sum()),
                      float((ch["lpar"] * crows * (light - 1))[scan].sum()))
                     + _fold_terms(crows, light, ch["below_paths"], ch["merges"]),
            # cells of the plain scans of rounds of several paths; where z
            # can be non-zero, of the budget products that compose its
            # maps (one per doubling step and one for D') and of the
            # row arrays that take their minima back (a step round keeps
            # that price, see the cost-rule comment)
            "steps": (int((ch["steps"] * crows * ch["m"] * multi)[scan].sum()),
                      int((crows * ch["zk"] * (ch["zsteps"] + 1))[~leaf].sum()),
                      int((crows * ch["m"] * (ch["zk"] > 0))[~leaf].sum())),
            # the steps of step rounds, priced as levels: their count and
            # cells (the leaves' step, as a level of leaves, included), and
            # per merging step its width and the rows of the operand its
            # products loop over and of the other, within the step's rows
            "stepped": (width.size,
                        int((width * np.where(merge, rows + below, 3)).sum()),
                        width[merge], np.minimum(z, below)[merge],
                        np.minimum(np.maximum(z, below), rows)[merge]),
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
    # with potentials and outliers z can be non-zero, where a light child
    # has positive subtree potential: those maps are composed by budget
    # products, and the rest keep z implicit
    z = use_pot and lam > 0 and int(tree.dense_arrays()["p_sub"][0]) > 0
    multi, products, fixes = terms["steps"]
    step_cells = multi + (products * lp1 + fixes if z else 0)
    c = _CHAIN_US
    levels, level_cells, width, loop, other = terms["stepped"]
    # a step's products take blocks of rows of the operand they loop over
    block = np.minimum(np.minimum(loop, other), _BLOCK_CELLS // (other * lp1 * thresholds * width))
    block[block < _BLOCK_ROWS] = 1
    cl = _LEVEL_US
    return (c[0] * rounds + c[1] * rows + c[2] * lp1 * thresholds * cells
            + c[3] * lp1 * lcalls + c[4] * lp1 * lp1 * thresholds * lpairs
            + c[5] * lp1 * thresholds * step_cells
            + c[6] * lp1 * fcalls + c[7] * lp1 * lp1 * thresholds * fpairs
            + cl[1] * levels + cl[2] * lp1 * thresholds * level_cells
            + cl[3] * lp1 * int((-(-loop // block)).sum())
            + cl[4] * lp1 * lp1 * thresholds * float((width * loop * other).sum()))


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
