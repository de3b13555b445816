"""Exact decision kernel.

Compute the least budgets and tables of the DP that ``treecut.solver``
describes over flat numpy arrays, by the chain sweep (``_chain_sweep``):
one batch of array operations per heavy-path round (at most ``log2(n) +
1`` of them), over all heavy paths of the round at once, so that paths
and caterpillars, with as many levels as vertices, take a few batches.
A round runs in one of three ways (``_round_kind``): row by row, one scan
along its paths per table row; step by step up its paths when its
longest path is shorter than its table rows (bushy trees at large part
counts, as in ``k_max``), each step a batch for the positions that many
steps above their leaf; and, for a round of single leaves, in closed
form.

The sweep is the only DP, exact at any size.  Where a conservative
a-priori bound (``_bound_ok``) proves every value fits in 64 bits, its
cut-charge cells are int64; past the bound the same code runs on
``dtype=object`` arrays of Python ints (``_thresholds`` picks the dtype,
and ``RootedTree.dense_arrays`` keeps the tree's values as objects only
when they leave int64).  Least budgets are counts of at most ``lam + 1``
and stay int64 either way.  A round keeps a row per part count its
largest subtree can hold (the tree-knapsack bound); a round below the
root then hands up its path tops' tables cut after their last feasible
row (``_trim``), since at a given threshold most of those counts are
infeasible, and the folds above read the rows cut off as infinite.  A
memory figure per threshold (``_chain_bytes``, and ``_kept_bytes`` for a
witness) bounds what a sweep holds; both stay a-priori figures, from the
subtree sizes alone, which the trim only lowers the peak under.  Over
``_MAX_TABLE_BYTES`` ``root_row``, ``decide_many`` and ``witness_tables``
raise ``TablesTooLarge``.  For one threshold,
``witness_tables`` keeps the rows every round builds, which are every
vertex's tables, and ``treecut.solver.solve`` hands them to the replay of
``treecut.witness``.  A cost rule (``cost_us``) prices the int64 sweep,
affine in the threshold count, from counts of the rounds it runs;
``treecut.search`` sizes its bisection rounds by it.

Vertices arrive relabeled in BFS order (see ``RootedTree.dense_arrays``):
position 0 is the root, every vertex's children occupy the contiguous
range ``[cstart[u], cend[u])``, and scanning positions downward visits
children before parents.  A forest's layout marks position 0
``virtual_root``: the sweep then ends by folding the trees' least budgets
alone (``_fold_least``), with no cut-charge rows.

Every array of the sweep puts the vertex axis last: cut-charge tables
are ``(rows, lam + 1, thresholds, vertices)``, least budgets ``(rows + 1,
thresholds, vertices)``, charges ``(thresholds, vertices)`` and the row
arrays of a scan ``(lam + 1, thresholds, vertices)``.  Once the part and
outlier budgets are fixed the work per vertex is constant, so the sweep's
time goes to moving numpy data: with the many vertices of a round
innermost and contiguous, each (min,+) product, threshold test and scan
walks long runs of memory, where a vertex-first layout gives every numpy
call runs of ``lam + 1`` cells.  Only the returned rows are
``(thresholds, parts + 1)``.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from fractions import Fraction

import numpy as np

from .errors import TablesTooLarge, UnknownVertexId
from .solver import _infinity
from .tree import part_cap

_SAFE_LIMIT = 1 << 60
_MAX_TABLE_BYTES = 1 << 31


# -- tables and their folds -------------------------------------------------
#
# Three facts keep the batches small.  mu is monotone in the outlier
# budget, so a vertex's mu grid is stored as the least sufficient budget
# per part count (over ``lam`` when no budget in range suffices), and
# combining the children's mu grids becomes a (min,+) convolution over k
# alone.  Both folds over children are associative and commutative, so
# the light children of a round's vertices fold in pairs, all at once, in
# ceil(log2(degree)) rounds (``_fold_children``); no table depends on
# the fold order (a witness's choices do, and the replay folds a vertex's
# children again, left to right, where it splits a cell between them).
# A subtree of s vertices holds at most s parts, so every table and each
# merge's output keep only the rows its subtree sizes can fill
# (the tree-knapsack bound).  Below a virtual root no vertex keeps more
# rows than a tree of the forest can hold parts in a feasible split
# (``_row_cap``): rows up to the cap read only rows up to it, so the
# root's fold is the same for every part count.  At one threshold most
# of those rows are often infeasible (at parts = n on the kmax-wide
# benchmark trees, over nine in ten of the row pairs the products of a
# sweep multiplied held no finite cell), so a round below the root of
# more than ``_BLOCK_ROWS`` rows hands up its path tops' tables cut after
# the last row with a feasible cell (``_trim``).  Every reader takes a
# missing row as infinite, as it takes the rows past a smaller subtree's
# (``_grow``, ``_cut_or_join``, a gathered product's padding), so the
# folds, merges and steps above shrink with it; a virtual root's fold is
# padded back to ``kappa + 1`` least budgets.  The memory figures count
# the rows the subtree sizes allow, so the trim only lowers the peak
# under them.
#
# A table is laid out ``(rows, lam + 1, thresholds, vertices)`` and least
# budgets ``(rows + 1, thresholds, vertices)``, so each product, test and
# count runs along all the vertices at once (see the module docstring),
# and row merges work along axis 0.  Gathers of vertices go through
# ``x.take(idx, axis=-1)``, which keeps the vertex axis innermost;
# ``x[..., idx]`` would lay the gathered axis out outermost in memory.
# The sweep calls ndarray methods and ufunc reductions (``x.take``,
# ``A.sum``, ``np.minimum.reduce``, ``np.empty`` then ``fill``) rather than
# their ``np.`` wrappers, whose Python-level dispatch costs more than the
# C work on small trees.
#
# A (min,+) product over rows (and budgets) whose looped operand, the
# one with fewer rows, has under ``_BLOCK_ROWS`` rows and whose summed
# cells fit ``_BLOCK_HELD`` (``_gathers``) is gathered through an index
# plan (``_plan``): for each output cell the operand cells it pairs,
# padded to as many pairs per cell as the looped operand has cells, with
# one take of each operand, one sum, one minimum over the pair axis and
# the saturation.  That is a few numpy calls where a loop would make two
# per looped row and budget, and most products of a sweep on trees of a
# few thousand vertices or fewer, and of ``k_max``'s many small folds,
# are that small.  A plan depends only on the looped operand's rows,
# the budgets and the output rows, so the other operand is padded past
# its own rows with cells whose sums saturate, and one plan, grown to the
# most output rows asked of it, serves every product of that looped
# shape.  Plans stay in a cache of at most ``_PLAN_BYTES`` (``_Plans``),
# least recently used first out: the sweeps of the kmax-wide benchmark
# workload (seed 7) keep 24 plans, 219 KB.  Larger products
# loop over the operand with fewer rows, in blocks (``_block_rows``): a
# block's sums against the other operand are written through a strided
# view (``_diagonals``) that lands each at the row it adds to, and one
# minimum over the block folds them.  A block takes about
# ``_BLOCK_CELLS`` cells per call, so a wide fold keeps one row per call
# while a narrow product of many rows (a step of a round, the last merges
# of a star's leaves) takes a few calls.
#
# One infinity serves both dtypes: ``solver._infinity``, for a batch the
# largest over its thresholds, and every (min,+) product saturates to it
# (``np.minimum(out, inf, out=out)``).  For a threshold a / b and W, C, P
# the totals of weight, cost and potential, a cell sums the charges of
# cut vertices none of which lies below another, so a finite cell lies
# in [-b * P, a * W + b * C]; an infeasible cell is a sum with an
# infeasible operand, at least inf - b * P, which inf > a * W + b * (C +
# P) keeps above every finite cell and every threshold test.  Saturated
# cells lie in [-b * P, inf], so a sum of two lies in [-2 * inf, 2 * inf];
# a gathered product pads rows with 2 * inf, whose sums lie in (inf, 3 *
# inf] and so saturate to inf as an absent pair would leave it.  Under
# ``_bound_ok`` 2 * inf < 2^61, so int64 cells never overflow.  On Python
# ints nothing overflows, and saturating keeps the ints small and the
# cells equal to the int64 sweep's.

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


def _diagonals(b, span, shape, fill, dtype):
    """A ``(b, span + b - 1) + shape`` buffer of ``fill``, and a view of it
    whose row ``j`` starts at column ``j``: sums written through the view
    land at the product row they add to, and a minimum over axis 0 of the
    buffer folds the block.  Both reshape one flat array, in which the
    view's row ``j`` starts ``j (span + b)`` cells in, since numpy builds
    no object array over another's buffer."""
    flat = np.empty((b * (span + b),) + shape, dtype=dtype)
    flat.fill(fill)
    W = flat[:b * (span + b - 1)].reshape((b, span + b - 1) + shape)
    return W, flat.reshape((b, span + b) + shape)[:, :span]


def _plan(loop, lp1, rows):
    """Index pairs of a (min,+) product of an operand of ``loop`` rows by
    one of ``rows`` rows (padded past its own rows), both of ``lp1``
    budgets, into its first ``rows`` rows: two ``(loop * lp1, rows *
    lp1)`` int32 arrays, over each operand and the output flattened to
    (row, budget) cells.  Output cell (c, l) pairs row t of the first
    with row c - t of the second, and budget s with l - s, for every t
    and s; where t > c or s > l the pair repeats t = c or s = l."""
    c = np.arange(rows, dtype=np.int32)
    i = np.minimum(np.arange(loop, dtype=np.int32)[:, None], c)
    l = np.arange(lp1, dtype=np.int32)
    s = np.minimum(l[:, None], l)
    return tuple((r[:, None, :, None] * lp1 + b[:, None, :]).reshape(loop * lp1, rows * lp1)
                 for r, b in ((i, s), (c - i, l - s)))


class _Plans:
    """``_plan``s by ``(loop, lp1)``, each built for the most rows asked
    of it so far and sliced to the rows asked, kept while they hold at
    most ``limit`` bytes: past it the least recently used go.  A lock
    keeps the cache whole under threads."""

    def __init__(self, limit):
        self.limit = limit
        self.held = 0
        self.plans = OrderedDict()
        self.lock = threading.Lock()

    def get(self, loop, lp1, rows):
        key = loop, lp1
        n = rows * lp1
        with self.lock:
            plan = self.plans.get(key)
            if plan is None or plan[0].shape[1] < n:
                if plan is not None:
                    self.held -= 2 * plan[0].nbytes
                plan = self.plans[key] = _plan(loop, lp1, rows)
                self.held += 2 * plan[0].nbytes
            self.plans.move_to_end(key)
            while self.held > self.limit and len(self.plans) > 1:
                self.held -= 2 * self.plans.popitem(last=False)[1][0].nbytes
        yi, xi = plan
        return yi[:, :n], xi[:, :n]


_PLAN_BYTES = 1 << 18
_PLANS = _Plans(_PLAN_BYTES)


def _gathers(loop, cells):
    """Whether a (min,+) product whose looped operand has ``loop`` rows,
    of ``cells`` summed cells, is gathered: under ``_BLOCK_ROWS`` rows,
    and its temporaries (two takes, numpy's intp copy of the plan and
    the padded operand, each at most ``cells``) within ``_BLOCK_HELD``."""
    return loop < _BLOCK_ROWS and 4 * cells <= _BLOCK_HELD


def _gathered(a, b, plan, axis, out=None):
    """``min_j a[plan[0][j]] + b[plan[1][j]]`` along ``axis``: one take of
    each operand, one sum and one minimum over the pair axis."""
    s = a.take(plan[0], axis=axis)
    np.add(s, b.take(plan[1], axis=axis), out=s)
    return np.minimum.reduce(s, axis=axis, out=out)


def _min_plus_gamma(Y, X, rows, inf):
    """``out[c, l] = min Y[i, lp] + X[c - i, l - lp]`` for ``c < rows``,
    over shifted cut-charge rows (axis 0; row ``i`` holds ``i + 1``
    parts) and budgets (axis 1), saturated to ``inf`` (once: saturating
    commutes with the minimum).  A small product (``_gathers``) is
    gathered through an index plan (``_plan``); a larger one loops over
    the operand with fewer rows, a block of ``_block_rows`` per step."""
    if X.shape[0] < Y.shape[0]:
        Y, X = X, Y
    lp1 = Y.shape[1]
    out = np.empty((rows,) + Y.shape[1:], dtype=Y.dtype)
    ky = min(Y.shape[0], rows)
    top = min(rows, ky + X.shape[0] - 1)
    if _gathers(ky, ky * lp1 * top * lp1 * Y[0, 0].size):
        # the other operand's rows past its own hold 2 * inf, whose sums
        # exceed inf (see the infinity comment) and saturate to it
        flat = (-1,) + Y.shape[2:]
        _gathered(Y[:ky].reshape(flat), _grow(X[:top], top, 2 * inf).reshape(flat),
                  _PLANS.get(ky, lp1, top), 0, out=out[:top].reshape(flat))
        out[top:].fill(inf)
        np.minimum(out, inf, out=out)
        return out
    out.fill(inf)
    tmp = np.empty((min(X.shape[0], rows),) + X.shape[1:], dtype=Y.dtype)
    cells = tmp[0].size
    i = 0
    while i < ky:
        span = min(X.shape[0], rows - i)
        b = _block_rows(ky - i, span, cells) if ky - i >= _BLOCK_ROWS else 1
        if b == 1:
            for lp in range(lp1):
                dst, t = out[i:i + span, lp:], tmp[:span, lp:]
                np.add(Y[i, lp], X[:span, :lp1 - lp], out=t)
                np.minimum(dst, t, out=dst)
        else:
            W, V = _diagonals(b, span, X.shape[1:], inf, Y.dtype)
            top = min(rows - i, span + b - 1)
            for lp in range(lp1):
                np.add(Y[i:i + b, lp, None, None], X[None, :span, :lp1 - lp],
                       out=V[:, :, lp:])
                dst = out[i:i + top, lp:]
                np.minimum(dst, np.minimum.reduce(W[:, :top, lp:], axis=0), out=dst)
        i += b
    np.minimum(out, inf, out=out)
    return out


def _min_plus_mu(U, M, rows, none):
    """``out[k] = min U[i] + M[k - i]`` for ``k < rows`` (axis 0), capped
    at ``none``: the least budget with which two groups of subtrees hold
    ``k`` parts between them.  ``_min_plus_gamma`` over one budget, with
    ``none`` for its infinity."""
    return _min_plus_gamma(U[:, None], M[:, None], rows, none)[:, 0]


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
    heavy-path round, whose counts never change) when it holds a merge
    round; an empty plan costs one ``max`` to rebuild, less
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


def _cut_or_join(G, M, e, kappa, inf):
    """Children's cut-charge rows ``G`` as their parent's fold takes them:
    a child joins its parent's part, or its edge is cut at charge ``e``
    with its least budgets ``M`` (at most ``kappa`` rows)."""
    # a child cut off with all its s vertices as parts fills row s
    G = _grow(G, min(kappa, G.shape[0] + 1), inf)
    budgets = np.arange(G.shape[1])[:, None, None]
    cut = (budgets >= M[:G.shape[0], None]) & (e <= G)
    return np.where(cut, e, G)


def _fold_children(G, M, e, plan, rows, kappa, none, inf):
    """Children's tables folded per parent: ``G``, ``M`` and ``e`` are the
    children's cut-charge rows, least budgets and edge charges, in runs of
    siblings that ``plan`` pairs; the folds keep at most ``rows`` rows
    (``rows + 1`` least budgets)."""
    def merge(left, right):
        # a subtree of s vertices holds at most s parts, so the rows that
        # can be finite add up, up to ``rows``
        return (_min_plus_gamma(left[0], right[0],
                                min(rows, left[0].shape[0] + right[0].shape[0] - 1), inf),
                _min_plus_mu(left[1], right[1],
                             min(rows + 1, left[1].shape[0] + right[1].shape[0] - 1), none))

    return _fold_runs(plan, (_cut_or_join(G, M, e, kappa, inf), M), (inf, none), merge)


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
    G = np.zeros((1, lp1) + thr.shape, dtype=thr.dtype)
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

    # trimmed trees' rows (``_trim``) may add up to fewer than kappa + 1
    return _grow(_fold_runs(plan, (M,), (none,), merge)[0][..., 0], kappa + 1, none).T


def _trim(G, M, inf, none):
    """Path-top tables ``G`` and ``M`` cut after the last row with a
    feasible cell: a cut-charge cell below ``inf`` (row ``i``, ``i + 1``
    parts) or a least budget below ``none`` (row ``k``, ``k`` parts), at
    least one cut-charge row.  A fold reads the rows cut off as infinite,
    as it reads those past a smaller subtree's."""
    g = np.flatnonzero((G < inf).reshape(G.shape[0], -1).any(axis=1))
    m = np.flatnonzero((M < none).reshape(M.shape[0], -1).any(axis=1))
    rows = max(1, g[-1] + 1 if g.size else 0, m[-1] if m.size else 0)
    return G[:rows], M[:rows + 1]


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


# -- the chain sweep --------------------------------------------------------
#
# The recurrences of ``treecut.solver``, one heavy-path round per step
# (see ``RootedTree.heavy_paths``), deepest round first.  A path vertex u
# with heavy child h folds its light children first, in pairs
# (``_fold_children``): Z (cut-charge rows) and U (least budgets);
# without light children Z is row 0 of zeros and U = [0, none, ...].
# With z = Z[0], X_h[i][l] = min(G_h[i][l], e_h if l >= M_h[i]), and (*)
# the (min,+) product over the budget:
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
# The round's vertices come last: a row array (the row being scanned,
# the z's and composite z's) is ``(lam + 1, thresholds, vertices)``, a row
# of least budgets and the q's ``(thresholds, vertices)``, and the tables
# of the path tops and of the vertices with light children ``(rows, lam +
# 1, thresholds, vertices)``, so that each scan, product and test runs
# along the round's vertices: the scans accumulate along the last axis,
# and budget products work along axis -3.
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
#   memory figure counts those vertices' composite z's, ``_round_stats``).
#
# z is finite and non-increasing in the budget, as every cut-charge row
# is, so z * C_h[i] is e_h + z[l - M_h[i]]: one gather, at the non-zero
# positions.  Every (min,+) product saturates to infinity.
#
# Step rounds.  A scan makes rows + 1 passes over its round, however short
# its paths; at ``k_max``'s parts = n a 13-position round of a 150-vertex
# tree would take 151.  A round whose longest path is shorter than its
# rows (``_round_kind``) runs instead one step per path position, from the
# leaves up: step j runs the recurrences on the positions j steps above
# their path's leaf, with the light fold as one more child.  Each
# heavy child is cut or joined as ``_fold_children`` takes a child
# (``_cut_or_join``), one ``_min_plus_gamma`` and one ``_min_plus_mu``
# merge it with Z and U over all rows at once, and the least budgets
# follow from the merged rows (``_least_rows``).  z needs no composition there:
# it is row 0 of Z inside the product.  Paths go longest first
# (``_step_plan``), so the positions of step j are a prefix of step j -
# 1's, their heavy children, and the paths that end at step j hand their
# tops' tables to the round's output.  Step 0 is the paths' leaves, and a
# round of single leaves is step 0 alone: both take their tables in
# closed form (``_leaf_tables``).


def _min_plus_budget(z, x, inf):
    """``out[l] = min z[lp] + x[l - lp]`` over ``lp <= l``: the (min,+)
    product over the budget axis (-3, before thresholds and vertices),
    over the axes before it, saturated to ``inf``.  Gathered where
    ``_gathers`` allows, else one call pair per budget."""
    lp1 = z.shape[-3]
    if _gathers(1, lp1 * z.size):
        out = _gathered(z, x, _PLANS.get(1, lp1, 1), z.ndim - 3)
    else:
        out = z[..., :1, :, :] + x
        if lp1 > 1:
            tmp = np.empty_like(out)
            for lp in range(1, lp1):
                dst, t = out[..., lp:, :, :], tmp[..., lp:, :, :]
                np.add(z[..., lp:lp + 1, :, :], x[..., :lp1 - lp, :, :], out=t)
                np.minimum(dst, t, out=dst)
    np.minimum(out, inf, out=out)
    return out


def _z_chains(z, lpar, top, m, inf):
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
    zc[..., last] = inf  # the last map of a path is constant
    steps = []
    d = 1
    while d <= reach.max():
        v = np.flatnonzero(reach >= d)
        zv = zc.take(v, axis=-1)
        steps.append((v, v + d, zv))
        zc[..., v] = _min_plus_budget(zv, zc.take(v + d, axis=-1), inf)
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


def _round_rows(dense, rnd, cap):
    """The table rows of a round: its largest subtree's vertex count,
    within the row cap ``cap`` (``_row_cap``)."""
    return min(cap, int(dense["size"][rnd["vert"][rnd["top"]]].max()))


def _round_kind(rnd, rows):
    """How the chain sweep runs a round of ``rows`` table rows: ``"leaf"``
    when every path is a single leaf (tables in closed form), ``"step"``
    when its longest path is shorter than ``rows`` (step by step up the
    paths) and ``"scan"`` otherwise (row by row along the paths)."""
    longest = int(rnd["reach"].max()) + 1
    if longest == 1:
        return "leaf"
    return "step" if longest < rows else "scan"


def _step_plan(rnd, size_r):
    """The steps of a round's paths, longest paths first (cached in the
    round; ``size_r`` is its vertices' subtree sizes): the path order
    (indices into ``top``); the round positions of every step in one
    array, step ``j``'s at ``[bounds[j], bounds[j + 1])``, those ``j``
    steps above their path's leaf (one per path longer than ``j``, in that
    order); each position's column of the light folds as ``_step_round``
    pads them (0 for none, else one past its index in ``lpar``); and per
    step its largest subtree and whether a position has light children.
    Nothing in it depends on the part budget."""
    if "step_plan" not in rnd:
        top, lpar = rnd["top"], rnd["lpar"]
        length = rnd["reach"][top] + 1
        order = np.argsort(-length, kind="stable")
        length = length[order]
        leaf = top[order] + length - 1
        counts = np.searchsorted(-length, -np.arange(int(length[0])))  # paths longer than j
        bounds = np.concatenate(([0], counts.cumsum()))
        step = np.repeat(np.arange(counts.size), counts)
        pos = leaf[np.arange(bounds[-1]) - bounds[step]] - step
        light = np.zeros_like(pos)
        has = np.isin(pos, lpar)
        light[has] = np.searchsorted(lpar, pos[has]) + 1
        starts = bounds[:-1]
        rnd["step_plan"] = (order, pos, bounds.tolist(), light,
                            np.maximum.reduceat(size_r[pos], starts).tolist(),
                            (np.maximum.reduceat(light, starts) > 0).tolist())
    return rnd["step_plan"]


def _no_light_first(Z, U, inf, none):
    """Light folds ``Z`` and ``U`` (cut-charge rows and least budgets,
    vertices last) led by the fold of no light children: one part at no
    charge, and no parts at no budget."""
    z = np.empty(Z.shape[:-1] + (1,), dtype=Z.dtype)
    z.fill(inf)
    z[0] = 0
    u = np.empty(U.shape[:-1] + (1,), dtype=np.int64)
    u.fill(none)
    u[0] = 0
    return np.concatenate((z, Z), axis=-1), np.concatenate((u, U), axis=-1)


def _step_round(rnd, rows, kappa, Z, U, e_r, t_r, free, size_r, lp1, inf, keep=None):
    """The tables of a round's path tops, built step by step up its paths
    (see the chain comment): ``Z`` and ``U`` are the light folds of the
    round's ``lpar`` led by a column for the positions without light
    children (``_no_light_first``), so that a step gathers its folds in
    one take, or None; ``e_r``, ``t_r``, ``free`` and ``size_r`` its
    vertices' charges, threshold tests, freedom to be an outlier and
    subtree sizes.  The positions' charges, tests and freedom are taken
    once for all steps, as ``_step_plan`` lays the steps out.  ``keep``,
    where given, takes each step's positions (in the dense layout) with
    their tables."""
    none = lp1
    order, pos, bounds, light, largest, lit = _step_plan(rnd, size_r)
    nb = t_r.shape[0]
    E = e_r.take(pos, axis=-1)
    T = t_r.take(pos, axis=-1)
    F = free[pos]
    Gt = np.empty((rows, lp1, nb, order.size), dtype=t_r.dtype)
    Gt.fill(inf)
    Mt = np.empty((rows + 1, nb, order.size), dtype=np.int64)
    Mt.fill(none)
    for j in range(len(largest)):
        lo, hi = bounds[j], bounds[j + 1]
        p = hi - lo
        if not j:
            G, M = _leaf_tables(T[..., lo:hi], F[lo:hi], lp1)
        else:
            # the heavy children, step j - 1's first p positions, cut or
            # joined, and the light folds
            below = bounds[j - 1]
            X = _cut_or_join(G[..., :p], M[..., :p], E[..., below:below + p], kappa, inf)
            rows_j = min(kappa, largest[j])
            if lit[j]:
                li = light[lo:hi]
                G = _min_plus_gamma(Z.take(li, axis=-1), X, rows_j, inf)
                Uu = _min_plus_mu(U.take(li, axis=-1), M[..., :p], rows_j + 1, none)
            else:
                # the heavy children alone (whose rows, sized for their whole
                # step, may pass this one's)
                G = _grow(X[:rows_j], rows_j, inf)
                Uu = _grow(M[:rows_j + 1, ..., :p], rows_j + 1, none)
            M = _least_rows(G, Uu, T[..., lo:hi], F[lo:hi], none)
        if keep is not None:
            keep(rnd["vert"][pos[lo:hi]], G, M)
        # the paths of exactly j + 1 vertices end here, at their tops
        rest = bounds[j + 2] - hi if j + 2 < len(bounds) else 0
        Gt[:G.shape[0], ..., order[rest:p]] = G[..., rest:]
        Mt[:M.shape[0], ..., order[rest:p]] = M[..., rest:]
    return Gt, Mt


class _Recent:
    """The last ``keep`` rows a scan wrote, in order: row ``i`` goes in at
    ``i % keep`` and ``i % keep + keep`` of a buffer of twice that many, so
    that the rows before ``i`` lie contiguous below ``i % keep + keep``."""

    def __init__(self, keep, shape, dtype):
        self.keep = max(keep, 1)
        self.buf = np.empty((2 * self.keep,) + shape, dtype=dtype)

    def put(self, i, row):
        j = i % self.keep
        self.buf[j] = row
        self.buf[j + self.keep] = row

    def last(self, i, count):
        """Rows ``i - count`` to ``i - 1``, ``count <= keep``."""
        end = i % self.keep + self.keep
        return self.buf[end - count:end]


def _scan_round(rnd, rows, Z, U, e_r, t_r, free, lp1, inf, keep=None):
    """The tables of a round's path tops, row by row along its paths (see
    the chain comment).  Arguments as ``_step_round``'s; ``keep`` takes
    the tables of every position of the round."""
    none = lp1
    nb = t_r.shape[0]
    cell = t_r.dtype
    budgets = np.arange(lp1)[:, None, None]
    top, lpar = rnd["top"], rnd["lpar"]
    m = rnd["vert"].size
    end = rnd["reach"] == 0
    q = np.ones((nb, m), dtype=np.int64)
    chains = None  # the all-zero z's stay implicit
    if lpar.size:
        q[:, lpar] = np.minimum(U[0] + 1, none)
        chains = _z_chains(Z[0], lpar, top, m, inf)
        h = lpar + 1  # their heavy children
        lfree = free[lpar]
        # the heavy children's last rows that the light products read
        Xh = _Recent(Z.shape[0] - 1, (lp1, nb, lpar.size), cell)
        Mh = _Recent(U.shape[0] - 1, (nb, lpar.size), np.int64)
    if chains is not None:
        nz, zn, need, zneed, steps, fix, near = chains
        e_nz = e_r.take(nz + 1, axis=-1)
    q[:, end | ~free] = none
    Q = q.cumsum(axis=-1) - q
    Gt = np.empty((rows, lp1, nb, top.size), dtype=cell)
    Mt = np.empty((rows + 1, nb, top.size), dtype=np.int64)
    if keep is not None:
        Gk = np.empty((rows, lp1, nb, m), dtype=cell)
        Mk = np.empty((rows + 1, nb, m), dtype=np.int64)
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
            W = np.minimum.reduce(U[1:K + 1] + Mh.last(k, K)[::-1])
            sub = lpar[lfree]
            P[:, sub] = np.minimum(P.take(sub, axis=-1), W[:, lfree] + 1)
        P += Q
        Mrow = np.minimum(np.minimum.accumulate(P[:, ::-1], axis=-1)[:, ::-1] - Q, none)
        Mt[k] = Mrow.take(top, axis=-1)
        if keep is not None:
            Mk[k] = Mrow
        if k == rows:
            break
        # cut-charge rows, row i = k: D with z = 0 ...
        i = k
        D = np.empty((lp1, nb, m), dtype=cell)
        D[..., :-1] = np.where(budgets >= Mrow[:, 1:], e_r[:, 1:], inf)
        D[..., end] = 0 if i == 0 else inf  # a leaf: its own part alone
        I = min(i, Z.shape[0] - 1) if lpar.size else 0
        if I:
            B = np.minimum.reduce(_min_plus_budget(Z[I:0:-1], Xh.last(i, I), inf))
            D[..., lpar] = np.minimum(D.take(lpar, axis=-1), B)
        if chains is not None:
            # ... and where z is non-zero, z * C_h[i]
            Mn = Mrow.take(nz + 1, axis=-1)
            shift = np.maximum(budgets - Mn, 0)
            Dn = np.minimum(D.take(nz, axis=-1), np.where(
                budgets >= Mn, e_nz + np.take_along_axis(zn, shift, axis=0), inf))
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
                    zneed, D.take(nz.take(need) + 1, axis=-1), inf))
            for v, down, zv in steps:
                Dn[..., v] = np.minimum(Dn.take(v, axis=-1),
                                        _min_plus_budget(zv, Dn.take(down, axis=-1), inf))
            D[..., fix] = np.minimum(D.take(fix, axis=-1), Dn.take(near, axis=-1))
        Grow = D
        Gt[i] = Grow.take(top, axis=-1)
        if keep is not None:
            Gk[i] = Grow
        if lpar.size:
            mh = Mrow.take(h, axis=-1)
            Mh.put(i, mh)
            g = Grow.take(h, axis=-1)
            e = e_r.take(h, axis=-1)
            Xh.put(i, np.where((budgets >= mh) & (e <= g), e, g))
    if keep is not None:
        keep(rnd["vert"], Gk, Mk)
    return Gt, Mt


def _chain_sweep(tree, forb, xis, kappa, lam, use_pot, keep=None):
    """Least sufficient outlier budget at the root, ``out[j, k]`` for
    threshold ``xis[j]`` and ``k`` parts (a value over ``lam`` marks an
    infeasible cell), over the heavy-path rounds of ``tree``
    (``RootedTree.heavy_paths``), with the vertices in ``forb`` (a 0/1
    array by position, ``_forb_array``) never outliers.  ``keep``, where
    given, is called with the tables of the rounds' positions as they are
    built, as ``keep(positions, G, M)`` with the positions on the last
    axis (see ``witness_tables``)."""
    rounds = tree.heavy_paths()
    dense = tree.dense_arrays()
    a_arr, b_arr, inf = _thresholds(tree, xis, kappa, lam)
    eps, thr = _charges(dense, a_arr, b_arr, use_pot)
    size = dense["size"]
    lp1 = lam + 1
    none = lp1
    cap = _row_cap(dense, kappa, lam)
    Gt = Mt = None  # the round below's path tops: cut-charge rows, least budgets
    for r in range(len(rounds) - 1, -1, -1):
        rnd = rounds[r]
        if not r and dense.get("virtual_root"):
            # the root alone: below it, each tree tops a path
            return _fold_least(Mt, _cached_plan(dense, ("round", 0), rnd["lcount"]),
                               kappa, none)
        vert = rnd["vert"]
        rows = _round_rows(dense, rnd, cap)
        e_r, t_r = eps.take(vert, axis=-1), thr.take(vert, axis=-1)
        free = forb[vert] == 0
        kind = _round_kind(rnd, rows)
        if kind == "leaf":
            Gt, Mt = _leaf_tables(t_r, free, lp1)
            if keep is not None:
                keep(vert, Gt, Mt)
            continue
        Z = U = None
        if rnd["lpar"].size:
            below = rounds[r + 1]
            Z, U = _fold_children(Gt, Mt, eps.take(below["vert"][below["top"]], axis=-1),
                                  _cached_plan(dense, ("round", r), rnd["lcount"]),
                                  rows, cap, none, inf)
            Gt = Mt = None
        if kind == "step":
            if Z is not None:
                Z, U = _no_light_first(Z, U, inf, none)
            Gt, Mt = _step_round(rnd, rows, cap, Z, U, e_r, t_r, free, size[vert], lp1, inf,
                                 keep)
        else:
            Gt, Mt = _scan_round(rnd, rows, Z, U, e_r, t_r, free, lp1, inf, keep)
        if r and rows > _BLOCK_ROWS:
            Gt, Mt = _trim(Gt, Mt, inf, none)
    return Mt[..., 0].T


def available() -> bool:
    """True: the kernel needs only numpy, so it exists everywhere."""
    return True


def _bound_ok(tree, a: int, b: int, kappa: int, lam: int) -> bool:
    # the charge bounds the infinity of every threshold of numerator at
    # most a and denominator at most b, so twice that infinity stays under
    # 2^61 (see the infinity comment); (a + 1) keeps the raw subtree
    # weights in int64 even at threshold zero
    w_total = tree.subtree_weight_scaled[tree.root]
    c_total, p_total = tree.scaled_totals()
    charge = (a + 1) * w_total + b * (c_total + p_total) + 1
    return (kappa + lam + 2) * charge < _SAFE_LIMIT


def _thresholds(tree, xis, kappa: int, lam: int):
    """The numerators and denominators of thresholds ``xis`` as the sweep
    computes with them, int64 where they ``fit`` and Python ints (dtype
    object) past the bound, and the sweep's infinity: the largest of
    theirs (``solver._infinity``)."""
    dtype = np.int64 if fits(tree, xis, kappa, lam) else object
    return (np.array([x.numerator for x in xis], dtype=dtype),
            np.array([x.denominator for x in xis], dtype=dtype),
            max(_infinity(tree, x) for x in xis))


def _forb_array(tree, forbidden_ids):
    pos = tree.dense_arrays()["pos"]
    forb = np.zeros(pos.size, dtype=np.uint8)
    for vid in forbidden_ids:
        if vid not in tree.index:
            raise UnknownVertexId(f"forbidden outlier {vid!r} is not in the tree")
        forb[pos[tree.index[vid]]] = 1
    return forb


# Memory figures, per threshold.  Per round the chain sweep holds:
#
# * ``_CHAIN_ROW_COPIES`` row arrays of (lam + 1) cells per vertex (the
#   row being scanned, its cut choices and gathers, its suffix minima and
#   the minima taken back from the composed maps) plus, per doubling step
#   of the composition, (lam + 1) cells for each vertex where z can be
#   non-zero, for the composite z's;
# * ``_CHAIN_TABLE_COPIES`` tables of min(kappa, largest subtree in the
#   round) rows for each path top (the tops' output and, in a step round,
#   the tables of a step's positions, at most its paths, and rows);
# * as many tables of the light folds' rows for each vertex with light
#   children (Z, its products and, in a scan, the heavy children's rows
#   that the light products read, of which ``_Recent`` keeps the last Z
#   rows twice): a light child's rows, grown by one, doubled per merge
#   round of the fold, within the round's rows;
# * while the light children are folded, ``_FOLD_COPIES`` copies of their
#   tables (grown by a row), for the cut choices and the pairs and outputs
#   of each merge round of ``_fold_runs``.
#
# The figure allows besides ``_VERTEX_WORDS`` cells per vertex for the
# charges, thresholds, per-round sums and their temporaries,
# ``_BLOCK_HELD`` cells for one product block (at most ``2 *
# _BLOCK_CELLS`` cells, and its minimum, at most ``_BLOCK_CELLS``) or one
# gathered product (its two takes, numpy's intp copy of its plan and the
# padded operand, each at most a quarter of it, ``_gathers``), and
# ``_FIXED_BYTES`` that do not grow with the tree, among them the plan
# cache's ``_PLAN_BYTES``.  The first sweep on a
# tree also keeps one fold plan per round, its scans' indices and its
# steps' positions.  A cell takes 8 bytes, and past the int64 bound the
# int object it points to besides (``_int_bytes``): most cells a sum
# makes are new ints, none larger than the sweep's infinity, since every
# product saturates to it.
#
# Measured with tracemalloc (numpy 2.4) on the first sweep of fresh trees
# with potentials: on stars, random recursive trees, brooms, spiders and
# caterpillars of 5000 and 20,000 vertices at (60, 10), (20, 5), (3, 2),
# (2, 0) and, at 5000 vertices, (n, 3), the peak of one threshold's sweep
# stayed within 69% of the figure.  On those shapes and paths of 150-2000
# vertices at (3, 20), (n, 3), (n, 0), (2, 0), (3, 2), (20, 5) and (100,
# 20), with and without potentials, it reached 112% of the figure, by at
# most 52 KB, at (n, 0) on trees of 150-2000 vertices, where the product
# block is most of the figure; ``_FIXED_BYTES`` covers that.  Small
# products gathered, on paths, stars, caterpillars, brooms and random
# recursive trees of 150, 600 and 2000 vertices at (n, 0), (n, 3), (3,
# 2), (20, 5), (100, 20) and (2, 0), each swept with an empty plan cache,
# the peak reached 113% of the figure, by at most 57 KB.  On a
# caterpillar of 2000 or 5000 vertices the figure is 1.04-1.05x the peak
# at (n, 0) and 2.2x at (n, 3).
_CHAIN_ROW_COPIES = 12
_CHAIN_TABLE_COPIES = 6
_FOLD_COPIES = 8
_VERTEX_WORDS = 8
_FIXED_BYTES = 1 << 20
_BLOCK_HELD = 3 * _BLOCK_CELLS


def _round_stats(tree):
    """Per heavy-path round, the counts of the memory figures: vertices,
    paths, vertices with light children, largest subtree, the paths and
    largest subtree of the round below and the merge rounds of their fold;
    and the vertices where z can be non-zero (with a light child of
    positive subtree potential) with the doubling steps of their
    composition, the most of them on one path less one, in bits (cached
    with the dense arrays)."""
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
            "paths": paths,
            "lpar": np.array([r["lpar"].size for r in rounds]),
            "size": size,
            "below_paths": np.append(paths[1:], 0),
            "below_size": np.append(size[1:], 0),
            "merges": np.array([int(r["lcount"].max() - 1).bit_length() if r["lpar"].size
                                else 0 for r in rounds]),
            "zk": zk,
            "zsteps": zsteps,
        }
    return dense["round_stats"]


def _int_bytes(tree, xis, kappa: int, lam: int) -> int:
    """Bytes of the int object a cell of the sweep at thresholds ``xis``
    holds beside its 8-byte slot: 0 in int64, and past the bound those of
    the largest value a cell keeps, the batch's infinity."""
    a, _, inf = _thresholds(tree, xis, kappa, lam)
    return 0 if a.dtype == np.int64 else sys.getsizeof(inf)


def _chain_bytes(tree, kappa: int, lam: int, int_bytes: int = 0) -> int:
    """Bytes one threshold's chain sweep may hold at once, beyond the fixed
    ``_FIXED_BYTES``: the largest round's row arrays, tables and light
    fold, ``_VERTEX_WORDS`` cells per vertex and a product block, at ``8 +
    int_bytes`` bytes a cell (``_int_bytes``; the cell count is cached
    with the dense arrays)."""
    cache = tree.dense_arrays().setdefault("chain_cells", {})
    if (kappa, lam) not in cache:
        st = _round_stats(tree)
        rows = np.minimum(kappa, st["size"])
        child = np.minimum(kappa, st["below_size"] + 1)
        light = np.minimum(rows, ((child - 1) << st["merges"]) + 1)
        cells = (st["m"] * _CHAIN_ROW_COPIES + st["zk"] * st["zsteps"]
                 + _CHAIN_TABLE_COPIES * (st["paths"] * rows + st["lpar"] * light)
                 + _FOLD_COPIES * st["below_paths"] * child)
        cache[kappa, lam] = (int(cells.max()) * (lam + 1)
                             + _VERTEX_WORDS * tree.vertex_count + _BLOCK_HELD)
    return (8 + int_bytes) * cache[kappa, lam]


# The tables ``witness_tables`` keeps, beyond the sweep's own figure: a
# round's rows of every position, ``m (rows + 1) (lam + 2)`` cells for a
# round of m positions, with a gathered copy of them while they become
# lists; and every vertex's tables as lists of Python ints, ``min(rows,
# size) (lam + 2) + 1`` cells.  An array cell takes what a sweep's does
# (``_chain_bytes``).  A list cell takes its 8-byte slot and an int
# object: for values past 256 in int64, ``_KEPT_INT_BYTES`` (allocated on
# CPython 3.11 for values under 2^60), and past the bound the int the
# sweep made, at most ``_int_bytes``.  Each vertex takes
# ``_KEPT_VERTEX_BYTES`` for the headers of its two lists.  Measured with
# tracemalloc (numpy 2.4) on stars, paths, caterpillars, brooms, spiders
# and random recursive trees of 2000 and 10,000 vertices at (3, 2), (2,
# 0) and (20, 5), and of 600 vertices at (n, 3) and (n, 0), with
# potentials, the int64 figure was 1.3-4.3x the peak.
_KEPT_INT_BYTES = 32
_KEPT_VERTEX_BYTES = 128


def _kept_bytes(tree, kappa: int, lam: int, int_bytes: int = 0) -> int:
    """Bytes ``witness_tables`` may hold at once, beyond the fixed
    ``_FIXED_BYTES``: the sweep's figure (``_chain_bytes``), the largest
    round's kept rows and every vertex's lists, with ``int_bytes`` as
    ``_chain_bytes`` takes them."""
    dense = tree.dense_arrays()
    rows = np.minimum(_row_cap(dense, kappa, lam), dense["size"])
    st = _round_stats(tree)
    largest = int((st["m"] * (np.minimum(kappa, st["size"]) + 1)).max())
    cells = int(rows.sum()) * (lam + 2) + rows.size
    return (_chain_bytes(tree, kappa, lam, int_bytes) + 2 * (8 + int_bytes) * largest * (lam + 2)
            + (8 + max(_KEPT_INT_BYTES, int_bytes)) * cells + _KEPT_VERTEX_BYTES * rows.size)


# -- the cost rule -----------------------------------------------------------
#
# ``treecut.search`` sizes its bisection rounds by the int64 sweep's
# estimated time, affine in its threshold count t: F + t * V, where F
# prices the sweep's rounds, the rows its scan rounds pass over and the
# steps of its step rounds, and V its row cells (``_sweep_counts``).
# ``_COST_US`` was fitted by non-negative least squares on the relative
# error, over 748 timed sweeps (the best of 3-7) on one 2-core VM (Python
# 3.11.7, numpy 2.4.6): paths, stars, caterpillars, brooms, spiders and
# random recursive trees of 3-10,000 vertices, 1-20 parts (or n, on a
# fifth of the trees under 300 vertices), 0-10 outliers and 1, 3, 7 or 15
# thresholds, with and without potentials.  It prices shapes, not numpy
# calls: on 379 other such sweeps the estimate was 0.24-1.43x the
# measured time for four in five, low on folds of many light children.
# But a search compares only estimates of one tree at several round
# widths, and on those trees the width it picks took 3.8% more time per
# halving than the fastest, on average, against 3.2% for the 12-constant
# rule it replaced; a term for the maps potentials compose picked no
# better.
#
# The sweep on Python ints, past the int64 bound, is not priced:
# ``cost_us`` gives it 0, so a search there decides one threshold per
# sweep.
_COST_US = (68, 15, 37, 0.0097)  # round, scanned row, step, row cell per threshold


def _sweep_counts(tree, kappa, lam):
    """The counts ``cost_us`` prices, for one sweep at budgets ``(kappa,
    lam)``: its rounds, the rows its scan rounds pass over (``rows + 1``
    each), the steps of its step rounds, and its row cells per threshold
    (per round, its vertices times ``(rows + 1) (lam + 1)``), with each
    round's kind from ``_round_kind`` (cached with the dense arrays)."""
    dense = tree.dense_arrays()
    cache = dense.setdefault("sweep_counts", {})
    if (kappa, lam) not in cache:
        cap = _row_cap(dense, kappa, lam)
        rounds = tree.heavy_paths()
        scanned = steps = cells = 0
        for rnd in rounds:
            rows = _round_rows(dense, rnd, cap)
            kind = _round_kind(rnd, rows)
            if kind == "scan":
                scanned += rows + 1
            elif kind == "step":
                steps += int(rnd["reach"].max()) + 1
            cells += rnd["vert"].size * (rows + 1)
        cache[kappa, lam] = len(rounds), scanned, steps, cells * (lam + 1)
    return cache[kappa, lam]


def fits(tree, xis, kappa: int, lam: int) -> bool:
    """Whether the sweep may take thresholds ``xis`` on int64: every sum
    it computes stays under 2^61 (``_bound_ok`` on their largest
    numerator and denominator)."""
    return _bound_ok(tree, max(x.numerator for x in xis),
                     max(x.denominator for x in xis), kappa, lam)


def cost_us(tree, xis, kappa: int, lam: int) -> float:
    """Estimated microseconds of the sweep that answers thresholds
    ``xis``: the int64 sweep's where they ``fit``, else 0 for the sweep on
    Python ints, which is not priced."""
    if not xis or not fits(tree, xis, kappa, lam):
        return 0
    rounds, scanned, steps, cells = _sweep_counts(tree, kappa, lam)
    c = _COST_US
    return c[0] * rounds + c[1] * scanned + c[2] * steps + c[3] * len(xis) * cells


def _gate(figure: int, witness: bool = False) -> None:
    """Raise ``TablesTooLarge`` where a memory figure is over
    ``_MAX_TABLE_BYTES``, naming it: one threshold's sweep
    (``_chain_bytes``) or, with ``witness``, the kept witness tables
    (``_kept_bytes``)."""
    if figure > _MAX_TABLE_BYTES:
        held = (f"the witness tables would hold {figure} bytes" if witness
                else f"the sweep would hold up to {figure} bytes per threshold")
        raise TablesTooLarge(f"{held}, over the memory gate of {_MAX_TABLE_BYTES} bytes")


def root_row(tree, xi: Fraction, kappa: int, lam: int, use_pot: bool,
             forbidden_ids) -> list:
    """Least outlier budget at the root per part count: a list of
    ``kappa + 1`` Python ints, ``lam + 1`` where no budget up to ``lam``
    suffices, from one chain sweep.  Raises ``TablesTooLarge`` where its
    memory figure is over the gate."""
    forb = _forb_array(tree, forbidden_ids)
    _gate(_chain_bytes(tree, kappa, lam, _int_bytes(tree, (xi,), kappa, lam)))
    return _chain_sweep(tree, forb, (xi,), kappa, lam, use_pot)[0].tolist()


def witness_tables(tree, xi: Fraction, kappa: int, lam: int, use_pot: bool,
                   forbidden_ids) -> tuple:
    """Every vertex's cut-charge table and least budgets at threshold
    ``xi``, from one chain sweep that keeps the rows its rounds build: per
    tree index, ``G`` a flat list of ``min(cap, size)`` rows of ``lam + 1``
    Python ints (``cap`` the row cap, ``_row_cap``) and ``M`` one more
    least budget than that, ``lam + 1`` where none suffices, with each
    parent edge's cut charge and each vertex's threshold test.  A
    virtual root has no ``G`` (None) and its trees' least budgets folded
    as its ``M``.  Infeasible cells hold values from above every finite
    cell up to the sweep's infinity (``solver._infinity``).  Raises
    ``TablesTooLarge`` where the figure of what it keeps
    (``_kept_bytes``) is over the gate."""
    forb = _forb_array(tree, forbidden_ids)
    _gate(_kept_bytes(tree, kappa, lam, _int_bytes(tree, (xi,), kappa, lam)), witness=True)
    dense = tree.dense_arrays()
    if "bfs" not in dense:
        dense["bfs"] = np.argsort(dense["pos"])  # the tree index at each position
    index, size = dense["bfs"], dense["size"]
    cap = _row_cap(dense, kappa, lam)
    lp1 = lam + 1
    # every position but a virtual root's, in the order the rounds give
    # them: tree indices and lists of cells
    kept_at, cells, budgets = [], [], []

    def keep(vert, g, m):
        # (rows, ..., positions) to one list of cells per position, in the
        # rows its subtree fills: the positions in runs of equal row counts
        rows = np.minimum(cap, size[vert])
        if rows.min() == rows.max():
            runs = [(int(rows[0]), slice(None))]
        else:
            order = np.argsort(rows, kind="stable")
            ends = np.flatnonzero(np.diff(rows[order])) + 1
            runs = [(int(rows[sel[0]]), sel) for sel in np.split(order, ends)]
        for r, sel in runs:
            kept_at.append(index[vert[sel]])
            cells.extend(g[:r, ..., sel].reshape(r * lp1, -1).T.tolist())
            budgets.extend(m[:r + 1, ..., sel].reshape(r + 1, -1).T.tolist())

    least = _chain_sweep(tree, forb, (xi,), kappa, lam, use_pot, keep)
    # by tree index; a virtual root's is the last
    order = np.argsort(np.concatenate(kept_at)).tolist()
    G = list(map(cells.__getitem__, order))
    M = list(map(budgets.__getitem__, order))
    if dense.get("virtual_root"):
        G.append(None)
        M.append(np.minimum(least[0], lp1).tolist())
    a, b, _ = _thresholds(tree, (xi,), kappa, lam)
    eps, thr = _charges(dense, a, b, use_pot)
    pos = dense["pos"]
    return G, M, eps[0, pos].tolist(), thr[0, pos].tolist()


def decide_many(tree, xis, kappa: int, lam: int, use_pot: bool,
                forbidden_ids) -> list:
    """Batched decisions over thresholds.  Thresholds share each sweep, in
    chunks small enough that the sweep's memory figure (per threshold,
    at the whole batch's cell size) stays within ``_NP_CHUNK_BYTES``; a
    chunk whose thresholds all fit runs on int64.  Raises
    ``TablesTooLarge`` where one threshold's figure is over the gate."""
    if not xis:
        return []
    forb = _forb_array(tree, forbidden_ids)
    figure = _chain_bytes(tree, kappa, lam, _int_bytes(tree, xis, kappa, lam))
    _gate(figure)
    chunk = max(1, _NP_CHUNK_BYTES // figure)
    out = []
    for j in range(0, len(xis), chunk):
        least = _chain_sweep(tree, forb, xis[j:j + chunk], kappa, lam, use_pot)
        out.extend(bool(v) for v in least[:, kappa] <= lam)
    return out


def warm_up() -> None:
    """Nothing to do: the numpy kernel compiles nothing (kept for timing
    harnesses that warm the kernel before a measured region)."""
