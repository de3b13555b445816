"""The one-threshold bisection: ``min_xi`` before it searched in rounds.

It probes xi = 0 after the opening bound, then decides one threshold per
sweep: the opening's Farey predecessor, each bisection midpoint and the
two verification probes.  ``treecut.search.min_xi`` no longer runs it;
the tests keep it as a reference, and the batched search must give the
same optimum, the same witness and the same tolerance-mode answer.

``min_xi(instance, parts, outliers, mode, tol, use_potentials,
forbidden_outliers)`` returns ``(xi_star, witness, probes)``.
"""

from fractions import Fraction

from treecut.errors import MonotonicityViolation
from treecut.search import (Forest, _farey_predecessor, _instance_trees,
                            _opening_bound, decide_forest)
from treecut.solver import ProblemSpec, decide, solve
from treecut.values import parse_rational
from treecut.witness import reconstruct_subpartition


def min_xi(instance, parts, outliers, mode="exact", tol=None,
           use_potentials=False, forbidden_outliers=frozenset()):
    trees = _instance_trees(instance)
    forest = isinstance(instance, Forest)
    cache = {}

    def probe(xi):
        if xi not in cache:
            spec = ProblemSpec(xi, parts, outliers, use_potentials, forbidden_outliers)
            cache[xi] = (decide_forest(instance, spec, want_witness=False)[0]
                         if forest else decide(instance, spec))
        return cache[xi]

    if parts > sum(t.vertex_count for t in trees):
        return None, None, 0
    hi, achievable = _opening_bound(trees, parts, use_potentials)
    if not probe(hi):
        if achievable:
            raise MonotonicityViolation(f"no at the achievable bound {hi}")
        return None, None, len(cache)

    zero = Fraction(0)
    if probe(zero):
        xi_star = zero
    elif mode == "tol":
        tol = parse_rational(tol)
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
            raise MonotonicityViolation(f"{xi_star} failed verification")
        prev = _farey_predecessor(xi_star, denom_limit)
        if prev is not None and probe(prev):
            raise MonotonicityViolation(f"predecessor {prev} is feasible")

    spec = ProblemSpec(xi_star, parts, outliers, use_potentials, forbidden_outliers)
    if forest:
        _, witness = decide_forest(instance, spec, want_witness=True)
    else:
        witness = reconstruct_subpartition(instance, spec, solve(instance, spec))
    return xi_star, witness, len(cache)
