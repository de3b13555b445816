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
table.

The least budgets come from one DP, the chain sweep of
``treecut._fastlane``: one batch of numpy operations per heavy-path
round, row by row or step by step up its paths (``decide_batch`` shares
one sweep among many thresholds).  It computes on int64 where a
conservative bound proves 64-bit arithmetic cannot overflow, and on
Python ints past it, exact either way.  A memory figure per threshold
bounds what it holds; over the gate a query raises ``TablesTooLarge``.
Witnesses come from every vertex's tables at one threshold: ``solve``
takes them from one sweep that keeps the rows its rounds build, and
``treecut.witness`` replays one witness top down from them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidInput, RootHasNoParentEdge
from .tree import RootedTree
from .values import ScaledValue, parse_rational


def _count(value, what: str) -> int:
    """A part count or outlier budget as an ``int``: any integer type
    (``operator.index``) but ``bool``; else ``InvalidInput``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInput(f"{what} must be an integer, got {value!r}")


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
        object.__setattr__(self, "parts", _count(self.parts, "part count"))
        object.__setattr__(self, "outliers", _count(self.outliers, "outlier budget"))
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


class WitnessTables:
    """Every vertex's tables at one threshold, from which
    ``treecut.witness`` replays a witness.

    Per vertex ``u``: ``G[u]``, its flat cut-charge table with ``lam + 1``
    columns (row i holds i + 1 parts, u's own among them), and ``M[u]``,
    its least budgets by part count.  A virtual root keeps no cut-charge
    table.  ``eps`` is each parent edge's cut charge, ``thr`` each
    vertex's threshold test, and ``inf`` the sweep's infinity
    (``_infinity``), which stands for the rows a table does not hold;
    infeasible cells hold values above every finite cell, up to ``inf``.
    The replay recomputes the partial folds over a vertex's children
    where it splits a cell between them.  ``feasible`` answers the
    decision problem at the spec's budgets.
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


def _infinity(tree: RootedTree, xi: Fraction) -> int:
    """The sweep's infinity at threshold ``xi``.  A cell sums the charges
    of cut vertices none of which lies below another, so a finite cell
    lies in [-b * P, a * W + b * C] and a threshold test is at most a * W,
    over W, C, P the totals of weight, cost and potential; an infeasible
    cell, a sum with an infeasible operand, is at least inf - b * P and
    stays above both."""
    c_total, p_total = tree.scaled_totals()
    return (xi.numerator * tree.subtree_weight_scaled[tree.root]
            + xi.denominator * (c_total + p_total) + 1)


def solve(tree: RootedTree, spec: ProblemSpec) -> WitnessTables:
    """Every vertex's tables at the spec's threshold, for a witness.

    ``tables.feasible`` answers the decision problem, and
    ``treecut.witness.reconstruct_subpartition`` replays a witness from
    the tables.  They come from one chain sweep that keeps the rows its
    rounds build (``_fastlane.witness_tables``), which raises
    ``TablesTooLarge`` where the figure of what it keeps is over the
    memory gate.
    """
    from . import _fastlane

    tables = WitnessTables(tree, spec)
    tables.inf = _infinity(tree, spec.xi)
    tables.G, tables.M, tables.eps, tables.thr = _fastlane.witness_tables(
        tree, spec.xi, min(spec.parts, tree.vertex_count), tables.lam,
        spec.use_potentials, spec.forbidden_outliers)
    return tables


def _root_least(tree: RootedTree, spec: ProblemSpec) -> list:
    """Least outlier budget at the root per part count, ``kappa + 1``
    Python ints with ``lam + 1`` for "no budget suffices" (``kappa`` and
    ``lam`` clamped to the vertex count), from one chain sweep."""
    from . import _fastlane

    n = tree.vertex_count
    return _fastlane.root_row(tree, spec.xi, min(spec.parts, n), min(spec.outliers, n),
                              spec.use_potentials, spec.forbidden_outliers)


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

    Equivalent to ``[decide(tree, spec.with_xi(x)) for x in xis]``, and
    raises as that does on a negative threshold, but shares the chain
    sweep among the thresholds.
    """
    from . import _fastlane

    xis = [parse_rational(x) for x in xis]
    for x in xis:
        if x < 0:
            raise InvalidInput(f"threshold must be >= 0, got {x}")
    if spec.parts > tree.vertex_count:
        return [False] * len(xis)
    n = tree.vertex_count
    return _fastlane.decide_many(tree, xis, min(spec.parts, n), min(spec.outliers, n),
                                 spec.use_potentials, spec.forbidden_outliers)


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
