"""Drivers above the decision DP: exact threshold minimization, maximum
part count, forests, and the semi-supervised reduction.

All of them read the root's least budgets (``solver._root_least``): per
part count, the smallest outlier budget that makes it feasible.
``k_max`` scans them.  A forest is decided as one tree: its
``Forest.layout`` hangs the trees below a virtual root that never tops a
part and spends no outlier unit, so the sweeps fold the trees' least
budgets there by a (min,+) product over the part count and read the
answer at the part budget (``decide_forest``).  The semi-supervised
reduction deletes the required outliers and hands the remaining forest,
built by ``tree.build_forest``, to ``decide_forest``.

Exact minimization never enumerates candidate ratios.  Every achievable
maximum expansion is a fraction whose reduced denominator is at most W,
the largest over the trees of the scaled total vertex weight divided by
the gcd of the tree's scaled weights, costs and potentials (``_order``):
a member of the Farey sequence of order W, extended past 1.  So the
decision at a threshold is the decision at its Farey floor, the largest
such fraction at or below it, and the search decides floors only
(``_Prober``), which keeps the values a sweep computes of the order of
the tree's own; the bracket it keeps stays dyadic.  The optimum is the
least fraction of order W at which the decision says yes.  The search
opens at an achievable threshold: the largest expansion of one explicit
partition with no residue (see ``_opening_bound``), so a ``no`` there
can only mean a broken DP.  It decides that threshold, its Farey
predecessor and the first bisection round below the predecessor in one
sweep; if the predecessor is infeasible, the threshold is the optimum
and no bisection runs.  Otherwise the predecessor becomes the upper end
and the bisection goes on below it.  Once the bracket (lo, hi] holds no more fractions of
order W than a round has thresholds, the round decides those fractions
instead, with the one at or below lo (``_farey_run``): the first ``yes``
is the optimum, and the ``no`` before it is its Farey predecessor.  A
bisection that runs out of halvings first ends on a bracket shorter than
1/W^2, and the floors of its ends are the optimum and its predecessor.
Either way the verification reads both answers from the cache.

The bisection runs in rounds (``_bisect``): a round of j halvings decides
the 2^j - 1 evenly spaced inner thresholds of the bracket in one batched
sweep (``solver.decide_batch``), which the numpy sweep can take for less
than j sweeps of one threshold, and keeps the cell between the last
``no`` and the first ``yes``.  The cost rule (``_fastlane.cost_us``), a
sweep's time estimated affine in its threshold count, picks the j with
the least estimated time per halving, once per search, on a tree or a
forest's layout alike.  No round does more halvings than the search
still needs, so a tolerance search ends on the bracket that
one-threshold halvings would reach, and its answers and witnesses do
not depend on j.
Zero is decided only while no threshold has said ``no``, since any ``no``
above zero rules it out: once the bisection has shortened the bracket
sixteenfold with every answer ``yes``, in a round with a threshold whose
floor is zero, or else at the end.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .errors import (
    InvalidInput,
    LambdaTooSmall,
    MonotonicityViolation,
    PrecollisionError,
    UnknownVertexId,
)
from .solver import ProblemSpec, _count, _root_least, decide, decide_batch, solve
from .tree import ForestLayout, RootedTree, build_forest, forest_layout, part_cap
from .values import parse_rational
from .witness import (Subpartition, _indexed_subpartition, reconstruct_subpartition,
                      sorted_ids)


@dataclass(frozen=True)
class Forest:
    """Disjoint rooted trees treated as one instance; vertex id spaces must
    not overlap."""

    trees: tuple

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        seen = set()
        for t in self.trees:
            ids = set(t.ids)
            if seen & ids:
                raise InvalidInput("forest trees share vertex ids")
            seen |= ids

    @property
    def vertex_count(self) -> int:
        return sum(t.vertex_count for t in self.trees)

    @cached_property
    def layout(self) -> ForestLayout:
        """The trees as one tree under a virtual root
        (``tree.forest_layout``), built on first use and kept."""
        return forest_layout(self.trees)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of threshold minimization.  ``xi_star`` is None when no
    subpartition satisfies the combinatorial constraints at any threshold.
    ``probes`` counts the distinct thresholds decided, ``sweeps`` the
    decision calls that decided them."""

    xi_star: Fraction | None
    witness: Subpartition | None
    probes: int
    mode: str
    tol: Fraction | None = None
    sweeps: int = 0

    @property
    def feasible(self) -> bool:
        return self.xi_star is not None


def _farey_predecessor(x: Fraction, limit: int) -> Fraction | None:
    """Largest fraction with denominator <= limit strictly below x > 0,
    which must have a denominator of at most ``limit`` too: the Farey
    floor of ``x - 1/(limit * x.denominator)``."""
    if x.denominator > limit:
        raise InvalidInput(f"{x} has a denominator above the limit {limit}")
    if x <= 0:
        return None
    return _farey_bracket(x - Fraction(1, limit * x.denominator), limit)[0]


def _farey_bracket(x: Fraction, limit: int) -> tuple[Fraction, Fraction]:
    """The consecutive fractions ``p <= x < q`` with denominators at most
    ``limit``, for any ``x >= 0``.

    A Stern-Brocot descent toward ``x`` that takes each run of moves to
    the same side in one step, so it needs O(log limit) integer steps
    whatever the denominator of ``x``.
    """
    num, den = x.numerator, x.denominator
    a, b, c, d = 0, 1, 1, 0  # a/b <= x < c/d, with b*c - a*d = 1
    while True:
        # the left end over every mediant at or below x
        k = (num * b - a * den) // (c * den - num * d)
        if d:
            k = min(k, (limit - b) // d)
        a, b = a + k * c, b + k * d
        # then the right end over every mediant above x
        j = (limit - d) // b
        below = num * b - a * den
        if below:
            j = min(j, (c * den - num * d - 1) // below)
        c, d = c + j * a, d + j * b
        if not k and not j:
            return Fraction(a, b), Fraction(c, d)


def _farey_run(lo: Fraction, hi: Fraction, limit: int, cap: int):
    """The fraction with denominator at most ``limit`` at or below ``lo``,
    then those in ``(lo, hi]`` in increasing order; None when the latter
    are more than ``cap``.  The next terms come from the Farey recurrence,
    which holds past 1 too."""
    p, q = _farey_bracket(lo, limit)
    a, b, c, d = p.numerator, p.denominator, q.numerator, q.denominator
    run = [p]
    while c * hi.denominator <= hi.numerator * d:
        if len(run) > cap:
            return None
        run.append(Fraction(c, d))
        k = (limit + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return run


class _Prober:
    """Memoized batched decision probe with a monotonicity tripwire: a
    ``yes`` below a ``no``, within one batch or across batches, would mean
    the DP is broken, so the search aborts loudly rather than return
    garbage.

    Each threshold is replaced by its Farey floor of order ``limit``
    (``floor``, memoized, since a round's floors are taken to price it
    and again to decide it) before it is cached, deduplicated, counted
    and decided.  ``fn`` decides a list of thresholds in one call.
    ``calls`` counts the distinct floors decided and ``sweeps`` the calls
    of ``fn``."""

    def __init__(self, fn, limit: int):
        self.fn = fn
        self.limit = limit
        self.cache = {}
        self.floors = {}
        self.calls = 0
        self.sweeps = 0
        self.max_no = None
        self.min_yes = None

    def floor(self, x: Fraction) -> Fraction:
        # keyed by the ints: a Fraction's hash takes a modular inverse
        key = x.numerator, x.denominator
        f = self.floors.get(key)
        if f is None:
            f = self.floors[key] = _farey_bracket(x, self.limit)[0]
        return f

    def __call__(self, xis) -> list[bool]:
        xis = [self.floor(x) for x in xis]
        todo = list(dict.fromkeys(x for x in xis if x not in self.cache))
        if todo:
            answers = self.fn(todo)
            self.calls += len(todo)
            self.sweeps += 1
            for xi, ans in zip(todo, answers):
                self.cache[xi] = ans
                if ans:
                    if self.min_yes is None or xi < self.min_yes:
                        self.min_yes = xi
                elif self.max_no is None or xi > self.max_no:
                    self.max_no = xi
            if (self.min_yes is not None and self.max_no is not None
                    and self.min_yes < self.max_no):
                raise MonotonicityViolation(
                    f"decision said yes at {self.min_yes} but no at {self.max_no}")
        return [self.cache[xi] for xi in xis]


# a round decides at most 2^4 - 1 thresholds; rounds of up to 2^6 - 1
# took as long on the optimize-exact benchmark
_MAX_HALVINGS = 4


def _round(probe, lo, hi, need, width, tree, spec, exact):
    """The thresholds of the next round in the bracket ``(lo, hi)``, its
    width, and whether it finishes the search.

    A round of j halvings takes the 2^j - 1 evenly spaced inner
    thresholds of the bracket, where j one-threshold halvings would end.
    j (at most ``_MAX_HALVINGS`` and ``need``) is ``width``, or when that
    is None, the j whose sweep of the floors ``probe`` will decide on
    ``tree`` (a forest's layout, for a forest) the cost rule prices lowest
    per halving: it prices t thresholds F + t V, so rounds are wide where
    a sweep's fixed part F outweighs its cells' V.  Past the int64 bound
    the sweep runs on Python ints and is priced at 0, so there a round
    halves once per sweep.

    In exact mode, a bracket ``(lo, hi]`` that holds no more fractions of
    the probe's order than the round has thresholds gets a finishing round
    instead: those fractions, after the one at or below ``lo``
    (``_farey_run``).
    """
    from . import _fastlane

    kappa = min(spec.parts, tree.vertex_count)
    lam = min(spec.outliers, tree.vertex_count)

    def every(xs, j):
        # round j's thresholds among the 2^most - 1 of the widest round
        k = (len(xs) + 1) >> j
        return xs[k - 1::k]

    most = min(width or _MAX_HALVINGS, need)
    step = (hi - lo) / (1 << most)
    xs = [lo + step * i for i in range(1, 1 << most)]
    if width is None:
        floors = [probe.floor(x) for x in xs]
        width = min(range(1, most + 1), key=lambda j: _fastlane.cost_us(
            tree, every(floors, j), kappa, lam) / j)
        xs = every(xs, width)
    if exact:
        run = _farey_run(lo, hi, probe.limit, len(xs))
        if run is not None:
            return run, width, True
    return xs, width, False


def _bisect(probe, lo, hi, need, tree, spec, exact):
    """The bracket ``(lo, hi)`` halved ``need`` times, in rounds
    (``_round``), each decided in one sweep, keeping the cell between the
    last ``no`` and the first ``yes``.

    A finishing round (``exact`` mode only) returns at once: its first
    ``yes`` is the optimum and the fraction before it, which said ``no``,
    its Farey predecessor.

    While every threshold says yes, the lower end is left undecided until
    the bracket is ``2^_MAX_HALVINGS`` times shorter; then it is decided
    too, and a yes there returns the bracket ``(lo, lo)``.  A round with a
    threshold whose floor is zero decides an undecided lower end, zero.
    """
    width = None
    start = hi - lo
    while need:
        xs, width, finish = _round(probe, lo, hi, need, width, tree, spec, exact)
        answers = probe(xs)
        first = answers.index(True) if True in answers else len(xs)
        if first:
            lo = xs[first - 1]
        if first < len(xs):
            hi = xs[first]
        if finish:
            return lo, hi
        need -= len(xs).bit_length()
        if probe.floor(lo) not in probe.cache and (hi - lo) * (1 << _MAX_HALVINGS) <= start:
            # an optimum this far below the bracket's top is rare unless
            # it is the lower end itself
            if probe([lo])[0]:
                return lo, lo
    return lo, hi


def _order(trees) -> int:
    """The Farey order of the search: a part's expansion is a ratio of
    sums of its tree's scaled values, all multiples of their gcd g, so
    its reduced denominator is at most the tree's scaled total weight over
    g."""
    return max(t.subtree_weight_scaled[t.root]
               // math.gcd(*t.weight_scaled, *t.cost_scaled, *t.potential_scaled)
               for t in trees)


def _instance_trees(instance):
    return instance.trees if isinstance(instance, Forest) else (instance,)


def _too_few_parts(trees, parts: int, outliers: int) -> bool:
    """Whether no split of ``parts`` parts among ``trees`` is feasible,
    from the vertex counts alone: more parts than vertices, or more trees
    that must hold a part than there are parts (``tree.part_cap``)."""
    sizes = [t.vertex_count for t in trees]
    n = sum(sizes)
    return parts > n or not part_cap(sizes, parts, min(outliers, n))


def _balanced_partition(tree: RootedTree, parts: int, use_potentials: bool):
    """An explicit partition of the whole tree into ``1 <= parts <= n``
    connected parts, with no residue.

    Walking children before parents, a vertex's parent edge is cut once the
    uncut weight below it reaches W/parts.  That cuts at most ``parts - 1``
    edges, since every piece cut off weighs at least W/parts and the root's
    piece is not empty; any cuts still missing go to the edges of least
    cost per subtree weight, compared by cross-multiplying the scaled
    ints, the lower vertex index first among equal ratios.  Any
    ``parts - 1`` distinct edges leave exactly ``parts`` pieces, so the
    result satisfies every outlier budget and forbidden set.
    """
    parent = tree.parent_idx
    w_sub = tree.subtree_weight_scaled
    total = w_sub[tree.root]
    need = parts - 1
    below = list(tree.weight_scaled)
    is_cut = [False] * tree.vertex_count
    cuts = 0
    for u in tree.order_idx:  # children precede parents
        p = parent[u]
        if p < 0:
            continue
        if below[u] * parts >= total:
            is_cut[u] = True
            cuts += 1
        else:
            below[p] += below[u]
    if cuts < need:
        c_s = tree.cost_scaled

        def dearer(u, v):  # sign of c_s[u]/w_sub[u] - c_s[v]/w_sub[v]
            return c_s[u] * w_sub[v] - c_s[v] * w_sub[u]

        # the cheapest, lower index first among equal ratios
        rest = (v for v in range(tree.vertex_count) if parent[v] >= 0 and not is_cut[v])
        for v in heapq.nsmallest(need - cuts, rest, key=cmp_to_key(dearer)):
            is_cut[v] = True

    head = [0] * tree.vertex_count
    groups = {}
    for u in reversed(tree.order_idx):  # parents precede children
        h = u if parent[u] < 0 or is_cut[u] else head[parent[u]]
        head[u] = h
        groups.setdefault(h, set()).add(u)
    return _indexed_subpartition(tree, groups.values(), (), use_potentials)


def _opening_bound(trees, parts: int, use_potentials: bool):
    """Threshold at which the search opens, and whether it is achievable.

    With at least one part per tree, each tree gets one part and the extra
    parts go, one at a time, to the tree with the most weight per part; the
    bound is the largest expansion of the resulting explicit partition, so
    the decision must say yes there.  With fewer parts than trees the bound
    is total cost (plus potential) over the least vertex weight, which is
    feasible whenever anything is.
    """
    if parts < len(trees):
        cost_total = sum((t.total_edge_cost() for t in trees), Fraction(0))
        if use_potentials:
            cost_total += sum((t.total_potential() for t in trees), Fraction(0))
        return cost_total / min(t.min_weight() for t in trees), False
    share = [1] * len(trees)
    heap = [(-t.total_weight(), i) for i, t in enumerate(trees)
            if t.vertex_count > 1]
    heapq.heapify(heap)
    for _ in range(parts - len(trees)):
        _, i = heapq.heappop(heap)
        share[i] += 1
        if share[i] < trees[i].vertex_count:
            heapq.heappush(heap, (-trees[i].total_weight() / share[i], i))
    return max(_balanced_partition(t, k, use_potentials).max_expansion
               for t, k in zip(trees, share)), True


def min_xi(instance, parts: int, outliers: int, mode: str = "exact",
           tol=None, use_potentials: bool = False,
           forbidden_outliers=frozenset()) -> OptimizationResult:
    """Minimize the expansion threshold for a tree or forest.

    It answers infeasible before deciding any threshold when there are
    more parts than vertices, or more trees that must hold a part (those
    of more than ``outliers`` vertices) than parts.  Otherwise both modes
    open at the largest expansion of an explicit partition
    whenever there are at least as many parts as trees (with fewer, at
    total cost over the least vertex weight), and decide every threshold
    at its Farey floor of order W (``_order``).  Exact mode returns the
    true minimum as a reduced fraction: it decides the opening bound, its
    predecessor and the first bisection round below that in one sweep,
    which settles the search when the predecessor is infeasible.
    Otherwise it bisects below the predecessor until the bracket holds no
    more fractions of order W than a round has thresholds, and decides
    those in a finishing round; the least of them that says yes is the
    optimum.  Tolerance mode bisects until the bracket is no longer than
    ``tol`` and returns its feasible upper end.  Either way the bisection
    runs in rounds of up to ``_MAX_HALVINGS`` halvings per sweep
    (``_bisect``), capped at the halvings still needed.  Zero is decided
    only while no threshold has said no.  Exact mode verifies that the
    decision says yes at the result and no at its Farey predecessor, from
    the cache.  The witness attains the returned threshold.

    Raises :class:`MonotonicityViolation` when the decisions contradict
    each other or the explicit partition's threshold, and
    :class:`TablesTooLarge` before any sweep where the witness's tables
    would be over the memory gate at int64 cells.
    """
    from . import _fastlane

    if mode not in ("exact", "tol"):
        raise InvalidInput(f"mode must be 'exact' or 'tol', got {mode!r}")
    if mode == "tol":
        if tol is None:
            raise InvalidInput("tolerance mode needs tol")
        tol = parse_rational(tol)
        if tol <= 0:
            raise InvalidInput(f"tol must be positive, got {tol}")

    # the budgets are checked before the vertex counts can answer no
    spec = ProblemSpec(0, parts, outliers, use_potentials, forbidden_outliers)
    parts, outliers = spec.parts, spec.outliers
    trees = _instance_trees(instance)
    if _too_few_parts(trees, parts, outliers):
        return OptimizationResult(None, None, 0, mode, tol)

    tree = instance.layout if isinstance(instance, Forest) else instance
    # the witness's final ``solve`` gates the figure of the tables it keeps;
    # on int64 cells that figure is the least it can gate, so a search
    # whose witness cannot pass raises here, before any sweep
    n = tree.vertex_count
    _fastlane._gate(_fastlane._kept_bytes(tree, min(parts, n), min(outliers, n)),
                    witness=True)
    hi, achievable = _opening_bound(trees, parts, use_potentials)
    spec = spec.with_xi(hi)
    denom_limit = _order(trees)
    probe = _Prober(lambda xis: decide_batch(tree, spec, xis), denom_limit)

    def result(xi_star, witness=None):
        return OptimizationResult(xi_star, witness, probe.calls, mode, tol,
                                  probe.sweeps)

    exact = mode == "exact"
    prev = _farey_predecessor(hi, denom_limit) if achievable and exact else None
    top = hi if prev is None else prev
    if exact:
        # halvings until the bracket is shorter than 1/W^2
        need = math.floor(top * denom_limit * denom_limit).bit_length()
    else:
        # halvings until hi - lo <= tol
        need = max(0, math.ceil(hi / tol) - 1).bit_length()
    ahead = []
    if prev:
        # the first round below prev rides along; when prev says yes,
        # _bisect finds its answers in the cache
        ahead = _round(probe, Fraction(0), prev, need, None, tree, spec, True)[0]
    opening = probe([hi] if prev is None else [hi, prev, *ahead])
    if not opening[0]:
        if achievable:
            raise MonotonicityViolation(
                f"decision said no at {hi}, the expansion of an explicit partition")
        return result(None)

    if prev is not None and not opening[1]:
        # nothing achievable lies strictly between prev and hi
        lo = prev
    else:
        lo, hi = _bisect(probe, Fraction(0), top, need, tree, spec, exact)

    if probe.max_no is None and probe([Fraction(0)])[0]:
        xi_star = Fraction(0)
    elif not exact:
        xi_star = hi
    else:
        # the least fraction of order W above the last no; the probe holds
        # its answer and its predecessor's, the floors of hi and lo
        prev, xi_star = _farey_bracket(lo, denom_limit)
        if xi_star > hi or not probe([xi_star])[0]:
            raise MonotonicityViolation(
                f"recovered threshold {xi_star} failed verification")
        if probe([prev])[0]:
            raise MonotonicityViolation(
                f"predecessor {prev} of {xi_star} is feasible; optimum is wrong")

    spec_star = spec.with_xi(xi_star)
    witness = reconstruct_subpartition(tree, spec_star, solve(tree, spec_star))
    return result(xi_star, witness)


def k_max(tree: RootedTree, xi, outliers: int, use_potentials: bool = False,
          forbidden_outliers=frozenset()) -> int:
    """Largest part count for which the decision problem is feasible at
    threshold ``xi`` and the given outlier budget; 0 if none.

    One DP run with the part budget set to n contains every smaller count.
    Feasibility is not monotone in the part count (dropping a part pushes
    its vertices into the residue), so the whole row is scanned.
    """
    n = tree.vertex_count
    spec = ProblemSpec(parse_rational(xi), n, outliers, use_potentials,
                       forbidden_outliers)
    least = _root_least(tree, spec)
    lam = min(spec.outliers, n)
    return next((k for k in range(n, 0, -1) if least[k] <= lam), 0)


def decide_forest(forest: Forest, spec: ProblemSpec, want_witness: bool = True):
    """Decide the problem on a forest: parts and outlier budget are split
    across trees, with no extra charge at tree boundaries.  Returns
    ``(feasible, witness_or_None)``.

    One decision on the forest's layout, where the virtual root folds the
    trees' least budgets: ``C'[k] = min C[kp] + B[k - kp]``, one (min,+)
    product over the part count per tree.  When a witness is wanted, one
    ``solve`` of the layout keeps the tables, which answer the decision
    too, and from which the replay splits the budgets back, giving each
    tree, last first, the fewest parts left to the trees before it that
    still fit.
    Below the root no tree keeps rows for more parts than it can hold in
    a feasible split (``tree.part_cap``).  When more trees must hold a
    part than ``spec.parts`` allows, the answer is no before the layout
    is built."""
    if _too_few_parts(forest.trees, spec.parts, spec.outliers):  # an empty forest too
        return False, None
    layout = forest.layout
    if not want_witness:
        return decide(layout, spec), None
    tables = solve(layout, spec)
    if not tables.feasible:
        return False, None
    return True, reconstruct_subpartition(layout, spec, tables)


def decide_semisupervised(graph, required_outliers, forbidden_outliers, xi,
                          parts: int, outliers: int, want_witness: bool = True,
                          use_potentials: bool = False):
    """Decide the problem on a general graph where ``required_outliers``
    must be uncovered and ``forbidden_outliers`` must be covered.

    Deleting the required set must leave a forest.  Each deleted vertex
    spends one unit of the outlier budget; its incident edge costs turn
    into potentials on the surviving endpoints, so expansions computed on
    the forest equal expansions on the original graph.  The graph's own
    vertex potentials count only with ``use_potentials``, as in
    ``ProblemSpec``.  The returned witness lives on the original graph.
    """
    xi = parse_rational(xi)
    parts, outliers = _count(parts, "part count"), _count(outliers, "outlier budget")
    s1 = frozenset(required_outliers)
    s2 = frozenset(forbidden_outliers)
    for v in s1 | s2:
        if v not in graph.index:
            raise UnknownVertexId(f"constraint vertex {v!r} is not in the graph")
    if s1 & s2:
        raise PrecollisionError(
            f"vertices {sorted_ids(s1 & s2)} are both required and forbidden outliers")
    if outliers < len(s1):
        raise LambdaTooSmall(
            f"outlier budget {outliers} cannot cover {len(s1)} required outliers")

    out = {graph.index[v] for v in s1}
    n = graph.vertex_count
    survivors = [i for i in range(n) if i not in out]
    if not survivors:
        return False, None

    # by index, in the graph's vertex and edge order; survivors get local
    # indices, and deleted vertices -1
    local = [-1] * n
    for j, i in enumerate(survivors):
        local[i] = j
    extra_potential = [0] * n
    us, vs, costs = [], [], []
    for ui, vi, cost, _dist in graph.edges:
        lu, lv = local[ui], local[vi]
        if lu < 0:
            if lv >= 0:
                extra_potential[vi] += cost
        elif lv < 0:
            extra_potential[ui] += cost
        else:
            us.append(lu)
            vs.append(lv)
            costs.append(cost)

    own = graph.potentials if use_potentials else [0] * n
    trees = build_forest([graph.ids[i] for i in survivors],
                         [graph.weights[i] for i in survivors],
                         [extra_potential[i] + own[i] for i in survivors], us, vs, costs)
    # trees, and so the witness's parts, go by least id as a string
    trees.sort(key=lambda t: str(t.ids[0]))

    spec = ProblemSpec(xi, parts, outliers - len(s1), use_potentials=True,
                       forbidden_outliers=s2)
    feasible, wit = decide_forest(Forest(trees), spec,
                                  want_witness=want_witness)
    if not feasible or wit is None:
        return feasible, None

    expansions = graph.expansions(wit.parts, use_potentials=use_potentials)
    witness = Subpartition(wit.parts, frozenset(wit.residue | s1),
                           expansions, max(expansions))
    return True, witness
