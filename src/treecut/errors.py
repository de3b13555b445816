"""Exception hierarchy for treecut.

Everything raised on purpose derives from :class:`TreecutError`, so callers
(and the CLI) can catch one type.  Validation of finished subpartitions does
not raise; it reports violations as data (see ``treecut.witness``).
"""


class TreecutError(Exception):
    """Base class for all errors raised by this package."""


class NotATree(TreecutError):
    """Edge set is not a tree on the given vertices (cycle, disconnected,
    wrong edge count, duplicate vertex, self-loop)."""


class NonPositiveVertexWeight(TreecutError):
    """A vertex weight was zero or negative."""


class UnknownVertexId(TreecutError):
    """An edge endpoint, root, or constraint set referenced a vertex id that
    was never declared."""


class InvalidInput(TreecutError):
    """A precondition on numeric input was violated (negative cost,
    negative potential, bad spec parameter, ...)."""


class RootHasNoParentEdge(TreecutError):
    """The cut charge of the root's virtual parent edge was requested."""


class TableMismatch(TreecutError):
    """DP tables passed to reconstruction belong to a different tree or
    problem instance."""


class EmptyPart(TreecutError):
    """Expansion of an empty vertex set was requested."""


class BudgetExceeded(TreecutError):
    """Brute-force enumeration was asked to run beyond its instance cap."""


class ParseError(TreecutError):
    """Input file could not be parsed; message carries file/line context."""


class DuplicateEdge(TreecutError):
    """The same unordered vertex pair appeared twice in an edge list."""


class SelfLoop(TreecutError):
    """An edge joins a vertex to itself."""


class EmptyGraph(TreecutError):
    """An operation that needs at least one vertex got an empty graph."""


class PrecollisionError(TreecutError):
    """The must-be-outlier and must-not-be-outlier sets intersect."""


class NotForestAfterDeletion(TreecutError):
    """Removing the must-be-outlier set did not leave a forest."""


class LambdaTooSmall(TreecutError):
    """The outlier budget cannot even cover the must-be-outlier set."""


class TablesTooLarge(TreecutError):
    """The sweep's memory figure for one threshold is over the memory gate
    (``_fastlane._MAX_TABLE_BYTES``); the message names both."""


class MonotonicityViolation(TreecutError):
    """The decision procedure answered inconsistently along a threshold
    sweep; this indicates a solver bug and aborts the search."""
