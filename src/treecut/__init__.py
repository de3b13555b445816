"""Exact connected multi-way sparsest cut on weighted trees.

Decision, threshold minimization, maximum part count, forests, vertex
potentials and semi-supervised outlier constraints, plus a spanning-tree
clustering pipeline for general similarity graphs.  All decisions use
exact rational arithmetic.
"""

from .errors import (
    BudgetExceeded,
    DuplicateEdge,
    EmptyGraph,
    EmptyPart,
    InvalidInput,
    LambdaTooSmall,
    MonotonicityViolation,
    NonPositiveVertexWeight,
    NotATree,
    NotForestAfterDeletion,
    ParseError,
    PrecollisionError,
    RootHasNoParentEdge,
    SelfLoop,
    TableMismatch,
    TablesTooLarge,
    TreecutError,
    UnknownVertexId,
)
from .graphs import (
    WeightedGraph,
    forest_from_graph,
    graph_from_csv,
    graph_from_json,
    load_instance,
    similarity_spanning_tree,
    tree_as_graph,
)
from .oracle import (
    EnumerationBudget,
    enumerate_connected_subpartitions,
    oracle_decide,
    oracle_min_xi,
)
from .search import (
    Forest,
    OptimizationResult,
    decide_forest,
    decide_semisupervised,
    k_max,
    min_xi,
)
from .solver import (
    ProblemSpec,
    decide,
    decide_batch,
    edge_charge,
    root_feasibility,
    solve,
)
from .tree import (
    RootedTree,
    build_rooted_tree,
    processing_order,
    scale_instance,
    tree_from_json,
)
from .values import INFINITY, ScaledValue, format_rational, parse_rational
from .witness import (
    Subpartition,
    expansion,
    make_subpartition,
    reconstruct_subpartition,
    validate_subpartition,
)

__version__ = "0.1.0"
