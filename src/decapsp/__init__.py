"""Decremental all-pairs shortest-path approximations.

The package maintains approximate distance oracles for undirected graphs
under edge deletions and weight increases: a (2+eps)-multiplicative scheme,
a mixed scheme whose additive term is the largest weight on a shortest path,
an unweighted variant obtained by edge subdivision, and a near-additive
scheme for bounded distances, beside an exact baseline that keeps one
shortest-path tree per node.  An exact recomputation harness and a CLI for
workload generation, replay, verification and benchmarking sit alongside.
"""

from .graph import (
    DELETE,
    INCREASE,
    ChangeRecord,
    ConfigError,
    DomainError,
    DuplicateEdge,
    DynamicGraph,
    EdgeNotFound,
    MonotonicityViolation,
    ParseError,
    QueryCheckpoint,
    UpdateEvent,
    apply_update,
    dump_graph,
    dump_updates,
    gnp_graph,
    load_graph,
    parse_updates,
)
from .heaps import IndexedHeap
from .rounding import GeometricRounder
from .estree import ExactAPSP, MonotoneESTree
from .bunches import BunchChangeEvent, BunchEngine, sample_pivots
from .apsp_mult import MultiplicativeAPSP
from .apsp_mixed import MixedAPSP
from .reduction import UnweightedAPSP, subdivide
from .additive import AdditiveAPSP, level_thresholds, sample_partition
from .oracle import (
    BoundSpec,
    StretchReport,
    bottleneck_weights,
    exact_apsp,
    sweep,
)

__all__ = [
    "AdditiveAPSP",
    "BoundSpec",
    "BunchChangeEvent",
    "BunchEngine",
    "ChangeRecord",
    "ConfigError",
    "DELETE",
    "DomainError",
    "DuplicateEdge",
    "DynamicGraph",
    "EdgeNotFound",
    "ExactAPSP",
    "GeometricRounder",
    "INCREASE",
    "IndexedHeap",
    "MixedAPSP",
    "MonotoneESTree",
    "MonotonicityViolation",
    "MultiplicativeAPSP",
    "ParseError",
    "QueryCheckpoint",
    "StretchReport",
    "UnweightedAPSP",
    "UpdateEvent",
    "apply_update",
    "bottleneck_weights",
    "dump_graph",
    "dump_updates",
    "exact_apsp",
    "gnp_graph",
    "level_thresholds",
    "load_graph",
    "parse_updates",
    "sample_partition",
    "sample_pivots",
    "subdivide",
    "sweep",
]
