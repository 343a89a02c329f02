"""Communication-efficient distributed clustering with outliers.

(k, t)-median, means and center over points spread across sites, plus the
uncertain-data variants, in a simulated coordinator model that accounts for
every transmitted word. See the protocol runners (:func:`run_kt_median` and
friends) for the distributed entry points, :func:`subquadratic_solve` for
the single-machine reduction, and :mod:`partialclust.cli` for the command
line.
"""

from .allocation import (
    Allocation,
    CostCurve,
    allocate,
    exceptional_adjust,
    geometric_index_set,
    lower_hull,
    merge_two_solutions,
    site_budget_from_pivot,
)
from .errors import (
    ClusteringError,
    DegenerateInstanceError,
    InfeasibleError,
    InternalInvariantError,
    InvalidParameterError,
    InvalidPointError,
    OracleSizeLimitError,
    ParseError,
    PreconditionError,
)
from .metric import (
    ClusteringSolution,
    Demand,
    EvalCounter,
    Instance,
    MetricSpace,
    Objective,
    extremes,
)
from .protocol import (
    CommLedger,
    Message,
    Partition,
    ProtocolReport,
    SubquadraticReport,
    run_kt_center,
    run_kt_median,
    run_kt_median_clustering_only,
    run_one_round,
    subquadratic_solve,
)
from .solvers import (
    BicriteriaConfig,
    GonzalezOrder,
    bicriteria_median,
    exact_oracle,
    gonzalez_order,
    insertion_marginals,
    jv_facility_location,
    kt_center_outliers,
    pad_centers,
    solution_from_centers,
)
from .uncertain import (
    NodePartition,
    ObjectiveEstimate,
    OneMedianSummary,
    TauGrid,
    UncertainNode,
    build_compressed_graph,
    eval_center_g_objective,
    node_universe_cost,
    one_median,
    run_center_g,
    run_uncertain,
    tau_grid,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "BicriteriaConfig", "ClusteringError", "ClusteringSolution",
    "CommLedger", "CostCurve", "DegenerateInstanceError",
    "Demand", "EvalCounter", "GonzalezOrder", "InfeasibleError", "Instance",
    "InternalInvariantError",
    "InvalidParameterError", "InvalidPointError", "Message", "MetricSpace",
    "NodePartition", "Objective", "ObjectiveEstimate", "OneMedianSummary",
    "OracleSizeLimitError", "ParseError", "Partition", "PreconditionError",
    "ProtocolReport", "SubquadraticReport", "TauGrid", "UncertainNode",
    "allocate", "bicriteria_median", "build_compressed_graph",
    "eval_center_g_objective",
    "exact_oracle", "exceptional_adjust", "extremes", "geometric_index_set",
    "gonzalez_order", "insertion_marginals",
    "jv_facility_location", "kt_center_outliers", "lower_hull",
    "merge_two_solutions", "node_universe_cost", "one_median", "pad_centers",
    "run_center_g", "run_kt_center", "run_kt_median",
    "run_kt_median_clustering_only", "run_one_round", "run_uncertain",
    "site_budget_from_pivot", "solution_from_centers",
    "subquadratic_solve", "tau_grid",
]
