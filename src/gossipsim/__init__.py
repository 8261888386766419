"""Deterministic simulator and analysis library for gossip learning over
dynamic networks with inaccessible nodes.

The package splits into small pure layers: random-waypoint mobility and
the induced connectivity graph, a churn process with exponential absence
durations, Metropolis mixing matrices, strongly convex per-node
objectives, the round engine, and round-level diagnostics that evaluate
the divergence and convergence bounds alongside the empirical run.
"""

__version__ = "0.1.0"

from .accessibility import (
    AccessibilityState,
    ChurnConfig,
    absence_duration,
    accessible_mask,
    init_accessibility,
    step_accessibility,
)
from .config import ConfigError, RunConfig, SuiteSpec, build_problem_suite, load_run_config
from .dataparts import Dataset, DegeneratePartitionError, PartitionConfig, partition, synthetic_blobs
from .diagnostics import (
    TRACE_COLUMNS,
    TraceRow,
    convergence_envelope,
    convergence_terms,
    distance_to_optimum,
    full_average,
    gap_term,
    gradient_gap,
    gradient_gap_bound,
    partial_average,
    read_trace_csv,
    write_trace_csv,
)
from .engine import (
    EtaSchedule,
    RoundResult,
    SimConfig,
    SimState,
    advance_round,
    derive_streams,
    init_state,
    run_simulation,
)
from .gossip import (
    GossipMatrix,
    active_nodes,
    build_gossip_matrix,
    deemphasize_rejoined,
    gossip_average,
    verify_doubly_stochastic,
)
from .mobility import (
    Adjacency,
    MobilityConfig,
    MobilityState,
    connectivity,
    init_mobility,
    step_mobility,
    write_trajectory_csv,
)
from .objective import (
    NodeProblem,
    ProblemSuite,
    build_suite,
    constants,
    global_accuracy,
    global_gradient,
    global_loss,
    grad_bound_estimate,
    heterogeneity_gap,
    local_gradient,
    local_loss,
    local_optimum,
    suite_digest,
)
