"""Cascading-outage risk assessment and risk management on DC grid models.

The package simulates multi-interval cascades (stochastic flow-dependent
branch failures interleaved with fast overload trips and LP re-dispatch),
organizes outcomes in a Markov tree to estimate blackout risk, accumulates
the risk gradient with a forward-backward pass over the tree, and derives
minimum-cost re-dispatch targets that cap the assessed risk, iteratively.
"""

from .assess import (
    Assessment,
    AssessmentConfig,
    InfeasibleBaseCase,
    enumeration_risk,
    run_assessment,
    validate_gradient,
)
from .cascade import (
    LevelRecord,
    ShortTimescaleTrace,
    dispatch_execute,
    dispatch_target,
    failure_rates,
    level_probabilities,
    probability_sensitivity,
    short_timescale_process,
    simulate_level,
)
from .gradient import (
    compress,
    control_gradient,
    convergence_indices,
)
from .lp import LpProblem, LpSolution, solution_sensitivity, solve_lp
from .management import IrmTrajectory, RmConfig, build_rm, irm, rm_step
from .network import (
    Branch,
    Bus,
    CaseSemanticError,
    CaseSyntaxError,
    FailureRateParams,
    Generator,
    Load,
    NetworkCase,
    SystemState,
    Topology,
    apply_outage,
    build_topology,
    dc_power_flow,
    flow_sensitivity,
    parse_case,
    serialize_case,
)
from .tree import MarkovTree, TreeNode, backward_risk_update, search

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
