"""Leader-follower strategic inference toolkit.

Solves both agents' controls through backward Riccati systems, simulates the
coupled dynamics, estimates the follower's hidden dilation factor by maximum
likelihood, and drives the experiment studies behind the command line.
"""

__version__ = "0.1.0"

from .core import (
    BlowUpError,
    DegenerateEnsembleError,
    DegeneratePathError,
    FollowerModel,
    InvalidArgumentError,
    LeaderModel,
    OutOfDomainError,
    PolicyEvaluationError,
    RngContract,
    Sinusoid,
    SolverFailureError,
    Tabulated,
    TimeGrid,
    Trajectory,
    build_grid,
    cumtrapz,
    eval_target,
    trapz,
)
from .riccati import (
    DerivedCoefficients,
    FollowerRiccati,
    HorizonBound,
    LeaderRiccati,
    compute_coefficients,
    horizon_bound,
    scaled_info_weight,
    solve_follower_a,
    solve_follower_bc,
    solve_leader_system,
)
from .simulate import (
    AugmentedLeaderPath,
    FollowerPath,
    GProfile,
    LeaderEnsemble,
    compute_g,
    compute_g_batch,
    evaluate_follower_cost,
    primary_cost_batch,
    simulate_follower,
    simulate_follower_batch,
    simulate_leader,
    simulate_leader_batch,
)
from .infer import (
    DiscreteJointEstimate,
    DiscreteObservations,
    MleReport,
    MultiPeriodState,
    mle_continuous,
    mle_continuous_batch,
    mle_discrete_joint,
    mle_discrete_joint_batch,
    multi_period_update,
    realized_variance_proxy,
    sigma_quadratic_variation,
    stopping_rule,
)
from .policy import (
    FollowerPolicyLaw,
    FunctionPolicy,
    OptimizeResult,
    OptimizerConfig,
    RecurrentConfig,
    RecurrentPolicy,
    RiccatiPolicy,
    initial_policy,
    optimize_policy,
)
