"""Leader-follower strategic inference toolkit.

Solves both agents' controls through backward Riccati systems, simulates the
coupled dynamics, estimates the follower's hidden dilation factor by maximum
likelihood, and drives the experiment studies behind the command line.

``import stackinfer`` loads no submodule: each exported name, and each
submodule (``stackinfer.riccati``), is imported on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": [
        "BlowUpError", "DegenerateEnsembleError", "DegeneratePathError", "FollowerModel",
        "InvalidArgumentError", "LeaderModel", "OutOfDomainError", "PolicyEvaluationError",
        "RngContract", "Sinusoid", "SolverFailureError", "Tabulated", "TimeGrid",
        "Trajectory", "build_grid", "cumtrapz", "eval_target",
    ],
    "riccati": [
        "DerivedCoefficients", "FollowerRiccati", "HorizonBound", "LeaderRiccati",
        "compute_coefficients", "horizon_bound", "scaled_info_weight", "solve_follower_a",
        "solve_follower_bc", "solve_leader_system",
    ],
    "simulate": [
        "AugmentedLeaderPath", "FollowerPath", "GProfile", "LeaderEnsemble", "compute_g",
        "compute_g_batch", "primary_cost_batch",
        "simulate_follower", "simulate_follower_batch", "simulate_leader",
        "simulate_leader_batch",
    ],
    "infer": [
        "DiscreteJointEstimate", "DiscreteObservations", "MleReport", "MultiPeriodState",
        "mle_continuous", "mle_continuous_batch", "mle_discrete_joint",
        "multi_period_update", "realized_variance_proxy", "stopping_rule",
    ],
    "policy": [
        "FunctionPolicy", "OptimizeResult", "OptimizerConfig",
        "RecurrentConfig", "RecurrentPolicy", "RiccatiPolicy", "initial_policy",
        "optimize_policy",
    ],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "config", "core", "infer", "policy", "riccati", "simulate", "studies")
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
