"""Control laws for both agents and a derivative-free policy optimizer.

The leader's semi-explicit law is affine in the augmented state with
coefficients from the backward Riccati solve. The generic alternative is a
compact gated recurrence over a short state window plus time features,
trained by simultaneous-perturbation stochastic approximation (SPSA) with
common random numbers; it only needs forward simulations, no gradients.

Every policy's ``session(n_paths)`` returns a stepper that the batch
simulator calls once per node in order, and that may be stateful. The
affine law is also a pure function of (node, psi), ``RiccatiPolicy.control_at``,
the one place its arithmetic is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (
    FollowerModel,
    InvalidArgumentError,
    LeaderModel,
    PolicyEvaluationError,
    RngContract,
    STREAM_INIT,
    STREAM_OPTIMIZER,
    TimeGrid,
)
from .riccati import DerivedCoefficients, FollowerRiccati, LeaderRiccati
from . import simulate as sim


class _StatelessSession:
    def __init__(self, fn):
        self._fn = fn

    def controls(self, j, x_prefix, aux, aux2):
        return self._fn(j, x_prefix, aux, aux2)


@dataclass(frozen=True)
class FunctionPolicy:
    """Wraps a vectorized function (j, x_prefix, aux, aux2) -> controls; tests
    build one, and ``perfbench/tracing.py`` wraps its ``session`` by name."""

    fn: object

    def session(self, n_paths: int):
        return _StatelessSession(self.fn)


@dataclass(frozen=True)
class RiccatiPolicy:
    """Leader's semi-explicit affine law from the augmented Riccati solve.

    u(t, psi) = -(b_L/r_L) * (2 (quad(t) psi)_1 + lin_1(t)).
    """

    leader: LeaderModel
    lr: LeaderRiccati

    @cached_property
    def gains(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(scale, state_gain, offset): u_j = scale * (state_gain[j] . psi + offset[j]).

        state_gain is 2 quad(t_j)[0, :] per node and offset is lin_1(t_j);
        doubling is exact, so this is the law above to the last bit.
        """
        state_gain = 2.0 * self.lr.quad[:, 0, :]
        offset = self.lr.lin[:, 0]
        state_gain.setflags(write=False)
        return -self.leader.b_control / self.leader.r_control, state_gain, offset

    def control_at(self, j, x, aux, aux2):
        """Control at node j (an index or a slice of nodes along the last axis)."""
        scale, state_gain, offset = self.gains
        k = state_gain[j]
        return scale * (k[..., 0] * x + k[..., 1] * aux + k[..., 2] * aux2 + offset[j])

    def session(self, n_paths: int):
        """Stepper over ``control_at``, which the simulator steps a batch
        through wherever it does not solve the law blocked."""
        return _StatelessSession(
            lambda j, x_prefix, aux, aux2: self.control_at(j, x_prefix[:, -1], aux, aux2)
        )


@dataclass(frozen=True)
class RecurrentConfig:
    """Architecture of the parameterized path-dependent policy."""

    window: int = 3
    decay: float = 0.9
    hidden_width: int = 16
    out_width: int = 16

    def __post_init__(self):
        if not (0.0 < self.decay <= 1.0):
            raise InvalidArgumentError("decay must lie in (0, 1]")
        if self.window != 3:
            raise InvalidArgumentError("feature window is fixed at 3 recent states")
        for name in ("hidden_width", "out_width"):
            width = getattr(self, name)
            if not isinstance(width, int) or isinstance(width, bool) or width < 1:
                raise InvalidArgumentError(f"{name} must be a positive integer")

    @property
    def n_features(self) -> int:
        return 1 + 2 * self.window + 3

    @property
    def dim(self) -> int:
        nf, w, o = self.n_features, self.hidden_width, self.out_width
        gate = w * nf + w * w + w
        return 2 * gate + o * w + o + o + 1


def _split_theta(theta: np.ndarray, cfg: RecurrentConfig):
    nf, w, o = cfg.n_features, cfg.hidden_width, cfg.out_width
    idx = 0

    def take(shape):
        nonlocal idx
        size = int(np.prod(shape))
        block = theta[idx : idx + size].reshape(shape)
        idx += size
        return block

    w_gate, u_gate, b_gate = take((w, nf)), take((w, w)), take((w,))
    w_cand, u_cand, b_cand = take((w, nf)), take((w, w)), take((w,))
    v_out, b_out = take((o, w)), take((o,))
    v_head, b_head = take((1, o)), take((1,))
    if idx != theta.size:
        raise InvalidArgumentError(f"theta has {theta.size} entries, expected {cfg.dim}")
    return w_gate, u_gate, b_gate, w_cand, u_cand, b_cand, v_out, b_out, v_head, b_head


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.clip(v, -60.0, 60.0)))


class _RecurrentSession:
    def __init__(self, policy: "RecurrentPolicy", n_paths: int):
        self.p = policy
        self.hidden = np.zeros((n_paths, policy.config.hidden_width))
        self.weights = _split_theta(policy.theta, policy.config)

    def controls(self, j, x_prefix, aux, aux2):
        p = self.p
        cfg = p.config
        grid = p.grid
        t = grid.nodes[min(j, grid.n_steps)]
        x = x_prefix[:, -1]
        # Warm-up: states before node 0 equal the initial state.
        recent = [x_prefix[:, max(j - lag, 0)] for lag in (3, 2, 1)]
        gam = cfg.decay
        feats = np.stack(
            [
                x,
                gam**3 * recent[0],
                gam**2 * recent[1],
                gam * recent[2],
                recent[0],
                recent[1],
                recent[2],
                np.full_like(x, t / grid.horizon),
                np.full_like(x, math.sin(math.pi * t / grid.horizon)),
                np.full_like(x, math.cos(math.pi * t / grid.horizon)),
            ],
            axis=1,
        )
        if not np.all(np.isfinite(feats)):
            raise PolicyEvaluationError(f"non-finite policy feature at node {j}")
        w_gate, u_gate, b_gate, w_cand, u_cand, b_cand, v_out, b_out, v_head, b_head = self.weights
        h = self.hidden
        gate = _sigmoid(feats @ w_gate.T + h @ u_gate.T + b_gate)
        cand = np.tanh(feats @ w_cand.T + h @ u_cand.T + b_cand)
        h = (1.0 - gate) * h + gate * cand
        self.hidden = h
        out = np.tanh(h @ v_out.T + b_out)
        return (out @ v_head.T + b_head)[:, 0]


@dataclass(frozen=True)
class RecurrentPolicy:
    """Gated-recurrence policy over windowed states and time features.

    The feature vector at node j is the current state, the three most recent
    states both decay-weighted and raw (padded with the initial state before
    node 0), and (t/T, sin(pi t/T), cos(pi t/T)). The hidden state resets at
    node 0 and is advanced once per node, so the control is a deterministic
    function of the state prefix.
    """

    grid: TimeGrid
    theta: np.ndarray
    config: RecurrentConfig = RecurrentConfig()

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (self.config.dim,):
            raise InvalidArgumentError(
                f"theta must have {self.config.dim} entries, got shape {theta.shape}"
            )
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    def session(self, n_paths: int) -> _RecurrentSession:
        """Stateful stepper over ``n_paths`` rows; ``perfbench/tracing.py`` wraps it."""
        return _RecurrentSession(self, n_paths)

    def with_theta(self, theta) -> "RecurrentPolicy":
        return replace(self, theta=np.asarray(theta, dtype=float))


# Half-width of the uniform noise the recurrent blocks start from.
INIT_SCALE = 0.2


def initial_policy(grid: TimeGrid, config: RecurrentConfig, rng: RngContract) -> RecurrentPolicy:
    """Zero-output initialization: recurrent blocks get small seeded noise,
    both output stages start at zero so the initial policy is identically 0."""
    cfg = config
    theta = np.zeros(cfg.dim)
    gate_sz = cfg.hidden_width * cfg.n_features + cfg.hidden_width**2 + cfg.hidden_width
    gen = rng.stream(STREAM_INIT)
    theta[: 2 * gate_sz] = INIT_SCALE * (2.0 * gen.random(2 * gate_sz) - 1.0)
    return RecurrentPolicy(grid=grid, theta=theta, config=config)


# SPSA gain sequences a_k = a0 / (k + 1 + A)^STEP_EXPONENT and
# c_k = c0 / (k + 1)^PERTURB_EXPONENT (Spall's standard exponents), with the
# stability offset A a STABILITY_FRACTION of the budget.
STEP_EXPONENT = 0.602
PERTURB_EXPONENT = 0.101
STABILITY_FRACTION = 0.1
# Cap on |gradient| / running median of the gradient magnitudes.
CLIP_RATIO = 3.0
# Re-anchor at the best iterate when the frozen-batch value drifts above the
# best by this relative margin.
RESTORE_MARGIN = 0.3


@dataclass(frozen=True)
class OptimizerConfig:
    """SPSA settings for fitting the recurrent policy to an objective.

    These defaults are the only SPSA defaults: a study passes its objective,
    its master seed and the settings its config's ``optimizer`` block
    overrides. ``step_scale`` is the typical per-coordinate displacement of
    the first iterations: raw two-point gradient estimates are normalized by
    a running median of their magnitudes, so the step size stays meaningful
    across objectives whose natural scale varies by orders of magnitude.
    """

    objective: str = "fisher"  # "fisher" (information) or "variance"
    batch_size: int = 256
    budget: int = 3000
    step_scale: float = 0.004
    perturb_scale: float = 0.02  # c0 in c_k
    master_seed: int = 0
    eval_every: int = 100
    eval_paths: int = 4096

    def __post_init__(self):
        if self.budget < 1:
            raise InvalidArgumentError("budget must be >= 1")
        if self.batch_size < 2:
            raise InvalidArgumentError("batch_size must be >= 2")
        if self.eval_paths < 2:
            raise InvalidArgumentError("eval_paths must be >= 2")
        if self.objective not in ("fisher", "variance"):
            raise InvalidArgumentError(f"unknown objective {self.objective!r}")


@dataclass(frozen=True)
class OptimizeResult:
    policy: RecurrentPolicy
    trace: np.ndarray  # per-iteration training objective estimates
    best_trace: np.ndarray  # (iteration, frozen-eval value) rows, best-so-far
    final_objective: float
    final_se: float


def optimize_policy(
    cfg: OptimizerConfig,
    leader: LeaderModel,
    follower: FollowerModel,
    coeffs: DerivedCoefficients,
    fr: FollowerRiccati,
    grid: TimeGrid,
) -> OptimizeResult:
    """Fit the recurrent policy by SPSA on a Monte Carlo objective.

    The search starts from ``initial_policy`` on the default architecture.
    Each iteration draws one batch of Brownian shocks, shared by the two
    perturbed evaluations (common random numbers), estimates the two-sided
    objective difference, and takes a Rademacher-projected step.
    Every ``eval_every`` iterations the current parameters are scored on a
    frozen evaluation batch; the best-scoring parameters are re-checked on a
    held-out batch at the end and returned.
    """
    rng = RngContract(cfg.master_seed)
    policy = initial_policy(grid, RecurrentConfig(), rng)
    theta = policy.theta.copy()
    dim = theta.size
    n = grid.n_steps

    def values(th, shocks):
        _, precision, j_p, _ = sim.leader_batch_stats(
            leader, follower, coeffs, fr, policy.with_theta(th), grid, shocks
        )
        return sim.objective_paths(leader, follower, precision, j_p, cfg.objective)

    def batch_value(th, shocks):
        return float(np.mean(values(th, shocks)))

    eval_shocks = rng.stream(STREAM_OPTIMIZER, 2).standard_normal((cfg.eval_paths, n))
    holdout_shocks = rng.stream(STREAM_OPTIMIZER, 3).standard_normal((cfg.eval_paths, n))

    start = batch_value(theta, eval_shocks)
    if not math.isfinite(start):
        raise sim.DegenerateEnsembleError("objective is non-finite at initialization")
    best_theta, best_value = theta.copy(), start
    best_trace = [(0, start)]
    trace = np.empty(cfg.budget)

    offset = STABILITY_FRACTION * cfg.budget
    step0 = cfg.step_scale * (offset + 1.0) ** STEP_EXPONENT
    perturb_gen = rng.stream(STREAM_OPTIMIZER, 1)
    grad_mags = []
    for k in range(cfg.budget):
        shocks = rng.stream(STREAM_OPTIMIZER, 100_000 + k).standard_normal((cfg.batch_size, n))
        c_k = cfg.perturb_scale / (k + 1.0) ** PERTURB_EXPONENT
        a_k = step0 / (k + 1.0 + offset) ** STEP_EXPONENT
        delta = perturb_gen.integers(0, 2, size=dim) * 2.0 - 1.0
        j_plus = batch_value(theta + c_k * delta, shocks)
        j_minus = batch_value(theta - c_k * delta, shocks)
        trace[k] = 0.5 * (j_plus + j_minus)
        grad = (j_plus - j_minus) / (2.0 * c_k)
        grad_mags.append(abs(grad))
        med = float(np.median(grad_mags[-200:]))
        if med > 0.0:
            grad = np.clip(grad / med, -CLIP_RATIO, CLIP_RATIO)
        else:
            grad = 0.0
        theta = theta - a_k * grad * delta
        if (k + 1) % cfg.eval_every == 0 or k + 1 == cfg.budget:
            value = batch_value(theta, eval_shocks)
            if value < best_value:
                best_theta, best_value = theta.copy(), value
            elif value > best_value + RESTORE_MARGIN * abs(best_value):
                theta = best_theta.copy()
            best_trace.append((k + 1, best_value))

    # Held-out pass decides between the best frozen-eval candidate and the
    # final iterate.
    candidates = [best_theta, theta]
    held = [values(th, holdout_shocks) for th in candidates]
    held_vals = [float(np.mean(vals)) for vals in held]
    pick = int(np.argmin(held_vals))
    final_theta = candidates[pick]
    final_vals = held[pick]
    final_se = float(np.std(final_vals, ddof=1) / math.sqrt(len(final_vals)))
    return OptimizeResult(
        policy=policy.with_theta(final_theta),
        trace=trace,
        best_trace=np.asarray(best_trace, dtype=float),
        final_objective=float(held_vals[pick]),
        final_se=final_se,
    )
