"""Forward simulation of both agents and evaluation of every cost functional.

Leader paths carry two auxiliary integrals alongside the state: the
weighted running integral of the state and its decayed second integral.
Both are trapezoid sums over the state path, so that path-dependent policies
can read them online (the per-step loop advances them node by node), and
the score profile and its precision integral can be read off them.

Batch variants are vectorized across paths; each path's increments come
from its own counter-derived stream. Under an affine law (the Riccati
policy, or the follower's optimal response, in either mode) a batch is one
affine recurrence, solved by ``core._affine_scan``, which alone picks its
schedule from the batch shape; it agrees with the per-step loop to rounding.
Other policies step their session once per node. Leader batches keep the
state step-major either way, and the leader's precision and primary cost
are formed on that layout. Every row is computed independently of the
others, so a row does not depend on how many rows share its batch (within
one of the solver's schedules) or on thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateEnsembleError,
    FollowerModel,
    InvalidArgumentError,
    LeaderModel,
    PolicyEvaluationError,
    RngContract,
    STREAM_FOLLOWER,
    STREAM_LEADER,
    TimeGrid,
    Trajectory,
    _affine_scan,
    cumtrapz,
    trapz,
    trapz_step_major,
)
from .riccati import DerivedCoefficients, FollowerRiccati, scaled_info_weight

# Precision integrals at or below this count as degenerate: they are dropped
# from reciprocal (variance) averages, and an estimate on them is refused.
PRECISION_FLOOR = 1e-14
# Trapezoid sub-intervals per step or observation interval of the exact
# one-step transition integrals.
SUB_NODES = 16


@dataclass(frozen=True)
class AugmentedLeaderPath:
    """One leader path with auxiliary integrals, controls and driving noise."""

    grid: TimeGrid
    x: np.ndarray
    aux: np.ndarray  # weighted running integral of the state (one per node)
    aux2: np.ndarray  # decayed second integral (one per node)
    controls: np.ndarray  # one per node; the terminal value never enters the dynamics
    brownian: np.ndarray  # Brownian increments, one per step
    stream_key: tuple

    def trajectory(self) -> Trajectory:
        return Trajectory(grid=self.grid, values=self.x)


@dataclass(frozen=True)
class FollowerPath:
    """One follower path under the optimal response, with driving noise."""

    grid: TimeGrid
    x: np.ndarray
    brownian: np.ndarray
    stream_key: tuple
    mode: str


@dataclass(frozen=True)
class GProfile:
    """Score-function profile g along one leader path and its precision.

    ``precision`` is the integral of g^2 over [0, T]; it scales the Fisher
    information and inversely scales the estimator's conditional variance.
    """

    grid: TimeGrid
    g: np.ndarray
    precision: float


@dataclass(frozen=True)
class LeaderEnsemble:
    """Batch of leader paths (rows are paths, columns grid nodes).

    The arrays are transposed views of step-major storage: x, aux and aux2
    are the three state rows of one (n_nodes, 3, n_paths) array, and the
    controls one (n_nodes, n_paths) array, so each node's values are
    contiguous. ``x.T`` and the like give the step-major arrays back.
    """

    grid: TimeGrid
    x: np.ndarray
    aux: np.ndarray
    aux2: np.ndarray
    controls: np.ndarray
    shocks: np.ndarray  # standard-normal draws, (n_paths, n_steps)


@dataclass(frozen=True)
class ObjectiveEstimate:
    """Monte Carlo estimates of the leader's objectives over an ensemble."""

    j_primary: float
    j_var: float
    j_info: float
    mean_fisher: float
    mean_precision: float
    n_paths: int
    n_degenerate: int
    se_primary: float
    se_info: float
    se_var: float


def _check_grid(grid: TimeGrid, other: TimeGrid, what: str):
    if other != grid:
        raise InvalidArgumentError(f"{what} lives on a different grid")


def simulate_leader_batch(
    leader: LeaderModel,
    coeffs: DerivedCoefficients,
    policy,
    grid: TimeGrid,
    shocks: np.ndarray,
) -> LeaderEnsemble:
    """Euler-Maruyama batch of leader paths under ``policy``.

    ``shocks`` holds standard-normal draws, one row per path. A policy with
    an affine law (``gains``) is solved as one affine recurrence, with no
    session calls. Any other policy's session is stepped once per node in
    order; sessions may be stateful (recurrent policies), so rows of a
    batch advance together. Either way the state is kept step-major (see
    ``LeaderEnsemble``).
    """
    _check_grid(grid, coeffs.grid, "coefficients")
    shocks = np.asarray(shocks, dtype=float)
    if shocks.ndim != 2 or shocks.shape[1] != grid.n_steps:
        raise InvalidArgumentError(
            f"shocks must be (n_paths, {grid.n_steps}), got {shocks.shape}"
        )
    gains = getattr(policy, "gains", None)
    if gains is not None:
        return _leader_scan(leader, coeffs, policy, gains, grid, shocks)

    n_paths = shocks.shape[0]
    n = grid.n_steps
    h = grid.h
    sqrt_h = math.sqrt(h)
    a_l, b_l, sig = leader.a_drift, leader.b_control, leader.sigma
    w, d = coeffs.weight, coeffs.decay

    # One contiguous row per node; the session reads the prefix path-major.
    y = np.empty((n + 1, 3, n_paths))
    x, aux, aux2 = y[:, 0], y[:, 1], y[:, 2]
    controls = np.empty((n + 1, n_paths))
    x[0] = leader.x0
    aux[0] = 0.0
    aux2[0] = 0.0

    session = policy.session(n_paths)
    for j in range(n):
        u = np.asarray(session.controls(j, x[: j + 1].T, aux[j], aux2[j]), dtype=float)
        if not np.all(np.isfinite(u)):
            raise PolicyEvaluationError(f"policy returned a non-finite control at node {j}")
        controls[j] = u
        x[j + 1] = x[j] + (a_l * x[j] + b_l * u) * h + sig * sqrt_h * shocks[:, j]
        aux[j + 1] = aux[j] - 0.5 * h * (w[j] * x[j] + w[j + 1] * x[j + 1])
        aux2[j + 1] = aux2[j] + 0.5 * h * (d[j] * aux[j] + d[j + 1] * aux[j + 1])
    u = np.asarray(session.controls(n, x.T, aux[n], aux2[n]), dtype=float)
    if not np.all(np.isfinite(u)):
        raise PolicyEvaluationError(f"policy returned a non-finite control at node {n}")
    controls[n] = u
    return LeaderEnsemble(grid=grid, x=x.T, aux=aux.T, aux2=aux2.T, controls=controls.T,
                          shocks=shocks)


def _leader_scan(leader, coeffs, policy, gains, grid, shocks) -> LeaderEnsemble:
    """Leader batch under u = scale * (state_gain . psi + offset) as one recurrence.

    psi = (x, aux, aux2) steps affinely: the Euler step of x, then the
    trapezoid steps of aux and aux2, which read the new x and aux. All three
    are kept from the solver's step-major state, so aux and aux2 hold the
    trapezoid identities to rounding, not bitwise; the controls are the
    policy's law at every node, laid out as the state.
    """
    n_paths, n = shocks.shape
    h = grid.h
    scale, state_gain, offset = gains
    w, d = coeffs.weight, coeffs.decay
    a_l, b_l = leader.a_drift, leader.b_control
    bh = b_l * h * scale
    half_h = 0.5 * h

    # Row 0: x' = x + (a_l x + b_l u) h + noise; rows 1 and 2 fold in x' and aux'.
    a = np.zeros((n, 3, 3))
    a[:, 0, :] = bh * state_gain[:-1]
    a[:, 0, 0] += 1.0 + a_l * h
    a[:, 1, :] = -half_h * w[1:, None] * a[:, 0, :]
    a[:, 1, 0] -= half_h * w[:-1]
    a[:, 1, 1] += 1.0
    a[:, 2, :] = half_h * d[1:, None] * a[:, 1, :]
    a[:, 2, 1] += half_h * d[:-1]
    a[:, 2, 2] += 1.0
    # The start state and the forcing in the solver's step-major layout.
    y = np.empty((n + 1, 3, n_paths))
    y[0] = [[leader.x0], [0.0], [0.0]]
    c = y[1:]
    np.multiply(shocks.T, leader.sigma * math.sqrt(h), out=c[:, 0])
    c[:, 0] += (bh * offset[:-1])[:, None]
    np.multiply((-half_h * w[1:])[:, None], c[:, 0], out=c[:, 1])
    np.multiply((half_h * d[1:])[:, None], c[:, 1], out=c[:, 2])
    _affine_scan(a, y)

    x, aux, aux2 = y[:, 0].T, y[:, 1].T, y[:, 2].T
    controls = np.asarray(policy.control_at(slice(None), x, aux, aux2), dtype=float)
    bad = ~np.all(np.isfinite(controls), axis=0)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise PolicyEvaluationError(f"policy returned a non-finite control at node {j}")
    return LeaderEnsemble(grid=grid, x=x, aux=aux, aux2=aux2, controls=controls, shocks=shocks)


def simulate_leader(
    leader: LeaderModel,
    coeffs: DerivedCoefficients,
    policy,
    grid: TimeGrid,
    rng: RngContract,
    path_index: int = 0,
) -> AugmentedLeaderPath:
    """Simulate one leader path from its contract-derived stream."""
    shocks = rng.normals(grid.n_steps, STREAM_LEADER, path_index)[None, :]
    ens = simulate_leader_batch(leader, coeffs, policy, grid, shocks)
    return AugmentedLeaderPath(
        grid=grid,
        x=ens.x[0],
        aux=ens.aux[0],
        aux2=ens.aux2[0],
        controls=ens.controls[0],
        brownian=math.sqrt(grid.h) * shocks[0],
        stream_key=(rng.master_seed, STREAM_LEADER, path_index),
    )


def _sub_step_integrals(f_sub: np.ndarray, kernel_sub: np.ndarray, h_sub):
    """Transition factor and two weighted integrals per row of sub-node values.

    Row i holds f and a kernel at ``SUB_NODES + 1`` equally spaced sub-nodes
    of one interval, ``h_sub`` apart (a scalar, or one spacing per row).
    With phi(u) the integral of f from u to the interval's right edge, it
    returns exp(phi) at the left edge and the trapezoid integrals of
    exp(phi) * kernel and of exp(2 phi) over the interval.
    """
    h_col = np.reshape(h_sub, (-1, 1))
    seg = 0.5 * h_col * (f_sub[:, :-1] + f_sub[:, 1:])
    phi = np.zeros(f_sub.shape)
    phi[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    e_phi = np.exp(phi)
    h_row = h_col[:, 0]
    kernel_int = np.trapezoid(e_phi * kernel_sub, axis=1) * h_row
    var_int = np.trapezoid(e_phi * e_phi, axis=1) * h_row
    return e_phi[:, 0], kernel_int, var_int


def _exact_transition_tables(
    model: FollowerModel, fr: FollowerRiccati, b: np.ndarray, grid: TimeGrid
):
    """Per-step transition factor, drift integral, and noise variance.

    The optimally controlled follower is a linear SDE, so over one step
    x(t+h) = x(t) * exp(int f) - (b^2/r) * int exp(int_u f) b_u du + Gaussian
    noise whose variance is sigma^2 * int exp(2 int_u f) du. The step
    integrals are evaluated by trapezoid on ``SUB_NODES`` sub-intervals with
    f and b interpolated linearly.
    """
    # Sub-grid inside each step by fractional position; rows are steps.
    frac = np.linspace(0.0, 1.0, SUB_NODES + 1)[None, :]
    f = fr.f
    f_sub = f[:-1, None] + (f[1:] - f[:-1])[:, None] * frac
    b_sub = b[:-1, None] + (b[1:] - b[:-1])[:, None] * frac
    e_step, b_int, var_step = _sub_step_integrals(f_sub, b_sub, grid.h / SUB_NODES)
    return e_step, model.gain_sq_over_r * b_int, var_step


def simulate_follower_batch(
    model: FollowerModel,
    fr: FollowerRiccati,
    b: np.ndarray,
    grid: TimeGrid,
    shocks: np.ndarray,
    mode: str = "euler",
    *,
    tables=None,
) -> np.ndarray:
    """Batch of follower paths under the optimal response (rows are paths).

    ``euler`` steps the drift f*x - (b_F^2/r_F)*b explicitly; ``exact``
    samples the Gaussian one-step transition of the linear SDE, with step
    integrals from sub-quadrature. Both are one affine recurrence in x,
    solved by ``core._affine_scan``. The exact mode reads the per-step tables
    ``_exact_transition_tables(model, fr, b, grid)`` returns; a caller
    simulating several batches with the same model, ``fr``, ``b`` and grid
    may build them once and pass them as ``tables``. Without ``tables`` they
    are built here. The Euler mode ignores ``tables``.
    """
    _check_grid(grid, fr.grid, "follower Riccati")
    b = np.asarray(b, dtype=float)
    if b.shape != (grid.n_nodes,):
        raise InvalidArgumentError(f"b must have {grid.n_nodes} values, got {b.shape}")
    shocks = np.asarray(shocks, dtype=float)
    if shocks.ndim != 2 or shocks.shape[1] != grid.n_steps:
        raise InvalidArgumentError(
            f"shocks must be (n_paths, {grid.n_steps}), got {shocks.shape}"
        )
    if mode not in ("euler", "exact"):
        raise InvalidArgumentError(f"unknown simulation mode {mode!r}")

    # x[j+1] = mult[j] * x[j] + offset[j] + noise[j] * shock[j] in both modes.
    n_paths, n = shocks.shape
    h = grid.h
    if mode == "euler":
        mult = 1.0 + fr.f[:-1] * h
        offset = -model.gain_sq_over_r * b[:-1] * h
        noise = model.sigma * math.sqrt(h)
    else:
        if tables is None:
            tables = _exact_transition_tables(model, fr, b, grid)
        e_step, drift_step, var_step = tables
        if not e_step.shape == drift_step.shape == var_step.shape == (n,):
            raise InvalidArgumentError(f"transition tables must hold {n} steps each")
        mult, offset = e_step, -drift_step
        noise = (model.sigma * np.sqrt(var_step))[:, None]
    # The start state and the forcing in the solver's step-major layout.
    y = np.empty((n + 1, 1, n_paths))
    y[0] = model.x0
    np.multiply(shocks.T, noise, out=y[1:, 0])
    y[1:, 0] += offset[:, None]
    return np.ascontiguousarray(_affine_scan(mult[:, None, None], y)[:, 0].T)


def simulate_follower(
    model: FollowerModel,
    fr: FollowerRiccati,
    b: np.ndarray,
    grid: TimeGrid,
    rng: RngContract,
    path_index: int = 0,
    mode: str = "euler",
) -> FollowerPath:
    """Simulate one follower path from its contract-derived stream."""
    shocks = rng.normals(grid.n_steps, STREAM_FOLLOWER, path_index)[None, :]
    x = simulate_follower_batch(model, fr, b, grid, shocks, mode=mode)
    return FollowerPath(
        grid=grid,
        x=x[0],
        brownian=math.sqrt(grid.h) * shocks[0],
        stream_key=(rng.master_seed, STREAM_FOLLOWER, path_index),
        mode=mode,
    )


def compute_g_batch(
    fr: FollowerRiccati, model: FollowerModel, x_leader: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Score profile g and precision integral for each leader path row.

    g(t) = -q_track * exp(-cum_f(t)) * int_t^T exp(cum_f(s)) x_L(s) ds, with
    the tail integral realized through the cumulative forward integral so
    the same trapezoid weights underlie g, the auxiliary path integrals and
    the precision, keeping their algebraic identities exact on the grid.
    """
    grid = fr.grid
    x = np.atleast_2d(np.asarray(x_leader, dtype=float))
    if x.shape[1] != grid.n_nodes:
        raise InvalidArgumentError(f"x_leader must have {grid.n_nodes} columns")
    # g = -q_track * exp(-cum_f) * (cw[:, -1:] - cw) and the trapezoid of
    # g * g, with the same operations in place: cw becomes g, and the
    # weighted path's buffer (laid out as g is) holds g * g.
    weighted = np.exp(fr.cum_f)[None, :] * x
    g = cumtrapz(weighted, grid)
    np.subtract(g[:, -1:].copy(), g, out=g)
    g *= -model.q_track * np.exp(-fr.cum_f)[None, :]
    precision = trapz(np.multiply(g, g, out=weighted), grid)
    return g, np.atleast_1d(precision)


def compute_g(fr: FollowerRiccati, model: FollowerModel, x_leader: Trajectory) -> GProfile:
    """Score profile for a single leader trajectory."""
    _check_grid(fr.grid, x_leader.grid, "leader trajectory")
    g, precision = compute_g_batch(fr, model, x_leader.values[None, :])
    return GProfile(grid=fr.grid, g=g[0], precision=float(precision[0]))


def primary_cost_batch(leader: LeaderModel, grid: TimeGrid, x: np.ndarray, controls: np.ndarray):
    """Realized tracking-plus-effort cost per path row."""
    target = leader.target_at(grid.nodes, grid.horizon)
    # 0.5 q (x - target)^2 + 0.5 r u^2, with the same operations in place.
    run = np.subtract(x, target[None, :])
    np.square(run, out=run)
    run *= 0.5 * leader.q_track
    effort = np.square(controls)
    effort *= 0.5 * leader.r_control
    run += effort
    del effort  # trapz's temporary can then reuse its memory, not fault in new pages
    cost = trapz(run, grid)
    cost = cost + 0.5 * leader.q_terminal * (x[:, -1] - target[-1]) ** 2
    return np.atleast_1d(cost)


def evaluate_follower_cost(
    model: FollowerModel,
    fpath: FollowerPath,
    x_leader: Trajectory,
    fr: FollowerRiccati,
    b: np.ndarray,
) -> float:
    """Realized follower cost along one path under its optimal policy.

    The control second moment and the entropy term use the closed Gaussian
    forms of the optimal policy (mean -(b_F/r_F)(2 a x + b), variance
    entropy_weight/r_F), so only the state path is random.
    """
    grid = fpath.grid
    _check_grid(grid, x_leader.grid, "leader trajectory")
    x = fpath.x
    lam, r = model.entropy_weight, model.r_control
    mean = -(model.b_control / r) * (2.0 * fr.a * x + b)
    track = 0.5 * model.q_track * (x - model.dilation * x_leader.values) ** 2
    effort = 0.5 * r * (mean**2 + lam / r)
    neg_entropy = -0.5 * math.log(2.0 * math.pi * math.e * lam / r)
    integrand = track + effort + lam * neg_entropy
    return float(trapz(integrand, grid))


def precision_from_aux(
    coeffs: DerivedCoefficients, aux: np.ndarray, aux2: np.ndarray
) -> np.ndarray:
    """Precision integral from the auxiliary states (quadratic expansion).

    int g^2 = aux_T^2 * int decay - 2 aux_T aux2_T + int decay * aux^2,
    exact on the grid in exact arithmetic, because every integral shares the
    trapezoid weights. In floating point the three terms cancel: over 300
    drawn models (horizons up to 3, up to 1500 steps) it was up to 3.4e-8
    relative off ``compute_g_batch``, where the trapezoid of g^2 that
    ``leader_batch_stats`` takes stayed within 2.9e-12. So it checks the
    identity and is not the evaluator.
    """
    grid = coeffs.grid
    aux = np.atleast_2d(aux)
    aux2 = np.atleast_2d(aux2)
    tail = trapz(coeffs.decay[None, :] * aux * aux, grid)
    return aux[:, -1] ** 2 * coeffs.decay_l1 - 2.0 * aux[:, -1] * aux2[:, -1] + tail


def leader_batch_stats(
    leader: LeaderModel,
    follower: FollowerModel,
    coeffs: DerivedCoefficients,
    fr: FollowerRiccati,
    policy,
    grid: TimeGrid,
    shocks: np.ndarray,
) -> tuple[LeaderEnsemble, np.ndarray, np.ndarray]:
    """Leader paths on ``shocks`` with each path's precision and primary cost.

    Returns (ensemble, precision, j_primary), one precision and one primary
    cost per row of ``shocks``. Both are formed on the ensemble's step-major
    arrays in one scratch array. The precision is the trapezoid of g^2 with
    g = exp(-cum_f) (aux_T - aux), ``compute_g_batch``'s g, since
    q_track * int exp(cum_f) x = -aux. The primary cost's trapezoids of the
    squared tracking error and control are taken apart and weighted after.
    """
    ens = simulate_leader_batch(leader, coeffs, policy, grid, shocks)
    x, aux, u = ens.x.T, ens.aux.T, ens.controls.T
    scratch = np.subtract(aux[-1], aux)
    scratch *= np.exp(-fr.cum_f)[:, None]
    np.square(scratch, out=scratch)
    precision = trapz_step_major(scratch, grid)

    target = leader.target_at(grid.nodes, grid.horizon)
    np.subtract(x, target[:, None], out=scratch)
    np.square(scratch, out=scratch)
    terminal = 0.5 * leader.q_terminal * scratch[-1]
    track = trapz_step_major(scratch, grid)
    effort = trapz_step_major(np.square(u, out=scratch), grid)
    j_primary = 0.5 * (leader.q_track * track + leader.r_control * effort) + terminal
    return ens, precision, j_primary


def objective_paths(
    leader: LeaderModel,
    follower: FollowerModel,
    precision: np.ndarray,
    j_primary: np.ndarray,
    objective: str,
) -> np.ndarray:
    """Per-path values of the leader's ``fisher`` or ``variance`` objective.

    The information (``fisher``) objective is j_primary less the scaled
    inference weight times the precision, on every path. The ``variance``
    objective is j_primary plus inference_weight * noise_to_signal over the
    precision, on the paths whose precision is above ``PRECISION_FLOOR``
    (a NaN precision counts as degenerate); ``DegenerateEnsembleError`` is
    raised when no path is left.
    """
    if objective == "fisher":
        return -scaled_info_weight(leader, follower) * precision + j_primary
    good = precision > PRECISION_FLOOR
    if not np.any(good):
        raise DegenerateEnsembleError(
            f"all {len(precision)} paths have precision at or below {PRECISION_FLOOR}"
        )
    return leader.inference_weight * follower.noise_to_signal / precision[good] + j_primary[good]


def estimate_objectives(
    leader: LeaderModel,
    follower: FollowerModel,
    coeffs: DerivedCoefficients,
    fr: FollowerRiccati,
    policy,
    grid: TimeGrid,
    n_paths: int,
    rng: RngContract,
) -> ObjectiveEstimate:
    """Monte Carlo estimates of the primary, variance and information objectives.

    Degenerate paths (see ``objective_paths``) are excluded from the
    variance average and counted in ``n_degenerate``; the information
    objective keeps every path.
    """
    if n_paths < 1:
        raise InvalidArgumentError("n_paths must be >= 1")
    shocks = rng.normal_matrix(n_paths, grid.n_steps, STREAM_LEADER)
    _, precision, j_p = leader_batch_stats(leader, follower, coeffs, fr, policy, grid, shocks)
    j_info_paths = objective_paths(leader, follower, precision, j_p, "fisher")
    j_var_paths = objective_paths(leader, follower, precision, j_p, "variance")
    if follower.sigma == 0.0:
        mean_fisher = math.inf
    else:
        mean_fisher = float(np.mean(precision)) / follower.noise_to_signal

    def mean_se(v):
        m = float(np.mean(v))
        se = float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
        return m, se

    jp_mean, jp_se = mean_se(j_p)
    ji_mean, ji_se = mean_se(j_info_paths)
    jv_mean, jv_se = mean_se(j_var_paths)
    return ObjectiveEstimate(
        j_primary=jp_mean,
        j_var=jv_mean,
        j_info=ji_mean,
        mean_fisher=mean_fisher,
        mean_precision=float(np.mean(precision)),
        n_paths=n_paths,
        n_degenerate=n_paths - len(j_var_paths),
        se_primary=jp_se,
        se_info=ji_se,
        se_var=jv_se,
    )
