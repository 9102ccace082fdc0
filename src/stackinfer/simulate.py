"""Forward simulation of both agents and evaluation of every cost functional.

Leader paths carry two auxiliary integrals alongside the state: the
weighted running integral of the state and its decayed second integral.
Both are trapezoid sums over the state path, so that path-dependent policies
can read them online (the per-step loop advances them node by node) and so
that the precision integral of the score function satisfies its quadratic
expansion in the auxiliary states exactly at the discrete level.

Batch variants are vectorized across paths; each path's increments come
from its own counter-derived stream. Batches that are longer than they are
wide, under an affine law (the Riccati policy, or the follower's optimal
response), are solved as a blocked affine recurrence instead of a per-step
loop; it agrees with the loop to rounding. Every row is computed
independently of the others, so results do not depend on thread count.
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
    block_transfer_maps,
    cumtrapz,
    trapz,
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
    """Batch of leader paths (rows are paths, columns grid nodes)."""

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


# A batch takes the blocked recurrence when it is longer than it is wide and
# has at most SCAN_MAX_PATHS rows. The loop pays a fixed numpy overhead per
# step and little per row; the recurrence takes about 2*sqrt(n_steps)
# sequential steps but does several times the loop's arithmetic per element.
# Measured on a 2-vCPU x86 host (numpy 2, best of 5, loop time over
# recurrence time for Riccati-policy leader / Euler follower / exact
# follower): 1 x 8192 steps 33 / 41 / 6.1x; 32 x 8192 4.7 / 14 / 5.5x;
# 64 x 8192 2.1 / 7.3 / 4.1x; 64 x 1024 3.2 / 4.9 / 2.9x; 1 x 50 5.0 / 2.6 /
# 1.5x. The leader breaks even at about 150-190 rows for every length from
# 512 to 8192 steps, and wide batches lose (2000 x 50: 0.27 / 0.63 / 0.54x).
SCAN_MAX_PATHS = 64


def _use_scan(n_paths: int, n_steps: int) -> bool:
    return n_paths <= SCAN_MAX_PATHS and n_paths < n_steps


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v over the last axes, as elementwise products so rows never mix."""
    out = m[..., 0] * v[..., :1]
    for s in range(1, v.shape[-1]):
        out += m[..., s] * v[..., s : s + 1]
    return out


def _affine_scan(a: np.ndarray, c: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Solve y[:, j+1] = a[j] @ y[:, j] + c[:, j] for every path, two-level blocked.

    ``a`` is (n, k, k) and shared by all paths, ``c`` is (n_paths, n, k) and
    ``y0`` is (n_paths, k); returns y as (n_paths, n + 1, k). The steps are
    cut into blocks of about sqrt(n). All blocks are first solved from a
    zero start at once, together with their transfer maps; the block start
    states are then carried across blocks one by one, and one vectorized
    pass adds each block's start state to its zero-start solution. The
    fewer than sqrt(n) steps past the last whole block run one by one. That
    is about 2*sqrt(n) sequential numpy steps instead of n, at the cost of
    re-associated rounding.
    """
    n, k, _ = a.shape
    n_paths = c.shape[0]
    maps = np.empty_like(a)
    size = block_transfer_maps(a, maps)
    n_blocks = n // size
    m = n_blocks * size
    phi = maps[:m].reshape(n_blocks, size, k, k)
    y = np.empty((n_paths, n + 1, k))
    y[:, 0] = y0
    a_blk = a[:m].reshape(n_blocks, size, k, k)
    c_blk = c[:, :m].reshape(n_paths, n_blocks, size, k)
    # Zero-start solutions are built in place in y (a view, as splitting an
    # axis never copies).
    z = y[:, 1 : m + 1].reshape(n_paths, n_blocks, size, k)
    z[:, :, 0] = c_blk[:, :, 0]
    for i in range(1, size):
        z[:, :, i] = _apply(a_blk[:, i], z[:, :, i - 1]) + c_blk[:, :, i]

    # State entering each block.
    start = np.empty((n_paths, n_blocks, k))
    start[:, 0] = y0
    for b in range(1, n_blocks):
        start[:, b] = _apply(phi[b - 1, -1], start[:, b - 1]) + z[:, b - 1, -1]

    for s in range(k):
        z += phi[..., s] * start[:, :, None, s : s + 1]
    for j in range(m, n):
        y[:, j + 1] = _apply(a[j], y[:, j]) + c[:, j]
    return y


def simulate_leader_batch(
    leader: LeaderModel,
    coeffs: DerivedCoefficients,
    policy,
    grid: TimeGrid,
    shocks: np.ndarray,
) -> LeaderEnsemble:
    """Euler-Maruyama batch of leader paths under ``policy``.

    ``shocks`` holds standard-normal draws, one row per path. The policy's
    session is stepped once per node in order; sessions may be stateful
    (recurrent policies), so rows of a batch advance together. A policy with
    an affine law (``gains``) on a batch longer than it is wide is solved by
    the blocked recurrence instead, with no session calls.
    """
    _check_grid(grid, coeffs.grid, "coefficients")
    shocks = np.asarray(shocks, dtype=float)
    if shocks.ndim != 2 or shocks.shape[1] != grid.n_steps:
        raise InvalidArgumentError(
            f"shocks must be (n_paths, {grid.n_steps}), got {shocks.shape}"
        )
    n_paths = shocks.shape[0]
    gains = getattr(policy, "gains", None)
    if gains is not None and _use_scan(n_paths, grid.n_steps):
        return _leader_scan(leader, coeffs, policy, gains, grid, shocks)

    n = grid.n_steps
    h = grid.h
    sqrt_h = math.sqrt(h)
    a_l, b_l, sig = leader.a_drift, leader.b_control, leader.sigma
    w, d = coeffs.weight, coeffs.decay

    x = np.empty((n_paths, n + 1))
    aux = np.empty((n_paths, n + 1))
    aux2 = np.empty((n_paths, n + 1))
    controls = np.empty((n_paths, n + 1))
    x[:, 0] = leader.x0
    aux[:, 0] = 0.0
    aux2[:, 0] = 0.0

    session = policy.session(n_paths)
    for j in range(n):
        u = np.asarray(session.controls(j, x[:, : j + 1], aux[:, j], aux2[:, j]), dtype=float)
        if not np.all(np.isfinite(u)):
            raise PolicyEvaluationError(f"policy returned a non-finite control at node {j}")
        controls[:, j] = u
        x[:, j + 1] = x[:, j] + (a_l * x[:, j] + b_l * u) * h + sig * sqrt_h * shocks[:, j]
        aux[:, j + 1] = aux[:, j] - 0.5 * h * (w[j] * x[:, j] + w[j + 1] * x[:, j + 1])
        aux2[:, j + 1] = aux2[:, j] + 0.5 * h * (d[j] * aux[:, j] + d[j + 1] * aux[:, j + 1])
    u = np.asarray(session.controls(n, x, aux[:, n], aux2[:, n]), dtype=float)
    if not np.all(np.isfinite(u)):
        raise PolicyEvaluationError(f"policy returned a non-finite control at node {n}")
    controls[:, n] = u

    return LeaderEnsemble(grid=grid, x=x, aux=aux, aux2=aux2, controls=controls, shocks=shocks)


def _leader_scan(leader, coeffs, policy, gains, grid, shocks) -> LeaderEnsemble:
    """Leader batch under u = scale * (state_gain . psi + offset) as one recurrence.

    psi = (x, aux, aux2) steps affinely: the Euler step of x, then the
    trapezoid steps of aux and aux2, which read the new x and aux. Only x is
    kept from the recurrence; aux, aux2 and the controls are rebuilt from it
    with the loop's own formulas, so the trapezoid identities stay exact.
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
    c = np.empty((n_paths, n, 3))
    c[:, :, 0] = bh * offset[:-1] + leader.sigma * math.sqrt(h) * shocks
    c[:, :, 1] = -half_h * w[1:] * c[:, :, 0]
    c[:, :, 2] = half_h * d[1:] * c[:, :, 1]
    y0 = np.array([leader.x0, 0.0, 0.0])
    x = np.ascontiguousarray(_affine_scan(a, c, np.broadcast_to(y0, (n_paths, 3)))[:, :, 0])

    aux = -cumtrapz(w * x, grid)
    aux2 = cumtrapz(d * aux, grid)
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
    h_sub = grid.h / SUB_NODES
    # Sub-grid inside each step by fractional position; rows are steps.
    frac = np.linspace(0.0, 1.0, SUB_NODES + 1)[None, :]
    f, gain = fr.f, model.gain_sq_over_r
    f_sub = f[:-1, None] + (f[1:] - f[:-1])[:, None] * frac
    b_sub = b[:-1, None] + (b[1:] - b[:-1])[:, None] * frac
    # phi[j, l] = integral of f from sub-node l to the right edge of step j.
    seg = 0.5 * h_sub * (f_sub[:, :-1] + f_sub[:, 1:])
    phi = np.concatenate(
        [np.cumsum(seg[:, ::-1], axis=1)[:, ::-1], np.zeros((seg.shape[0], 1))], axis=1
    )
    e_phi = np.exp(phi)
    e_step = e_phi[:, 0]
    drift_step = gain * np.trapezoid(e_phi * b_sub, dx=h_sub, axis=1)
    var_step = np.trapezoid(e_phi * e_phi, dx=h_sub, axis=1)
    return e_step, drift_step, var_step


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
    integrals from sub-quadrature. The exact mode reads the per-step tables
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

    n_paths, n = shocks.shape
    h = grid.h
    sig = model.sigma
    if mode == "exact":
        if tables is None:
            tables = _exact_transition_tables(model, fr, b, grid)
        e_step, drift_step, var_step = tables
        if not e_step.shape == drift_step.shape == var_step.shape == (n,):
            raise InvalidArgumentError(f"transition tables must hold {n} steps each")
        noise_scale = sig * np.sqrt(var_step)
    if _use_scan(n_paths, n):
        # x[j+1] = mult[j] * x[j] + offset[j] + noise[j] * shock[j] in both modes.
        if mode == "euler":
            mult = 1.0 + fr.f[:-1] * h
            offset = -model.gain_sq_over_r * b[:-1] * h
            noise = sig * math.sqrt(h)
        else:
            mult, offset, noise = e_step, -drift_step, noise_scale
        c = noise * shocks
        c += offset
        x0 = np.full((n_paths, 1), model.x0)
        return _affine_scan(mult[:, None, None], c[:, :, None], x0)[:, :, 0]

    x = np.empty((n_paths, n + 1))
    x[:, 0] = model.x0
    if mode == "euler":
        sqrt_h = math.sqrt(h)
        f, gain = fr.f, model.gain_sq_over_r
        for j in range(n):
            drift = f[j] * x[:, j] - gain * b[j]
            x[:, j + 1] = x[:, j] + drift * h + sig * sqrt_h * shocks[:, j]
    else:
        for j in range(n):
            x[:, j + 1] = x[:, j] * e_step[j] - drift_step[j] + noise_scale[j] * shocks[:, j]
    return x


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


def evaluate_primary_cost(leader: LeaderModel, path: AugmentedLeaderPath) -> float:
    """Realized tracking-plus-effort cost of one leader path."""
    return float(primary_cost_batch(leader, path.grid, path.x[None, :], path.controls[None, :])[0])


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
    exact on the grid because every integral shares the trapezoid weights.
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
    cost per row of ``shocks``.
    """
    ens = simulate_leader_batch(leader, coeffs, policy, grid, shocks)
    precision = compute_g_batch(fr, follower, ens.x)[1]
    return ens, precision, primary_cost_batch(leader, grid, ens.x, ens.controls)


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
