"""Forward simulation of both agents and the leader's cost functionals.

Leader paths carry two auxiliary integrals alongside the state: the
weighted running integral of the state and its decayed second integral.
Both are trapezoid sums over the state path, so that path-dependent policies
can read them online (the per-step loop advances them node by node). The
score profile is g = exp(-cum_f) (aux_T - aux), formed by one kernel
(``_score``) for ``compute_g_batch`` and both leader evaluators: its tail is
summed back from T over aux's own trapezoid steps from the state path, never
read off the stored aux. Every integral over the whole grid, the precision
(of g^2) and the primary cost's included, is one pairwise tree of row
additions (``core.trapz_step_major``).

Batch variants are vectorized across paths; each path's increments come
from its own counter-derived stream, and a single path is a one-row batch.
Follower batches, in either mode, are one affine recurrence solved by
``_follower_nodes`` through ``core._affine_scan``; on the exact transition's
tables, ``_follower_nodes`` can also compose the transition over blocks of
steps and simulate only every block's end node. A follower batch with one
row of ``b`` per arm runs every arm on the same shocks, the arms side by
side as columns of one recurrence, each on the schedule it gets alone (the
solver's ``width``). A leader batch under an affine law (the Riccati
policy) is one blocked affine recurrence where ``core._use_scan`` admits
its shape; every other leader batch, under any policy, is stepped node by
node, in place, each node's control from the policy's session. The
blocked recurrence agrees with the stepped loop to rounding. Leader batches
keep the state step-major either way, and the leader's precision and
primary cost are formed on that layout. Every row is computed independently
of the others, so a row does not depend on how many rows share its batch
(within one schedule) or on thread count. Under an affine law the mean
precision and primary cost of a whole ensemble follow from its shocks'
sample mean and second moment, and ``leader_mean_stats``
forms them for several laws (arms) at once from their unit-impulse
responses: the arms' recurrences, built by the helper ``_leader_scan`` also
uses, are stacked on one arm axis and stepped together, node by node.
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
    _use_scan,
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
    """One leader path with its auxiliary integrals and controls."""

    grid: TimeGrid
    x: np.ndarray
    aux: np.ndarray  # weighted running integral of the state (one per node)
    aux2: np.ndarray  # decayed second integral (one per node)
    controls: np.ndarray  # one per node; the terminal value never enters the dynamics

    def trajectory(self) -> Trajectory:
        return Trajectory(grid=self.grid, values=self.x)


@dataclass(frozen=True)
class FollowerPath:
    """One follower path under the optimal response."""

    grid: TimeGrid
    x: np.ndarray


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

    ``shocks`` holds standard-normal draws, one row per path. The schedule
    is picked here, by ``core._use_scan``: a batch under an affine law
    (``gains``) that the predicate admits is solved blocked as one affine
    recurrence (``_leader_scan``). Every other batch is stepped node by
    node, in place, under any policy: its session is called once per node in
    order (sessions may be stateful, as recurrent policies are, so rows of a
    batch advance together), and each node's controls are checked finite
    before the next step. Either way the state is kept step-major (see
    ``LeaderEnsemble``).
    """
    _check_grid(grid, coeffs.grid, "coefficients")
    shocks = np.asarray(shocks, dtype=float)
    if shocks.ndim != 2 or shocks.shape[1] != grid.n_steps:
        raise InvalidArgumentError(
            f"shocks must be (n_paths, {grid.n_steps}), got {shocks.shape}"
        )
    n_paths, n = shocks.shape
    gains = getattr(policy, "gains", None)
    if gains is not None and _use_scan(n_paths, n):
        return _leader_scan(leader, coeffs, policy, gains, grid, shocks)

    h = grid.h
    half_h = 0.5 * h
    a_l, b_l = leader.a_drift, leader.b_control
    w, d = coeffs.weight, coeffs.decay
    # One contiguous row per node; a session reads the prefix path-major.
    y = np.empty((n + 1, 3, n_paths))
    x, aux, aux2 = y[:, 0], y[:, 1], y[:, 2]
    controls = np.empty((n + 1, n_paths))
    x[0] = leader.x0
    aux[0] = 0.0
    aux2[0] = 0.0
    noise = np.multiply(shocks.T, leader.sigma * math.sqrt(h), order="C")
    s1 = np.empty(n_paths)
    s2 = np.empty(n_paths)
    session = policy.session(n_paths)

    def control(j):
        # The law at node j, into controls[j].
        controls[j] = session.controls(j, x[: j + 1].T, aux[j], aux2[j])
        if not np.isfinite(controls[j]).all():
            raise PolicyEvaluationError(f"policy returned a non-finite control at node {j}")

    for j in range(n):
        control(j)
        # x' = x + (a_l x + b_l u) h + noise
        np.multiply(x[j], a_l, out=s1)
        s1 += np.multiply(controls[j], b_l, out=s2)
        s1 *= h
        np.add(x[j], s1, out=x[j + 1])
        x[j + 1] += noise[j]
        # aux' = aux - (h/2) (w x + w' x')
        np.multiply(x[j], w[j], out=s1)
        s1 += np.multiply(x[j + 1], w[j + 1], out=s2)
        s1 *= half_h
        np.subtract(aux[j], s1, out=aux[j + 1])
        # aux2' = aux2 + (h/2) (d aux + d' aux')
        np.multiply(aux[j], d[j], out=s1)
        s1 += np.multiply(aux[j + 1], d[j + 1], out=s2)
        s1 *= half_h
        np.add(aux2[j], s1, out=aux2[j + 1])
    control(n)
    return LeaderEnsemble(grid=grid, x=x.T, aux=aux.T, aux2=aux2.T, controls=controls.T)


def _leader_scan(leader, coeffs, policy, gains, grid, shocks) -> LeaderEnsemble:
    """Leader batch under u = scale * (state_gain . psi + offset) as one recurrence.

    psi = (x, aux, aux2) steps affinely (``_leader_law``), and the recurrence
    is solved by ``core._affine_scan``. All three are kept from the solver's
    step-major state, so aux and aux2 hold the trapezoid identities to
    rounding, not bitwise; the controls are the policy's law at every node,
    laid out as the state.
    """
    n_paths, n = shocks.shape
    y = np.empty((n + 1, 3, n_paths))
    _affine_scan(_leader_law(leader, coeffs, gains, grid, shocks, y), y, n_paths)
    return _leader_ensemble(policy, grid, y)


def _leader_law(leader, coeffs, gains, grid, shocks, y) -> np.ndarray:
    """Step matrices of the leader's recurrence under an affine law ``gains``.

    Row 0 is the Euler step of x, x' = x + (a_l x + b_l u) h + noise with
    u = scale * (state_gain . psi + offset); rows 1 and 2 are the trapezoid
    steps of aux and aux2, which fold in x' and aux'. Writes the start state
    into y[0] and each step's forcing, from the rows of ``shocks``, into
    y[1:] of the step-major (n + 1, 3, n_paths) ``y``, and returns the
    (n, 3, 3) step matrices.
    """
    n = grid.n_steps
    h = grid.h
    scale, state_gain, offset = gains
    w, d = coeffs.weight, coeffs.decay
    bh = leader.b_control * h * scale
    half_h = 0.5 * h

    a = np.zeros((n, 3, 3))
    a[:, 0, :] = bh * state_gain[:-1]
    a[:, 0, 0] += 1.0 + leader.a_drift * h
    a[:, 1, :] = -half_h * w[1:, None] * a[:, 0, :]
    a[:, 1, 0] -= half_h * w[:-1]
    a[:, 1, 1] += 1.0
    a[:, 2, :] = half_h * d[1:, None] * a[:, 1, :]
    a[:, 2, 1] += half_h * d[:-1]
    a[:, 2, 2] += 1.0
    y[0] = [[leader.x0], [0.0], [0.0]]
    c = y[1:]
    np.multiply(shocks.T, leader.sigma * math.sqrt(h), out=c[:, 0])
    c[:, 0] += (bh * offset[:-1])[:, None]
    np.multiply((-half_h * w[1:])[:, None], c[:, 0], out=c[:, 1])
    np.multiply((half_h * d[1:])[:, None], c[:, 1], out=c[:, 2])
    return a


def _leader_ensemble(policy, grid, y) -> LeaderEnsemble:
    """The ensemble of a solved step-major state ``y``, with the policy's
    controls at every node from one ``control_at`` call; the first node
    whose controls are not all finite raises ``PolicyEvaluationError``."""
    x, aux, aux2 = y[:, 0].T, y[:, 1].T, y[:, 2].T
    controls = np.asarray(policy.control_at(slice(None), x, aux, aux2), dtype=float)
    bad = ~np.all(np.isfinite(controls), axis=0)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise PolicyEvaluationError(f"policy returned a non-finite control at node {j}")
    return LeaderEnsemble(grid=grid, x=x, aux=aux, aux2=aux2, controls=controls)


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
    )


def _sub_step_integrals(f_sub: np.ndarray, kernel_sub: np.ndarray, h_sub):
    """Transition factor and two weighted integrals per row of sub-node values.

    Row i holds f and a kernel at ``SUB_NODES + 1`` equally spaced sub-nodes
    of one interval, ``h_sub`` apart (a scalar, or one spacing per row).
    With phi(u) the integral of f from u to the interval's right edge, it
    returns exp(phi) at the left edge and the trapezoid integrals of
    exp(phi) * kernel and of exp(2 phi) over the interval. A kernel with a
    leading arm axis gives one row of kernel integrals per arm.
    """
    h_col = np.reshape(h_sub, (-1, 1))
    seg = 0.5 * h_col * (f_sub[:, :-1] + f_sub[:, 1:])
    phi = np.zeros(f_sub.shape)
    phi[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    e_phi = np.exp(phi)
    h_row = h_col[:, 0]
    kernel_int = np.trapezoid(e_phi * kernel_sub, axis=-1) * h_row
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
    f and b interpolated linearly. Rows of a 2-D ``b`` are arms, each with
    its own row of drift integrals; the factor and variance are shared.
    """
    # Sub-grid inside each step by fractional position; rows are steps.
    frac = np.linspace(0.0, 1.0, SUB_NODES + 1)[None, :]
    f = fr.f
    f_sub = f[:-1, None] + (f[1:] - f[:-1])[:, None] * frac
    b_sub = b[..., :-1, None] + (b[..., 1:] - b[..., :-1])[..., None] * frac
    e_step, b_int, var_step = _sub_step_integrals(f_sub, b_sub, grid.h / SUB_NODES)
    return e_step, model.gain_sq_over_r * b_int, var_step


def simulate_follower_batch(
    model: FollowerModel,
    fr: FollowerRiccati,
    b: np.ndarray,
    grid: TimeGrid,
    shocks: np.ndarray,
    mode: str = "euler",
) -> np.ndarray:
    """Batch of follower paths under the optimal response (rows are paths).

    ``euler`` steps the drift f*x - (b_F^2/r_F)*b explicitly, with per-step
    tables (1 + f h, (b_F^2/r_F) b h, h); ``exact`` samples the Gaussian
    one-step transition of the linear SDE, with the tables
    ``_exact_transition_tables`` builds by sub-quadrature. Both run
    ``_follower_nodes`` at stride 1, which a caller holding the exact
    tables, and simulating several batches on them, calls directly. A 2-D
    ``b`` holds one row per arm (as ``solve_follower_bc`` returns it): every
    arm runs on the same ``shocks``, and the paths gain a leading arm axis,
    (arms, n_paths, n_nodes).
    """
    _check_grid(grid, fr.grid, "follower Riccati")
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[-1] != grid.n_nodes:
        raise InvalidArgumentError(
            f"b must have {grid.n_nodes} values per arm, got {b.shape}"
        )
    shocks = np.asarray(shocks, dtype=float)
    if shocks.ndim != 2 or shocks.shape[1] != grid.n_steps:
        raise InvalidArgumentError(
            f"shocks must be (n_paths, {grid.n_steps}), got {shocks.shape}"
        )
    if mode not in ("euler", "exact"):
        raise InvalidArgumentError(f"unknown simulation mode {mode!r}")

    # Both modes step x[j+1] = mult[j] x[j] - drift[j] + sigma sqrt(var[j]) shock[j].
    n = grid.n_steps
    if mode == "euler":
        h = grid.h
        tables = (1.0 + fr.f[:-1] * h, model.gain_sq_over_r * b[..., :-1] * h, np.full(n, h))
    else:
        tables = _exact_transition_tables(model, fr, b, grid)
    return _follower_nodes(model, tables, shocks, 1)


def _follower_nodes(model: FollowerModel, tables, shocks: np.ndarray, stride: int):
    """Every ``stride``-th node of the follower paths driven by ``shocks``.

    ``tables`` holds per-step (mult, drift, var) of
    x[j+1] = mult[j] x[j] - drift[j] + sigma sqrt(var[j]) shocks[:, j], and
    rows of ``shocks`` are paths starting at ``model.x0``. Over a block of
    ``stride`` steps this composes exactly: x[i+stride] = M x[i] - D +
    sum_l w_l shocks[:, i+l], with M the product of the block's ``mult``,
    D = sum_l P_l drift_l and w_l = P_l sigma sqrt(var_l), where P_l is the
    product of the ``mult`` of the block's later steps. The forcing is that
    weighted shock sum, formed elementwise in a fixed order (so a row's bits
    do not depend on its batch), and the coarse recurrence is solved by
    ``core._affine_scan``. At stride 1 every P_l is 1 and each node is the
    one-step recurrence's own. A 2-D ``drift`` holds one row per arm: the
    arms share the shock sum and stand side by side as the columns of one
    call, each a system of ``n_paths`` columns on the schedule it gets
    alone. ``stride`` divides the step count n; returns
    (n_paths, n // stride + 1), after a leading arm axis if ``drift`` has one.
    """
    n_paths, n = shocks.shape
    m = n // stride
    mult, var = (np.reshape(t, (m, stride)) for t in (tables[0], tables[2]))
    drift = np.asarray(tables[1])
    # later[:, l] = P_l, the product of mult over the block's steps after l.
    later = np.ones((m, stride))
    for l in range(stride - 2, -1, -1):
        later[:, l] = later[:, l + 1] * mult[:, l + 1]
    weights = later * (model.sigma * np.sqrt(var))
    block_drift = np.sum(later * drift.reshape(-1, m, stride), axis=-1).T  # (m, arms)
    arms = block_drift.shape[1]
    # The start state and the forcing in the solver's step-major layout, arm
    # by arm along the columns: the shock sum is formed in arm 0's columns
    # and each arm's drift taken from it.
    y = np.empty((m + 1, 1, arms * n_paths))
    y[0] = model.x0
    forcing = y[1:, 0].reshape(m, arms, n_paths)
    noise = forcing[:, 0]
    step_shocks = shocks.T
    np.multiply(step_shocks[0::stride], weights[:, :1], out=noise)
    term = np.empty((m, n_paths))
    for l in range(1, stride):
        noise += np.multiply(step_shocks[l::stride], weights[:, l : l + 1], out=term)
    np.subtract(noise[:, None], block_drift[:, 1:, None], out=forcing[:, 1:])
    noise -= block_drift[:, :1]
    block_mult = (later[:, 0] * mult[:, 0])[:, None, None]
    _affine_scan(block_mult, y, n_paths)
    return np.ascontiguousarray(y[:, 0].T).reshape(drift.shape[:-1] + (n_paths, m + 1))


def simulate_follower(
    model: FollowerModel,
    fr: FollowerRiccati,
    b: np.ndarray,
    grid: TimeGrid,
    rng: RngContract,
    path_index: int = 0,
) -> FollowerPath:
    """Simulate one Euler follower path from its contract-derived stream."""
    shocks = rng.normals(grid.n_steps, STREAM_FOLLOWER, path_index)[None, :]
    x = simulate_follower_batch(model, fr, b, grid, shocks)
    return FollowerPath(grid=grid, x=x[0])


def compute_g_batch(
    fr: FollowerRiccati, model: FollowerModel, x_leader: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Score profile g and precision integral for each leader path row.

    g(t) = -q_track * exp(-cum_f(t)) * int_t^T exp(cum_f(s)) x_L(s) ds, that
    is exp(-cum_f) (aux_T - aux), from the score kernel ``_score`` on the
    weight q_track * exp(cum_f) as ``riccati.compute_coefficients`` forms
    it; the precision is the trapezoid of g^2 (``core.trapz_step_major``),
    as ``leader_batch_stats`` forms it. g is a transposed view of
    step-major storage. ``perfbench/tracing.py`` wraps it by name.
    """
    grid = fr.grid
    x = np.atleast_2d(np.asarray(x_leader, dtype=float))
    if x.shape[1] != grid.n_nodes:
        raise InvalidArgumentError(f"x_leader must have {grid.n_nodes} columns")
    g = _score(model.q_track * np.exp(fr.cum_f), fr, x.T)
    return g.T, trapz_step_major(np.square(g), grid)


def compute_g(fr: FollowerRiccati, model: FollowerModel, x_leader: Trajectory) -> GProfile:
    """Score profile for a single leader trajectory."""
    _check_grid(fr.grid, x_leader.grid, "leader trajectory")
    g, precision = compute_g_batch(fr, model, x_leader.values[None, :])
    return GProfile(grid=fr.grid, g=g[0], precision=float(precision[0]))


def primary_cost_batch(leader: LeaderModel, grid: TimeGrid, x: np.ndarray, controls: np.ndarray):
    """Realized tracking-plus-effort cost per path row: ``leader_batch_stats``'
    cost (``_primary_cost``) on path-major rows, which tests read and
    ``perfbench/tracing.py`` wraps."""
    x, u = (np.atleast_2d(np.asarray(v, dtype=float)).T for v in (x, controls))
    target = leader.target_at(grid.nodes, grid.horizon)
    return _primary_cost(leader, grid, np.square(x - target[:, None]), np.square(u))[0]


def leader_batch_stats(
    leader: LeaderModel,
    follower: FollowerModel,
    coeffs: DerivedCoefficients,
    fr: FollowerRiccati,
    policy,
    grid: TimeGrid,
    shocks: np.ndarray,
) -> tuple[LeaderEnsemble, np.ndarray, np.ndarray, np.ndarray]:
    """Leader paths on ``shocks`` with each path's precision, primary cost and effort.

    Returns (ensemble, precision, j_primary, effort), one of each per row of
    ``shocks``. All three are formed on the ensemble's step-major arrays,
    in place. The precision is the trapezoid of g^2, g from the score
    kernel ``_score`` as in ``compute_g_batch``. The primary cost and effort
    are ``_primary_cost``'s.
    """
    ens = simulate_leader_batch(leader, coeffs, policy, grid, shocks)
    x, u = ens.x.T, ens.controls.T
    scratch = _score(coeffs.weight, fr, x)
    np.square(scratch, out=scratch)
    precision = trapz_step_major(scratch, grid)

    target = leader.target_at(grid.nodes, grid.horizon)
    np.subtract(x, target[:, None], out=scratch)
    np.square(scratch, out=scratch)
    j_primary, effort = _primary_cost(leader, grid, scratch, np.square(u))
    return ens, precision, j_primary, effort


def _primary_cost(leader: LeaderModel, grid: TimeGrid, track_sq, control_sq):
    """(primary cost, effort) from the squared tracking error and control at
    every node, step-major arrays (n_nodes, ...) that are summed in place.

    The trapezoids of the two are taken apart and weighted after, and the
    terminal term is read before the trapezoid halves the last node; the
    trapezoid of the squared control is the effort.
    """
    terminal = 0.5 * leader.q_terminal * track_sq[-1]
    track = trapz_step_major(track_sq, grid)
    effort = trapz_step_major(control_sq, grid)
    return 0.5 * (leader.q_track * track + leader.r_control * effort) + terminal, effort


def _score(weight: np.ndarray, fr: FollowerRiccati, x: np.ndarray) -> np.ndarray:
    """The score g = exp(-cum_f) (aux_T - aux) at every node of the step-major
    paths ``x`` (n_nodes, n_paths), aux being the running integral of
    ``weight`` times x (``coeffs.weight``): the one kernel of every precision.

    aux_T - aux is summed back from T over aux's trapezoid steps,
    -(h/2) (w_j x_j + w_{j+1} x_{j+1}), so each node's value rounds with its
    own size; read off the stored aux it would round with |aux_T|, which
    near T, where exp(-cum_f) scales it up, is much larger. ``np.cumsum``
    sums down each column in sequence, so a path's bits do not depend on its
    batch.
    """
    tail = np.multiply(weight[:, None], x, order="C")
    steps = tail[:-1]
    steps += tail[1:]  # numpy reads tail[1:] as if it did not overlap
    steps *= -0.5 * fr.grid.h
    np.cumsum(steps[::-1], axis=0, out=steps[::-1])
    tail[-1] = 0.0
    tail *= np.exp(-fr.cum_f)[:, None]
    return tail


def leader_mean_stats(
    arms,
    coeffs: DerivedCoefficients,
    fr: FollowerRiccati,
    grid: TimeGrid,
    mean: np.ndarray,
    second: np.ndarray,
    shocks: np.ndarray,
    max_elements: int,
) -> list[tuple[float, float, np.ndarray, np.ndarray]]:
    """Mean precision and primary cost of each (leader, policy) arm over
    shocks of sample mean ``mean`` and second moment ``second``, under affine
    laws (``policy.gains``).

    A law makes the leader's state an affine function of a path's shocks
    eps, so each node's precision, tracking and control integrand is
    (v0_j + G_j . eps)^2, and its mean over paths is
    (v0_j + G_j . m)^2 + G_j^T (S - m m^T) G_j, the expansion of
    v0_j^2 + 2 v0_j (G_j . m) + G_j^T S G_j that keeps a lone path's
    value free of cancellation. Each arm runs n_steps + 1 + len(shocks)
    rows, which give v0 and G: a zero row, one unit impulse per step (G is
    each impulse row less the zero row), then the rows of ``shocks``. The
    arms' recurrences (``_leader_law``) sit on one arm axis, in stacks of
    at most max(1, max_elements // (n_nodes * 3 * rows)) arms, and
    ``core._affine_scan`` steps a whole stack node by node, elementwise, so
    an arm's bits do not depend on what shares its stack. Returns one
    (mean precision, mean primary cost, x, controls) per arm, x and
    controls holding the paths of ``shocks`` (rows are paths).
    (m, S) = (0, I) gives the exact expectations of the grid's Euler scheme.
    """
    n = grid.n_steps
    rows = np.zeros((n + 1 + len(shocks), n))
    np.fill_diagonal(rows[1:], 1.0)
    rows[n + 1 :] = shocks
    stack = max(1, max_elements // (grid.n_nodes * 3 * len(rows)))
    cov = second - np.outer(mean, mean)
    out = []
    for first in range(0, len(arms), stack):
        out += _stack_mean_stats(arms[first : first + stack], coeffs, fr, grid, mean, cov, rows)
    return out


def _stack_mean_stats(arms, coeffs, fr, grid, mean, cov, rows):
    """``leader_mean_stats`` for one stack of arms on the response ``rows``."""
    n = grid.n_steps
    y = np.empty((n + 1, len(arms), 3, len(rows)))
    a = np.empty((n, len(arms), 3, 3))
    for i, (leader, policy) in enumerate(arms):
        a[:, i] = _leader_law(leader, coeffs, policy.gains, grid, rows, y[:, i])
    _affine_scan(a, y, len(rows))  # more rows than steps: stepped, every arm at once
    out = []
    for i, (leader, policy) in enumerate(arms):
        ens = _leader_ensemble(policy, grid, y[:, i])
        x, u = ens.x[: n + 1].T, ens.controls[: n + 1].T  # the response rows, step-major
        target = leader.target_at(grid.nodes, grid.horizon)
        # Per-node mean squares of the precision's integrand, the tracking
        # error and the control.
        precision = trapz_step_major(_mean_square(_score(coeffs.weight, fr, x), mean, cov), grid)
        j_primary, _ = _primary_cost(leader, grid, _mean_square(x - target[:, None], mean, cov),
                                     _mean_square(u, mean, cov))
        out.append((float(precision), float(j_primary),
                    ens.x[n + 1 :].copy(), ens.controls[n + 1 :].copy()))
    return out


def _mean_square(v: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Per-node mean of (v0 + G . eps)^2 over shocks of mean ``mean`` and
    covariance ``cov``, where column 0 of the step-major ``v`` is v0 and
    column 1 + k is v0 + G[:, k]."""
    response = v[:, 1:] - v[:, :1]
    centre = v[:, 0] + response @ mean
    return np.square(centre) + np.sum((response @ cov) * response, axis=1)


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

