"""Backward Riccati ODE systems for both agents, one scheme per equation.

The follower's quadratic value coefficient solves a scalar Riccati equation
with constant coefficients, evaluated in closed form at the grid nodes. Its
linear coefficient, all that the follower's response and the estimator
need, is integrated backward with classical RK4 on the simulation grid,
with coefficient values at half-steps from linear interpolation of the node
arrays, as the affine recurrence its RK4 steps form (``core._affine_scan``).
Its constant coefficient is not solved. The leader's value function lives
on the augmented state (own state plus two path integrals), giving a
symmetric 3x3 Riccati system with an indefinite source. It is solved on
every grid as the linear Hamiltonian system whose solution [X; Y] gives the
Riccati solution as Y X^-1 (Radon's lemma): per-step RK4 propagators
multiplied out two-level blocked. The solution at the block starts is
carried across the block ends in Python floats, and every node's value is
then formed from its block's start in one batched pass.

Both solve a list of arms in one call: leaders, or leader trajectories,
sharing one follower and grid. b's arms are columns of one recurrence, each
on the schedule a single column gets; the leader's arms have their own
propagators, formed and multiplied out together on a leading arm axis. An
arm's result is, bit for bit, the one it gets alone.

The leader system is only locally well-posed; ``horizon_bound`` computes the
conservative existence horizon, and ``solve_leader_system`` raises
``BlowUpError`` at the first node past the blow-up.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    BlowUpError,
    FollowerModel,
    InvalidArgumentError,
    LeaderModel,
    SolverFailureError,
    TimeGrid,
    Trajectory,
    _affine_scan,
    block_transfer_maps,
    cumtrapz,
)


@dataclass(frozen=True)
class FollowerRiccati:
    """Follower value-function coefficients on the grid.

    ``a`` is the quadratic coefficient, ``f = a_drift - (2 b^2/r) a`` the
    resulting mean-reversion rate of the optimally controlled state, and
    ``cum_f`` its running integral from 0.
    """

    grid: TimeGrid
    a: np.ndarray
    f: np.ndarray
    cum_f: np.ndarray


@dataclass(frozen=True)
class DerivedCoefficients:
    """Coefficient functions induced by the follower's response.

    ``weight`` is q_track * exp(cum_f) (the kernel weighting the leader's
    state in the first path integral) and ``decay`` is exp(-2 cum_f) (the
    kernel weighting the second). Sup/L1 norms over [0, T] feed the
    existence-horizon bound.
    """

    grid: TimeGrid
    weight: np.ndarray
    decay: np.ndarray
    cum_decay: np.ndarray
    weight_sup: float
    decay_sup: float
    decay_l1: float


@dataclass(frozen=True)
class LeaderRiccati:
    """Leader value-function coefficients on the augmented state.

    value(t, psi) = psi' quad(t) psi + lin(t)' psi + offset(t), with psi the
    (state, integral, double-integral) triple. ``scaled_info_weight`` is
    inference_weight * b_F^4 / (sigma_F^2 r_F^2).
    """

    grid: TimeGrid
    quad: np.ndarray  # (n_nodes, 3, 3), symmetric at every node
    lin: np.ndarray  # (n_nodes, 3)
    offset: np.ndarray  # (n_nodes,)
    scaled_info_weight: float


@dataclass(frozen=True)
class HorizonBound:
    """Conservative existence horizon for the leader's Riccati system."""

    q: float
    beta: float
    y0: float
    t_max: float


def _interp_mid(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[:-1] + values[1:])


def solve_follower_a(model: FollowerModel, grid: TimeGrid) -> FollowerRiccati:
    """Solve the follower's scalar Riccati coefficient backward from 0 at T.

    da/dt = alpha a^2 - 2 a_drift a - q_track/2, a(T) = 0, alpha = 2 b^2/r.
    The coefficients are constant, so a is evaluated in closed form at the
    nodes: with s = sqrt(a_drift^2 + alpha q_track/2), the roots
    r1,2 = (a_drift +- s)/alpha of the right-hand side and
    e = exp(-2 s (T - t)), a = r1 r2 (1 - e)/(r2 - r1 e), with 1 - e from
    ``expm1`` so that a keeps its relative accuracy near T. Only the root
    whose a_drift +- s does not cancel is formed so; the other comes from
    r1 r2 = -q_track/(2 alpha). For q_track > 0
    the denominator stays negative, so a exists on every horizon and lies in
    [0, r1). For q_track = 0, a = 0 is the equilibrium a(T) = 0 starts on.
    A zero control gain is refused.
    """
    alpha = 2.0 * model.gain_sq_over_r
    if alpha == 0.0:
        raise InvalidArgumentError("follower Riccati needs a nonzero b_control")
    if model.q_track == 0.0:
        a = np.zeros(grid.n_nodes)
    else:
        s = math.sqrt(model.a_drift**2 + 0.5 * alpha * model.q_track)
        product = -0.5 * model.q_track / alpha
        root = (model.a_drift + math.copysign(s, model.a_drift)) / alpha
        r1, r2 = (root, product / root) if root > 0.0 else (product / root, root)
        x = -2.0 * s * (grid.horizon - grid.nodes)
        a = product * -np.expm1(x) / (r2 - r1 * np.exp(x))
    f = model.a_drift - alpha * a
    cum_f = cumtrapz(f, grid)
    return FollowerRiccati(grid=grid, a=a, f=f, cum_f=cum_f)


def compute_coefficients(fr: FollowerRiccati, model: FollowerModel) -> DerivedCoefficients:
    """Derive the leader-side coefficient functions from the follower solve;
    ``SolverFailureError`` names a horizon on which they overflow."""
    grid = fr.grid
    with np.errstate(over="ignore", invalid="ignore"):
        weight = model.q_track * np.exp(fr.cum_f)
        decay = np.exp(-2.0 * fr.cum_f)
        cum_decay = cumtrapz(decay, grid)
    if not (np.all(np.isfinite(weight)) and math.isfinite(cum_decay[-1])):
        raise SolverFailureError(f"leader coefficients overflow on horizon {grid.horizon}")
    return DerivedCoefficients(
        grid=grid,
        weight=weight,
        decay=decay,
        cum_decay=cum_decay,
        weight_sup=float(np.max(np.abs(weight))),
        decay_sup=float(np.max(decay)),
        decay_l1=float(cum_decay[-1]),
    )


def solve_follower_bc(
    fr: FollowerRiccati, model: FollowerModel, x_leaders: Sequence[Trajectory]
) -> np.ndarray:
    """Solve the follower's linear value coefficient b backward, one row per
    leader trajectory (arm) of ``x_leaders``; returns (arms, n_nodes).

    db/dt = (2 b^2/r) a b - a_drift b + q_track * dilation * x_L(t), b(T) = 0,
    by classical RK4 with x_L and a linearly interpolated at half-steps.
    db/dt is affine in b, so each RK4 stage is too, and a backward step is
    b[j] = m[j] b[j+1] + e[j] with m and e built for all steps at once; that
    recurrence is solved by ``core._affine_scan``. Only the forcing e
    depends on x_L, so the arms share m and stand side by side as the
    columns of one call, each a system of width 1 on the schedule it gets
    alone: an arm's bits do not depend on its stack. b is linear in
    q_track * dilation, so it is solved for unit forcing and scaled once,
    which keeps a tiny forcing out of the subnormal range until the last
    rounding. It agrees with the per-step RK4 loop to rounding.
    """
    grid = fr.grid
    if any(x_leader.grid != grid for x_leader in x_leaders):
        raise InvalidArgumentError("leader trajectory grid does not match solver grid")
    alpha = 2.0 * model.gain_sq_over_r
    drift = model.a_drift
    q_m = model.q_track * model.dilation

    # b = q_m u with du/dt = p u + x, at the nodes and half-steps; x has one
    # column per arm.
    x = np.column_stack([x_leader.values for x_leader in x_leaders])
    x_mid = _interp_mid(x)
    a, a_mid = fr.a, _interp_mid(fr.a)
    p, p_mid = alpha * a - drift, alpha * a_mid - drift

    n = grid.n_steps
    h = grid.h
    half_h = 0.5 * h
    sixth_h = h / 6.0
    # Stage i of the step entered from u[j+1] is k_i = ka_i u[j+1] + kb_i.
    ka1, kb1 = p[1:], x[1:]
    ka2 = p_mid * (1.0 - half_h * ka1)
    kb2 = x_mid - p_mid[:, None] * (half_h * kb1)
    ka3 = p_mid * (1.0 - half_h * ka2)
    kb3 = x_mid - p_mid[:, None] * (half_h * kb2)
    ka4 = p[:-1] * (1.0 - h * ka3)
    kb4 = x[:-1] - p[:-1, None] * (h * kb3)
    m = 1.0 - sixth_h * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
    # Solved from u[n] = 0 back: step i of the recurrence is grid step n-1-i.
    b = np.empty((n + 1, len(x_leaders)))
    b[n] = 0.0
    b[:n] = -sixth_h * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
    _affine_scan(m[::-1, None, None], b[::-1, None], 1)
    b *= q_m
    return np.ascontiguousarray(b.T)


def scaled_info_weight(leader: LeaderModel, follower: FollowerModel) -> float:
    """inference_weight * b_F^4 / (sigma_F^2 r_F^2), the weight on the precision integral."""
    if follower.sigma == 0.0:
        if leader.inference_weight == 0.0:
            return 0.0
        raise InvalidArgumentError(
            "scaled inference weight undefined for a noiseless follower"
        )
    return leader.inference_weight / follower.noise_to_signal


# Bound on |quad| entries past which the leader system counts as blown up.
BLOW_UP_THRESHOLD = 1e12
# Steps whose propagators, and nodes whose rows, are formed at once, and the
# bound on steps times arms in one stack of arms: each chunk buffer of
# (steps, arms, 8, 8) is about 0.5 MB, which bounds the solver's memory
# beside the transfer maps, (n, arms, 8, 8), at most 0.5 MB or one arm's.
_CHUNK_STEPS = 1024
# The six quad entries (L11, L12, L13, L22, L23, L33) as a symmetric 3x3.
_QUAD_INDEX = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def solve_leader_system(
    leaders: Sequence[LeaderModel],
    follower: FollowerModel,
    coeffs: DerivedCoefficients,
) -> list[LeaderRiccati]:
    """Solve the leader's augmented Riccati system backward on the grid, once
    per leader (arm) of ``leaders``; returns one ``LeaderRiccati`` per arm.

    The quadratic coefficient has an indefinite source (the inference reward
    enters with a negative sign), so solutions may blow up in finite time;
    a ``BlowUpError`` carrying the grid time of the first node past the
    blow-up is raised, for the first arm that blows up. The system is solved
    in its linear Hamiltonian form (see ``_leader_hamiltonian``), a
    fourth-order scheme: it agrees with classical RK4 on the ten entries
    within RK4's own discretisation error, or to 1e-10 relative where that
    error is smaller, and raises at RK4's blow-up node or one step nearer T.
    quad is exactly symmetric. The arms share the grid, the follower and its
    coefficients, and are solved together on an arm axis, at most
    max(1, ``_CHUNK_STEPS`` // n_steps) at a time, so that on a fine grid
    each goes alone. Every step of the solve is elementwise across arms or
    a product of one arm's matrices, so an arm's tables do not depend on
    what it is stacked with.
    """
    grid = coeffs.grid
    lam_s = [scaled_info_weight(leader, follower) for leader in leaders]
    stack = max(1, _CHUNK_STEPS // grid.n_steps)
    out = []
    for lo in range(0, len(leaders), stack):
        tables = _leader_hamiltonian(leaders[lo : lo + stack], lam_s[lo : lo + stack], coeffs)
        for table, lam in zip(np.moveaxis(tables, 1, 0), lam_s[lo : lo + stack]):
            quad = table[:, _QUAD_INDEX].reshape(grid.n_nodes, 3, 3)
            lin, offset = table[:, 6:9].copy(), table[:, 9].copy()
            for array in (quad, lin, offset):
                array.setflags(write=False)
            out.append(LeaderRiccati(
                grid=grid, quad=quad, lin=lin, offset=offset, scaled_info_weight=lam
            ))
    return out


def _blow_up(t: float, peak: float):
    return BlowUpError(
        f"leader Riccati system blew up at t={t:.6g} (|quad| reached {peak:.3g})",
        blow_up_time=t,
    )


def _past_blow_up(rows: np.ndarray, det: np.ndarray):
    """Which node rows break the blow-up rule, and their peak |quad| entries.

    The maxima are taken one column at a time: ten elementwise passes over
    the rows cost numpy far less than a reduction along each short row.
    NaN propagates through ``np.maximum``, so a NaN entry breaks the rule.
    """
    mag = np.abs(rows)
    peak = mag[:, 0].copy()
    for k in range(1, 6):
        np.maximum(peak, mag[:, k], out=peak)
    largest = peak.copy()
    for k in range(6, 10):
        np.maximum(largest, mag[:, k], out=largest)
    bad = ~(det > 0.0) | ~(peak <= BLOW_UP_THRESHOLD) | ~np.isfinite(largest)
    return bad, peak


def _leader_hamiltonian(leaders, lam_s, coeffs):
    """The leader system as a linear Hamiltonian product for a stack of arms;
    returns the node table, (n_nodes, arms, 10).

    With the constant 1 appended to the augmented state, psi~ = (x, aux,
    aux2, 1), the quad, half the lin and the offset less its sigma^2 term
    form one symmetric 4x4 Riccati solution
    L~' = -(L~ A + A' L~) + L~ G L~ - Q. By Radon's lemma L~ = Y X^-1 for
    the linear system [X; Y]' = H [X; Y], H = [[A, -G], [-Q, -A']]. Its
    blocked transfer maps come from ``_block_maps``. [X; Y] restarts at
    [I; L~] at every block start, so X stays well conditioned: each arm's
    L~ is carried from T across the block ends in Python floats
    (``_block_starts``), and then every node's row of every arm is formed
    from its block's start in one batched pass (``_hamiltonian_rows``),
    ``_CHUNK_STEPS`` nodes at a time. The offset adds sigma^2 times the
    integral of L11 from t to T, an end-corrected trapezoid sum. The first
    node from T, T included, where det X <= 0, a quad entry passes
    ``BLOW_UP_THRESHOLD`` or a value is not finite raises ``BlowUpError``,
    for the first arm that has one.
    """
    grid = coeffs.grid
    n = grid.n_steps
    h = grid.h
    nodes, T = grid.nodes, grid.horizon
    arms = len(leaders)
    # Each leader parameter, and the target, as one value per arm.
    a_l = np.array([leader.a_drift for leader in leaders])
    gain = np.array([2.0 * leader.b_control**2 / leader.r_control for leader in leaders])
    half_q = np.array([0.5 * leader.q_track for leader in leaders])
    f_nodes = np.column_stack([leader.target_at(nodes, T) for leader in leaders])
    f_mid = np.column_stack([
        leader.target_at(0.5 * (nodes[:-1] + nodes[1:]), T) for leader in leaders
    ])

    # Node rows hold L~'s ten entries (m/2 in place of m) until the end.
    table = np.empty((n + 1, arms, 10))
    det = np.empty((n + 1, arms))
    # (L11, L12, L13, L22, L23, L33, m1, m2, m3, N) at T.
    table[n] = [
        (0.5 * leader.q_terminal, 0.0, 0.0, -lam * coeffs.decay_l1, lam, 0.0,
         -leader.q_terminal * f_T, 0.0, 0.0, 0.5 * leader.q_terminal * f_T * f_T)
        for leader, lam, f_T in zip(leaders, lam_s, f_nodes[-1].tolist())
    ]
    table[n, :, 6:9] *= 0.5
    det[n] = 1.0  # X is I at T
    # Past a blow-up values are discarded; every node row is checked below,
    # so overflow on the way there is not warned of.
    with np.errstate(all="ignore"):
        back, size = _block_maps(a_l, gain, half_q, np.array(lam_s), coeffs, f_nodes, f_mid)
        starts = np.stack([
            _block_starts(back[size - 1 : n - 1 : size, i], table[n, i]) for i in range(arms)
        ], axis=1)
        for lo in range(0, n, _CHUNK_STEPS):
            hi = min(lo + _CHUNK_STEPS, n)
            phi = back[lo:hi]  # [X; Y] is phi [I; L~] for its block's start L~
            rows, row_det = _hamiltonian_rows(
                (phi @ starts[np.arange(lo, hi) // size]).reshape(-1, 8, 4)
            )
            table[n - hi : n - lo] = rows.reshape(hi - lo, arms, 10)[::-1]
            det[n - hi : n - lo] = row_det.reshape(hi - lo, arms)[::-1]
        bad, peak = _past_blow_up(table.reshape(-1, 10), det.reshape(-1))
        bad, peak = bad.reshape(n + 1, arms), peak.reshape(n + 1, arms)
        hit = bad.any(axis=0)
        if hit.any():
            i = int(np.argmax(hit))
            p = n - int(np.argmax(bad[::-1, i]))
            raise _blow_up(float(grid.nodes[p]), float(peak[p, i]))
        table[:, :, 6:9] *= 2.0

    # offset = N^ + sig2 * int_t^T L11: per step h/2 (L11_j + L11_j+1)
    # - h^2/12 (L11'_j+1 - L11'_j), L11' the Riccati rate of L11.
    l11 = table[:, :, 0]
    w = coeffs.weight[:, None]
    rate = -(2.0 * (l11 * a_l - table[:, :, 1] * w)) + gain * l11 * l11 - half_q
    steps = (0.5 * h) * (l11[:-1] + l11[1:]) - (h * h / 12.0) * (rate[1:] - rate[:-1])
    sigma_sq = np.array([leader.sigma**2 for leader in leaders])
    table[:-1, :, 9] += sigma_sq * np.cumsum(steps[::-1], axis=0)[::-1]
    return table


def _block_maps(a_l, gain, half_q, lam_s, coeffs, f_nodes, f_mid):
    """The leader system's transfer maps for a stack of arms, blocked from T
    back; returns (back, size), ``back`` (n, arms, 8, 8).

    Each step's RK4 propagator is formed from the coefficients at the
    step's two nodes and its midpoint: with u = (h/2) k for the RK4 stages
    k of the linear system, the map from node j+1 to node j is
    I - (u1 + 2 u2 + 2 u3 + u4)/3. (h/2) H has twelve nonzero entries, four
    of them constant in time; every entry is per arm, from the arm's
    parameters (one value per arm in ``a_l``, ``gain``, ``half_q`` and
    ``lam_s``) and target (a column of ``f_nodes`` and ``f_mid``). They are
    written into chunk buffers allocated once, and the stages are combined
    in place. ``back[i]`` holds step n-1-i, so the steps run in the order of
    the backward product, which ``block_transfer_maps`` takes within blocks
    of ``size`` steps. Row 3 of every map, and so of every product, is e4
    exactly (the appended constant has no dynamics), so X's last row is e4.
    """
    grid = coeffs.grid
    n = grid.n_steps
    s = 0.5 * grid.h
    arms = len(a_l)
    w, d = coeffs.weight, coeffs.decay
    w_mid, d_mid = _interp_mid(w), _interp_mid(d)

    width = min(n, _CHUNK_STEPS)
    h_nodes = np.zeros((width + 1, arms, 8, 8))
    h_mids = np.zeros((width, arms, 8, 8))
    for ham in (h_nodes, h_mids):
        ham[..., 0, 0] = s * a_l
        ham[..., 0, 4] = -s * gain
        ham[..., 4, 0] = -s * half_q
        ham[..., 4, 4] = -s * a_l

    def fill(ham, wt, dt_, ft):
        wt, dt_ = wt[:, None], dt_[:, None]
        ham[..., 1, 0] = -s * wt
        ham[..., 2, 1] = s * dt_
        ham[..., 4, 3] = (s * half_q) * ft
        ham[..., 7, 0] = ham[..., 4, 3]
        ham[..., 7, 3] = -(s * half_q) * ft * ft
        ham[..., 5, 1] = (s * lam_s) * dt_
        ham[..., 4, 5] = s * wt
        ham[..., 5, 6] = -s * dt_

    maps = np.empty((n, arms, 8, 8))
    stage, product = np.empty((2, width, arms, 8, 8))
    eye = np.eye(8)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        m = hi - lo
        fill(h_nodes[: m + 1], w[lo : hi + 1], d[lo : hi + 1], f_nodes[lo : hi + 1])
        fill(h_mids[:m], w_mid[lo:hi], d_mid[lo:hi], f_mid[lo:hi])
        h_r, h_l, h_m = h_nodes[1 : m + 1], h_nodes[:m], h_mids[:m]
        u, hu, acc = stage[:m], product[:m], maps[lo:hi]
        np.matmul(h_m, h_r, out=hu)
        np.subtract(h_m, hu, out=u)  # u2
        np.multiply(u, 2.0, out=acc)
        acc += h_r
        np.matmul(h_m, u, out=hu)
        np.subtract(h_m, hu, out=u)  # u3
        u *= 2.0
        acc += u
        np.matmul(h_l, u, out=hu)
        np.subtract(h_l, hu, out=hu)  # u4
        acc += hu
        acc /= 3.0
        np.subtract(eye, acc, out=acc)
    back = maps[::-1]
    return back, block_transfer_maps(back, back)


def _block_starts(ends: np.ndarray, top: np.ndarray) -> np.ndarray:
    """[I; L~] at every block start, L~ carried from T in Python floats.

    ``ends`` (k, 8, 8) holds the last transfer map of every block but the
    final one, ``top`` L~'s ten distinct entries at T; returns (k + 1, 8, 4).
    At each block end [X; Y] = P[:, :4] + P[:, 4:] L~ for the block's map P
    and start L~ (X's last row, e4, is not formed), and the next start is
    Y X^-1 as ``_hamiltonian_rows`` forms it: the 3x3 adjugate of X's
    leading block over det X. Where det X is not positive (NaN included)
    the carry stops before it divides, and the later starts are NaN, so
    every row formed from them breaks the blow-up rule; the block end's own
    row, formed from a valid start, breaks it as well. Python float
    arithmetic gives inf or NaN on overflow, never an error.
    """
    carried = [top.tolist()]
    for p in ends.tolist():
        l11, l12, l13, l22, l23, l33, m1, m2, m3, nn = carried[-1]
        (a, b, c, x1), (d, e, f, x2), (g, h, i, x3), *y = [
            (
                r0 + r4 * l11 + r5 * l12 + r6 * l13 + r7 * m1,
                r1 + r4 * l12 + r5 * l22 + r6 * l23 + r7 * m2,
                r2 + r4 * l13 + r5 * l23 + r6 * l33 + r7 * m3,
                r3 + r4 * m1 + r5 * m2 + r6 * m3 + r7 * nn,
            )
            for r0, r1, r2, r3, r4, r5, r6, r7 in p[:3] + p[4:]
        ]
        adj = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
        det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
        if not det > 0.0:
            break
        lt = [
            (y[r][0] * adj[0][k] + y[r][1] * adj[1][k] + y[r][2] * adj[2][k]) / det
            for r, k in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (3, 0), (3, 1), (3, 2))
        ]
        lt.append(y[3][3] - (lt[6] * x1 + lt[7] * x2 + lt[8] * x3))
        carried.append(lt)
    starts = np.full((len(ends) + 1, 8, 4), np.nan)
    starts[: len(carried), :4] = np.eye(4)
    starts[: len(carried), 4:] = np.array(carried)[:, _TILDE_INDEX]
    return starts


# Closed-form L~ = Y X^-1 from [X; Y] (8x4, flattened to 32 entries): the
# adjugate of X3, adj[i][j] = C[j][i] with the cofactor
# C[j][i] = x[j+1][i+1] x[j+2][i+2] - x[j+1][i+2] x[j+2][i+1] (indices mod
# 3), gathered as four factor tables of nine entries each.
_ADJUGATE_INDEX = np.array([
    [4 * ((j + r) % 3) + (i + c) % 3 for i in range(3) for j in range(3)]
    for r, c in ((1, 1), (2, 2), (1, 2), (2, 1))
]).ravel()
# Entries of Y[:, :3] X3^-1 (4x3, flattened) that are L~'s first nine
# distinct entries (L11, L12, L13, L22, L23, L33, m1/2, m2/2, m3/2).
_ROW_INDEX = [0, 1, 2, 4, 5, 8, 9, 10, 11]
# The symmetric 4x4 L~ from its ten distinct entries.
_TILDE_INDEX = np.array([0, 1, 2, 6, 1, 3, 4, 7, 2, 4, 5, 8, 6, 7, 8, 9]).reshape(4, 4)


def _hamiltonian_rows(xy: np.ndarray):
    """L~'s ten distinct entries from a stack of [X; Y] (m, 8, 4), and det X.

    X's last row is e4, so X^-1 = [[X3^-1, -X3^-1 x], [0, 1]] with X3 its
    leading 3x3 block and x the rest of its last column; X3^-1 is the
    adjugate over the determinant. The adjugate is gathered in place, so
    Y[:, :3] adj is a stacked product with a contiguous right operand.
    """
    m = len(xy)
    flat = xy.reshape(m, 32)
    f = flat[:, _ADJUGATE_INDEX].reshape(m, 4, 9)
    adj = f[:, 0] * f[:, 1] - f[:, 2] * f[:, 3]
    det = flat[:, 0] * adj[:, 0] + flat[:, 1] * adj[:, 3] + flat[:, 2] * adj[:, 6]
    lt = xy[:, 4:, :3] @ adj.reshape(m, 3, 3)
    lt /= det[:, None, None]
    rows = np.empty((m, 10))
    rows[:, :9] = lt.reshape(m, 12)[:, _ROW_INDEX]
    rows[:, 9] = xy[:, 7, 3] - (
        lt[:, 3, 0] * xy[:, 0, 3] + lt[:, 3, 1] * xy[:, 1, 3] + lt[:, 3, 2] * xy[:, 2, 3]
    )
    return rows, det


def horizon_bound(
    leader: LeaderModel, follower: FollowerModel, coeffs: DerivedCoefficients
) -> HorizonBound:
    """Conservative horizon below which the leader system provably exists.

    t_max = arctan(sqrt(q/beta)/y0) / sqrt(beta*q), with q, beta, y0 built
    from coefficient norms over [0, T]. The bound is far from sharp; callers
    treat it as advisory and may integrate past it (blow-up detection still
    applies). Constants that are not positive finite floats raise
    ``SolverFailureError``.
    """
    lam_s = scaled_info_weight(leader, follower)
    q = max(
        abs(0.5 * leader.q_track - abs(leader.a_drift) - coeffs.weight_sup),
        (lam_s + 1.0) * coeffs.decay_sup,
    )
    beta = max(
        2.0 * leader.b_control**2 / leader.r_control + abs(leader.a_drift),
        coeffs.weight_sup,
        coeffs.decay_sup,
    )
    y0 = max(0.5 * leader.q_terminal, lam_s * (coeffs.decay_l1 + 1.0))
    if not all(math.isfinite(v) and v > 0.0 for v in (q, beta, y0)):
        raise SolverFailureError(
            f"horizon bound on horizon {coeffs.grid.horizon} needs positive finite "
            f"constants, got q={q}, beta={beta}, y0={y0}"
        )
    t_max = math.atan(math.sqrt(q / beta) / y0) / math.sqrt(beta * q)
    return HorizonBound(q=q, beta=beta, y0=y0, t_max=t_max)
