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
multiplied out two-level blocked, restarted at every block.

The leader system is only locally well-posed; ``horizon_bound`` computes the
conservative existence horizon, and ``solve_leader_system`` raises
``BlowUpError`` at the first node past the blow-up.
"""

from __future__ import annotations

import math
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
    fr: FollowerRiccati, model: FollowerModel, x_leader: Trajectory
) -> np.ndarray:
    """Solve the follower's linear value coefficient b backward.

    db/dt = (2 b^2/r) a b - a_drift b + q_track * dilation * x_L(t), b(T) = 0,
    by classical RK4 with x_L and a linearly interpolated at half-steps.
    db/dt is affine in b, so each RK4 stage is too, and a backward step is
    b[j] = m[j] b[j+1] + e[j] with m and e built for all steps at once; that
    recurrence is solved by ``core._affine_scan``. b is linear in
    q_track * dilation, so it is solved for unit forcing and scaled once,
    which keeps a tiny forcing out of the subnormal range until the last
    rounding. It agrees with the per-step RK4 loop to rounding.
    """
    grid = fr.grid
    if x_leader.grid != grid:
        raise InvalidArgumentError("leader trajectory grid does not match solver grid")
    alpha = 2.0 * model.gain_sq_over_r
    drift = model.a_drift
    q_m = model.q_track * model.dilation

    # b = q_m u with du/dt = p u + x, at the nodes and half-steps.
    x, x_mid = x_leader.values, _interp_mid(x_leader.values)
    a, a_mid = fr.a, _interp_mid(fr.a)
    p, p_mid = alpha * a - drift, alpha * a_mid - drift

    n = grid.n_steps
    h = grid.h
    half_h = 0.5 * h
    sixth_h = h / 6.0
    # Stage i of the step entered from u[j+1] is k_i = ka_i u[j+1] + kb_i.
    ka1, kb1 = p[1:], x[1:]
    ka2 = p_mid * (1.0 - half_h * ka1)
    kb2 = x_mid - p_mid * (half_h * kb1)
    ka3 = p_mid * (1.0 - half_h * ka2)
    kb3 = x_mid - p_mid * (half_h * kb2)
    ka4 = p[:-1] * (1.0 - h * ka3)
    kb4 = x[:-1] - p[:-1] * (h * kb3)
    m = 1.0 - sixth_h * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
    e = -sixth_h * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
    # Solved from u[n] = 0 back: step i of the recurrence is grid step n-1-i.
    b = np.empty(n + 1)
    b[n] = 0.0
    b[:n] = e
    _affine_scan(m[::-1, None, None], b[::-1, None, None])
    b *= q_m
    return b


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
# Steps whose propagators are formed at once: about 0.5 MB of (steps, 8, 8)
# temporaries, which bounds the solver's memory. Node values are formed one
# block of isqrt(n) steps at a time, at most 1024 steps on any allowed grid.
_CHUNK_STEPS = 1024
# The six quad entries (L11, L12, L13, L22, L23, L33) as a symmetric 3x3.
_QUAD_INDEX = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def solve_leader_system(
    leader: LeaderModel,
    follower: FollowerModel,
    coeffs: DerivedCoefficients,
) -> LeaderRiccati:
    """Solve the leader's augmented Riccati system backward on the grid.

    The quadratic coefficient has an indefinite source (the inference reward
    enters with a negative sign), so solutions may blow up in finite time;
    a ``BlowUpError`` carrying the grid time of the first node past the
    blow-up is raised. The system is solved in its linear Hamiltonian form
    (see ``_leader_hamiltonian``), a fourth-order scheme: it agrees with
    classical RK4 on the ten entries within RK4's own discretisation error,
    or to 1e-10 relative where that error is smaller, and raises at RK4's
    blow-up node or one step nearer T. quad is exactly symmetric.
    """
    grid = coeffs.grid
    nodes = grid.nodes
    T = grid.horizon
    lam_s = scaled_info_weight(leader, follower)
    f_nodes = leader.target_at(nodes, T)
    f_mid = leader.target_at(0.5 * (nodes[:-1] + nodes[1:]), T)
    f_T = float(f_nodes[-1])
    # (L11, L12, L13, L22, L23, L33, m1, m2, m3, N) at T.
    terminal = (
        0.5 * leader.q_terminal,
        0.0,
        0.0,
        -lam_s * coeffs.decay_l1,
        lam_s,
        0.0,
        -leader.q_terminal * f_T,
        0.0,
        0.0,
        0.5 * leader.q_terminal * f_T * f_T,
    )
    table = _leader_hamiltonian(leader, lam_s, coeffs, f_nodes, f_mid, terminal)

    quad = table[:, _QUAD_INDEX].reshape(grid.n_nodes, 3, 3)
    lin = table[:, 6:9].copy()
    offset = table[:, 9].copy()
    quad.setflags(write=False)
    lin.setflags(write=False)
    offset.setflags(write=False)
    return LeaderRiccati(
        grid=grid, quad=quad, lin=lin, offset=offset, scaled_info_weight=lam_s
    )


def _blow_up(t: float, peak: float):
    return BlowUpError(
        f"leader Riccati system blew up at t={t:.6g} (|quad| reached {peak:.3g})",
        blow_up_time=t,
    )


def _past_blow_up(rows: np.ndarray, det: np.ndarray):
    """Which node rows break the blow-up rule, and their peak |quad| entries."""
    peak = np.max(np.abs(rows[:, :6]), axis=1)
    bad = ~(det > 0.0) | ~(peak <= BLOW_UP_THRESHOLD) | ~np.isfinite(rows).all(axis=1)
    return bad, peak


def _leader_hamiltonian(leader, lam_s, coeffs, f_nodes, f_mid, terminal):
    """The leader system as a linear Hamiltonian product; returns the node table.

    With the constant 1 appended to the augmented state, psi~ = (x, aux,
    aux2, 1), the quad, half the lin and the offset less its sigma^2 term
    form one symmetric 4x4 Riccati solution
    L~' = -(L~ A + A' L~) + L~ G L~ - Q. By Radon's lemma L~ = Y X^-1 for
    the linear system [X; Y]' = H [X; Y], H = [[A, -G], [-Q, -A']]. Each
    step's RK4 propagator of that system is formed from the coefficients at
    the step's two nodes and its midpoint, and their backward product is
    taken two-level blocked (``block_transfer_maps``). [X; Y] restarts at
    [I; L~] at every block start, so X stays well conditioned; each block
    starts from L~ at the previous block's last row. X's last row is e4
    exactly (the constant has no dynamics), so X^-1 is a closed-form 3x3
    inverse. The offset adds sigma^2 times the integral of L11 from t to T,
    an end-corrected trapezoid sum. The first node from T, T included, where
    det X <= 0, a quad entry passes ``BLOW_UP_THRESHOLD`` or a value is not
    finite raises ``BlowUpError``.
    """
    grid = coeffs.grid
    n = grid.n_steps
    h = grid.h
    a_l = leader.a_drift
    gain = 2.0 * leader.b_control**2 / leader.r_control
    half_q = 0.5 * leader.q_track
    w, d = coeffs.weight, coeffs.decay

    def scaled_hamiltonians(wt, dt_, ft):
        """(h/2) H at each coefficient triple, (len, 8, 8)."""
        s = 0.5 * h
        ham = np.zeros((len(wt), 8, 8))
        ham[:, 0, 0] = s * a_l
        ham[:, 1, 0] = -s * wt
        ham[:, 2, 1] = s * dt_
        ham[:, 0, 4] = -s * gain
        ham[:, 4, 0] = -s * half_q
        ham[:, 4, 3] = (s * half_q) * ft
        ham[:, 7, 0] = ham[:, 4, 3]
        ham[:, 7, 3] = -(s * half_q) * ft * ft
        ham[:, 5, 1] = (s * lam_s) * dt_
        ham[:, 4, 4] = -s * a_l
        ham[:, 4, 5] = s * wt
        ham[:, 5, 6] = -s * dt_
        return ham

    # Past a blow-up values are discarded; every node row is checked below,
    # so overflow on the way there is not warned of.
    with np.errstate(all="ignore"):
        # maps[j] propagates [X; Y] from node j+1 to node j: with u = (h/2) k for
        # the RK4 stages k of the linear system, it is I - (u1 + 2 u2 + 2 u3 + u4)/3.
        # Read from T back (``back``), the steps run in the order of the product.
        maps = np.empty((n, 8, 8))
        eye = np.eye(8)
        w_mid, d_mid = _interp_mid(w), _interp_mid(d)
        for lo in range(0, n, _CHUNK_STEPS):
            hi = min(lo + _CHUNK_STEPS, n)
            h_nodes = scaled_hamiltonians(w[lo : hi + 1], d[lo : hi + 1], f_nodes[lo : hi + 1])
            h_r, h_l = h_nodes[1:], h_nodes[:-1]
            h_m = scaled_hamiltonians(w_mid[lo:hi], d_mid[lo:hi], f_mid[lo:hi])
            u = h_m - h_m @ h_r  # u2
            acc = 2.0 * u
            acc += h_r
            u = h_m - h_m @ u  # u3
            u *= 2.0
            acc += u
            acc += h_l - h_l @ u  # u4
            np.subtract(eye, acc / 3.0, out=maps[lo:hi])
        back = maps[::-1]
        size = block_transfer_maps(back, back)

        # Node rows hold L~'s ten entries (m/2 in place of m) until the end.
        # Each block starts from L~ at the previous block's last row.
        table = np.empty((n + 1, 10))
        det = np.empty(n + 1)
        table[n] = terminal
        table[n, 6:9] *= 0.5
        det[n] = 1.0  # X is I at T
        start = table[n, _TILDE_INDEX]
        for lo in range(0, n, size):
            hi = min(lo + size, n)
            phi = back[lo:hi]
            rows, block_det = _hamiltonian_rows(phi[:, :, :4] + phi[:, :, 4:] @ start)
            table[n - hi : n - lo] = rows[::-1]
            det[n - hi : n - lo] = block_det[::-1]
            start = rows[-1, _TILDE_INDEX]
        bad, peak = _past_blow_up(table, det)
        if bad.any():
            p = n - int(np.argmax(bad[::-1]))
            raise _blow_up(float(grid.nodes[p]), float(peak[p]))
        table[:, 6:9] *= 2.0

    # offset = N^ + sig2 * int_t^T L11: per step h/2 (L11_j + L11_j+1)
    # - h^2/12 (L11'_j+1 - L11'_j), L11' the Riccati rate of L11.
    l11 = table[:, 0]
    rate = -(2.0 * (l11 * a_l - table[:, 1] * w)) + gain * l11 * l11 - half_q
    steps = (0.5 * h) * (l11[:-1] + l11[1:]) - (h * h / 12.0) * (rate[1:] - rate[:-1])
    table[:-1, 9] += leader.sigma**2 * np.cumsum(steps[::-1])[::-1]
    return table


# Closed-form L~ = Y X^-1 from [X; Y] (8x4, flattened to 32 entries):
# cofactor C[i][j] of X3 is x[i+1][j+1] x[i+2][j+2] - x[i+1][j+2] x[i+2][j+1]
# (indices mod 3), gathered as four factor tables of nine entries each.
_COFACTOR_INDEX = np.array([
    [4 * ((i + r) % 3) + (j + c) % 3 for i in range(3) for j in range(3)]
    for r, c in ((1, 1), (2, 2), (1, 2), (2, 1))
]).ravel()
# Entries of Y[:, :3] X3^-1 (4x3, flattened) that are L~'s first nine
# distinct entries (L11, L12, L13, L22, L23, L33, m1/2, m2/2, m3/2).
_ROW_INDEX = [0, 1, 2, 4, 5, 8, 9, 10, 11]
# The symmetric 4x4 L~ from its ten distinct entries.
_TILDE_INDEX = np.array([0, 1, 2, 6, 1, 3, 4, 7, 2, 4, 5, 8, 6, 7, 8, 9]).reshape(4, 4)


def _hamiltonian_rows(xy: np.ndarray):
    """L~'s ten distinct entries from [X; Y] (..., 8, 4), and det X.

    X's last row is e4, so X^-1 = [[X3^-1, -X3^-1 x], [0, 1]] with X3 its
    leading 3x3 block and x the rest of its last column; X3^-1 is the
    transposed cofactor matrix over the determinant.
    """
    flat = xy.reshape(xy.shape[:-2] + (32,))
    f = flat[..., _COFACTOR_INDEX].reshape(xy.shape[:-2] + (4, 9))
    cof = f[..., 0, :] * f[..., 1, :] - f[..., 2, :] * f[..., 3, :]
    det = np.sum(flat[..., :3] * cof[..., :3], axis=-1)
    cof = cof.reshape(cof.shape[:-1] + (3, 3))
    lt = xy[..., 4:, :3] @ np.swapaxes(cof, -1, -2)
    lt /= det[..., None, None]
    rows = np.empty(xy.shape[:-2] + (10,))
    rows[..., :9] = lt.reshape(lt.shape[:-2] + (12,))[..., _ROW_INDEX]
    rows[..., 9] = xy[..., 7, 3] - np.sum(lt[..., 3, :] * xy[..., :3, 3], axis=-1)
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
