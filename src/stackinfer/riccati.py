"""Backward Riccati ODE systems for both agents.

The follower's quadratic value coefficient solves a scalar Riccati equation;
the leader's value function lives on the augmented state (own state plus two
path integrals), giving a symmetric 3x3 Riccati system with an indefinite
source. All systems are integrated backward from their terminal conditions
with classical RK4 on the simulation grid; coefficient values at interior
half-steps come from linear interpolation of the node arrays.

The leader system is only locally well-posed; ``horizon_bound`` computes the
conservative existence horizon, and ``solve_leader_system`` raises
``BlowUpError`` when the solution norm passes a threshold.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .core import (
    BlowUpError,
    FollowerModel,
    InvalidArgumentError,
    LeaderModel,
    TimeGrid,
    Trajectory,
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

    da/dt = (2 b^2/r) a^2 - 2 a_drift a - q_track/2, a(T) = 0. The equation
    is autonomous, so RK4 needs no coefficient interpolation. Global
    existence holds for every horizon; overflow still raises.
    """
    alpha = 2.0 * model.gain_sq_over_r
    two_drift = 2.0 * model.a_drift
    half_q = 0.5 * model.q_track

    def rhs(a):
        return alpha * a * a - two_drift * a - half_q

    n = grid.n_steps
    h = grid.h
    y = 0.0
    values = [y]
    for j in range(n - 1, -1, -1):
        k1 = rhs(y)
        k2 = rhs(y - 0.5 * h * k1)
        k3 = rhs(y - 0.5 * h * k2)
        k4 = rhs(y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y):
            raise InvalidArgumentError(
                f"follower Riccati overflowed at t={grid.nodes[j]:.6g}"
            )
        values.append(y)
    a = np.array(values[::-1])
    f = model.a_drift - 2.0 * model.gain_sq_over_r * a
    cum_f = cumtrapz(f, grid)
    return FollowerRiccati(grid=grid, a=a, f=f, cum_f=cum_f)


def compute_coefficients(fr: FollowerRiccati, model: FollowerModel) -> DerivedCoefficients:
    """Derive the leader-side coefficient functions from the follower solve."""
    grid = fr.grid
    weight = model.q_track * np.exp(fr.cum_f)
    decay = np.exp(-2.0 * fr.cum_f)
    cum_decay = cumtrapz(decay, grid)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the follower's linear and constant value coefficients backward.

    db/dt = (2 b^2/r) a b - a_drift b + q_track * dilation * x_L(t), b(T) = 0.
    dc/dt collects the remaining HJB terms (tracking offset, control bias,
    noise, and the entropy constant), c(T) = 0. Solved jointly so the RK4
    stages of c see stage-consistent b values; x_L and a are linearly
    interpolated at half-steps.
    """
    grid = fr.grid
    if x_leader.grid != grid:
        raise InvalidArgumentError("leader trajectory grid does not match solver grid")
    # Python floats: numpy scalar arithmetic would dominate the sequential loop.
    x = x_leader.values.tolist()
    a = fr.a.tolist()
    x_mid = _interp_mid(x_leader.values).tolist()
    a_mid = _interp_mid(fr.a).tolist()

    alpha = 2.0 * model.gain_sq_over_r
    drift = model.a_drift
    q_m = model.q_track * model.dilation
    half_gain = 0.5 * model.gain_sq_over_r
    half_q_m2 = 0.5 * model.q_track * model.dilation**2
    sig2 = model.sigma**2
    lam = model.entropy_weight
    entropy_const = 0.5 * lam * math.log(2.0 * math.pi * math.e * lam / model.r_control) - 0.5 * lam

    def rhs(a_t, x_t, b, c):
        db = alpha * a_t * b - drift * b + q_m * x_t
        dc = -half_q_m2 * x_t * x_t + half_gain * b * b - sig2 * a_t + entropy_const
        return db, dc

    n = grid.n_steps
    h = grid.h
    yb, yc = 0.0, 0.0
    b = [yb]
    c = [yc]
    for j in range(n - 1, -1, -1):
        a_r, a_m, a_l = a[j + 1], a_mid[j], a[j]
        x_r, x_m, x_l = x[j + 1], x_mid[j], x[j]
        kb1, kc1 = rhs(a_r, x_r, yb, yc)
        kb2, kc2 = rhs(a_m, x_m, yb - 0.5 * h * kb1, yc - 0.5 * h * kc1)
        kb3, kc3 = rhs(a_m, x_m, yb - 0.5 * h * kb2, yc - 0.5 * h * kc2)
        kb4, kc4 = rhs(a_l, x_l, yb - h * kb3, yc - h * kc3)
        yb = yb - (h / 6.0) * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
        yc = yc - (h / 6.0) * (kc1 + 2.0 * kc2 + 2.0 * kc3 + kc4)
        b.append(yb)
        c.append(yc)
    return np.array(b[::-1]), np.array(c[::-1])


def scaled_info_weight(leader: LeaderModel, follower: FollowerModel) -> float:
    """inference_weight * b_F^4 / (sigma_F^2 r_F^2), the weight on the precision integral."""
    if follower.sigma == 0.0:
        if leader.inference_weight == 0.0:
            return 0.0
        raise InvalidArgumentError(
            "scaled inference weight undefined for a noiseless follower"
        )
    return leader.inference_weight / follower.noise_to_signal


def solve_leader_system(
    leader: LeaderModel,
    follower: FollowerModel,
    coeffs: DerivedCoefficients,
    blow_up_threshold: float = 1e12,
) -> LeaderRiccati:
    """Solve the leader's augmented Riccati system backward on the grid.

    The quadratic coefficient has an indefinite source (the inference reward
    enters with a negative sign), so solutions may blow up in finite time;
    when any entry passes ``blow_up_threshold`` a ``BlowUpError`` carrying
    the grid time is raised. Symmetry is enforced structurally by
    integrating the six independent entries of the quadratic coefficient.
    """
    grid = coeffs.grid
    n = grid.n_steps
    h = grid.h
    nodes = grid.nodes
    T = grid.horizon

    lam_s = scaled_info_weight(leader, follower)
    a_l = leader.a_drift
    gain = 2.0 * leader.b_control**2 / leader.r_control
    half_q = 0.5 * leader.q_track
    q_track = leader.q_track
    sig2 = leader.sigma**2
    b2_over_2r = leader.b_control**2 / (2.0 * leader.r_control)

    # Python floats: numpy scalar arithmetic would dominate the sequential loop.
    w = coeffs.weight.tolist()
    d = coeffs.decay.tolist()
    w_mid = _interp_mid(coeffs.weight).tolist()
    d_mid = _interp_mid(coeffs.decay).tolist()
    f_nodes = leader.target_at(nodes, T).tolist()
    f_mid = leader.target_at(0.5 * (nodes[:-1] + nodes[1:]), T).tolist()

    # State y = (L11, L12, L13, L22, L23, L33, m1, m2, m3, N).
    def rhs(y, wt, dt_, ft):
        l11, l12, l13, l22, l23, l33, m1, m2, m3, _ = y
        s11 = 2.0 * (l11 * a_l - l12 * wt)
        s12 = l13 * dt_ + l12 * a_l - l22 * wt
        s13 = l13 * a_l - l23 * wt
        s22 = 2.0 * l23 * dt_
        s23 = l33 * dt_
        return (
            -s11 + gain * l11 * l11 - half_q,
            -s12 + gain * l11 * l12,
            -s13 + gain * l11 * l13,
            -s22 + gain * l12 * l12 + lam_s * dt_,
            -s23 + gain * l12 * l13,
            gain * l13 * l13,
            -a_l * m1 + wt * m2 + gain * l11 * m1 + q_track * ft,
            -dt_ * m3 + gain * l12 * m1,
            gain * l13 * m1,
            b2_over_2r * m1 * m1 - sig2 * l11 - half_q * ft * ft,
        )

    f_T = f_nodes[-1]
    y = (
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

    def shifted(y, k, step):
        """The stage state y - step * k, written out per entry for speed."""
        y0, y1, y2, y3, y4, y5, y6, y7, y8, y9 = y
        k0, k1, k2, k3, k4, k5, k6, k7, k8, k9 = k
        return (
            y0 - step * k0, y1 - step * k1, y2 - step * k2, y3 - step * k3,
            y4 - step * k4, y5 - step * k5, y6 - step * k6, y7 - step * k7,
            y8 - step * k8, y9 - step * k9,
        )

    half_h = 0.5 * h
    sixth_h = h / 6.0
    # Node states are appended backward as raw doubles (no per-node objects).
    states = array("d", y)
    for j in range(n - 1, -1, -1):
        k1 = rhs(y, w[j + 1], d[j + 1], f_nodes[j + 1])
        k2 = rhs(shifted(y, k1, half_h), w_mid[j], d_mid[j], f_mid[j])
        k3 = rhs(shifted(y, k2, half_h), w_mid[j], d_mid[j], f_mid[j])
        k4 = rhs(shifted(y, k3, h), w[j], d[j], f_nodes[j])
        y = shifted(y, [a1 + 2.0 * a2 + 2.0 * a3 + a4 for a1, a2, a3, a4 in zip(k1, k2, k3, k4)],
                    sixth_h)
        peak = max(abs(y[0]), abs(y[1]), abs(y[2]), abs(y[3]), abs(y[4]), abs(y[5]))
        if not math.isfinite(peak) or peak > blow_up_threshold:
            raise BlowUpError(
                f"leader Riccati system blew up at t={nodes[j]:.6g} "
                f"(|quad| reached {peak:.3g})",
                blow_up_time=float(nodes[j]),
            )
        states.extend(y)

    table = np.frombuffer(states, dtype=float).reshape(n + 1, 10)[::-1]
    quad = table[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(n + 1, 3, 3)
    lin = table[:, 6:9].copy()
    offset = table[:, 9].copy()
    quad.setflags(write=False)
    lin.setflags(write=False)
    offset.setflags(write=False)
    return LeaderRiccati(
        grid=grid, quad=quad, lin=lin, offset=offset, scaled_info_weight=lam_s
    )


def horizon_bound(
    leader: LeaderModel, follower: FollowerModel, coeffs: DerivedCoefficients
) -> HorizonBound:
    """Conservative horizon below which the leader system provably exists.

    t_max = arctan(sqrt(q/beta)/y0) / sqrt(beta*q), with q, beta, y0 built
    from coefficient norms over [0, T]. The bound is far from sharp; callers
    treat it as advisory and may integrate past it (blow-up detection still
    applies).
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
    if y0 <= 0.0 or q <= 0.0 or beta <= 0.0:
        raise InvalidArgumentError(
            f"horizon bound needs positive constants, got q={q}, beta={beta}, y0={y0}"
        )
    t_max = math.atan(math.sqrt(q / beta) / y0) / math.sqrt(beta * q)
    return HorizonBound(q=q, beta=beta, y0=y0, t_max=t_max)
