"""Backward Riccati ODE systems for both agents.

The follower's quadratic value coefficient solves a scalar Riccati equation;
the leader's value function lives on the augmented state (own state plus two
path integrals), giving a symmetric 3x3 Riccati system with an indefinite
source. All systems are integrated backward from their terminal conditions
with classical RK4 on the simulation grid; coefficient values at interior
half-steps come from linear interpolation of the node arrays. On grids of
at least ``HAMILTONIAN_MIN_STEPS`` steps the leader system is instead
solved as the linear Hamiltonian system whose solution [X; Y] gives the
Riccati solution as Y X^-1 (Radon's lemma): per-step RK4 propagators
multiplied out two-level blocked, restarted at every block.

The leader system is only locally well-posed; ``horizon_bound`` computes the
conservative existence horizon, and ``solve_leader_system`` raises
``BlowUpError`` at the first node past the blow-up.
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

    da/dt = (2 b^2/r) a^2 - 2 a_drift a - q_track/2, a(T) = 0. The equation
    is autonomous, so RK4 needs no coefficient interpolation. Global
    existence holds for every horizon; overflow still raises.
    """
    alpha = 2.0 * model.gain_sq_over_r
    two_drift = 2.0 * model.a_drift
    half_q = 0.5 * model.q_track

    n = grid.n_steps
    h = grid.h
    half_h = 0.5 * h
    sixth_h = h / 6.0
    y = 0.0
    values = [y]
    # RK4 with the right-hand side alpha*s*s - two_drift*s - half_q written
    # out per stage: a call per stage would dominate the sequential loop.
    for j in range(n - 1, -1, -1):
        k1 = alpha * y * y - two_drift * y - half_q
        s = y - half_h * k1
        k2 = alpha * s * s - two_drift * s - half_q
        s = y - half_h * k2
        k3 = alpha * s * s - two_drift * s - half_q
        s = y - h * k3
        k4 = alpha * s * s - two_drift * s - half_q
        y = y - sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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
    noise, and the entropy constant), c(T) = 0. Both are classical RK4 with
    x_L and a linearly interpolated at half-steps. dc/dt does not depend on
    c, so only b is stepped one node at a time; c's RK4 increments are then
    evaluated for all steps at once from the same b stage values, and c is
    their running sum from T. Every operation is the one a joint per-step
    loop performs, in the same order, so both outputs equal it bit for bit.
    """
    grid = fr.grid
    if x_leader.grid != grid:
        raise InvalidArgumentError("leader trajectory grid does not match solver grid")
    alpha = 2.0 * model.gain_sq_over_r
    drift = model.a_drift
    q_m = model.q_track * model.dilation
    half_gain = 0.5 * model.gain_sq_over_r
    half_q_m2 = 0.5 * model.q_track * model.dilation**2
    sig2 = model.sigma**2
    lam = model.entropy_weight
    entropy_const = 0.5 * lam * math.log(2.0 * math.pi * math.e * lam / model.r_control) - 0.5 * lam

    # db/dt = alpha_a * b - drift * b + q_x at the nodes and half-steps.
    x, x_mid = x_leader.values, _interp_mid(x_leader.values)
    a, a_mid = fr.a, _interp_mid(fr.a)
    alpha_a, alpha_a_mid = alpha * a, alpha * a_mid
    q_x, q_x_mid = q_m * x, q_m * x_mid

    n = grid.n_steps
    h = grid.h
    half_h = 0.5 * h
    sixth_h = h / 6.0
    # Python floats: numpy scalar arithmetic would dominate the sequential loop.
    yb = 0.0
    b = [yb]
    for p_r, g_r, p_m, g_m, p_l, g_l in zip(
        alpha_a[:0:-1].tolist(), q_x[:0:-1].tolist(),
        alpha_a_mid[::-1].tolist(), q_x_mid[::-1].tolist(),
        alpha_a[-2::-1].tolist(), q_x[-2::-1].tolist(),
    ):
        k1 = p_r * yb - drift * yb + g_r
        s = yb - half_h * k1
        k2 = p_m * s - drift * s + g_m
        s = yb - half_h * k2
        k3 = p_m * s - drift * s + g_m
        s = yb - h * k3
        k4 = p_l * s - drift * s + g_l
        yb = yb - sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        b.append(yb)
    b = np.array(b[::-1])

    # The b stage values of every step (entered from its right node), then
    # dc/dt at each stage: -half_q_m2 x^2 + half_gain b^2 - sig2 a + entropy_const.
    s1 = b[1:]
    k1 = alpha_a[1:] * s1 - drift * s1 + q_x[1:]
    s2 = s1 - half_h * k1
    k2 = alpha_a_mid * s2 - drift * s2 + q_x_mid
    s3 = s1 - half_h * k2
    k3 = alpha_a_mid * s3 - drift * s3 + q_x_mid
    s4 = s1 - h * k3
    x_term, x_term_mid = -half_q_m2 * x * x, -half_q_m2 * x_mid * x_mid
    a_term, a_term_mid = sig2 * a, sig2 * a_mid
    kc1 = x_term[1:] + half_gain * s1 * s1 - a_term[1:] + entropy_const
    kc2 = x_term_mid + half_gain * s2 * s2 - a_term_mid + entropy_const
    kc3 = x_term_mid + half_gain * s3 * s3 - a_term_mid + entropy_const
    kc4 = x_term[:-1] + half_gain * s4 * s4 - a_term[:-1] + entropy_const
    # c[j] = c[j+1] - sixth_h * (...) from c[n] = 0; add.accumulate is
    # sequential and c + (-v) rounds exactly as c - v.
    neg_step = np.empty(n + 1)
    neg_step[0] = 0.0
    neg_step[1:] = -(sixth_h * (kc1 + 2.0 * kc2 + 2.0 * kc3 + kc4))[::-1]
    c = np.cumsum(neg_step)[::-1].copy()
    return b, c


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
# Grids of at least HAMILTONIAN_MIN_STEPS steps solve the leader system as a
# blocked linear Hamiltonian product; shorter grids step the RK4 loop, bit
# for bit as before. Measured on a 2-vCPU x86 host (numpy 2, best of 7, RK4
# time over Hamiltonian time): 50 steps 0.83x, 128 1.2x, 512 1.4x, 1024
# 1.5x, 2048 1.9x, 8192 2.7x. The product wins from about 100 steps; the
# threshold sits higher so that the 50- to 1000-step studies keep their
# output bits, where the product would save under 2 ms per solve.
HAMILTONIAN_MIN_STEPS = 1024
# Steps whose propagators, or whose node values, are formed at once: about
# 0.5 MB of (steps, 8, 8) temporaries, which bounds the solver's memory.
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
    blow-up is raised. Grids shorter than ``HAMILTONIAN_MIN_STEPS`` step
    classical RK4 on the six independent quad entries, the linear and the
    constant coefficient, and raise when a quad entry passes
    ``BLOW_UP_THRESHOLD``. Longer grids take the linear Hamiltonian form
    (see ``_leader_hamiltonian``). It is fourth order too: it agrees with
    RK4 to 1e-10 relative wherever the grid resolves the solution, and
    raises at RK4's blow-up node or one step nearer T. Either way quad is
    exactly symmetric.
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
    solve = _leader_rk4 if grid.n_steps < HAMILTONIAN_MIN_STEPS else _leader_hamiltonian
    table = solve(leader, lam_s, coeffs, f_nodes, f_mid, terminal)

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


def _leader_rk4(leader, lam_s, coeffs, f_nodes, f_mid, terminal):
    """Classical RK4 on the 10-entry system; returns the (n_nodes, 10) node table."""
    grid = coeffs.grid
    n = grid.n_steps
    h = grid.h
    nodes = grid.nodes

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
    f_nodes = f_nodes.tolist()
    f_mid = f_mid.tolist()

    # State (L11, L12, L13, L22, L23, L33, m1, m2, m3, N); no rate reads N.
    def rhs(l11, l12, l13, l22, l23, l33, m1, m2, m3, wt, dt_, ft):
        s11 = 2.0 * (l11 * a_l - l12 * wt)
        s12 = l13 * dt_ + l12 * a_l - l22 * wt
        s13 = l13 * a_l - l23 * wt
        s22 = 2.0 * l23 * dt_
        s23 = l33 * dt_
        g11, g12, g13 = gain * l11, gain * l12, gain * l13
        return (
            -s11 + g11 * l11 - half_q,
            -s12 + g11 * l12,
            -s13 + g11 * l13,
            -s22 + g12 * l12 + lam_s * dt_,
            -s23 + g12 * l13,
            g13 * l13,
            -a_l * m1 + wt * m2 + g11 * m1 + q_track * ft,
            -dt_ * m3 + g12 * m1,
            g13 * m1,
            b2_over_2r * m1 * m1 - sig2 * l11 - half_q * ft * ft,
        )

    y0, y1, y2, y3, y4, y5, y6, y7, y8, y9 = terminal

    half_h = 0.5 * h
    sixth_h = h / 6.0
    # Node states are appended backward as raw doubles (no per-node objects).
    # The RK4 stages k1..k4 are named p, q, r, s; each stage state y - step*k
    # and the final combination are written out per entry for speed.
    states = array("d", terminal)
    for j, w_r, d_r, f_r, w_m, d_m, f_m, w_l, d_l, f_l in zip(
        range(n - 1, -1, -1),
        w[:0:-1], d[:0:-1], f_nodes[:0:-1],
        w_mid[::-1], d_mid[::-1], f_mid[::-1],
        w[-2::-1], d[-2::-1], f_nodes[-2::-1],
    ):
        p0, p1, p2, p3, p4, p5, p6, p7, p8, p9 = rhs(
            y0, y1, y2, y3, y4, y5, y6, y7, y8, w_r, d_r, f_r
        )
        q0, q1, q2, q3, q4, q5, q6, q7, q8, q9 = rhs(
            y0 - half_h * p0, y1 - half_h * p1, y2 - half_h * p2,
            y3 - half_h * p3, y4 - half_h * p4, y5 - half_h * p5,
            y6 - half_h * p6, y7 - half_h * p7, y8 - half_h * p8,
            w_m, d_m, f_m,
        )
        r0, r1, r2, r3, r4, r5, r6, r7, r8, r9 = rhs(
            y0 - half_h * q0, y1 - half_h * q1, y2 - half_h * q2,
            y3 - half_h * q3, y4 - half_h * q4, y5 - half_h * q5,
            y6 - half_h * q6, y7 - half_h * q7, y8 - half_h * q8,
            w_m, d_m, f_m,
        )
        s0, s1, s2, s3, s4, s5, s6, s7, s8, s9 = rhs(
            y0 - h * r0, y1 - h * r1, y2 - h * r2,
            y3 - h * r3, y4 - h * r4, y5 - h * r5,
            y6 - h * r6, y7 - h * r7, y8 - h * r8,
            w_l, d_l, f_l,
        )
        y0 = y0 - sixth_h * (p0 + 2.0 * q0 + 2.0 * r0 + s0)
        y1 = y1 - sixth_h * (p1 + 2.0 * q1 + 2.0 * r1 + s1)
        y2 = y2 - sixth_h * (p2 + 2.0 * q2 + 2.0 * r2 + s2)
        y3 = y3 - sixth_h * (p3 + 2.0 * q3 + 2.0 * r3 + s3)
        y4 = y4 - sixth_h * (p4 + 2.0 * q4 + 2.0 * r4 + s4)
        y5 = y5 - sixth_h * (p5 + 2.0 * q5 + 2.0 * r5 + s5)
        y6 = y6 - sixth_h * (p6 + 2.0 * q6 + 2.0 * r6 + s6)
        y7 = y7 - sixth_h * (p7 + 2.0 * q7 + 2.0 * r7 + s7)
        y8 = y8 - sixth_h * (p8 + 2.0 * q8 + 2.0 * r8 + s8)
        y9 = y9 - sixth_h * (p9 + 2.0 * q9 + 2.0 * r9 + s9)
        peak = max(abs(y0), abs(y1), abs(y2), abs(y3), abs(y4), abs(y5))
        if not math.isfinite(peak) or peak > BLOW_UP_THRESHOLD:
            raise _blow_up(float(nodes[j]), peak)
        states.extend((y0, y1, y2, y3, y4, y5, y6, y7, y8, y9))

    return np.frombuffer(states, dtype=float).reshape(n + 1, 10)[::-1]


def _leader_hamiltonian(leader, lam_s, coeffs, f_nodes, f_mid, terminal):
    """The leader system as a linear Hamiltonian product; returns the node table.

    With the constant 1 appended to the augmented state, psi~ = (x, aux,
    aux2, 1), the quad, half the lin and the offset less its sigma^2 term
    form one symmetric 4x4 Riccati solution
    L~' = -(L~ A + A' L~) + L~ G L~ - Q. By Radon's lemma L~ = Y X^-1 for
    the linear system [X; Y]' = H [X; Y], H = [[A, -G], [-Q, -A']]. Each
    step's RK4 propagator of that system is formed from the node, midpoint
    and node coefficients the RK4 loop reads, and their backward product is
    taken two-level blocked (``block_transfer_maps``). [X; Y] restarts at
    [I; L~] at every block start, so X stays well conditioned; L~ is
    carried across blocks one by one. X's last row is e4 exactly (the
    constant has no dynamics), so X^-1 is a closed-form 3x3 inverse. The
    offset adds sigma^2 times the integral of L11 from t to T, an
    end-corrected trapezoid sum. The first node from T where det X <= 0,
    a quad entry passes ``BLOW_UP_THRESHOLD`` or a value is not finite
    raises ``BlowUpError``.
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
    # L~ entering each block is carried across block ends one by one.
    top = np.array(terminal)
    top[6:9] *= 0.5
    n_blocks = -(-n // size)
    starts = np.empty((n_blocks, 4, 4))
    starts[0] = top[_TILDE_INDEX]
    with np.errstate(all="ignore"):  # past a blow-up the carry is discarded
        for b in range(1, n_blocks):
            phi = back[b * size - 1]
            row, _ = _hamiltonian_rows(phi[:, :4] + phi[:, 4:] @ starts[b - 1])
            starts[b] = row[_TILDE_INDEX]

    table = np.empty((n + 1, 10))
    table[n] = top
    for lo in range(0, n, _CHUNK_STEPS):
        hi = min(lo + _CHUNK_STEPS, n)
        phi = back[lo:hi]
        with np.errstate(all="ignore"):
            rows, det = _hamiltonian_rows(
                phi[:, :, :4] + phi[:, :, 4:] @ starts[np.arange(lo, hi) // size]
            )
            peak = np.max(np.abs(rows[:, :6]), axis=1)
            bad = ~(det > 0.0) | ~(peak <= BLOW_UP_THRESHOLD) | ~np.isfinite(rows).all(axis=1)
        if bad.any():
            p = lo + int(np.argmax(bad))
            raise _blow_up(float(grid.nodes[n - 1 - p]), float(peak[p - lo]))
        table[n - hi : n - lo] = rows[::-1]
    table[:, 6:9] *= 2.0

    # offset = N^ + sig2 * int_t^T L11: per step h/2 (L11_j + L11_j+1)
    # - h^2/12 (L11'_j+1 - L11'_j), L11' the RK4 loop's own L11 rate.
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
