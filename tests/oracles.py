"""Independent oracles used by the test suite.

Everything here is implemented from first principles (closed forms, fine
quadrature, fine Runge-Kutta with analytic coefficients) without calling the
library's solvers, so agreement is evidence and not tautology. It also holds
the paper identities that tests check and the library no longer needs: the
follower's realized cost and value constant c, its Gaussian policy moments,
and the quadratic-variation noise estimate. The leader's per-block
Hamiltonian restart, which the block-end carry replaced, is kept verbatim as
a reference; it reuses the library's blocked products and blow-up rule. So is
the tradeoff sweep's per-arm moment evaluator, which the stacked one replaced.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

import numpy as np


def riccati_constant_roots(alpha: float, beta: float, gamma: float):
    """Real roots of alpha r^2 + beta r + gamma = 0, larger first."""
    disc = beta * beta - 4.0 * alpha * gamma
    if disc <= 0:
        raise ValueError("oracle expects two distinct real roots")
    s = math.sqrt(disc)
    return (-beta + s) / (2.0 * alpha), (-beta - s) / (2.0 * alpha)


def riccati_constant_solution(
    alpha: float, beta: float, gamma: float, horizon: float, t, terminal: float = 0.0
):
    """Closed-form solution of y' = alpha y^2 + beta y + gamma with y(T) given.

    Writing the quadratic as alpha (y - r1)(y - r2), the log-ratio
    (y - r1)/(y - r2) evolves linearly, giving
    y(t) = (r1 - r2 k(t)) / (1 - k(t)) with
    k(t) = ((y_T - r1)/(y_T - r2)) exp(-alpha (r1 - r2)(T - t)).
    """
    r1, r2 = riccati_constant_roots(alpha, beta, gamma)
    t = np.asarray(t, dtype=float)
    ratio = (terminal - r1) / (terminal - r2)
    kappa = ratio * np.exp(-alpha * (r1 - r2) * (horizon - t))
    return (r1 - r2 * kappa) / (1.0 - kappa)


def riccati_constant_integral(alpha: float, beta: float, gamma: float, horizon: float, t):
    """Closed-form running integral of the solution above from 0 to t."""
    r1, r2 = riccati_constant_roots(alpha, beta, gamma)
    t = np.asarray(t, dtype=float)

    def kappa(s):
        return (r1 / r2) * np.exp(-alpha * (r1 - r2) * (horizon - s))

    return r1 * t - (1.0 / alpha) * (np.log(1.0 - kappa(t)) - np.log(1.0 - kappa(0.0)))


def follower_a_decimal(a_drift, b_control, q_track, r_control, horizon, nodes, digits=50):
    """The follower's a at each node by its closed form in ``digits``-digit decimals.

    a = r1 r2 (1 - e)/(r2 - r1 e), e = exp(-2 s (T - t)), with the roots
    r1,2 = (a_drift +- s)/alpha and s = sqrt(a_drift^2 + alpha q_track/2),
    alpha = 2 b^2/r, all from the exact values of the float inputs. At 50
    digits the cancellations that cost a float evaluation its accuracy
    still leave far more digits than a float holds.
    """
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        alpha = 2 * dec(b_control) ** 2 / dec(r_control)
        a = dec(a_drift)
        s = (a * a + alpha * dec(q_track) / 2).sqrt()
        r1, r2 = (a + s) / alpha, (a - s) / alpha
        out = []
        for t in nodes:
            e = (-2 * s * (dec(horizon) - dec(float(t)))).exp()
            out.append(float(r1 * r2 * (1 - e) / (r2 - r1 * e)))
    return np.array(out)


class FollowerClosedForm:
    """Analytic follower quantities for constant coefficients."""

    def __init__(self, a_drift, b_control, sigma, q_track, r_control, horizon):
        self.alpha = 2.0 * b_control**2 / r_control
        self.beta = -2.0 * a_drift
        self.gamma = -0.5 * q_track
        self.a_drift = a_drift
        self.q_track = q_track
        self.horizon = horizon

    def a(self, t):
        return riccati_constant_solution(self.alpha, self.beta, self.gamma, self.horizon, t)

    def cum_f(self, t):
        cum_a = riccati_constant_integral(self.alpha, self.beta, self.gamma, self.horizon, t)
        return self.a_drift * np.asarray(t, dtype=float) - self.alpha * cum_a

    def f(self, t):
        return self.a_drift - self.alpha * self.a(t)

    def weight(self, t):
        return self.q_track * np.exp(self.cum_f(t))

    def decay(self, t):
        return np.exp(-2.0 * self.cum_f(t))

    def decay_l1(self, n_quad: int = 200_001) -> float:
        """Integral of the decay kernel over [0, T] by dense Simpson."""
        t = np.linspace(0.0, self.horizon, n_quad)
        return float(simpson(self.decay(t), t[1] - t[0]))


def simpson(values: np.ndarray, h: float) -> float:
    n = len(values) - 1
    if n % 2 != 0:
        raise ValueError("simpson needs an even interval count")
    return (h / 3.0) * (
        values[0]
        + values[-1]
        + 4.0 * np.sum(values[1:-1:2])
        + 2.0 * np.sum(values[2:-2:2])
    )


def leader_system_fine(
    follower_cf: FollowerClosedForm,
    a_leader,
    b_leader,
    sigma_leader,
    q_leader,
    r_leader,
    q_terminal,
    inference_weight,
    noise_to_signal,
    target_amp,
    target_omega,
    horizon,
    n_steps,
):
    """Backward RK4 for the leader's augmented system with analytic coefficients.

    Runs a plain-float loop over the ten independent components (six of the
    symmetric quadratic block, three linear, one offset); coefficient values
    at every stage time come from the closed forms, so the scheme keeps full
    fourth order. Returns (quad(0) as 3x3, lin(0) as 3-vector, offset(0)).
    """
    lam_s = 0.0 if inference_weight == 0.0 else inference_weight / noise_to_signal
    gain = 2.0 * b_leader**2 / r_leader
    half_q = 0.5 * q_leader
    sig2 = sigma_leader**2
    b2_over_2r = b_leader**2 / (2.0 * r_leader)
    a_l = a_leader
    q_l = q_leader

    # Analytic coefficient values at every node and half-node, precomputed
    # vectorized so the sequential loop is pure float arithmetic.
    cf = follower_cf
    stage_t = np.linspace(0.0, horizon, 2 * n_steps + 1)
    w_all = cf.weight(stage_t).tolist()
    d_all = cf.decay(stage_t).tolist()
    f_all = (target_amp * np.sin(target_omega * stage_t)).tolist()

    f_T = f_all[-1]
    decay_l1 = cf.decay_l1()
    y = (
        0.5 * q_terminal, 0.0, 0.0,
        -lam_s * decay_l1, lam_s, 0.0,
        -q_terminal * f_T, 0.0, 0.0,
        0.5 * q_terminal * f_T * f_T,
    )
    h = horizon / n_steps
    h6 = h / 6.0
    half_h = 0.5 * h

    def rhs(y, w, d, ft):
        l11, l12, l13, l22, l23, l33, m1, m2, m3, _ = y
        return (
            -2.0 * (l11 * a_l - l12 * w) + gain * l11 * l11 - half_q,
            -(l13 * d + l12 * a_l - l22 * w) + gain * l11 * l12,
            -(l13 * a_l - l23 * w) + gain * l11 * l13,
            -2.0 * l23 * d + gain * l12 * l12 + lam_s * d,
            -l33 * d + gain * l12 * l13,
            gain * l13 * l13,
            -a_l * m1 + w * m2 + gain * l11 * m1 + q_l * ft,
            -d * m3 + gain * l12 * m1,
            gain * l13 * m1,
            b2_over_2r * m1 * m1 - sig2 * l11 - half_q * ft * ft,
        )

    for j in range(n_steps - 1, -1, -1):
        ir, im, il = 2 * j + 2, 2 * j + 1, 2 * j
        w_r, w_m, w_l = w_all[ir], w_all[im], w_all[il]
        d_r, d_m, d_l = d_all[ir], d_all[im], d_all[il]
        f_r, f_m, f_l = f_all[ir], f_all[im], f_all[il]
        k1 = rhs(y, w_r, d_r, f_r)
        yk = (y[0] - half_h * k1[0], y[1] - half_h * k1[1], y[2] - half_h * k1[2],
              y[3] - half_h * k1[3], y[4] - half_h * k1[4], y[5] - half_h * k1[5],
              y[6] - half_h * k1[6], y[7] - half_h * k1[7], y[8] - half_h * k1[8],
              y[9] - half_h * k1[9])
        k2 = rhs(yk, w_m, d_m, f_m)
        yk = (y[0] - half_h * k2[0], y[1] - half_h * k2[1], y[2] - half_h * k2[2],
              y[3] - half_h * k2[3], y[4] - half_h * k2[4], y[5] - half_h * k2[5],
              y[6] - half_h * k2[6], y[7] - half_h * k2[7], y[8] - half_h * k2[8],
              y[9] - half_h * k2[9])
        k3 = rhs(yk, w_m, d_m, f_m)
        yk = (y[0] - h * k3[0], y[1] - h * k3[1], y[2] - h * k3[2],
              y[3] - h * k3[3], y[4] - h * k3[4], y[5] - h * k3[5],
              y[6] - h * k3[6], y[7] - h * k3[7], y[8] - h * k3[8],
              y[9] - h * k3[9])
        k4 = rhs(yk, w_l, d_l, f_l)
        y = tuple(
            y[i] - h6 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(10)
        )
    l11, l12, l13, l22, l23, l33, m1, m2, m3, off = y
    quad0 = np.array([[l11, l12, l13], [l12, l22, l23], [l13, l23, l33]])
    return quad0, np.array([m1, m2, m3]), off


def ou_mean_variance(x0, f_vals, drive_vals, sigma, grid_nodes):
    """Closed-form mean/variance of a linear SDE dX = (f X + drive) dt + sigma dW.

    Evaluated at the final time by fine trapezoid over the supplied nodes
    (which should be much denser than the grid under test).
    """
    h = grid_nodes[1] - grid_nodes[0]
    cum_f = np.concatenate([[0.0], np.cumsum(0.5 * h * (f_vals[1:] + f_vals[:-1]))])
    growth_to_end = np.exp(cum_f[-1] - cum_f)
    mean = x0 * growth_to_end[0] + np.trapezoid(growth_to_end * drive_vals, dx=h)
    var = sigma**2 * np.trapezoid(growth_to_end**2, dx=h)
    return float(mean), float(var)


def trapezoid_primary_cost(x_vals, u_vals, target_vals, q_track, r_control, q_terminal, h):
    """Primary cost of a node path, written independently of the library.

    Same trapezoid semantics, different code path (numpy's own trapezoid),
    so agreement checks the library's accumulation, weights and terminal
    handling rather than restating them.
    """
    integrand = 0.5 * q_track * (np.asarray(x_vals) - np.asarray(target_vals)) ** 2
    integrand = integrand + 0.5 * r_control * np.asarray(u_vals) ** 2
    run = float(np.trapezoid(integrand, dx=h))
    return run + 0.5 * q_terminal * (x_vals[-1] - target_vals[-1]) ** 2


# ---------------------------------------------------------------------------
# Per-step reference loops. These are the library's former per-node
# implementations, kept verbatim so the blocked recurrence and the
# Python-float RK4 solvers can be gated against them.


def affine_recurrence_loop(a, c, y0):
    """y[:, j+1] = a[j] @ y[:, j] + c[:, j], one step at a time."""
    n = a.shape[0]
    y = np.empty((c.shape[0], n + 1, a.shape[1]))
    y[:, 0] = y0
    for j in range(n):
        y[:, j + 1] = y[:, j] @ a[j].T + c[:, j]
    return y


def _apply(m, v):
    out = m[..., 0] * v[..., :1]
    for s in range(1, v.shape[-1]):
        out += m[..., s] * v[..., s : s + 1]
    return out


def affine_scan_inline_blocks(a, c, y0):
    """The blocked affine recurrence with its block partition and transfer maps
    written inline, as it was before the library shared them with the leader's
    Riccati solve. The library's version must equal it bit for bit."""
    n, k, _ = a.shape
    n_paths = c.shape[0]
    size = math.isqrt(n)
    n_blocks = n // size
    m = n_blocks * size
    y = np.empty((n_paths, n + 1, k))
    y[:, 0] = y0
    a_blk = a[:m].reshape(n_blocks, size, k, k)
    c_blk = c[:, :m].reshape(n_paths, n_blocks, size, k)
    z = y[:, 1 : m + 1].reshape(n_paths, n_blocks, size, k)
    phi = np.empty((n_blocks, size, k, k))
    z[:, :, 0] = c_blk[:, :, 0]
    phi[:, 0] = a_blk[:, 0]
    for i in range(1, size):
        z[:, :, i] = _apply(a_blk[:, i], z[:, :, i - 1]) + c_blk[:, :, i]
        phi[:, i] = a_blk[:, i] @ phi[:, i - 1]
    start = np.empty((n_paths, n_blocks, k))
    start[:, 0] = y0
    for b in range(1, n_blocks):
        start[:, b] = _apply(phi[b - 1, -1], start[:, b - 1]) + z[:, b - 1, -1]
    for s in range(k):
        z += phi[..., s] * start[:, :, None, s : s + 1]
    for j in range(m, n):
        y[:, j + 1] = _apply(a[j], y[:, j]) + c[:, j]
    return y


def leader_batch_loop(leader, coeffs, policy, grid, shocks):
    """Euler loop over nodes with one policy session call per node.

    Returns (x, aux, aux2, controls).
    """
    n_paths = shocks.shape[0]
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
            raise ValueError(f"non-finite control at node {j}")
        controls[:, j] = u
        x[:, j + 1] = x[:, j] + (a_l * x[:, j] + b_l * u) * h + sig * sqrt_h * shocks[:, j]
        aux[:, j + 1] = aux[:, j] - 0.5 * h * (w[j] * x[:, j] + w[j + 1] * x[:, j + 1])
        aux2[:, j + 1] = aux2[:, j] + 0.5 * h * (d[j] * aux[:, j] + d[j + 1] * aux[:, j + 1])
    u = np.asarray(session.controls(n, x, aux[:, n], aux2[:, n]), dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"non-finite control at node {n}")
    controls[:, n] = u
    return x, aux, aux2, controls


def follower_batch_loop(model, fr, b, grid, shocks, mode, tables=None):
    """Per-step Euler or exact-transition follower loop.

    ``tables`` is (e_step, drift_step, var_step) for the exact mode.
    """
    n_paths, n = shocks.shape
    h = grid.h
    x = np.empty((n_paths, n + 1))
    x[:, 0] = model.x0
    sig = model.sigma
    if mode == "euler":
        sqrt_h = math.sqrt(h)
        f, gain = fr.f, model.gain_sq_over_r
        for j in range(n):
            drift = f[j] * x[:, j] - gain * b[j]
            x[:, j + 1] = x[:, j] + drift * h + sig * sqrt_h * shocks[:, j]
    else:
        e_step, drift_step, var_step = tables
        noise_scale = sig * np.sqrt(var_step)
        for j in range(n):
            x[:, j + 1] = x[:, j] * e_step[j] - drift_step[j] + noise_scale[j] * shocks[:, j]
    return x


def _interp_mid(values):
    return 0.5 * (values[:-1] + values[1:])


def follower_a_loop(model, grid):
    """Backward RK4 for the follower's scalar Riccati coefficient, one stage call each.

    Raises ValueError(t) where the solution overflows.
    """
    alpha = 2.0 * model.gain_sq_over_r
    two_drift = 2.0 * model.a_drift
    half_q = 0.5 * model.q_track

    def rhs(a):
        return alpha * a * a - two_drift * a - half_q

    h = grid.h
    y = 0.0
    values = [y]
    for j in range(grid.n_steps - 1, -1, -1):
        k1 = rhs(y)
        k2 = rhs(y - 0.5 * h * k1)
        k3 = rhs(y - 0.5 * h * k2)
        k4 = rhs(y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y):
            raise ValueError(float(grid.nodes[j]))
        values.append(y)
    return np.array(values[::-1])


def follower_bc_loop(fr, model, x_leader):
    """Backward RK4 for the follower's (b, c) pair with numpy-scalar arithmetic."""
    grid = fr.grid
    x = x_leader.values
    a = fr.a
    x_mid = _interp_mid(x)
    a_mid = _interp_mid(a)
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
    b = np.empty(n + 1)
    c = np.empty(n + 1)
    b[n] = 0.0
    c[n] = 0.0
    yb, yc = 0.0, 0.0
    for j in range(n - 1, -1, -1):
        a_r, a_m, a_l = a[j + 1], a_mid[j], a[j]
        x_r, x_m, x_l = x[j + 1], x_mid[j], x[j]
        kb1, kc1 = rhs(a_r, x_r, yb, yc)
        kb2, kc2 = rhs(a_m, x_m, yb - 0.5 * h * kb1, yc - 0.5 * h * kc1)
        kb3, kc3 = rhs(a_m, x_m, yb - 0.5 * h * kb2, yc - 0.5 * h * kc2)
        kb4, kc4 = rhs(a_l, x_l, yb - h * kb3, yc - h * kc3)
        yb = yb - (h / 6.0) * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
        yc = yc - (h / 6.0) * (kc1 + 2.0 * kc2 + 2.0 * kc3 + kc4)
        b[j] = yb
        c[j] = yc
    return b, c


def leader_system_loop(leader, follower, coeffs, blow_up_threshold=1e12):
    """Backward RK4 for the leader's augmented system with numpy-scalar arithmetic.

    Returns (quad, lin, offset); raises ValueError(blow_up_time) on blow-up.
    """
    grid = coeffs.grid
    n = grid.n_steps
    h = grid.h
    nodes = grid.nodes
    T = grid.horizon
    if follower.sigma == 0.0 and leader.inference_weight == 0.0:
        lam_s = 0.0
    else:
        lam_s = leader.inference_weight / follower.noise_to_signal
    a_l = leader.a_drift
    gain = 2.0 * leader.b_control**2 / leader.r_control
    half_q = 0.5 * leader.q_track
    q_track = leader.q_track
    sig2 = leader.sigma**2
    b2_over_2r = leader.b_control**2 / (2.0 * leader.r_control)
    w = coeffs.weight
    d = coeffs.decay
    w_mid = _interp_mid(w)
    d_mid = _interp_mid(d)
    f_nodes = leader.target_at(nodes, T)
    f_mid = leader.target_at(0.5 * (nodes[:-1] + nodes[1:]), T)

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

    f_T = float(f_nodes[-1])
    y = (
        0.5 * leader.q_terminal, 0.0, 0.0,
        -lam_s * coeffs.decay_l1, lam_s, 0.0,
        -leader.q_terminal * f_T, 0.0, 0.0,
        0.5 * leader.q_terminal * f_T * f_T,
    )
    quad = np.empty((n + 1, 3, 3))
    lin = np.empty((n + 1, 3))
    offset = np.empty(n + 1)

    def store(j, state):
        l11, l12, l13, l22, l23, l33, m1, m2, m3, nn = state
        quad[j] = ((l11, l12, l13), (l12, l22, l23), (l13, l23, l33))
        lin[j] = (m1, m2, m3)
        offset[j] = nn

    store(n, y)
    for j in range(n - 1, -1, -1):
        w_r, w_m, w_l = w[j + 1], w_mid[j], w[j]
        d_r, d_m, d_l = d[j + 1], d_mid[j], d[j]
        f_r, f_m, f_l = f_nodes[j + 1], f_mid[j], f_nodes[j]
        k1 = rhs(y, w_r, d_r, f_r)
        k2 = rhs(tuple(yi - 0.5 * h * ki for yi, ki in zip(y, k1)), w_m, d_m, f_m)
        k3 = rhs(tuple(yi - 0.5 * h * ki for yi, ki in zip(y, k2)), w_m, d_m, f_m)
        k4 = rhs(tuple(yi - h * ki for yi, ki in zip(y, k3)), w_l, d_l, f_l)
        y = tuple(
            yi - (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            for yi, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)
        )
        peak = max(abs(v) for v in y[:6])
        if not math.isfinite(peak) or peak > blow_up_threshold:
            raise ValueError(float(nodes[j]))
        store(j, y)
    return quad, lin, offset


# ---------------------------------------------------------------------------
# The leader's Hamiltonian solve as it ran before the block-end carry moved
# to Python floats: every block's rows are formed on their own from the
# previous block's last row, through one ``_hamiltonian_rows`` call per
# block. ``_leader_hamiltonian`` and ``_hamiltonian_rows`` are kept verbatim;
# the blocked products and the blow-up rule are the library's.

# Steps whose propagators are formed at once.
_CHUNK_STEPS = 1024


def leader_system_blocked(leader, follower, coeffs):
    """(quad, lin, offset) of the leader system with a per-block restart.

    Prepares the terminal row and target values as ``solve_leader_system``
    does, and raises ``BlowUpError`` by the same rule.
    """
    from stackinfer.riccati import scaled_info_weight

    grid = coeffs.grid
    nodes = grid.nodes
    T = grid.horizon
    lam_s = scaled_info_weight(leader, follower)
    f_nodes = leader.target_at(nodes, T)
    f_mid = leader.target_at(0.5 * (nodes[:-1] + nodes[1:]), T)
    f_T = float(f_nodes[-1])
    terminal = (
        0.5 * leader.q_terminal, 0.0, 0.0,
        -lam_s * coeffs.decay_l1, lam_s, 0.0,
        -leader.q_terminal * f_T, 0.0, 0.0,
        0.5 * leader.q_terminal * f_T * f_T,
    )
    table = _leader_hamiltonian(leader, lam_s, coeffs, f_nodes, f_mid, terminal)
    quad = table[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(grid.n_nodes, 3, 3)
    return quad, table[:, 6:9], table[:, 9]


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
    from stackinfer.core import block_transfer_maps
    from stackinfer.riccati import _blow_up, _past_blow_up

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


# ---------------------------------------------------------------------------
# The trapezoid helpers, the score / cost functionals and the continuous
# estimator as path-major one-line expressions: forward sums for the score's
# tail and np.sum along each row for every total, the forms the library had
# before it summed the tail back from T and every total in a pairwise tree
# of rows (``core.trapz_step_major``).


def cumtrapz_one_line(values, grid):
    v = np.asarray(values, dtype=float)
    inner = np.cumsum((v[..., 1:] + v[..., :-1]) * (0.5 * grid.h), axis=-1)
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), inner], axis=-1)


def trapz_one_line(values, grid):
    v = np.asarray(values, dtype=float)
    out = np.sum((v[..., 1:] + v[..., :-1]) * (0.5 * grid.h), axis=-1)
    return float(out) if out.ndim == 0 else out


def compute_g_batch_one_line(fr, model, x_leader):
    x = np.atleast_2d(np.asarray(x_leader, dtype=float))
    cw = cumtrapz_one_line(np.exp(fr.cum_f)[None, :] * x, fr.grid)
    g = -model.q_track * np.exp(-fr.cum_f)[None, :] * (cw[:, -1:] - cw)
    return g, np.atleast_1d(trapz_one_line(g * g, fr.grid))


def mle_continuous_batch_one_line(x_paths, gp, fr, model):
    x = np.atleast_2d(np.asarray(x_paths, dtype=float))
    drift = trapz_one_line(fr.f * gp.g * x, fr.grid)
    ito = np.sum(np.diff(x, axis=1) * gp.g[:-1], axis=1)
    return (drift - ito) / (model.gain_sq_over_r * gp.precision)


def precision_from_aux(coeffs, aux, aux2):
    """Precision integral from the auxiliary states (quadratic expansion).

    int g^2 = aux_T^2 * int decay - 2 aux_T aux2_T + int decay * aux^2,
    exact on the grid in exact arithmetic, because every integral shares the
    trapezoid weights. In floating point the three terms cancel: over 300
    drawn models (horizons up to 3, up to 1500 steps) it was up to 3.4e-8
    relative off ``compute_g_batch``, where the trapezoid of g^2 that
    ``leader_batch_stats`` takes stayed within 2.9e-12. So it checks the
    identity and is not the evaluator.
    """
    aux = np.atleast_2d(aux)
    aux2 = np.atleast_2d(aux2)
    tail = trapz_one_line(coeffs.decay[None, :] * aux * aux, coeffs.grid)
    return aux[:, -1] ** 2 * coeffs.decay_l1 - 2.0 * aux[:, -1] * aux2[:, -1] + tail


def primary_cost_batch_one_line(leader, grid, x, controls):
    target = leader.target_at(grid.nodes, grid.horizon)
    run = 0.5 * leader.q_track * (x - target[None, :]) ** 2
    run += 0.5 * leader.r_control * controls**2
    cost = trapz_one_line(run, grid) + 0.5 * leader.q_terminal * (x[:, -1] - target[-1]) ** 2
    return np.atleast_1d(cost)


# ---------------------------------------------------------------------------
# Paper identities no study reads: the follower's realized cost, its optimal
# policy's moments and the quadratic-variation noise estimate. The value
# constant c these checks need comes from ``follower_bc_loop``.


def evaluate_follower_cost(model, fpath, x_leader, fr, b):
    """Realized follower cost along one path under its optimal policy.

    The control second moment and the entropy term use the closed Gaussian
    forms of the optimal policy (mean -(b_F/r_F)(2 a x + b), variance
    entropy_weight/r_F), so only the state path is random.
    """
    if fpath.grid != x_leader.grid:
        raise ValueError("leader trajectory lives on a different grid")
    x = fpath.x
    lam, r = model.entropy_weight, model.r_control
    mean = -(model.b_control / r) * (2.0 * fr.a * x + b)
    track = 0.5 * model.q_track * (x - model.dilation * x_leader.values) ** 2
    effort = 0.5 * r * (mean**2 + lam / r)
    neg_entropy = -0.5 * math.log(2.0 * math.pi * math.e * lam / r)
    integrand = track + effort + lam * neg_entropy
    return trapz_one_line(integrand, fpath.grid)


@dataclass(frozen=True)
class FollowerPolicyLaw:
    """The follower's optimal randomized policy: Gaussian with affine mean."""

    model: object
    fr: object
    b: np.ndarray

    def moments(self, j: int, x: float) -> tuple[float, float]:
        """Mean and (state-independent) variance of the policy at node j and state x."""
        if j < 0 or j >= self.fr.grid.n_nodes:
            raise ValueError(f"node index {j} outside the grid")
        m = self.model
        mean = -(m.b_control / m.r_control) * (2.0 * self.fr.a[j] * x + self.b[j])
        return mean, m.entropy_weight / m.r_control


def sigma_quadratic_variation(fpath) -> float:
    """Noise-level estimate from the path's quadratic variation over [0, T]."""
    dx = np.diff(fpath.x)
    return float(dx @ dx) / fpath.grid.horizon


# The tradeoff sweep's per-arm moment evaluator: one arm per call, its
# responses and path 0 stepped through ``simulate_leader_batch``'s node loop,
# and aux_T - aux summed back from x inline. The gate for the stacked one.


def leader_mean_stats_per_arm(
    leader: LeaderModel,
    coeffs: DerivedCoefficients,
    fr: FollowerRiccati,
    policy,
    grid: TimeGrid,
    mean: np.ndarray,
    second: np.ndarray,
    shocks: np.ndarray,
) -> tuple[LeaderEnsemble, float, float]:
    """Mean precision and primary cost over shocks of sample mean ``mean``
    and second moment ``second``, under an affine law (``policy.gains``).

    The law makes the leader's state an affine function of a path's shocks
    eps, so each node's precision, tracking and control integrand is
    (v0_j + G_j . eps)^2, and its mean over paths is
    (v0_j + G_j . m)^2 + G_j^T (S - m m^T) G_j, the expansion of
    v0_j^2 + 2 v0_j (G_j . m) + G_j^T S G_j that keeps a lone path's
    value free of cancellation. One batch of n_steps + 1 + len(shocks)
    rows gives v0 and G: a zero row, one unit impulse per step (G is each
    impulse row less the zero row), then the rows of ``shocks``. That
    batch has more rows than steps, so ``simulate_leader_batch`` steps it.
    Returns (ensemble, mean precision, mean primary cost); the ensemble's
    last rows are the paths of ``shocks``. (m, S) = (0, I) gives the exact
    expectations of the grid's Euler scheme.
    """
    from stackinfer.core import trapz_step_major
    from stackinfer.simulate import _mean_square, simulate_leader_batch

    n = grid.n_steps
    rows = np.zeros((n + 1 + len(shocks), n))
    np.fill_diagonal(rows[1:], 1.0)
    rows[n + 1 :] = shocks
    ens = simulate_leader_batch(leader, coeffs, policy, grid, rows)
    x, u = ens.x[: n + 1].T, ens.controls[: n + 1].T  # the response rows, step-major
    # aux_T - aux, summed back from T over aux's trapezoid steps, so each
    # node's value rounds with its own size rather than with aux's.
    steps = coeffs.weight[:-1, None] * x[:-1] + coeffs.weight[1:, None] * x[1:]
    steps *= -0.5 * grid.h
    tail = np.zeros((n + 1, n + 1))
    tail[:-1] = np.cumsum(steps[::-1], axis=0)[::-1]
    target = leader.target_at(grid.nodes, grid.horizon)
    cov = second - np.outer(mean, mean)
    # Per-node mean squares of the precision's integrand, the tracking error
    # and the control, one column each.
    nodes = np.column_stack([
        _mean_square(np.exp(-fr.cum_f)[:, None] * tail, mean, cov),
        _mean_square(x - target[:, None], mean, cov),
        _mean_square(u, mean, cov),
    ])
    terminal = 0.5 * leader.q_terminal * nodes[-1, 1]  # before the trapezoid halves it
    precision, track, effort = trapz_step_major(nodes, grid)
    j_primary = 0.5 * (leader.q_track * track + leader.r_control * effort) + terminal
    return ens, float(precision), float(j_primary)


# ---------------------------------------------------------------------------
# Per-arm study loops: the tradeoff sweep and the estimator study as they ran
# before the studies drew each chunk's shocks once for all arms. Every ratio
# or weight draws its own rows, chunk by chunk. The sweep takes each path's
# precision and cost from the library's evaluator, and the estimator study
# its score from ``compute_g``. They call the library's solvers, simulators,
# evaluator and estimators, which loop order does not touch.


def _chunks(n, rows):
    for start in range(0, n, rows):
        yield start, min(start + rows, n)


def tradeoff_sweep_per_arm(cfg, chunk_rows):
    """(sweep rows, trajectory rows) of the tradeoff sweep, one ratio at a time."""
    import stackinfer as si
    from stackinfer.core import STREAM_FOLLOWER, STREAM_LEADER
    from stackinfer.simulate import leader_batch_stats

    lam = cfg.leader["inference_weight"]
    grid = cfg.build_grid()
    follower = cfg.build_follower()
    fr = si.solve_follower_a(follower, grid)
    coeffs = si.compute_coefficients(fr, follower)
    rng = si.RngContract(cfg.master_seed)
    n_paths = cfg.study["n_paths"]
    rows, traj_rows = [], []
    for ratio in cfg.study["ratios"]:
        lm = cfg.build_leader(grid, q_track=ratio * lam)
        policy = si.RiccatiPolicy(lm, si.solve_leader_system([lm], follower, coeffs)[0])
        precision, j_p = np.empty(n_paths), np.empty(n_paths)
        for start, stop in _chunks(n_paths, chunk_rows):
            shocks = rng.normal_matrix(stop - start, grid.n_steps, STREAM_LEADER, start)
            ens, precision[start:stop], j_p[start:stop], _ = leader_batch_stats(
                lm, follower, coeffs, fr, policy, grid, shocks
            )
            if start == 0:
                x_path, controls = ens.x[0].copy(), ens.controls[0].copy()
        rows.append([ratio, lam, ratio * lam, float(np.mean(precision)) / follower.noise_to_signal,
                     float(np.mean(j_p)), n_paths, cfg.master_seed])
        [b] = si.solve_follower_bc(fr, follower, [si.Trajectory(grid=grid, values=x_path)])
        fshocks = rng.normal_matrix(1, grid.n_steps, STREAM_FOLLOWER, 0)
        xf = si.simulate_follower_batch(follower, fr, b, grid, fshocks)[0]
        target = lm.target_at(grid.nodes, grid.horizon)
        for j in range(grid.n_nodes):
            traj_rows.append([ratio, j, grid.nodes[j], x_path[j], controls[j], xf[j], target[j]])
    return rows, traj_rows


def estimator_study_per_arm(cfg, chunk_rows):
    """(estimator rows, bias-curve rows) of the estimator study, one weight at
    a time, every replay simulated and estimated."""
    import stackinfer as si
    from stackinfer.core import STREAM_FOLLOWER, STREAM_LEADER

    grid = cfg.build_grid()
    follower = cfg.build_follower()
    fr = si.solve_follower_a(follower, grid)
    coeffs = si.compute_coefficients(fr, follower)
    rng = si.RngContract(cfg.master_seed)
    n_replays = cfg.study["n_replays"]
    path_index = cfg.study["path_seed_index"]
    checkpoints = np.unique(np.round(np.logspace(1, math.log10(n_replays), 20)).astype(int))
    rows, curve_rows = [], []
    for lam in cfg.study["inference_weights"]:
        lm = cfg.build_leader(grid, inference_weight=lam)
        policy = si.RiccatiPolicy(lm, si.solve_leader_system([lm], follower, coeffs)[0])
        lshocks = rng.normal_matrix(1, grid.n_steps, STREAM_LEADER, path_index)
        x_leader = si.Trajectory(
            grid=grid, values=si.simulate_leader_batch(lm, coeffs, policy, grid, lshocks).x[0]
        )
        gp = si.compute_g(fr, follower, x_leader)
        [b] = si.solve_follower_bc(fr, follower, [x_leader])
        m_hats = np.empty(n_replays)
        for start, stop in _chunks(n_replays, chunk_rows):
            shocks = rng.normal_matrix(stop - start, grid.n_steps, STREAM_FOLLOWER, start)
            xs = si.simulate_follower_batch(follower, fr, b, grid, shocks)
            m_hats[start:stop] = si.mle_continuous_batch(xs, gp, fr, follower)
        # The exact conditional law by the same route: the estimates on the
        # zero row and on one unit impulse per step are m0 and m0 + c_i.
        impulses = np.vstack([np.zeros(grid.n_steps), np.eye(grid.n_steps)])
        response = si.mle_continuous_batch(
            si.simulate_follower_batch(follower, fr, b, grid, impulses), gp, fr, follower
        )
        c = response[1:] - response[0]
        rows.append([lam, gp.precision, float(np.mean(m_hats)) - follower.dilation,
                     float(np.std(m_hats, ddof=1) / math.sqrt(n_replays)),
                     float(np.var(m_hats, ddof=1)), follower.noise_to_signal / gp.precision,
                     response[0] - follower.dilation, float(np.sum(c * c)),
                     n_replays, cfg.master_seed])
        running = np.cumsum(m_hats) / np.arange(1, n_replays + 1)
        for n_used in checkpoints:
            curve_rows.append([lam, int(n_used), running[n_used - 1] - follower.dilation])
    return rows, curve_rows
