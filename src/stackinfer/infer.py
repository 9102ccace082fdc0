"""Estimation of the follower's hidden dilation factor.

The continuous-observation estimator is the ratio of a drift-corrected
integral against the score profile g to the precision integral of g^2, g
and its precision being ``simulate.compute_g``'s; the stochastic integral
uses left-endpoint (Ito) sums, the drift integral the trapezoid rule in the
pairwise tree every total over the grid is summed in
(``core.trapz_step_major``). Multi-period aggregation weights per-episode
estimates by their precisions and admits an online update. Discrete
observations get a joint estimator of the dilation factor and the noise
level built from exact one-step transition quantities. Each estimator is
written once, over rows of paths; a single path is a one-row call. On one
leader path the continuous estimate of an Euler follower path is affine in
the path's shocks, and ``_replay_law`` gives that map exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DegeneratePathError,
    FollowerModel,
    InvalidArgumentError,
    _affine_scan,
    trapz_step_major,
)
from .riccati import FollowerRiccati
from .simulate import (
    FISHER_FLOOR,
    SUB_NODES,
    FollowerPath,
    GProfile,
    _euler_tables,
    _follower_nodes,
    _informative,
    _sub_step_integrals,
)


@dataclass(frozen=True)
class MleReport:
    """Point estimate of the dilation factor on one follower path, with the
    precision integral of the score profile it was formed on."""

    m_hat: float
    precision: float


@dataclass(frozen=True)
class MultiPeriodState:
    """Running precision-weighted aggregate over completed episodes."""

    total_precision: float
    m_bar: float
    history: tuple  # ((m_hat, precision), ...)

    @staticmethod
    def empty() -> "MultiPeriodState":
        return MultiPeriodState(total_precision=0.0, m_bar=0.0, history=())


@dataclass(frozen=True)
class DiscreteObservations:
    """Follower values observed at increasing times within [0, T]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("need at least 2 observation times")
        if np.any(np.diff(times) <= 0):
            raise InvalidArgumentError("observation times must be strictly increasing")
        values = np.asarray(self.values, dtype=float)
        if values.shape != times.shape:
            raise InvalidArgumentError("times and values must have equal length")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))


@dataclass(frozen=True)
class DiscreteJointEstimate:
    """``mle_discrete_joint``'s estimate of the dilation factor and noise variance."""

    m_hat: float
    sigma2_hat: float


def _check_precision(precision: float, model: FollowerModel, what: str = "precision"):
    """A path whose Fisher information is at or below ``FISHER_FLOOR``
    carries no information (``simulate._informative``)."""
    if not _informative(precision, model):
        raise DegeneratePathError(
            f"{what} {precision:.3g} is below the floor "
            f"{FISHER_FLOOR * model.noise_to_signal:.3g} (Fisher information "
            f"{FISHER_FLOOR:.3g} times noise_to_signal)"
        )


def mle_continuous_batch(
    x_paths: np.ndarray, gp: GProfile, fr: FollowerRiccati, model: FollowerModel
) -> np.ndarray:
    """Dilation estimates for each follower path row on one fixed leader path."""
    x = np.atleast_2d(np.asarray(x_paths, dtype=float, order="C"))
    if x.shape[1] != fr.grid.n_nodes:
        raise InvalidArgumentError(f"paths must have {fr.grid.n_nodes} columns")
    _check_precision(gp.precision, model)
    drift = trapz_step_major(np.multiply((fr.f * gp.g)[:, None], x.T, order="C"), fr.grid)
    # Not a matrix-vector product: its (BLAS) result depends on the row count.
    # x is C-ordered, so np.sum adds each row pairwise whatever the input's layout.
    ito = np.sum(np.diff(x, axis=1) * gp.g[:-1], axis=1)
    return (drift - ito) / (model.gain_sq_over_r * gp.precision)


def _replay_law(
    model: FollowerModel, fr: FollowerRiccati, b: np.ndarray, gp: GProfile
) -> tuple[float, np.ndarray]:
    """(m0, c) such that ``mle_continuous_batch`` on the Euler follower path
    driven by a row of shocks eps is m0 + c . eps, exactly in exact
    arithmetic, for one leader path: the follower's ``b`` and score
    profile ``gp``.

    The Euler follower (``simulate._euler_tables``) is affine in its shocks
    and the estimator linear in the path, sum_j ell_j x_j / (gain *
    precision), ell_j being the trapezoid drift weight h f_j g_j (halved at
    the ends) less the Ito sums' weight g_{j-1} - g_j on x_j. m0 is the
    estimate on the path with zero shocks, which draws none. c comes from
    one backward (adjoint) pass, lam_j = ell_j + (1 + f_j h) lam_{j+1} from
    lam_n = ell_n, solved by ``core._affine_scan`` as one reversed system
    of width 1; then c_i = sigma sqrt(h) lam_{i+1} / (gain * precision).
    """
    grid = fr.grid
    b = np.asarray(b, dtype=float)
    if b.shape != (grid.n_nodes,) or gp.grid != grid:
        raise InvalidArgumentError(f"b and the score profile must have {grid.n_nodes} nodes")
    mult, drift, var = _euler_tables(model, fr, b, grid)
    x0 = _follower_nodes(model, (mult, drift, var), np.zeros((1, grid.n_steps)), 1)
    m0 = float(mle_continuous_batch(x0, gp, fr, model)[0])
    g = gp.g
    lam = grid.h * fr.f * g
    lam[[0, -1]] *= 0.5
    lam[:-1] += g[:-1]
    lam[1:] -= g[:-1]
    _affine_scan(mult[::-1, None, None], lam[::-1, None, None], 1)
    return m0, model.sigma * np.sqrt(var) / (model.gain_sq_over_r * gp.precision) * lam[1:]


def mle_continuous(
    fpath: FollowerPath,
    gp: GProfile,
    fr: FollowerRiccati,
    model: FollowerModel,
) -> MleReport:
    """Estimate the dilation factor from one continuously observed path:
    ``mle_continuous_batch`` on its one row."""
    if fpath.grid != fr.grid or gp.grid != fr.grid:
        raise InvalidArgumentError("path, score profile and solver grids must agree")
    m_hat = mle_continuous_batch(fpath.x[None, :], gp, fr, model)[0]
    return MleReport(m_hat=float(m_hat), precision=gp.precision)


def multi_period_update(state: MultiPeriodState, report: MleReport) -> MultiPeriodState:
    """Fold one episode's estimate into the precision-weighted aggregate."""
    if report.precision <= 0.0:
        raise InvalidArgumentError("cannot aggregate a degenerate episode")
    total = state.total_precision + report.precision
    ratio = state.total_precision / total
    m_bar = ratio * state.m_bar + (1.0 - ratio) * report.m_hat
    return MultiPeriodState(
        total_precision=total,
        m_bar=m_bar,
        history=state.history + ((report.m_hat, report.precision),),
    )


def realized_variance_proxy(state: MultiPeriodState, model: FollowerModel) -> float:
    """Plug-in conditional variance of the aggregate on realized precision."""
    if not state.history:
        raise InvalidArgumentError("no episodes aggregated yet")
    return model.noise_to_signal / state.total_precision


def stopping_rule(state: MultiPeriodState, threshold: float, model: FollowerModel) -> bool:
    """True once the realized variance proxy falls to the threshold.

    The rule plugs realized precision into the conditional-variance formula;
    the population expectation of the reciprocal precision is not observable
    online.
    """
    if threshold <= 0.0:
        raise InvalidArgumentError("threshold must be positive")
    return realized_variance_proxy(state, model) <= threshold


def _interval_tables(t: np.ndarray, fr: FollowerRiccati, gp: GProfile):
    """Transition factor, score integral and variance integral per interval.

    All three are sub-quadrature approximations of integrals of exp of the
    running integral of f against the score profile, with f and g linearly
    interpolated from their grid arrays.
    """
    grid = fr.grid
    if t[0] < -1e-12 or t[-1] > grid.horizon + 1e-12:
        raise InvalidArgumentError("observation times outside the solver horizon")
    left = t[:-1]
    width = np.diff(t)
    frac = np.linspace(0.0, 1.0, SUB_NODES + 1)
    u = left[:, None] + width[:, None] * frac[None, :]
    f_sub = np.interp(u.ravel(), grid.nodes, fr.f).reshape(u.shape)
    g_sub = np.interp(u.ravel(), grid.nodes, gp.g).reshape(u.shape)
    return _sub_step_integrals(f_sub, g_sub, width / SUB_NODES)


def _mle_discrete_rows(x: np.ndarray, tables, model: FollowerModel):
    """Joint (m_hat, sigma2_hat) per row of values ``x``, all observed at
    the times whose ``_interval_tables`` are ``tables``.

    ``x`` must be row-major, so every row is reduced in the same order as a
    single path. The tables depend only on the times, so a caller
    estimating several batches at the same times builds them once.
    """
    transition, score_int, var_int = tables
    innov = x[:, 1:] - x[:, :-1] * transition
    gain = model.gain_sq_over_r
    denom = float(np.sum(score_int**2 / var_int))
    _check_precision(denom, model, "discrete precision")
    m_hat = -np.sum(innov * score_int / var_int, axis=1) / (gain * denom)
    resid = innov + (m_hat * gain)[:, None] * score_int
    sigma2_hat = np.mean(resid**2 / var_int, axis=1)
    return m_hat, sigma2_hat


def mle_discrete_joint(
    obs: DiscreteObservations,
    fr: FollowerRiccati,
    gp: GProfile,
    model: FollowerModel,
) -> DiscreteJointEstimate:
    """Jointly estimate the dilation factor and noise variance from discrete data.

    Built on the exact Gaussian one-step transition of the optimally
    controlled follower; as the observation mesh refines, the dilation
    estimate approaches the continuous-observation one and the variance
    estimate approaches the true squared noise level. No study calls it;
    tests do, and ``perfbench/tracing.py`` wraps it by name.
    """
    tables = _interval_tables(obs.times, fr, gp)
    m_hat, sigma2_hat = _mle_discrete_rows(obs.values[None, :], tables, model)
    return DiscreteJointEstimate(m_hat=float(m_hat[0]), sigma2_hat=float(sigma2_hat[0]))
