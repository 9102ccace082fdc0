"""Estimation of the follower's hidden dilation factor.

The continuous-observation estimator is the ratio of a drift-corrected
integral against the score profile g to the precision integral of g^2; the
stochastic integral uses left-endpoint (Ito) sums, the Lebesgue integrals the
trapezoid rule. Multi-period aggregation weights per-episode estimates by
their precisions and admits an online update. Discrete observations get a
joint estimator of the dilation factor and the noise level built from exact
one-step transition quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DegeneratePathError, FollowerModel, InvalidArgumentError, trapz
from .riccati import FollowerRiccati
from .simulate import PRECISION_FLOOR, SUB_NODES, FollowerPath, GProfile, _sub_step_integrals


@dataclass(frozen=True)
class MleReport:
    """Point estimate of the dilation factor on one follower path.

    ``cond_variance`` and ``cond_fisher`` are the conditional (given the
    leader path) variance and Fisher information; their product is 1 up to
    rounding.
    """

    m_hat: float
    precision: float
    cond_variance: float
    cond_fisher: float


@dataclass(frozen=True)
class MultiPeriodState:
    """Running precision-weighted aggregate over completed episodes."""

    n_episodes: int
    total_precision: float
    m_bar: float
    history: tuple  # ((m_hat, precision), ...)

    @staticmethod
    def empty() -> "MultiPeriodState":
        return MultiPeriodState(n_episodes=0, total_precision=0.0, m_bar=0.0, history=())

    def weights(self) -> np.ndarray:
        if self.n_episodes == 0:
            return np.empty(0)
        p = np.array([h[1] for h in self.history])
        return p / self.total_precision


def _check_times(times) -> np.ndarray:
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise InvalidArgumentError("need at least 2 observation times")
    if np.any(np.diff(times) <= 0):
        raise InvalidArgumentError("observation times must be strictly increasing")
    return times


@dataclass(frozen=True)
class DiscreteObservations:
    """Follower values observed at increasing times within [0, T]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _check_times(self.times)
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


def _conditional_moments(model: FollowerModel, precision: float) -> tuple[float, float]:
    nts = model.noise_to_signal
    if nts == 0.0:
        return 0.0, math.inf
    cond_variance = nts / precision
    return cond_variance, 1.0 / cond_variance


def _check_precision(precision: float):
    """A path whose precision is at or below the floor carries no information."""
    if precision <= PRECISION_FLOOR:
        raise DegeneratePathError(
            f"precision {precision:.3g} is below the floor {PRECISION_FLOOR:.3g}"
        )


def _drift_ito(x: np.ndarray, gp: GProfile, fr: FollowerRiccati) -> tuple[np.ndarray, np.ndarray]:
    """Per-row numerator terms for (paths, nodes) ``x``: trapezoid of f g x, Ito sum of g dx."""
    drift = trapz(fr.f * gp.g * x, fr.grid)
    # Not a matrix-vector product: its (BLAS) result depends on the row count.
    ito = np.sum(np.diff(x, axis=1) * gp.g[:-1], axis=1)
    return drift, ito


def mle_continuous_batch(
    x_paths: np.ndarray, gp: GProfile, fr: FollowerRiccati, model: FollowerModel
) -> np.ndarray:
    """Dilation estimates for each follower path row on one fixed leader path."""
    x = np.atleast_2d(np.asarray(x_paths, dtype=float))
    if x.shape[1] != fr.grid.n_nodes:
        raise InvalidArgumentError(f"paths must have {fr.grid.n_nodes} columns")
    _check_precision(gp.precision)
    drift, ito = _drift_ito(x, gp, fr)
    return (drift - ito) / (model.gain_sq_over_r * gp.precision)


def mle_continuous(
    fpath: FollowerPath,
    gp: GProfile,
    fr: FollowerRiccati,
    model: FollowerModel,
) -> MleReport:
    """Estimate the dilation factor from one continuously observed path."""
    if fpath.grid != fr.grid or gp.grid != fr.grid:
        raise InvalidArgumentError("path, score profile and solver grids must agree")
    _check_precision(gp.precision)
    drift, ito = _drift_ito(fpath.x[None, :], gp, fr)
    drift, ito = float(drift[0]), float(ito[0])
    m_hat = (drift - ito) / (model.gain_sq_over_r * gp.precision)
    cond_variance, cond_fisher = _conditional_moments(model, gp.precision)
    return MleReport(
        m_hat=m_hat,
        precision=gp.precision,
        cond_variance=cond_variance,
        cond_fisher=cond_fisher,
    )


def multi_period_update(state: MultiPeriodState, report: MleReport) -> MultiPeriodState:
    """Fold one episode's estimate into the precision-weighted aggregate."""
    if report.precision <= 0.0:
        raise InvalidArgumentError("cannot aggregate a degenerate episode")
    total = state.total_precision + report.precision
    ratio = state.total_precision / total
    m_bar = ratio * state.m_bar + (1.0 - ratio) * report.m_hat
    return MultiPeriodState(
        n_episodes=state.n_episodes + 1,
        total_precision=total,
        m_bar=m_bar,
        history=state.history + ((report.m_hat, report.precision),),
    )


def realized_variance_proxy(state: MultiPeriodState, model: FollowerModel) -> float:
    """Plug-in conditional variance of the aggregate on realized precision."""
    if state.n_episodes < 1:
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


def mle_discrete_joint_batch(
    times: np.ndarray,
    values: np.ndarray,
    fr: FollowerRiccati,
    gp: GProfile,
    model: FollowerModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint (m_hat, sigma2_hat) per row of ``values``, all observed at ``times``.

    The interval tables depend only on the times, so they are built once
    for every row. No study calls it; it backs ``mle_discrete_joint``.
    """
    t = _check_times(times)
    # Row-major, so every row is reduced in the same order as a single path.
    x = np.ascontiguousarray(np.atleast_2d(values), dtype=float)
    if x.ndim != 2 or x.shape[1] != t.size:
        raise InvalidArgumentError("each row of values needs one value per observation time")
    return _mle_discrete_rows(x, _interval_tables(t, fr, gp), model)


def _mle_discrete_rows(x: np.ndarray, tables, model: FollowerModel):
    """``mle_discrete_joint_batch`` on checked row-major values and the
    ``_interval_tables`` of their observation times, which a caller
    estimating several batches at the same times may build once."""
    transition, score_int, var_int = tables
    innov = x[:, 1:] - x[:, :-1] * transition
    gain = model.gain_sq_over_r
    denom = float(np.sum(score_int**2 / var_int))
    if denom <= PRECISION_FLOOR:
        raise DegeneratePathError(
            f"discrete precision {denom:.3g} is below the floor {PRECISION_FLOOR:.3g}"
        )
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
    m_hat, sigma2_hat = mle_discrete_joint_batch(
        obs.times, obs.values[None, :], fr, gp, model
    )
    return DiscreteJointEstimate(m_hat=float(m_hat[0]), sigma2_hat=float(sigma2_hat[0]))
