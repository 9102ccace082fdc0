"""Shared domain types (time grids, model parameter sets, targets, RNG streams)
and kernels (the running trapezoid of a coefficient, the trapezoid total of
every path, the affine recurrence solver, which picks each stacked system's
schedule from that system's own width).

Every type here is immutable after construction and safe to share across
threads. All floating-point work is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


class InvalidArgumentError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


class OutOfDomainError(InvalidArgumentError):
    """Raised when a time argument falls outside [0, T]."""


class SolverFailureError(RuntimeError):
    """Raised when a numerical routine cannot produce a finite result."""


class BlowUpError(SolverFailureError):
    """Backward Riccati integration exceeded the blow-up threshold.

    Attributes
    ----------
    blow_up_time : float
        Grid time at which the solution norm first exceeded the threshold.
    """

    def __init__(self, message: str, blow_up_time: float):
        super().__init__(message)
        self.blow_up_time = blow_up_time


class PolicyEvaluationError(RuntimeError):
    """Raised when a control policy returns a non-finite value."""


class DegeneratePathError(RuntimeError):
    """Raised when a single path's precision integral is below the floor."""


class DegenerateEnsembleError(RuntimeError):
    """Raised when every path in an ensemble is degenerate."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T with spacing h = T/n."""

    horizon: float
    n_steps: int
    nodes: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise InvalidArgumentError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise InvalidArgumentError(f"n_steps must be >= 1, got {self.n_steps}")
        nodes = np.linspace(0.0, self.horizon, self.n_steps + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        return self.horizon / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1


def build_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Build the uniform time grid shared by every solver and simulator."""
    return TimeGrid(horizon=float(horizon), n_steps=int(n_steps))


@dataclass(frozen=True)
class Sinusoid:
    """Reference trajectory amplitude * sin(omega * t + phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0

    def values(self, t):
        return self.amplitude * np.sin(self.omega * np.asarray(t, dtype=float) + self.phase)


@dataclass(frozen=True)
class Tabulated:
    """Reference trajectory given by node values, linearly interpolated."""

    grid: TimeGrid
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.shape != (self.grid.n_nodes,):
            raise InvalidArgumentError(
                f"table must have {self.grid.n_nodes} values, got shape {table.shape}"
            )
        if not np.all(np.isfinite(table)):
            raise InvalidArgumentError("table values must be finite")
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def values(self, t):
        return np.interp(np.asarray(t, dtype=float), self.grid.nodes, self.table)


TargetTrajectory = Union[Sinusoid, Tabulated]


def eval_target(target: TargetTrajectory, t, horizon: float):
    """Evaluate the reference trajectory at time(s) t in [0, T]."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < -1e-12) or np.any(t_arr > horizon + 1e-12):
        raise OutOfDomainError(f"t={t} outside [0, {horizon}]")
    out = target.values(t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


@dataclass(frozen=True)
class FollowerModel:
    """Follower dynamics/cost coefficients, including the hidden dilation factor.

    ``dilation`` (the factor the follower applies to the leader's trajectory
    when tracking) is ground truth: it drives simulation and scores
    estimators, and is never read by the leader-side solvers.
    """

    a_drift: float
    b_control: float
    sigma: float
    x0: float
    q_track: float
    r_control: float
    entropy_weight: float
    dilation: float

    def __post_init__(self):
        # sigma = 0 and q_track = 0 are admitted as degenerate test limits
        # (noiseless follower, source-free value coefficient).
        if self.sigma < 0:
            raise InvalidArgumentError("sigma must be >= 0")
        if self.q_track < 0:
            raise InvalidArgumentError("q_track must be >= 0")
        if self.r_control <= 0 or self.entropy_weight <= 0:
            raise InvalidArgumentError("r_control and entropy_weight must be > 0")

    @property
    def gain_sq_over_r(self) -> float:
        """b_control**2 / r_control, the drift gain applied to the bias term."""
        return self.b_control**2 / self.r_control

    @property
    def noise_to_signal(self) -> float:
        """sigma**2 * r_control**2 / b_control**4, the estimator variance scale."""
        return self.sigma**2 * self.r_control**2 / self.b_control**4


@dataclass(frozen=True)
class LeaderModel:
    """Leader dynamics/cost coefficients and the inference intensity."""

    a_drift: float
    b_control: float
    sigma: float
    x0: float
    q_track: float
    r_control: float
    q_terminal: float
    inference_weight: float
    target: TargetTrajectory

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidArgumentError("sigma must be >= 0")
        if self.q_track <= 0 or self.r_control <= 0 or self.q_terminal <= 0:
            raise InvalidArgumentError("q_track, r_control, q_terminal must be > 0")
        if self.inference_weight < 0:
            raise InvalidArgumentError("inference_weight must be >= 0")

    def target_at(self, t, horizon: float):
        return eval_target(self.target, t, horizon)


@dataclass(frozen=True)
class Trajectory:
    """A real-valued sample path on a grid (one value per node)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_nodes,):
            raise InvalidArgumentError(
                f"expected {self.grid.n_nodes} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("trajectory values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def cumtrapz(values, grid: TimeGrid) -> np.ndarray:
    """Cumulative trapezoidal integral of node values along the grid.

    out[0] = 0 and out[j] approximates the integral of ``values`` over
    [0, t_j]. Exact for piecewise-linear integrands.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1] != grid.n_nodes:
        raise InvalidArgumentError(
            f"expected {grid.n_nodes} values on last axis, got shape {v.shape}"
        )
    # cumsum((v[1:] + v[:-1]) * (h / 2)) in place in one output array.
    out = np.empty(v.shape)
    inner = out[..., 1:]
    np.add(v[..., 1:], v[..., :-1], out=inner)
    inner *= 0.5 * grid.h
    np.cumsum(inner, axis=-1, out=inner)
    out[..., 0] = 0.0
    return out


def trapz_step_major(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Trapezoidal integral of each column of (n_nodes, n_paths) node values.

    Overwrites ``values``. The end rows are halved (exactly) and the rows
    summed in a fixed pairwise tree of in-place row additions, so a column's
    bits do not depend on how many columns share the array; ``np.sum`` down
    the first axis adds one column pairwise but several in sequence.
    """
    values[0] *= 0.5
    values[-1] *= 0.5
    rows = grid.n_nodes
    while rows > 1:
        half = rows // 2
        values[:half] += values[rows - half : rows]
        rows -= half
    return grid.h * values[0]


def block_transfer_maps(a: np.ndarray, out: np.ndarray) -> int:
    """Running products of step matrices within blocks of isqrt(n) steps.

    ``a`` is (n, k, k), one matrix per step. The steps are cut into blocks
    of ``size = isqrt(n)``; the fewer than ``size`` leftover steps form a
    shorter last block. Writes out[j] = a[j] @ a[j-1] @ ... @ a[s], with s
    the first step of j's block, and returns ``size``. ``out`` may be ``a``
    itself. This is the shared half of a two-level blocked recurrence: the
    caller carries its state across the about sqrt(n) block boundaries.
    """
    n = a.shape[0]
    size = math.isqrt(n)
    out[::size] = a[::size]
    for i in range(1, size):
        count = len(range(i, n, size))
        np.matmul(a[i::size], out[i - 1 :: size][:count], out=out[i::size])
    return size


# A batch is solved blocked when it has fewer paths than steps and at most
# SCAN_MAX_PATHS paths, and stepped otherwise; ``_affine_scan`` and the
# leader's batch simulator (``simulate.simulate_leader_batch``) both decide
# by ``_use_scan``. Stepping pays a fixed numpy overhead per step; the
# blocked product takes about 2*sqrt(n) sequential steps but several times
# the arithmetic. Stepped over blocked time on a 2-vCPU x86_64 host with
# numpy 2.4. Euler follower (k = 1), stepped by this solver, best of 7
# interleaved: 1 x 8192 steps 27x; 32 x 8192 6.9x; 128 x 8192 2.1x;
# 256 x 8192 1.4x; 256 x 1024 1.4x; 384 x 1024 1.3x; 49 x 50 1.6x;
# 2000 x 50 0.70x. Riccati-law leader (k = 3), stepped by the simulator's
# in-place node loop, best of 5: 1 x 8192 69x; 32 x 8192 6.5x;
# 128 x 8192 1.9x; 256 x 8192 1.3x; 256 x 1024 1.4x; 384 x 1024 1.1x;
# 49 x 50 2.7x; 2000 x 50 0.60x. Blocked also wins on short grids
# (64 x 50 1.9x for the leader), but fewer paths than steps keeps a study's
# short-grid chunks (70 of 200 rows, say) on the whole batch's schedule, so
# that chunking leaves output bits alone.
SCAN_MAX_PATHS = 128

# A tradeoff sweep on a grid of at most MOMENT_MAX_STEPS steps takes its mean
# precision and primary cost from the shocks' sample moments
# (``simulate.leader_mean_stats``); on a finer grid every path is simulated.
# The bound is read from the grid alone, never from the paths or the chunk
# cap. The moment route steps every ratio's n_steps + 2 response rows
# together as one stacked recurrence, then forms quadratic forms of
# O(n_steps^3) work per ratio; the per-path route steps every path; both
# draw every shock. Whole 5-ratio sweeps of the shipped model, per-path over
# moment time, best of 11 or 15 interleaved, the range of two or three runs
# where one is given, on a 2-vCPU x86_64 host with numpy 2.4 and one BLAS
# thread (paths x steps):
#   20 x 50 0.99-1.23; 200 x 50 1.46-1.53; 2000 x 50 1.94-2.09;
#   10000 x 50 2.62; 50 x 100 0.82-0.84 (fewer paths than steps are solved
#   blocked); 100 x 100 1.78-1.82; 150 x 200 0.98-1.03;
#   200 x 200 0.94-1.16; 300 x 200 1.14-1.27; 450 x 300 0.75-0.87;
#   600 x 300 0.92-0.96; 700 x 300 0.98; 500 x 400 0.61-0.67;
#   700 x 400 0.82-0.87; 800 x 400 1.13-1.15; 1000 x 400 1.17-1.22;
#   2000 x 400 1.81-1.83; 10000 x 400 5.10.
# So below about n_steps^2 / 175 paths the per-path route would be faster;
# every shipped sweep runs 50 steps with 2000 or more paths, past that. At
# 400 steps one ratio's stacked state and response matrices (about 9 MB) are
# of the order of one study chunk, and the n_steps^2 second moment is 1.3 MB.
MOMENT_MAX_STEPS = 400


def _use_scan(n_paths: int, n_steps: int) -> bool:
    return n_paths <= SCAN_MAX_PATHS and n_paths < n_steps


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for (..., k, k) m and (..., k, n_paths) v, as elementwise
    products, so that a path's bits do not depend on its batch."""
    out = m[..., :, 0, None] * v[..., :1, :]
    for s in range(1, v.shape[-2]):
        out += m[..., :, s, None] * v[..., s : s + 1, :]
    return out


def _affine_scan(a: np.ndarray, y: np.ndarray, width: int) -> np.ndarray:
    """Solve y[j+1] = a[j] @ y[j] + c[j] in place for a batch of paths.

    ``a`` is (n, k, k), shared by all paths. ``y`` is (n + 1, k, columns),
    step-major so that each step is contiguous: on entry y[0] holds the
    start states and y[j+1] the forcing c[j], on return the solution. The
    columns are one or more systems of ``width`` paths each, side by side:
    the schedule is ``_use_scan(width, n)``, one step at a time or two-level
    blocked, and both run column by column, so a system's bits are the ones
    it gets alone, whatever shares the call. Stepped, systems with their own
    step matrices may share it too, as (n, m, k, k) ``a`` and
    (n + 1, m, k, columns) ``y``. Blocked, all blocks of about sqrt(n) steps
    are solved from a zero start at once with their transfer maps
    (``block_transfer_maps``), the block start states are carried across
    blocks one by one, and one pass adds each to its block; steps past the
    last whole block are stepped. That is about 2*sqrt(n) sequential numpy
    steps instead of n, with re-associated rounding. Returns ``y``.
    """
    n, k, columns = a.shape[0], a.shape[-1], y.shape[-1]
    m = 0
    if _use_scan(width, n):
        maps = np.empty_like(a)
        size = block_transfer_maps(a, maps)
        n_blocks = n // size
        m = n_blocks * size
        phi = maps[:m].reshape(n_blocks, size, k, k)
        a_blk = a[:m].reshape(n_blocks, size, k, k)
        # Zero-start solutions, built over the forcing (a view, as splitting
        # an axis never copies).
        z = y[1 : m + 1].reshape(n_blocks, size, k, columns)
        for i in range(1, size):
            z[:, i] += _apply(a_blk[:, i], z[:, i - 1])
        # State entering each block.
        start = np.empty((n_blocks, k, columns))
        start[0] = y[0]
        for b in range(1, n_blocks):
            start[b] = _apply(phi[b - 1, -1], start[b - 1]) + z[b - 1, -1]
        for s in range(k):
            z += phi[..., s, None] * start[:, None, s : s + 1, :]
    for j in range(m, n):
        y[j + 1] += _apply(a[j], y[j])
    return y


# Stream-key namespaces so leader noise, follower noise and optimizer draws
# never collide for the same master seed.
STREAM_LEADER = 0
STREAM_FOLLOWER = 1
STREAM_OPTIMIZER = 2
STREAM_INIT = 3


@dataclass(frozen=True)
class RngContract:
    """Deterministic per-path random streams derived from one master seed.

    ``stream(*key)`` depends only on (master_seed, key), never on draw order
    or thread count, so path i always sees the same Gaussian increments.
    """

    master_seed: int

    def __post_init__(self):
        seed = self.master_seed
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise InvalidArgumentError(f"master_seed must be a non-negative integer, got {seed!r}")

    def stream(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(key))
        return np.random.Generator(np.random.PCG64(ss))

    def normals(self, n: int, *key: int) -> np.ndarray:
        """n i.i.d. standard normal draws for the stream addressed by key."""
        return self.stream(*key).standard_normal(n)

    def normal_matrix(self, n_paths: int, n: int, namespace: int, offset: int = 0) -> np.ndarray:
        """Stack per-path increment rows (path i -> stream (namespace, offset+i)).

        Row i is bit-identical to ``normals(n, namespace, offset + i)``. The
        seed states of all rows are hashed and turned into PCG64 states at
        once (``row_seed_states``, ``pcg64_states``); then one generator draws
        every row, its four state words replaced in place before each row.
        ``standard_normal`` reads no other generator state, so the bits are
        those of a freshly seeded ``PCG64`` per row.
        """
        # Imported here: it loads numpy.random, which ``import stackinfer`` avoids.
        from ._seedseq import pcg64_states, row_seed_states, state_words, word_order

        for name, value in (("n_paths", n_paths), ("n", n), ("namespace", namespace),
                            ("offset", offset)):
            if value < 0:
                raise InvalidArgumentError(f"{name} must be >= 0, got {value}")
        out = np.empty((n_paths, n))
        seeds = row_seed_states(self.master_seed, namespace, offset, n_paths)
        states = pcg64_states(seeds)[:, word_order()]
        # Lives for this call only, so concurrent calls share no state; it
        # must outlive ``words``, a raw view of its memory.
        bit_generator = np.random.PCG64(0)
        generator = np.random.Generator(bit_generator)
        words = state_words(bit_generator)
        for row, state in zip(out, states):
            words[:] = state
            generator.standard_normal(out=row)
        return out
