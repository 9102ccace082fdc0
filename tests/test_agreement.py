"""Agreement gates: every fast path against the per-step loop it replaces.

The affine recurrence solver (``core._affine_scan``) solves follower
batches in both modes, the follower's ``b`` and the leader batches
``core._use_scan`` admits under an affine law. Its blocked schedule
re-associates rounding and its per-step schedule rounds the step
differently from the loops, so paths and ``b`` agree with the loops
to a relative 1e-12 of their magnitude. Every other leader batch under an
affine law is stepped by the simulator's node loop, bit for bit the law
through a session. Exact follower paths composed over blocks of steps
agree with the fine-grid paths at the block ends to 1e-13 of the path
scale. The
leader's Riccati system is a different fourth-order scheme (the linear
Hamiltonian product): it agrees with the RK4 loop to 1e-10 relative, or
within twice RK4's own error where the grid does not resolve the solution,
and raises at RK4's blow-up node or one step nearer T; on drawn models,
where the two disagree near a blow-up, it must do no worse than RK4 against
a converged reference. Its block-end carry in Python floats agrees with
the per-block restart it replaced to rounding, and raises at the same node.
The follower's ``a`` is exact, so it agrees with the RK4 loop within RK4's
own error. The tradeoff sweep's means from the shocks' sample moments agree
with the per-path means to 1e-12 relative, the stacked evaluator meets the
per-arm one it replaced to 1e-12, and the moments' bits do not depend on the
chunk cap; on the moments (0, I) the same evaluator is the
exact expectation, which Monte Carlo means meet within 5 standard errors.
The leader solve, ``b`` and the follower rows of a stack of arms are, arm
by arm, the bits of each arm solved alone. The score, the primary cost and
the continuous estimator meet the path-major one-line expressions they
replaced (forward sums, ``np.sum`` per row) to 3e-11 relative for the
precision and 1e-12 otherwise; the public score and cost equal the
evaluator's precision and primary cost bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stackinfer as si
from conftest import HORIZON, exact_means, make_follower, make_leader
from oracles import (
    affine_recurrence_loop,
    affine_scan_inline_blocks,
    compute_g_batch_one_line,
    cumtrapz_one_line,
    follower_a_loop,
    follower_batch_loop,
    follower_bc_loop,
    leader_batch_loop,
    leader_mean_stats_per_arm,
    leader_system_blocked,
    leader_system_loop,
    mle_continuous_batch_one_line,
    primary_cost_batch_one_line,
    trapz_one_line,
)
from stackinfer import core, riccati, studies
from stackinfer.core import _affine_scan, _use_scan
from stackinfer.infer import _interval_tables, _mle_discrete_rows
from stackinfer.simulate import (
    _exact_transition_tables,
    _follower_nodes,
    _leader_scan,
    _score,
    leader_batch_stats,
    leader_mean_stats,
)

RTOL = 1e-12
HAMILTONIAN_RTOL = 1e-10
FINE = 2**13


def assert_close(got, ref):
    # Below the smallest normal float the spacing is absolute (5e-324), so
    # the magnitude is floored there: a relative bound on a subnormal
    # reference would be finer than the format can resolve.
    assert got.shape == ref.shape
    scale = max(np.max(np.abs(ref)), np.finfo(float).tiny)
    assert np.max(np.abs(got - ref)) <= RTOL * scale


def solved(follower, n_steps, inference_weight=0.5, horizon=HORIZON, **leader_overrides):
    grid = si.build_grid(horizon, n_steps)
    fr = si.solve_follower_a(follower, grid)
    coeffs = si.compute_coefficients(fr, follower)
    leader = make_leader(inference_weight, **leader_overrides)
    return grid, fr, coeffs, leader


@pytest.fixture(scope="module", params=[50, FINE])
def grid_case(request, follower):
    # Tests may narrow the grid sizes with indirect parametrisation.
    grid, fr, coeffs, leader = solved(follower, request.param)
    [lr] = si.solve_leader_system([leader], follower, coeffs)
    x_leader = si.Trajectory(grid=grid, values=0.1 * np.cos(3.0 * grid.nodes))
    return grid, fr, coeffs, leader, lr, x_leader


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 49, 64, 50, 97]),
    n_paths=st.integers(1, 4),
    k=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_recurrence_matches_loop(n, n_paths, k, seed):
    gen = np.random.default_rng(seed)
    a = np.eye(k) + 0.1 * gen.standard_normal((n, k, k))
    c = gen.standard_normal((n_paths, n, k))
    y0 = gen.standard_normal((n_paths, k))
    y = np.empty((n + 1, k, n_paths))
    y[0] = y0.T
    y[1:] = np.moveaxis(c, 0, -1)
    y = np.moveaxis(_affine_scan(a, y, n_paths), -1, 0)  # as the loop's (n_paths, n + 1, k)
    assert_close(y, affine_recurrence_loop(a, c, y0))
    if _use_scan(n_paths, n):
        # Sharing the block partition with the Riccati solve changed no bit.
        assert np.array_equal(y, affine_scan_inline_blocks(a, c, y0))


def test_blocked_recurrence_rows_are_independent():
    gen = np.random.default_rng(3)
    a = np.eye(3) + 0.05 * gen.standard_normal((200, 3, 3))
    y0_and_c = gen.standard_normal((201, 3, 7))
    whole = _affine_scan(a, y0_and_c.copy(), 7)
    for i in (0, 3, 6):
        row = _affine_scan(a, y0_and_c[..., i : i + 1].copy(), 1)
        assert np.array_equal(row, whole[..., i : i + 1])
    # The schedule comes from ``width``, one system's path count, not from
    # the call's column count, so each system of a stack is the bits of the
    # same system solved alone: 5 systems of 32 columns on 200 steps are
    # blocked, 160 columns in all, past SCAN_MAX_PATHS; 3 of 6 columns on 5
    # steps are stepped, each wider than the step count.
    for n, systems, width in ((200, 5, 32), (5, 3, 6)):
        assert _use_scan(width, n) == (n == 200)
        assert not _use_scan(systems * width, n)
        a = np.eye(3) + 0.05 * gen.standard_normal((n, 3, 3))
        y0_and_c = gen.standard_normal((n + 1, 3, systems * width))
        stack = _affine_scan(a, y0_and_c.copy(), width)
        for lo in range(0, systems * width, width):
            alone = _affine_scan(a, y0_and_c[..., lo : lo + width].copy(), width)
            assert np.array_equal(stack[..., lo : lo + width], alone)


def _node_values(gen, n_rows, n_nodes, layout, scale):
    """Node values as a 1-D row, a 2-D batch, a column slice, a Fortran array
    or one state row of a simulator's step-major (n_nodes, 3, n_rows) array."""
    if layout == "1d":
        return scale * gen.standard_normal(n_nodes)
    if layout == "step-major":
        return (scale * gen.standard_normal((n_nodes, 3, n_rows)))[:, 0].T
    if layout == "sliced":
        return (scale * gen.standard_normal((n_rows, 2 * n_nodes)))[:, ::2]
    values = scale * gen.standard_normal((n_rows, n_nodes))
    return np.asfortranarray(values) if layout == "fortran" else values


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 7, 50, 97, 300]),
    n_rows=st.integers(1, 5),
    layout=st.sampled_from(["1d", "2d", "sliced", "fortran", "step-major"]),
    exponent=st.integers(-3, 3),
    q_track=st.floats(0.3, 7.0),
    r_control=st.floats(0.3, 7.0),
    seed=st.integers(0, 2**32 - 1),
)
# Path-fastest layouts, where np.sum adds several rows in sequence.
@example(n=50, n_rows=3, layout="fortran", exponent=0, q_track=1.0, r_control=1.0, seed=0)
@example(n=50, n_rows=3, layout="step-major", exponent=0, q_track=1.0, r_control=1.0, seed=0)
def test_in_place_helpers_equal_one_line_expressions(
    n, n_rows, layout, exponent, q_track, r_control, seed
):
    gen = np.random.default_rng(seed)
    follower = make_follower(q_track=q_track)
    grid, fr, _, _ = solved(follower, n)
    leader = make_leader(q_track=q_track, r_control=r_control)
    # cumtrapz runs the one-line expression's operations in place, so it
    # equals it bit for bit on a C-ordered copy. The score sums its tail
    # back from T, and the score, cost and estimator sum every total in a
    # pairwise tree of rows, where the one-line expressions sum forward and
    # along each row: they agree to the bounds of the evaluator's drawn-model
    # property, and the input's layout moves no bit of the score, the cost or
    # the estimate.
    x = _node_values(gen, n_rows, grid.n_nodes, layout, 10.0**exponent)
    xc = np.ascontiguousarray(x)
    assert np.array_equal(si.cumtrapz(x, grid), cumtrapz_one_line(xc, grid))
    g, precision = si.compute_g_batch(fr, follower, x)
    for got, want in zip(si.compute_g_batch(fr, follower, xc), (g, precision)):
        assert np.array_equal(got, want)
    g_ref, precision_ref = compute_g_batch_one_line(fr, follower, xc)
    floor = 2 * grid.n_nodes * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(g - g_ref) <= np.maximum(
        3e-11 * np.max(np.abs(g_ref), axis=1, keepdims=True), floor))
    assert np.all(np.abs(precision - precision_ref) <= np.maximum(
        3e-11 * np.abs(precision_ref), floor))
    x2 = np.atleast_2d(x)
    u = _node_values(gen, x2.shape[0], grid.n_nodes, "2d" if layout == "1d" else layout, 1.0)
    x2c, uc = np.ascontiguousarray(x2), np.ascontiguousarray(u)
    cost = si.primary_cost_batch(leader, grid, x2, u)
    assert np.array_equal(cost, si.primary_cost_batch(leader, grid, x2c, uc))
    want = primary_cost_batch_one_line(leader, grid, x2c, uc)
    assert np.all(np.abs(cost - want) <= 1e-12 * np.abs(want))
    # The rows of x as follower paths, on the score of its first row.
    gp = si.GProfile(grid=grid, g=g[0], precision=float(precision[0]))
    m_hat = si.mle_continuous_batch(x2, gp, fr, follower)
    assert np.array_equal(m_hat, si.mle_continuous_batch(x2c, gp, fr, follower))
    scale = (trapz_one_line(np.abs(fr.f * gp.g * x2c), grid)
             + np.sum(np.abs(np.diff(x2c, axis=1) * gp.g[:-1]), axis=1))
    scale /= follower.gain_sq_over_r * gp.precision
    want = mle_continuous_batch_one_line(x2c, gp, fr, follower)
    assert np.all(np.abs(m_hat - want) <= 1e-12 * scale)


def solve_both(follower, n_steps, **case):
    """(Hamiltonian, RK4) (quad, lin, offset) triples when RK4 solves.

    When RK4 raises, the Hamiltonian must raise too, at RK4's blow-up node
    or one step nearer T, and None is returned.
    """
    _, _, coeffs, leader = solved(follower, n_steps, **case)
    try:
        ref = leader_system_loop(leader, follower, coeffs)
    except ValueError as rk4:
        with pytest.raises(si.BlowUpError) as err:
            si.solve_leader_system([leader], follower, coeffs)
        steps = (err.value.blow_up_time - rk4.args[0]) / coeffs.grid.h
        assert round(steps) in (0, 1) and abs(steps - round(steps)) < 1e-6
        return None
    [lr] = si.solve_leader_system([leader], follower, coeffs)
    return (lr.quad, lr.lin, lr.offset), ref


def max_diff(got, want):
    return np.max(np.abs(got - want))


def assert_within_rk4_error(follower, n_steps, **case):
    """The Hamiltonian within 1e-10 of RK4, or within twice RK4's own error.

    Where the grid resolves the solution the two schemes agree to 1e-10.
    Where it does not (a coarse grid, a steep solution near blow-up, or long
    horizons, where the decay kernel reaches 1e3 to 1e12) both sit away
    from the converged solution and, as two different fourth-order schemes,
    differ by up to about as much as either errs. So the Hamiltonian must be
    within 1e-10, or within twice RK4's own error, of RK4 on n and 2n steps
    Richardson-extrapolated. When RK4 blows up, so must the Hamiltonian.
    """
    solved_both = solve_both(follower, n_steps, **case)
    if solved_both is None:
        return
    _, _, fine, leader = solved(follower, 2 * n_steps, **case)
    assert within_rk4_error(*solved_both, leader_system_loop(leader, follower, fine))


def within_rk4_error(got, rk4, rk4_fine):
    """Each of got's arrays within 1e-10 of RK4, or within twice RK4's own error
    (Richardson-extrapolated from RK4 on n and 2n steps)."""
    for g, want, want_fine in zip(got, rk4, rk4_fine):
        converged = want_fine[::2] + (want_fine[::2] - want) / 15.0
        bound = max(HAMILTONIAN_RTOL * np.max(np.abs(want)), 2.0 * max_diff(want, converged))
        if not max_diff(g, converged) <= bound:
            return False
    return True


# Steps of the converged reference per step of the grid under test, and how
# many times RK4's own error the Hamiltonian may err by against it: the two
# schemes share the order but not the error constants, and over about 5000
# drawn models the largest ratio seen was 6.4 (on the offset, whose sigma^2
# term the Hamiltonian integrates by its own quadrature).
REFERENCE_REFINEMENT = 32
ERROR_RATIO = 16.0


def hamiltonian_or_blow_up(leader, follower, coeffs):
    try:
        [lr] = si.solve_leader_system([leader], follower, coeffs)
    except si.BlowUpError as err:
        return err.blow_up_time
    return lr.quad, lr.lin, lr.offset


def rk4_or_blow_up(leader, follower, coeffs):
    try:
        return leader_system_loop(leader, follower, coeffs)
    except ValueError as err:
        return err.args[0]


def assert_against_converged_reference(follower, n_steps, solve=hamiltonian_or_blow_up, **case):
    """The Hamiltonian agrees with RK4 on n steps, or is judged against a converged reference.

    The Hamiltonian passes where ``assert_within_rk4_error`` passes it: both
    schemes solve and it is within 1e-10 or twice RK4's own error, or both
    raise and it raises at RK4's blow-up node or one step nearer T. Near a
    blow-up neither n-step scheme is in its asymptotic regime, so RK4 on n
    steps is no arbiter there: it can step over a singularity, raise on a
    solution that exists, or err less than the other fourth-order scheme.
    Such disagreements are judged against RK4 on 32n steps, when RK4 on
    16n steps reaches the same verdict (both solve, or both raise within
    one 16n step of each other), and the Hamiltonian must do no worse than
    RK4 on the n steps. On stiff long horizons RK4 itself goes unstable, and
    its blow-up time moves with the grid however fine; such a reference has
    not converged and judges nothing. Where the
    reference raises, it must raise within one step of the reference's
    blow-up time, or no further from it than RK4. Where the reference and
    RK4 solve, it must solve and, on each of quad, lin and offset, be
    within 1e-10 relative of the reference or within ``ERROR_RATIO`` times
    RK4's own error. Where RK4 raises on a solution the reference finds,
    the grid resolves nothing and the draw judges nothing. ``solve`` returns
    the (quad, lin, offset) triple or the blow-up time of the path judged.
    """
    grid, _, coeffs, leader = solved(follower, n_steps, **case)
    got = solve(leader, follower, coeffs)
    rk4 = rk4_or_blow_up(leader, follower, coeffs)
    solves = isinstance(got, tuple), isinstance(rk4, tuple)
    if all(solves):
        _, _, fine, _ = solved(follower, 2 * n_steps, **case)
        rk4_fine = rk4_or_blow_up(leader, follower, fine)
        if isinstance(rk4_fine, tuple) and within_rk4_error(got, rk4, rk4_fine):
            return
    elif not any(solves) and round((got - rk4) / grid.h, 6) in (0, 1):
        return
    verdicts = []
    for refinement in (REFERENCE_REFINEMENT // 2, REFERENCE_REFINEMENT):
        _, _, fine, _ = solved(follower, refinement * n_steps, **case)
        verdicts.append(rk4_or_blow_up(leader, follower, fine))
    half, reference = verdicts
    if isinstance(half, tuple) != isinstance(reference, tuple):
        return  # the reference has not converged, so it judges nothing
    half_h = grid.h / (REFERENCE_REFINEMENT // 2)
    if not isinstance(reference, tuple) and round(abs(half - reference) / half_h, 6) > 1:
        return  # both raise, but over a step apart: RK4's instability, not converged
    if not isinstance(reference, tuple):
        assert not isinstance(got, tuple), "the Hamiltonian misses the reference's blow-up"
        rk4_miss = 0.0 if isinstance(rk4, tuple) else abs(rk4 - reference)
        assert abs(got - reference) <= max(grid.h, rk4_miss)
        return
    if not isinstance(rk4, tuple):
        return
    assert isinstance(got, tuple), "the Hamiltonian blows up where the reference solves"
    for g, want, own in zip(got, reference, rk4):
        want = want[::REFERENCE_REFINEMENT]
        bound = max(HAMILTONIAN_RTOL * np.max(np.abs(want)), ERROR_RATIO * max_diff(own, want))
        assert max_diff(g, want) <= bound


class TestRiccatiSolvers:
    @pytest.mark.parametrize("n_steps", [50, 1023])
    def test_leader_system_matches_loop_on_short_grids(self, follower, n_steps):
        assert_within_rk4_error(follower, n_steps)

    @pytest.mark.parametrize("grid_case", [FINE], indirect=True)
    def test_leader_system_matches_loop(self, follower, grid_case):
        _, _, coeffs, leader, lr, _ = grid_case
        for got, want in zip((lr.quad, lr.lin, lr.offset),
                             leader_system_loop(leader, follower, coeffs)):
            assert max_diff(got, want) <= HAMILTONIAN_RTOL * np.max(np.abs(want))
        assert np.array_equal(lr.quad, np.swapaxes(lr.quad, 1, 2))
        assert not (lr.quad.flags.writeable or lr.lin.flags.writeable
                    or lr.offset.flags.writeable)

    @pytest.mark.parametrize("n_steps", [1024, 1500, 4096, 5000])
    def test_hamiltonian_matches_rk4_on_leftover_steps(self, follower, n_steps):
        # 1024 and 4096 are whole blocks of sqrt(n) steps; 1500 and 5000
        # leave steps past the last whole block.
        hamiltonian, rk4 = solve_both(follower, n_steps)
        for got, want in zip(hamiltonian, rk4):
            assert max_diff(got, want) <= HAMILTONIAN_RTOL * np.max(np.abs(want))

    @settings(max_examples=25, deadline=None)
    @given(
        a_drift=st.floats(-3.0, 1.0),
        q_track=st.floats(0.3, 7.0),
        r_control=st.floats(0.3, 7.0),
        inference_weight=st.floats(0.0, 3.0),
        horizon=st.floats(0.1, 10.0),
        n_steps=st.sampled_from([50, 128, 400, 1023, 1024, 1500, 4096, 5000]),
    )
    # Near a blow-up: the Hamiltonian errs 4.5 against the reference, RK4 1.7.
    @example(a_drift=0.0, q_track=1.5, r_control=1.5, inference_weight=1.5, horizon=0.5,
             n_steps=128)
    # The Hamiltonian raises at t = 0; RK4 on 50 steps steps over the blow-up,
    # which converged RK4 puts near t = 0.003.
    @example(a_drift=0.0, q_track=2.0, r_control=2.0, inference_weight=2.0, horizon=0.5,
             n_steps=50)
    # The terminal row itself is past the threshold (|L22| = 1.29e12 at T):
    # it must raise at T, though every other node of 50 steps stays below.
    @example(a_drift=-1.70, q_track=4.24, r_control=5.40, inference_weight=0.024,
             horizon=9.97, n_steps=50)
    # A stiff long horizon (decay_l1 3.2e10): the Hamiltonian solves on every
    # grid, while RK4 raises at t = 7.13, 5.79, 4.23, 3.12, 2.12 and 1.06 on
    # 10 to 320 steps, so RK4 on 16n and 32n steps is no converged reference.
    @example(a_drift=-2.4937, q_track=6.4348, r_control=1.5449, inference_weight=0.026936,
             horizon=8.9118, n_steps=10)
    def test_hamiltonian_against_rk4_on_drawn_models(
        self, follower, a_drift, q_track, r_control, inference_weight, horizon, n_steps
    ):
        # Most draws blow up; those must blow up in both schemes.
        assert_against_converged_reference(
            follower, n_steps, inference_weight=inference_weight, horizon=horizon,
            a_drift=a_drift, q_track=q_track, r_control=r_control,
        )

    @pytest.mark.parametrize("n_steps", [1024, FINE])
    @pytest.mark.parametrize("inference_weight", [1.5, 2.0, 3.0])
    def test_hamiltonian_blow_up_within_one_step(self, follower, n_steps, inference_weight):
        assert solve_both(follower, n_steps, inference_weight=inference_weight) is None

    def test_long_grid_memory_is_bounded(self, follower):
        _, _, coeffs, leader = solved(follower, FINE)
        si.solve_leader_system([leader], follower, coeffs)
        tracemalloc.start()
        try:
            si.solve_leader_system([leader], follower, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_follower_bc_matches_loop(self, follower, grid_case):
        _, fr, _, _, _, x_leader = grid_case
        [b] = si.solve_follower_bc(fr, follower, [x_leader])
        b_ref, _ = follower_bc_loop(fr, follower, x_leader)
        assert_close(b, b_ref)

    def test_follower_a_matches_loop(self, follower, grid_case):
        # The closed form is exact, so it sits within RK4's own error of the
        # loop, estimated by Richardson extrapolation from n and 2n steps.
        grid, fr, _, _, _, _ = grid_case
        loop = follower_a_loop(follower, grid)
        fine = follower_a_loop(follower, si.build_grid(grid.horizon, 2 * grid.n_steps))
        converged = fine[::2] + (fine[::2] - loop) / 15.0
        bound = max(RTOL * np.max(np.abs(loop)), 2.0 * max_diff(loop, converged))
        assert max_diff(fr.a, loop) <= bound

    @settings(max_examples=30, deadline=None)
    @given(
        a_drift=st.floats(-3.0, 1.0),
        q_track=st.floats(0.0, 5.0),
        dilation=st.floats(-2.0, 2.0),
        sigma=st.floats(0.0, 1.0),
        entropy_weight=st.floats(0.01, 5.0),
    )
    # A subnormal forcing: b and its stage values are subnormal throughout.
    @example(a_drift=0.0, q_track=1.0, dilation=2.2250738585e-313, sigma=0.0,
             entropy_weight=1.0)
    def test_follower_bc_matches_loop_on_drawn_models(
        self, grid50, a_drift, q_track, dilation, sigma, entropy_weight
    ):
        model = make_follower(a_drift=a_drift, q_track=q_track, dilation=dilation,
                              sigma=sigma, entropy_weight=entropy_weight)
        fr = si.solve_follower_a(model, grid50)
        x_leader = si.Trajectory(grid=grid50, values=0.1 * np.cos(3.0 * grid50.nodes))
        [b] = si.solve_follower_bc(fr, model, [x_leader])
        b_ref, _ = follower_bc_loop(fr, model, x_leader)
        assert_close(b, b_ref)

    @pytest.mark.parametrize("n_steps", [50, 400])
    def test_blow_up_time_unchanged(self, follower, n_steps):
        # RK4's blow-up time, or one step nearer T (checked in solve_both).
        assert solve_both(follower, n_steps, inference_weight=2.0) is None

    def test_coarse_grid_does_not_miss_blow_up(self, follower):
        # Ten RK4 steps step over the singularity that 50 steps resolve; the
        # Hamiltonian product reports it on the coarse grid too.
        _, _, coarse, leader = solved(follower, 10, inference_weight=1.5)
        leader_system_loop(leader, follower, coarse)
        _, _, fine, _ = solved(follower, 50, inference_weight=1.5)
        with pytest.raises(ValueError):
            leader_system_loop(leader, follower, fine)
        with pytest.raises(si.BlowUpError) as err:
            si.solve_leader_system([leader], follower, coarse)
        assert err.value.blow_up_time == 0.0


# The float carry against the per-block restart it replaced: the same
# scheme and blocks, rounded differently at the block ends. Where the
# solution is moderate the two agree to 1e-12 of quad's peak and of lin's
# and the offset's column maxima. Toward a blow-up the Riccati flow
# amplifies rounding: over 3000 drawn models (389 solved), 13 of the 303
# with peak |quad| at most 1e6 differed by more, lin by up to 2.9e-10 and
# quad by up to 4.6e-12, and against the same scheme in extended precision
# neither path was the closer one. Such models, and those with a larger
# peak, are judged against the converged reference. On 10 steps of a long
# horizon that reference can fail the scheme however it is rounded; there
# the per-block restart must fail it too.
BLOCKED_RTOL = 1e-12
BLOCKED_PEAK = 1e6


def blocked_or_blow_up(leader, follower, coeffs):
    try:
        return leader_system_blocked(leader, follower, coeffs)
    except si.BlowUpError as err:
        return err.blow_up_time


def agrees_to_rounding(got, want):
    """quad within 1e-12 of the oracle's peak |quad| and, with that peak at
    most 1e6, lin and offset within 1e-12 of their column maxima."""
    peak = np.max(np.abs(want[0]))
    return (
        max_diff(got[0], want[0]) <= BLOCKED_RTOL * peak
        and peak <= BLOCKED_PEAK
        and np.all(np.abs(got[1] - want[1]) <= BLOCKED_RTOL * np.max(np.abs(want[1]), axis=0))
        and max_diff(got[2], want[2]) <= BLOCKED_RTOL * np.max(np.abs(want[2]))
    )


def tilde_at(lr, j):
    """The symmetric 4x4 L~ at node j: quad, half the lin, and the offset."""
    tilde = np.empty((4, 4))
    tilde[:3, :3] = lr.quad[j]
    tilde[:3, 3] = tilde[3, :3] = 0.5 * lr.lin[j]
    tilde[3, 3] = lr.offset[j]
    return tilde


def record_block_starts(monkeypatch):
    """A list that collects every [I; L~] stack the solver carries."""
    seen = []
    real = riccati._block_starts

    def recording(ends, top):
        seen.append(real(ends, top))
        return seen[-1]

    monkeypatch.setattr(riccati, "_block_starts", recording)
    return seen


class TestBlockCarry:
    @settings(max_examples=30, deadline=None)
    @given(
        a_drift=st.floats(-3.0, 1.0),
        q_track=st.floats(0.3, 7.0),
        r_control=st.floats(0.3, 7.0),
        inference_weight=st.floats(0.0, 3.0),
        horizon=st.floats(0.1, 10.0),
        n_steps=st.sampled_from([10, 50, 128, 1023, 1024, 1500, 4096, FINE]),
    )
    def test_carry_matches_blocked_restart_on_drawn_models(
        self, follower, a_drift, q_track, r_control, inference_weight, horizon, n_steps
    ):
        case = dict(inference_weight=inference_weight, horizon=horizon, a_drift=a_drift,
                    q_track=q_track, r_control=r_control)
        _, _, coeffs, leader = solved(follower, n_steps, **case)
        got = hamiltonian_or_blow_up(leader, follower, coeffs)
        want = blocked_or_blow_up(leader, follower, coeffs)
        assert isinstance(got, tuple) == isinstance(want, tuple)
        if not isinstance(want, tuple):
            assert got == want  # the same node
        elif not agrees_to_rounding(got, want):
            # The carry must fail no model that the per-block restart passes.
            try:
                assert_against_converged_reference(follower, n_steps, **case)
            except AssertionError:
                with pytest.raises(AssertionError):
                    assert_against_converged_reference(
                        follower, n_steps, solve=blocked_or_blow_up, **case
                    )

    @pytest.mark.parametrize("n_steps", [10, 50, 128, 1023, 1024, 1500, 4096, FINE])
    @pytest.mark.parametrize("inference_weight", [0.0, 0.5, 1.0])
    def test_carry_matches_blocked_restart(self, follower, n_steps, inference_weight):
        _, _, coeffs, leader = solved(follower, n_steps, inference_weight=inference_weight)
        assert agrees_to_rounding(hamiltonian_or_blow_up(leader, follower, coeffs),
                                  leader_system_blocked(leader, follower, coeffs))

    @pytest.mark.parametrize("n_steps", [10, 50, 1500, FINE])
    def test_carried_starts_equal_rows_at_block_ends(self, follower, monkeypatch, n_steps):
        # With sigma = 0 the offset is L~'s last entry itself.
        _, _, coeffs, leader = solved(follower, n_steps, sigma=0.0)
        seen = record_block_starts(monkeypatch)
        [lr] = si.solve_leader_system([leader], follower, coeffs)
        (starts,) = seen
        size = math.isqrt(n_steps)
        assert len(starts) == -(-n_steps // size)
        assert np.array_equal(starts[:, :4], np.broadcast_to(np.eye(4), (len(starts), 4, 4)))
        assert np.array_equal(starts[0, 4:], tilde_at(lr, n_steps))
        scale = max(np.max(np.abs(tilde_at(lr, j))) for j in range(n_steps + 1))
        for b in range(1, len(starts)):
            assert max_diff(starts[b, 4:], tilde_at(lr, n_steps - b * size)) <= RTOL * scale

    def test_first_bad_node_at_a_block_end(self, follower, monkeypatch):
        # det X turns negative first at node 29 = 50 - 3 * 7, the last node
        # of the third block of 7 steps, with |quad| far below the threshold.
        _, _, coeffs, leader = solved(follower, 50, inference_weight=1.2, horizon=1.0)
        want = blocked_or_blow_up(leader, follower, coeffs)
        assert round(want / coeffs.grid.h) == 29
        seen = record_block_starts(monkeypatch)
        with pytest.raises(si.BlowUpError) as err:
            si.solve_leader_system([leader], follower, coeffs)
        assert err.value.blow_up_time == want
        assert float(str(err.value).rsplit(" ", 1)[1].rstrip(")")) < riccati.BLOW_UP_THRESHOLD
        (starts,) = seen
        assert np.isfinite(starts[:3]).all() and np.isnan(starts[3:]).all()

    # X's leading block at the corrupted block end, or a Y entry made inf.
    @pytest.mark.parametrize("x3, y_entry", [
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], None),  # singular
        ([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], None),  # negative det
        ([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]], None),
        ([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 1.0]], None),
        (None, (5, 1)),
    ], ids=["singular", "negative-det", "inf", "nan", "inf-in-y"])
    def test_carry_stops_at_a_bad_block_end(self, follower, monkeypatch, x3, y_entry):
        # The third block's last map is overwritten in both paths, so both
        # must raise at its node, 29, and the carry must stop there without
        # a ZeroDivisionError or OverflowError. An inf in Y alone leaves
        # det X positive: the next start is not finite, and the carry stops
        # at the next block end.
        real = core.block_transfer_maps

        def corrupted(a, out):
            size = real(a, out)
            end = out[3 * size - 1].reshape(8, 8)  # the oracle's map, or the solver's one arm's
            if x3 is None:
                end[y_entry] = np.inf
            else:
                end[:4, 4:] = 0.0
                end[:3, :3] = x3
            return size

        monkeypatch.setattr(core, "block_transfer_maps", corrupted)
        monkeypatch.setattr(riccati, "block_transfer_maps", corrupted)
        _, _, coeffs, leader = solved(follower, 50)
        want = blocked_or_blow_up(leader, follower, coeffs)
        assert round(want / coeffs.grid.h) == 29
        seen = record_block_starts(monkeypatch)
        with pytest.raises(si.BlowUpError) as err:
            si.solve_leader_system([leader], follower, coeffs)
        assert err.value.blow_up_time == want
        (starts,) = seen
        assert np.isfinite(starts[:3]).all()
        assert not np.isfinite(starts[3]).all()
        assert np.isnan(starts[3 if x3 is not None else 4 :]).all()


class TestLeaderPaths:
    def test_long_path_matches_loop(self, grid_case):
        grid, _, coeffs, leader, lr, _ = grid_case
        policy = si.RiccatiPolicy(leader, lr)
        shocks = si.RngContract(11).normal_matrix(1, grid.n_steps, si.core.STREAM_LEADER, 0)
        ens = si.simulate_leader_batch(leader, coeffs, policy, grid, shocks)
        ref = leader_batch_loop(leader, coeffs, policy, grid, shocks)
        for got, want in zip((ens.x, ens.aux, ens.aux2, ens.controls), ref):
            assert_close(got, want)

    def test_wide_batch_matches_loop(self, follower, co50, grid50):
        leader = make_leader(0.5)
        policy = si.RiccatiPolicy(leader, si.solve_leader_system([leader], follower, co50)[0])
        shocks = si.RngContract(11).normal_matrix(60, grid50.n_steps, si.core.STREAM_LEADER, 0)
        ens = si.simulate_leader_batch(leader, co50, policy, grid50, shocks)
        ref = leader_batch_loop(leader, co50, policy, grid50, shocks)
        for got, want in zip((ens.x, ens.aux, ens.aux2, ens.controls), ref):
            assert_close(got, want)

    def test_overflowing_controls_name_the_first_bad_node(self, follower):
        # A strongly destabilizing feedback drives x past the float range; the
        # first non-finite control is reported at the same node by the
        # recurrence (one path) and by the loop (a wide batch).
        grid, _, coeffs, leader = solved(follower, 200, inference_weight=0.0)
        quad = np.zeros((grid.n_nodes, 3, 3))
        quad[:, 0, 0] = -1e5
        lr = si.LeaderRiccati(
            grid=grid, quad=quad, lin=np.zeros((grid.n_nodes, 3)),
            offset=np.zeros(grid.n_nodes), scaled_info_weight=0.0,
        )
        policy = si.RiccatiPolicy(leader, lr)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as ref:
                leader_batch_loop(leader, coeffs, policy, grid, np.zeros((1, grid.n_steps)))
            node = str(ref.value).split()[-1]
            assert 0 < int(node) < grid.n_steps
            for n_paths in (1, grid.n_steps):
                with pytest.raises(si.PolicyEvaluationError, match=f"at node {node}$"):
                    si.simulate_leader_batch(
                        leader, coeffs, policy, grid, np.zeros((n_paths, grid.n_steps))
                    )


class TestFollowerPaths:
    @pytest.mark.parametrize("mode", ["euler", "exact"])
    def test_long_paths_match_loop(self, follower, grid_case, mode):
        grid, fr, _, _, _, x_leader = grid_case
        [b] = si.solve_follower_bc(fr, follower, [x_leader])
        shocks = si.RngContract(5).normal_matrix(3, grid.n_steps, si.core.STREAM_FOLLOWER, 0)
        x = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode=mode)
        tables = _exact_transition_tables(follower, fr, b, grid)
        assert_close(x, follower_batch_loop(follower, fr, b, grid, shocks, mode, tables))

    @pytest.mark.parametrize("n_paths", [3, 60])
    def test_prebuilt_tables_change_nothing(self, follower, grid_case, n_paths):
        grid, fr, _, _, _, x_leader = grid_case
        [b] = si.solve_follower_bc(fr, follower, [x_leader])
        shocks = si.RngContract(5).normal_matrix(n_paths, grid.n_steps, si.core.STREAM_FOLLOWER, 0)
        tables = _exact_transition_tables(follower, fr, b, grid)
        x = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact")
        assert np.array_equal(_follower_nodes(follower, tables, shocks, 1), x)

    @pytest.mark.parametrize("mode", ["euler", "exact"])
    def test_wide_batch_matches_loop(self, follower, fr50, grid50, mode):
        b = 0.05 * np.sin(4.0 * grid50.nodes)
        shocks = si.RngContract(5).normal_matrix(60, grid50.n_steps, si.core.STREAM_FOLLOWER, 0)
        x = si.simulate_follower_batch(follower, fr50, b, grid50, shocks, mode=mode)
        tables = _exact_transition_tables(follower, fr50, b, grid50)
        ref = follower_batch_loop(follower, fr50, b, grid50, shocks, mode, tables)
        assert_close(x, ref)


def riccati_case(follower, n_steps):
    """Grid, follower solve, coefficients, leader and its Riccati policy."""
    grid, fr, coeffs, leader = solved(follower, n_steps)
    policy = si.RiccatiPolicy(leader, si.solve_leader_system([leader], follower, coeffs)[0])
    return grid, fr, coeffs, leader, policy


@settings(max_examples=30, deadline=None)
@given(n_steps=st.sampled_from([50, 100, 200]), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_affine_laws_match_loops_across_the_regime_boundary(follower, n_steps, data, seed):
    # Both schedules of the solver, on either side of SCAN_MAX_PATHS and of
    # the step count, against the per-step loops.
    m = si.core.SCAN_MAX_PATHS
    n_paths = data.draw(st.sampled_from([1, m - 1, m, m + 1, n_steps - 1, n_steps,
                                         n_steps + 1, 2000]))
    grid, fr, coeffs, leader, policy = riccati_case(follower, n_steps)
    shocks = np.random.default_rng(seed).standard_normal((n_paths, n_steps))
    ens = si.simulate_leader_batch(leader, coeffs, policy, grid, shocks)
    ref = leader_batch_loop(leader, coeffs, policy, grid, shocks)
    for got, want in zip((ens.x, ens.aux, ens.aux2, ens.controls), ref):
        assert_close(got, want)
    [b] = si.solve_follower_bc(fr, follower, [si.Trajectory(grid=grid, values=ens.x[0])])
    tables = _exact_transition_tables(follower, fr, b, grid)
    for mode in ("euler", "exact"):
        x = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode=mode)
        assert_close(x, follower_batch_loop(follower, fr, b, grid, shocks, mode, tables))


def stats_case(a_drift, q_track, inference_weight, horizon, n_steps, **leader_overrides):
    """A drawn follower, its grid and coefficients, and a leader with its
    Riccati law; the inference weight falls back to 0 where it blows up."""
    follower = make_follower(a_drift=a_drift, q_track=q_track)
    grid = si.build_grid(horizon, n_steps)
    fr = si.solve_follower_a(follower, grid)
    coeffs = si.compute_coefficients(fr, follower)
    try:
        leader = make_leader(inference_weight, **leader_overrides)
        [lr] = si.solve_leader_system([leader], follower, coeffs)
    except si.BlowUpError:
        leader = make_leader(0.0, **leader_overrides)
        [lr] = si.solve_leader_system([leader], follower, coeffs)
    return follower, grid, fr, coeffs, leader, si.RiccatiPolicy(leader, lr)


@settings(max_examples=30, deadline=None)
@given(
    a_drift=st.floats(-3.0, 1.0),
    q_track=st.floats(0.0, 5.0),
    inference_weight=st.floats(0.0, 0.5),
    horizon=st.floats(0.1, 3.0),
    n_steps=st.integers(2, 1500),
    n_paths=st.sampled_from([1, 2, si.core.SCAN_MAX_PATHS, si.core.SCAN_MAX_PATHS + 1, 300]),
    seed=st.integers(0, 2**32 - 1),
)
# A strongly decaying follower: exp(-cum_f) grows to 2.9e4 over the horizon.
@example(a_drift=-2.8, q_track=5.0, inference_weight=0.0, horizon=2.9, n_steps=1500,
         n_paths=1, seed=0)
# Subnormal precisions, of order q_track^2, where the two sums differ by
# whole subnormal spacings: one at 2.9e-317 over 4 nodes, and 5 over 35 nodes.
@example(a_drift=0.0, q_track=8.776620620669868e-157, inference_weight=0.0, horizon=0.25,
         n_steps=3, n_paths=1, seed=0)
@example(a_drift=0.5, q_track=1.059462012796379e-161, inference_weight=0.0, horizon=3.0,
         n_steps=34, n_paths=128, seed=0)
def test_leader_stats_match_one_line_on_drawn_models(
    a_drift, q_track, inference_weight, horizon, n_steps, n_paths, seed
):
    # The evaluator sums aux_T - aux back from x and sums step-major in a
    # pairwise tree; the one-line expressions rebuild the score from x by
    # forward sums and sum each path's row. Both under the affine law (the
    # solver's state) and the same law through the session loop. The
    # precision's bound is the gap measured over 1800 draws from these
    # ranges, at most 1.7e-11, with margin; it is the one-line score's own
    # cancellation (cw_T - cw): on the worst draw a long-double replay put
    # the evaluator 1.1e-15 off and the one-line score 1.7e-11. The public
    # score and cost are the evaluator's arithmetic, so they equal its
    # precision and primary cost bit for bit.
    follower, grid, fr, coeffs, leader, policy = stats_case(
        a_drift, q_track, inference_weight, horizon, n_steps
    )
    loop_policy = si.FunctionPolicy(
        lambda j, x, aux, aux2: policy.control_at(j, x[:, -1], aux, aux2)
    )
    shocks = np.random.default_rng(seed).standard_normal((n_paths, n_steps))
    for law in (policy, loop_policy):
        ens, precision, j_primary, effort = leader_batch_stats(
            leader, follower, coeffs, fr, law, grid, shocks
        )
        assert np.array_equal(si.compute_g_batch(fr, follower, ens.x)[1], precision)
        assert np.array_equal(si.primary_cost_batch(leader, grid, ens.x, ens.controls),
                              j_primary)
        want = compute_g_batch_one_line(fr, follower, ens.x)[1]
        # Below the normal range each of the trapezoid's terms may round by a
        # whole subnormal spacing, so the floor grows with their count.
        floor = 2 * grid.n_nodes * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(precision - want) <= np.maximum(3e-11 * np.abs(want), floor))
        want = primary_cost_batch_one_line(leader, grid, ens.x, ens.controls)
        assert np.all(np.abs(j_primary - want) <= 1e-12 * np.abs(want))
        want = trapz_one_line(ens.controls**2, grid)
        assert np.all(np.abs(effort - want) <= 1e-12 * np.abs(want))


@settings(max_examples=30, deadline=None)
@given(
    a_drift=st.floats(-3.0, 1.0),
    q_track=st.floats(0.0, 5.0),
    inference_weight=st.floats(0.0, 0.5),
    horizon=st.floats(0.1, 3.0),
    n_steps=st.integers(2, 300),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_affine_law_batches_keep_their_schedules_bits(
    a_drift, q_track, inference_weight, horizon, n_steps, data, seed
):
    # A batch the solver would step runs the session loop's node steps with
    # the law's control formed in place, so it equals the same law through a
    # session bit for bit, trapezoid identities included, and both equal the
    # oracle loop's expressions. A batch ``_use_scan`` admits stays on the
    # blocked recurrence, unchanged.
    follower, grid, fr, coeffs, leader, policy = stats_case(
        a_drift, q_track, inference_weight, horizon, n_steps
    )
    m = si.core.SCAN_MAX_PATHS
    n_paths = data.draw(st.sampled_from([1, 2, m, m + 1, n_steps - 1, n_steps, n_steps + 1, 400])
                        .filter(lambda k: k >= 1))
    shocks = np.random.default_rng(seed).standard_normal((n_paths, n_steps))
    ens = si.simulate_leader_batch(leader, coeffs, policy, grid, shocks)
    if _use_scan(n_paths, n_steps):
        ref = _leader_scan(leader, coeffs, policy, policy.gains, grid, shocks)
    else:
        loop_policy = si.FunctionPolicy(
            lambda j, x, aux, aux2: policy.control_at(j, x[:, -1], aux, aux2)
        )
        ref = si.simulate_leader_batch(leader, coeffs, loop_policy, grid, shocks)
        oracle = leader_batch_loop(leader, coeffs, loop_policy, grid, shocks)
        for got, want in zip((ref.x, ref.aux, ref.aux2, ref.controls), oracle):
            assert np.array_equal(got, want)
    for name in ("x", "aux", "aux2", "controls"):
        assert np.array_equal(getattr(ens, name), getattr(ref, name)), name


def sum_floor(grid):
    # Below the smallest normal float each of a mean's terms, n_steps + 1
    # products at each of n_nodes nodes, may round by a whole subnormal spacing.
    return (grid.n_steps + 1) * grid.n_nodes * np.finfo(float).smallest_subnormal


@settings(max_examples=30, deadline=None)
@given(
    a_drift=st.floats(-3.0, 1.0),
    q_track=st.floats(0.0, 5.0),
    inference_weight=st.floats(0.0, 0.5),
    horizon=st.floats(0.1, 3.0),
    n_steps=st.integers(1, core.MOMENT_MAX_STEPS),
    n_paths=st.sampled_from([1, 2, 255, 256, 257, 600]),
    chunk_rows=st.integers(1, 700),
    leader_sigma=st.floats(0.0, 1.0),
    leader_x0=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_moment_means_match_per_path_means_on_drawn_models(
    a_drift, q_track, inference_weight, horizon, n_steps, n_paths, chunk_rows,
    leader_sigma, leader_x0, seed,
):
    # Under an affine law a path's precision and primary cost are quadratic
    # in its shocks, so their means over the paths follow from the shocks'
    # sample moments. The moments are summed over blocks of the path index,
    # so their bits do not depend on the chunk cap.
    follower, grid, fr, coeffs, leader, policy = stats_case(
        a_drift, q_track, inference_weight, horizon, n_steps, sigma=leader_sigma, x0=leader_x0
    )
    rng = si.RngContract(seed)
    moments = studies._shock_moments(rng, n_paths, n_steps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(studies, "CHUNK_ELEMENTS", chunk_rows * n_steps)
        for got, want in zip(studies._shock_moments(rng, n_paths, n_steps), moments):
            assert np.array_equal(got, want)
        [(precision, j_primary, _, _)] = studies._leader_stats(
            [(leader, policy)], follower, coeffs, fr, grid, n_paths, rng
        )
    [(got_precision, got_j, _, _)] = leader_mean_stats(
        [(leader, policy)], coeffs, fr, grid, *moments, studies.CHUNK_ELEMENTS
    )
    for got, want in ((got_precision, np.mean(precision)), (got_j, np.mean(j_primary))):
        assert abs(got - want) <= max(1e-12 * abs(want), sum_floor(grid)), (got, want)


@settings(max_examples=30, deadline=None)
@given(
    a_drift=st.floats(-3.0, 1.0),
    q_track=st.floats(0.0, 5.0),
    horizon=st.floats(0.1, 3.0),
    n_steps=st.integers(1, core.MOMENT_MAX_STEPS),
    arms=st.lists(
        st.tuples(
            st.floats(0.01, 5.0),  # the leader's q_track
            st.floats(0.0, 0.5),  # its inference weight
            st.floats(0.0, 1.0),  # sigma
            st.floats(-1.0, 1.0),  # x0
            st.floats(-1.0, 1.0),  # the target's amplitude
        ),
        min_size=1,
        max_size=7,
    ),
    n_paths=st.sampled_from([0, 1, 2, 257]),
    stack=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_mean_stats_match_the_per_arm_evaluator(
    a_drift, q_track, horizon, n_steps, arms, n_paths, stack, seed
):
    # The stacked evaluator steps each arm's responses with one step matrix
    # per node where the per-arm one ran the node loop's row updates, so
    # they agree to rounding; an arm's bits do not depend on its stack.
    # No shock rows on the moments (0, I) is the exact expectation;
    # otherwise the moments are those of n_paths drawn rows, and the first
    # row is path 0.
    follower = make_follower(a_drift=a_drift, q_track=q_track)
    grid = si.build_grid(horizon, n_steps)
    fr = si.solve_follower_a(follower, grid)
    coeffs = si.compute_coefficients(fr, follower)
    laws = []
    for leader_q, weight, sigma, x0, amplitude in arms:
        target = si.Sinusoid(amplitude=amplitude, omega=2.0 * math.pi / horizon)
        try:
            leader = make_leader(weight, q_track=leader_q, sigma=sigma, x0=x0, target=target)
            [lr] = si.solve_leader_system([leader], follower, coeffs)
        except si.BlowUpError:
            leader = make_leader(0.0, q_track=leader_q, sigma=sigma, x0=x0, target=target)
            [lr] = si.solve_leader_system([leader], follower, coeffs)
        laws.append((leader, si.RiccatiPolicy(leader, lr)))
    if n_paths:
        shocks = np.random.default_rng(seed).standard_normal((n_paths, n_steps))
        moments = (shocks.mean(axis=0), shocks.T @ shocks / n_paths, shocks[:1])
    else:
        moments = (np.zeros(n_steps), np.eye(n_steps), np.empty((0, n_steps)))
    cols = n_steps + 1 + len(moments[2])
    alone = leader_mean_stats(laws, coeffs, fr, grid, *moments, 0)
    stacked = leader_mean_stats(laws, coeffs, fr, grid, *moments,
                                stack * grid.n_nodes * 3 * cols)
    for (leader, policy), one, got in zip(laws, alone, stacked):
        for a, b in zip(one, got):
            assert np.array_equal(a, b)
        ens, precision, j_primary = leader_mean_stats_per_arm(
            leader, coeffs, fr, policy, grid, *moments
        )
        for value, want in ((got[0], precision), (got[1], j_primary)):
            assert abs(value - want) <= max(RTOL * abs(want), sum_floor(grid)), (value, want)
        if n_paths:
            assert_close(got[2], ens.x[-1:])
            assert_close(got[3], ens.controls[-1:])


@settings(max_examples=30, deadline=None)
@given(
    # Short grids stack many arms; past 1024 steps each arm goes alone. Under
    # 8 steps, 7 arms as columns of one recurrence would change its schedule.
    n_steps=st.one_of(st.integers(1, 8), st.integers(9, 60), st.integers(61, 1500)),
    arms=st.lists(
        st.tuples(
            st.floats(0.3, 5.0),  # the leader's q_track
            st.floats(0.0, 2.0),  # its inference weight
            st.floats(0.3, 5.0),  # r_control
            st.floats(0.0, 1.0),  # sigma
            st.floats(-1.0, 1.0),  # the target's amplitude
        ),
        min_size=1,
        max_size=7,
    ),
    n_paths=st.integers(1, 3),
    mode=st.sampled_from(["euler", "exact"]),
    seed=st.integers(0, 2**32 - 1),
)
# Seven arms on five steps: one arm's b and follower row are solved blocked,
# seven side by side would be stepped.
@example(n_steps=5, arms=[(1.0, 0.5, 1.0, 0.1, 0.1)] * 7, n_paths=1, mode="euler", seed=0)
def test_stacked_arms_are_the_bits_of_arms_alone(follower, n_steps, arms, n_paths, mode, seed):
    # The leader solve, b and the follower rows of a stack of arms are, arm
    # by arm, the bits of each arm solved alone; a stack in which arms blow
    # up raises the first of them, as the arm raises alone.
    grid = si.build_grid(HORIZON, n_steps)
    fr = si.solve_follower_a(follower, grid)
    coeffs = si.compute_coefficients(fr, follower)
    leaders = [
        make_leader(weight, q_track=q_track, r_control=r_control, sigma=sigma,
                    target=si.Sinusoid(amplitude=amplitude, omega=2.0 * math.pi / HORIZON))
        for q_track, weight, r_control, sigma, amplitude in arms
    ]
    alone = []
    for leader in leaders:
        try:
            alone += si.solve_leader_system([leader], follower, coeffs)
        except si.BlowUpError as exc:
            alone.append(exc)
    blown = [exc for exc in alone if isinstance(exc, si.BlowUpError)]
    if blown:
        with pytest.raises(si.BlowUpError) as err:
            si.solve_leader_system(leaders, follower, coeffs)
        assert err.value.blow_up_time == blown[0].blow_up_time
        assert str(err.value) == str(blown[0])
    else:
        for got, want in zip(si.solve_leader_system(leaders, follower, coeffs), alone):
            for name in ("quad", "lin", "offset"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    gen = np.random.default_rng(seed)
    x_leaders = [si.Trajectory(grid=grid, values=leader.target_at(grid.nodes, HORIZON)
                               + 0.1 * gen.standard_normal(grid.n_nodes))
                 for leader in leaders]
    b = si.solve_follower_bc(fr, follower, x_leaders)
    shocks = gen.standard_normal((n_paths, n_steps))
    paths = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode=mode)
    assert paths.shape == (len(leaders), n_paths, grid.n_nodes)
    for x_leader, b_arm, paths_arm in zip(x_leaders, b, paths):
        [b_alone] = si.solve_follower_bc(fr, follower, [x_leader])
        assert np.array_equal(b_arm, b_alone)
        assert np.array_equal(
            paths_arm, si.simulate_follower_batch(follower, fr, b_alone, grid, shocks, mode=mode)
        )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    a_drift=st.floats(-3.0, 1.0),
    q_track=st.floats(0.0, 5.0),
    inference_weight=st.floats(0.0, 0.5),
    horizon=st.floats(0.1, 3.0),
    n_steps=st.integers(1, 200),
    leader_sigma=st.floats(0.0, 1.0),
    leader_x0=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_monte_carlo_means_lie_near_the_exact_expectation(
    a_drift, q_track, inference_weight, horizon, n_steps, leader_sigma, leader_x0, seed
):
    # The moment evaluator at (0, I) is the exact expectation of the
    # Monte Carlo estimators, so their means over 400 paths lie within 5
    # standard errors of it (derandomized: a fixed set of draws).
    n_paths = 400
    follower, grid, fr, coeffs, leader, policy = stats_case(
        a_drift, q_track, inference_weight, horizon, n_steps, sigma=leader_sigma, x0=leader_x0
    )
    shocks = si.RngContract(seed).normal_matrix(n_paths, n_steps, core.STREAM_LEADER)
    _, precision, j_primary, _ = leader_batch_stats(
        leader, follower, coeffs, fr, policy, grid, shocks
    )
    for exact, paths in zip(exact_means(leader, coeffs, fr, policy, grid), (precision, j_primary)):
        # Scaled first: the squares of a tiny q_track's precisions underflow.
        scale = np.max(np.abs(paths)) or 1.0
        se = scale * np.std(paths / scale, ddof=1) / math.sqrt(n_paths)
        slack = max(1e-12 * abs(exact), sum_floor(grid))
        assert abs(np.mean(paths) - exact) <= 5 * se + slack, (np.mean(paths), exact, se)


def follower_case(follower, n_steps, horizon=HORIZON):
    """Grid, follower solve, ``b`` for a fixed leader path and exact tables."""
    grid = si.build_grid(horizon, n_steps)
    fr = si.solve_follower_a(follower, grid)
    x_leader = si.Trajectory(grid=grid, values=0.1 * np.cos(3.0 * grid.nodes))
    [b] = si.solve_follower_bc(fr, follower, [x_leader])
    return grid, fr, b, _exact_transition_tables(follower, fr, b, grid)


@settings(max_examples=40, deadline=None)
@given(
    a_drift=st.floats(-3.0, 1.0),
    q_track=st.floats(0.0, 5.0),
    sigma=st.floats(0.01, 1.0),
    horizon=st.floats(0.1, 3.0),
    stride=st.sampled_from([1, 2, 8, 16]),
    n_blocks=st.integers(1, 80),
    n_paths=st.sampled_from([1, 3, 40, 200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_observation_grid_paths_match_fine_paths(
    a_drift, q_track, sigma, horizon, stride, n_blocks, n_paths, seed
):
    # Composing the exact transition over blocks of ``stride`` steps gives
    # the fine-grid exact paths at the block ends, to rounding; at stride 1
    # it is the fine-grid simulator itself.
    follower = make_follower(a_drift=a_drift, q_track=q_track, sigma=sigma)
    grid, fr, b, tables = follower_case(follower, stride * n_blocks, horizon)
    shocks = np.random.default_rng(seed).standard_normal((n_paths, grid.n_steps))
    fine = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact")
    got = _follower_nodes(follower, tables, shocks, stride)
    want = fine[:, ::stride]
    assert got.shape == want.shape
    if stride == 1:
        assert np.array_equal(got, want)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_steps", [50, 200])
def test_one_path_stats_equal_its_row_in_a_batch(follower, n_steps):
    # np.sum down the first axis adds a lone column pairwise and several in
    # sequence; the evaluator's sums must not follow it.
    grid, fr, coeffs, leader, policy = riccati_case(follower, n_steps)
    shocks = np.random.default_rng(1).standard_normal((2, n_steps))
    one = leader_batch_stats(leader, follower, coeffs, fr, policy, grid, shocks[:1])
    two = leader_batch_stats(leader, follower, coeffs, fr, policy, grid, shocks)
    for got, want in zip(one[1:], two[1:]):
        assert got[0] == want[0]


@pytest.mark.parametrize("n_steps", [50, 200])
def test_score_is_the_same_bits_either_side_of_its_path_bound(follower, n_steps):
    # Past SCAN_MAX_PATHS paths the tail is summed one row at a time, up to
    # it by np.cumsum down the columns; both add the same terms in order.
    grid, fr, coeffs, _, _ = riccati_case(follower, n_steps)
    m = si.core.SCAN_MAX_PATHS
    x = np.random.default_rng(2).standard_normal((grid.n_nodes, m + 1))
    assert np.array_equal(_score(coeffs.weight, fr, x)[:, :m],
                          _score(coeffs.weight, fr, x[:, :m]))


@settings(max_examples=30, deadline=None)
@given(
    n_steps=st.sampled_from([50, 200]),
    blocked=st.booleans(),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rows_do_not_depend_on_batch_size(follower, n_steps, blocked, data, seed):
    # Two batches of different sizes in one schedule of the solver share
    # rows; each shared row comes out bit for bit the same in both, from
    # the simulators, from every per-row statistic and from the leader's
    # evaluator under the affine law and under a session-loop law.
    m = si.core.SCAN_MAX_PATHS
    sizes = (st.integers(1, min(m, n_steps - 1)) if blocked
             else st.integers(max(m + 1, n_steps), 300))
    n_a = data.draw(sizes)
    n_b = data.draw(sizes.filter(lambda k: k != n_a))
    rows = max(n_a, n_b)
    grid, fr, coeffs, leader, policy = riccati_case(follower, n_steps)
    gen = np.random.default_rng(seed)
    lshocks = gen.standard_normal((rows, n_steps))
    fshocks = gen.standard_normal((rows, n_steps))
    obs = np.arange(0, n_steps + 1, 5)
    x_leader = si.simulate_leader(leader, coeffs, policy, grid, si.RngContract(seed)).trajectory()
    gp = si.compute_g(fr, follower, x_leader)
    [b] = si.solve_follower_bc(fr, follower, [x_leader])
    loop_policy = si.FunctionPolicy(lambda j, x, aux, aux2: -0.5 * x[:, -1] + aux - aux2)
    obs_tables = _interval_tables(grid.nodes[obs], fr, gp)

    def per_row(lo, hi):
        ens = si.simulate_leader_batch(leader, coeffs, policy, grid, lshocks[lo:hi])
        euler = si.simulate_follower_batch(follower, fr, b, grid, fshocks[lo:hi])
        exact = si.simulate_follower_batch(follower, fr, b, grid, fshocks[lo:hi], mode="exact")
        stats = [
            leader_batch_stats(leader, follower, coeffs, fr, law, grid, lshocks[lo:hi])[1:]
            for law in (policy, loop_policy)
        ]
        return (
            ens.x, ens.aux, ens.aux2, ens.controls, euler, exact,
            *si.compute_g_batch(fr, follower, ens.x),
            si.primary_cost_batch(leader, grid, ens.x, ens.controls),
            si.mle_continuous_batch(euler, gp, fr, follower),
            # Row-major, as the estimator's rows must be.
            *_mle_discrete_rows(np.ascontiguousarray(exact[:, obs]), obs_tables, follower),
            *stats[0], *stats[1],
        )

    # Batch a is the first n_a rows and batch b the last n_b, so shared rows
    # sit at different positions when n_a > n_b.
    out_a = per_row(0, n_a)
    out_b = per_row(rows - n_b, rows)
    shared = slice(rows - n_b, n_a)
    for got_a, got_b in zip(out_a, out_b):
        assert np.array_equal(got_a[shared], got_b[: n_a - (rows - n_b)])
    # The exact follower on the observation grid, where both batches fall
    # in one schedule of its coarse recurrence.
    tables = _exact_transition_tables(follower, fr, b, grid)
    if _use_scan(n_a, n_steps // 5) == _use_scan(n_b, n_steps // 5):
        obs_a = _follower_nodes(follower, tables, fshocks[:n_a], 5)
        obs_b = _follower_nodes(follower, tables, fshocks[rows - n_b :], 5)
        assert np.array_equal(obs_a[shared], obs_b[: n_a - (rows - n_b)])
    # One path through the single-path estimator is its batch row.
    euler_row = out_a[4][-1]
    fpath = si.FollowerPath(grid=grid, x=euler_row)
    assert si.mle_continuous(fpath, gp, fr, follower).m_hat == out_a[9][-1]
