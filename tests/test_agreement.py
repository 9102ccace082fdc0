"""Agreement gates: every fast path against the per-step loop it replaces.

The blocked affine recurrence re-associates rounding, so long paths agree
with the loop to a relative 1e-12 of the path's magnitude; wide batches
still take the loop and must match it bit for bit, as must the Python-float
RK4 solvers. On grids of at least ``HAMILTONIAN_MIN_STEPS`` steps the
leader's Riccati system is a different fourth-order scheme (the linear
Hamiltonian product): it agrees with the RK4 loop to 1e-10 relative where
the grid resolves the solution, and raises at RK4's blow-up node or one step
nearer T.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackinfer as si
from conftest import HORIZON, make_follower, make_leader
from oracles import (
    affine_recurrence_loop,
    affine_scan_inline_blocks,
    compute_g_batch_one_line,
    cumtrapz_one_line,
    follower_a_loop,
    follower_batch_loop,
    follower_bc_loop,
    leader_batch_loop,
    leader_system_loop,
    primary_cost_batch_one_line,
    trapz_one_line,
)
from stackinfer.riccati import HAMILTONIAN_MIN_STEPS
from stackinfer.simulate import _affine_scan, _exact_transition_tables

RTOL = 1e-12
HAMILTONIAN_RTOL = 1e-10
FINE = 2**13


def assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


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
    lr = si.solve_leader_system(leader, follower, coeffs)
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
    y = _affine_scan(a, c, y0)
    assert_close(y, affine_recurrence_loop(a, c, y0))
    # Sharing the block partition with the Riccati solve changed no bit.
    assert np.array_equal(y, affine_scan_inline_blocks(a, c, y0))


def test_blocked_recurrence_rows_are_independent():
    gen = np.random.default_rng(3)
    a = np.eye(3) + 0.05 * gen.standard_normal((200, 3, 3))
    c = gen.standard_normal((7, 200, 3))
    y0 = gen.standard_normal((7, 3))
    whole = _affine_scan(a, c, y0)
    for i in (0, 3, 6):
        assert np.array_equal(_affine_scan(a, c[i : i + 1], y0[i : i + 1])[0], whole[i])


def _node_values(gen, n_rows, n_nodes, layout, scale):
    """Node values as a 1-D row, a 2-D batch, a column slice or a Fortran array."""
    if layout == "1d":
        return scale * gen.standard_normal(n_nodes)
    if layout == "sliced":
        return (scale * gen.standard_normal((n_rows, 2 * n_nodes)))[:, ::2]
    values = scale * gen.standard_normal((n_rows, n_nodes))
    return np.asfortranarray(values) if layout == "fortran" else values


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 7, 50, 97, 300]),
    n_rows=st.integers(1, 5),
    layout=st.sampled_from(["1d", "2d", "sliced", "fortran"]),
    exponent=st.integers(-3, 3),
    q_track=st.floats(0.3, 7.0),
    r_control=st.floats(0.3, 7.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_helpers_equal_one_line_expressions(
    n, n_rows, layout, exponent, q_track, r_control, seed
):
    gen = np.random.default_rng(seed)
    follower = make_follower(q_track=q_track)
    grid, fr, _, _ = solved(follower, n)
    leader = make_leader(q_track=q_track, r_control=r_control)
    x = _node_values(gen, n_rows, grid.n_nodes, layout, 10.0**exponent)
    assert np.array_equal(si.cumtrapz(x, grid), cumtrapz_one_line(x, grid))
    assert np.array_equal(si.trapz(x, grid), trapz_one_line(x, grid))
    g, precision = si.compute_g_batch(fr, follower, x)
    g_ref, precision_ref = compute_g_batch_one_line(fr, follower, x)
    assert np.array_equal(g, g_ref) and np.array_equal(precision, precision_ref)
    x2 = np.atleast_2d(x)
    u = _node_values(gen, x2.shape[0], grid.n_nodes, "2d" if layout == "1d" else layout, 1.0)
    assert np.array_equal(si.primary_cost_batch(leader, grid, x2, u),
                          primary_cost_batch_one_line(leader, grid, x2, u))


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
            si.solve_leader_system(leader, follower, coeffs)
        steps = (err.value.blow_up_time - rk4.args[0]) / coeffs.grid.h
        assert round(steps) in (0, 1) and abs(steps - round(steps)) < 1e-6
        return None
    lr = si.solve_leader_system(leader, follower, coeffs)
    return (lr.quad, lr.lin, lr.offset), ref


def max_diff(got, want):
    return np.max(np.abs(got - want))


class TestRiccatiSolvers:
    @pytest.mark.parametrize("grid_case", [50, HAMILTONIAN_MIN_STEPS - 1], indirect=True)
    def test_leader_system_bit_identical(self, follower, grid_case):
        _, _, coeffs, leader, lr, _ = grid_case
        quad, lin, offset = leader_system_loop(leader, follower, coeffs)
        assert np.array_equal(lr.quad, quad)
        assert np.array_equal(lr.lin, lin)
        assert np.array_equal(lr.offset, offset)

    @pytest.mark.parametrize("grid_case", [FINE], indirect=True)
    def test_leader_system_matches_loop(self, follower, grid_case):
        _, _, coeffs, leader, lr, _ = grid_case
        for got, want in zip((lr.quad, lr.lin, lr.offset),
                             leader_system_loop(leader, follower, coeffs)):
            assert max_diff(got, want) <= HAMILTONIAN_RTOL * np.max(np.abs(want))
        assert np.array_equal(lr.quad, np.swapaxes(lr.quad, 1, 2))
        assert not (lr.quad.flags.writeable or lr.lin.flags.writeable
                    or lr.offset.flags.writeable)

    @pytest.mark.parametrize("n_steps", [HAMILTONIAN_MIN_STEPS, 1500, 4096, 5000])
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
        n_steps=st.sampled_from([1024, 1500, 4096, 5000]),
    )
    def test_hamiltonian_against_rk4_on_drawn_models(
        self, follower, a_drift, q_track, r_control, inference_weight, horizon, n_steps
    ):
        # Most draws blow up; those must blow up in both schemes. Where the
        # grid resolves the solution the two schemes agree to 1e-10. Where it
        # does not (a steep solution near blow-up, or long horizons, where
        # the decay kernel reaches 1e3 to 1e12) both sit up to about 1e-5
        # from the converged solution and, as two different fourth-order
        # schemes, differ by up to about as much as either errs. So the
        # Hamiltonian must be within 1e-10, or within twice RK4's own error,
        # of RK4 on n and 2n steps Richardson-extrapolated.
        case = dict(inference_weight=inference_weight, horizon=horizon,
                    a_drift=a_drift, q_track=q_track, r_control=r_control)
        solved_both = solve_both(follower, n_steps, **case)
        if solved_both is not None:
            _, _, fine, leader = solved(follower, 2 * n_steps, **case)
            for got, want, want_fine in zip(*solved_both,
                                            leader_system_loop(leader, follower, fine)):
                converged = want_fine[::2] + (want_fine[::2] - want) / 15.0
                bound = max(HAMILTONIAN_RTOL * np.max(np.abs(want)),
                            2.0 * max_diff(want, converged))
                assert max_diff(got, converged) <= bound

    @pytest.mark.parametrize("n_steps", [HAMILTONIAN_MIN_STEPS, FINE])
    @pytest.mark.parametrize("inference_weight", [1.5, 2.0, 3.0])
    def test_hamiltonian_blow_up_within_one_step(self, follower, n_steps, inference_weight):
        assert solve_both(follower, n_steps, inference_weight=inference_weight) is None

    def test_long_grid_memory_is_bounded(self, follower):
        _, _, coeffs, leader = solved(follower, FINE)
        si.solve_leader_system(leader, follower, coeffs)
        tracemalloc.start()
        try:
            si.solve_leader_system(leader, follower, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_follower_bc_bit_identical(self, follower, grid_case):
        _, fr, _, _, _, x_leader = grid_case
        b, c = si.solve_follower_bc(fr, follower, x_leader)
        b_ref, c_ref = follower_bc_loop(fr, follower, x_leader)
        assert np.array_equal(b, b_ref)
        assert np.array_equal(c, c_ref)

    def test_follower_a_bit_identical(self, follower, grid_case):
        grid, fr, _, _, _, _ = grid_case
        assert np.array_equal(fr.a, follower_a_loop(follower, grid))

    @settings(max_examples=30, deadline=None)
    @given(
        a_drift=st.floats(-3.0, 1.0),
        q_track=st.floats(0.0, 5.0),
        dilation=st.floats(-2.0, 2.0),
        sigma=st.floats(0.0, 1.0),
        entropy_weight=st.floats(0.01, 5.0),
    )
    def test_follower_bc_matches_loop_on_drawn_models(
        self, grid50, a_drift, q_track, dilation, sigma, entropy_weight
    ):
        model = make_follower(a_drift=a_drift, q_track=q_track, dilation=dilation,
                              sigma=sigma, entropy_weight=entropy_weight)
        fr = si.solve_follower_a(model, grid50)
        x_leader = si.Trajectory(grid=grid50, values=0.1 * np.cos(3.0 * grid50.nodes))
        b, c = si.solve_follower_bc(fr, model, x_leader)
        b_ref, c_ref = follower_bc_loop(fr, model, x_leader)
        assert np.array_equal(b, b_ref)
        assert np.array_equal(c, c_ref)

    @pytest.mark.parametrize("n_steps", [50, 400])
    def test_blow_up_time_unchanged(self, follower, n_steps):
        _, _, coeffs, leader = solved(follower, n_steps, inference_weight=2.0)
        with pytest.raises(ValueError) as ref:
            leader_system_loop(leader, follower, coeffs)
        with pytest.raises(si.BlowUpError) as err:
            si.solve_leader_system(leader, follower, coeffs)
        assert err.value.blow_up_time == ref.value.args[0]


class TestLeaderPaths:
    def test_long_path_matches_loop(self, grid_case):
        grid, _, coeffs, leader, lr, _ = grid_case
        policy = si.RiccatiPolicy(leader, lr)
        shocks = si.RngContract(11).normal_matrix(1, grid.n_steps, si.core.STREAM_LEADER, 0)
        ens = si.simulate_leader_batch(leader, coeffs, policy, grid, shocks)
        ref = leader_batch_loop(leader, coeffs, policy, grid, shocks)
        for got, want in zip((ens.x, ens.aux, ens.aux2, ens.controls), ref):
            assert_close(got, want)

    def test_wide_batch_is_the_loop(self, follower, co50, grid50):
        leader = make_leader(0.5)
        policy = si.RiccatiPolicy(leader, si.solve_leader_system(leader, follower, co50))
        shocks = si.RngContract(11).normal_matrix(60, grid50.n_steps, si.core.STREAM_LEADER, 0)
        ens = si.simulate_leader_batch(leader, co50, policy, grid50, shocks)
        ref = leader_batch_loop(leader, co50, policy, grid50, shocks)
        for got, want in zip((ens.x, ens.aux, ens.aux2, ens.controls), ref):
            assert np.array_equal(got, want)

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
        b, _ = si.solve_follower_bc(fr, follower, x_leader)
        shocks = si.RngContract(5).normal_matrix(3, grid.n_steps, si.core.STREAM_FOLLOWER, 0)
        x = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode=mode)
        tables = _exact_transition_tables(follower, fr, b, grid)
        assert_close(x, follower_batch_loop(follower, fr, b, grid, shocks, mode, tables))

    @pytest.mark.parametrize("n_paths", [3, 60])
    def test_prebuilt_tables_change_nothing(self, follower, grid_case, n_paths):
        grid, fr, _, _, _, x_leader = grid_case
        b, _ = si.solve_follower_bc(fr, follower, x_leader)
        shocks = si.RngContract(5).normal_matrix(n_paths, grid.n_steps, si.core.STREAM_FOLLOWER, 0)
        tables = _exact_transition_tables(follower, fr, b, grid)
        x = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact")
        x_tab = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact",
                                           tables=tables)
        assert np.array_equal(x_tab, x)
        with pytest.raises(si.InvalidArgumentError, match="transition tables"):
            si.simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact",
                                       tables=tuple(t[1:] for t in tables))

    @pytest.mark.parametrize("mode", ["euler", "exact"])
    def test_wide_batch_is_the_loop(self, follower, fr50, grid50, mode):
        b = 0.05 * np.sin(4.0 * grid50.nodes)
        shocks = si.RngContract(5).normal_matrix(60, grid50.n_steps, si.core.STREAM_FOLLOWER, 0)
        x = si.simulate_follower_batch(follower, fr50, b, grid50, shocks, mode=mode)
        tables = _exact_transition_tables(follower, fr50, b, grid50)
        ref = follower_batch_loop(follower, fr50, b, grid50, shocks, mode, tables)
        assert np.array_equal(x, ref)
