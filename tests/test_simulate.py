import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackinfer as si
from stackinfer.core import STREAM_LEADER
from stackinfer.simulate import FISHER_FLOOR, leader_batch_stats, objective_paths
from conftest import HORIZON, constant_policy, make_follower, make_leader, zero_policy
from oracles import (
    evaluate_follower_cost,
    follower_bc_loop,
    ou_mean_variance,
    precision_from_aux,
    trapezoid_primary_cost,
)


def riccati_policy(leader, follower, coeffs):
    [lr] = si.solve_leader_system([leader], follower, coeffs)
    return si.RiccatiPolicy(leader, lr)


class TestSimulateLeader:
    def test_frozen_dynamics(self, co50, grid50):
        leader = make_leader(0.0, a_drift=0.0, sigma=0.0)
        path = si.simulate_leader(leader, co50, zero_policy(), grid50, si.RngContract(1))
        assert np.all(path.x == leader.x0)

    def test_pure_drift(self, co50, grid50):
        leader = make_leader(0.0, a_drift=0.0, sigma=0.0, b_control=1.0)
        path = si.simulate_leader(
            leader, co50, constant_policy(1.0), grid50, si.RngContract(1)
        )
        expected = leader.x0 + np.arange(grid50.n_nodes) * grid50.h
        assert np.allclose(path.x, expected, atol=1e-14)

    def test_single_euler_step_hand_value(self, co50, grid50):
        # One step of the update rule with a unit shock, evaluated by hand:
        # 0.1 + (-1 * 0.1) * 0.01 + 0.1 * sqrt(0.01) * 1 = 0.109.
        leader = make_leader(0.5)
        shocks = np.zeros((1, grid50.n_steps))
        shocks[0, 0] = 1.0
        ens = si.simulate_leader_batch(leader, co50, zero_policy(), grid50, shocks)
        assert ens.x[0, 1] == pytest.approx(0.109, abs=1e-15)

    def test_non_finite_policy_rejected(self, co50, grid50):
        leader = make_leader(0.5)
        bad = si.FunctionPolicy(lambda j, x, a, a2: np.full(x.shape[0], np.nan))
        with pytest.raises(si.PolicyEvaluationError):
            si.simulate_leader(leader, co50, bad, grid50, si.RngContract(1))

    @pytest.mark.parametrize(("n_steps", "n_paths"), [(50, 100), (2**13, 1)])
    def test_aux_match_cumulative_integrals_bitwise(self, follower, n_steps, n_paths):
        # The stepped node loop advances the auxiliary states with the
        # trapezoid steps of cumtrapz, so they match bit for bit: under a
        # session-loop policy always, and under the same law as a
        # RiccatiPolicy on 100 x 50. On 1 x 2^13 the RiccatiPolicy keeps
        # them from the blocked recurrence, which matches to rounding.
        grid = si.build_grid(HORIZON, n_steps)
        coeffs = si.compute_coefficients(si.solve_follower_a(follower, grid), follower)
        leader = make_leader(0.5)
        policy = riccati_policy(leader, follower, coeffs)
        loop_policy = si.FunctionPolicy(
            lambda j, x, aux, aux2: policy.control_at(j, x[:, -1], aux, aux2)
        )
        shocks = si.RngContract(7).normal_matrix(n_paths, n_steps, si.core.STREAM_LEADER, 0)
        stepped = not si.core._use_scan(n_paths, n_steps)
        for law, exact in ((loop_policy, True), (policy, stepped)):
            ens = si.simulate_leader_batch(leader, coeffs, law, grid, shocks)
            aux = -si.cumtrapz(coeffs.weight * ens.x, grid)
            aux2 = si.cumtrapz(coeffs.decay * ens.aux, grid)
            for got, want in ((ens.aux, aux), (ens.aux2, aux2)):
                if exact:
                    assert np.array_equal(got, want)
                else:
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_reproducible_by_stream(self, follower, co50, grid50):
        leader = make_leader(0.5)
        policy = riccati_policy(leader, follower, co50)
        one = si.simulate_leader(leader, co50, policy, grid50, si.RngContract(3), 5)
        two = si.simulate_leader(leader, co50, policy, grid50, si.RngContract(3), 5)
        assert np.array_equal(one.x, two.x)

    def test_weak_error_of_terminal_mean(self, co50, grid50):
        # Under the zero policy, the Monte Carlo mean of the terminal state
        # matches the deterministic flow within Monte Carlo resolution.
        leader = make_leader(0.0)
        n_paths = 100_000
        shocks = si.RngContract(31).stream(0).standard_normal((n_paths, grid50.n_steps))
        ens = si.simulate_leader_batch(leader, co50, zero_policy(), grid50, shocks)
        mean = float(np.mean(ens.x[:, -1]))
        se = float(np.std(ens.x[:, -1], ddof=1) / math.sqrt(n_paths))
        exact = leader.x0 * math.exp(leader.a_drift * grid50.horizon)
        assert abs(mean - exact) < 3.0 * se


class TestSimulateFollower:
    def test_frozen_dynamics(self, grid50):
        model = make_follower(sigma=0.0, q_track=0.0, a_drift=0.0)
        fr = si.solve_follower_a(model, grid50)
        b = np.zeros(grid50.n_nodes)
        shocks = si.RngContract(1).normals(grid50.n_steps, si.core.STREAM_FOLLOWER, 0)[None]
        for mode in ("euler", "exact"):
            x = si.simulate_follower_batch(model, fr, b, grid50, shocks, mode=mode)
            assert np.allclose(x, model.x0, atol=1e-15)

    def test_exact_transition_bounds_euler_error(self, follower):
        model = make_follower(sigma=0.0)
        grid = si.build_grid(HORIZON, 5000)
        fr = si.solve_follower_a(model, grid)
        x_leader = si.Trajectory(grid=grid, values=np.full(grid.n_nodes, 0.3))
        [b] = si.solve_follower_bc(fr, model, [x_leader])
        shocks = np.zeros((1, grid.n_steps))
        euler = si.simulate_follower_batch(model, fr, b, grid, shocks, mode="euler")
        exact = si.simulate_follower_batch(model, fr, b, grid, shocks, mode="exact")
        dev = np.max(np.abs(euler - exact))
        assert dev < 5.0 * grid.h  # first-order Euler gap

    def test_invalid_mode(self, follower, fr50, grid50):
        with pytest.raises(si.InvalidArgumentError):
            si.simulate_follower_batch(
                follower, fr50, np.zeros(grid50.n_nodes), grid50,
                np.zeros((1, grid50.n_steps)), mode="heun",
            )

    def test_terminal_mean_and_variance_match_closed_form(self, follower):
        grid = si.build_grid(HORIZON, 500)
        fr = si.solve_follower_a(follower, grid)
        x_leader = si.Trajectory(grid=grid, values=np.full(grid.n_nodes, 0.5))
        [b] = si.solve_follower_bc(fr, follower, [x_leader])
        n_paths = 30_000
        shocks = si.RngContract(21).stream(0).standard_normal((n_paths, grid.n_steps))
        xs = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact")
        fine = np.linspace(0.0, HORIZON, 20_001)
        f_fine = np.interp(fine, grid.nodes, fr.f)
        drive_fine = -follower.gain_sq_over_r * np.interp(fine, grid.nodes, b)
        mean, var = ou_mean_variance(follower.x0, f_fine, drive_fine, follower.sigma, fine)
        se = math.sqrt(var / n_paths)
        assert abs(float(np.mean(xs[:, -1])) - mean) < 3.0 * se
        assert float(np.var(xs[:, -1], ddof=1)) == pytest.approx(var, rel=0.05)


class TestScoreProfile:
    def test_zero_leader_path(self, follower, fr50, grid50):
        x = si.Trajectory(grid=grid50, values=np.zeros(grid50.n_nodes))
        gp = si.compute_g(fr50, follower, x)
        assert np.all(gp.g == 0.0)
        assert gp.precision == 0.0

    def test_terminal_value_zero(self, follower, fr50, grid50):
        x = si.Trajectory(grid=grid50, values=np.ones(grid50.n_nodes))
        gp = si.compute_g(fr50, follower, x)
        assert gp.g[-1] == 0.0
        assert gp.precision > 0.0

    def test_linearity(self, follower, fr50, grid50):
        values = np.sin(np.linspace(0.0, 3.0, grid50.n_nodes))
        one = si.compute_g(fr50, follower, si.Trajectory(grid=grid50, values=values))
        two = si.compute_g(fr50, follower, si.Trajectory(grid=grid50, values=2.0 * values))
        assert np.allclose(two.g, 2.0 * one.g, rtol=1e-12, atol=1e-15)

    def test_identity_with_aux_integral(self, follower, co50, fr50, grid50):
        leader = make_leader(0.5)
        policy = riccati_policy(leader, follower, co50)
        path = si.simulate_leader(leader, co50, policy, grid50, si.RngContract(17))
        gp = si.compute_g(fr50, follower, path.trajectory())
        expected = np.exp(-fr50.cum_f) * (path.aux[-1] - path.aux)
        assert np.max(np.abs(gp.g - expected)) < 1e-10

    def test_precision_identity(self, follower, co50, fr50, grid50):
        leader = make_leader(0.5)
        policy = riccati_policy(leader, follower, co50)
        for idx in range(5):
            path = si.simulate_leader(leader, co50, policy, grid50, si.RngContract(29), idx)
            gp = si.compute_g(fr50, follower, path.trajectory())
            via_aux = precision_from_aux(co50, path.aux, path.aux2)[0]
            assert gp.precision == pytest.approx(via_aux, abs=1e-8, rel=1e-8)


class TestCosts:
    def test_zero_everything(self, grid50):
        leader = make_leader(0.0, x0=0.0, target=si.Sinusoid(amplitude=0.0, omega=1.0))
        x = np.zeros((1, grid50.n_nodes))
        u = np.zeros((1, grid50.n_nodes))
        assert si.primary_cost_batch(leader, grid50, x, u)[0] == 0.0

    def test_constant_tracking_error(self):
        grid = si.build_grid(1.0, 20)
        leader = make_leader(
            0.0, q_track=2.0, q_terminal=2.0,
            target=si.Tabulated(grid=grid, table=np.ones(grid.n_nodes)),
        )
        x = np.zeros((1, grid.n_nodes))
        u = np.zeros((1, grid.n_nodes))
        assert si.primary_cost_batch(leader, grid, x, u)[0] == pytest.approx(2.0, abs=1e-14)

    def test_against_independent_quadrature(self, follower, co50, grid50):
        leader = make_leader(0.5, sigma=0.0)
        policy = riccati_policy(leader, follower, co50)
        path = si.simulate_leader(leader, co50, policy, grid50, si.RngContract(1))
        cost = si.primary_cost_batch(leader, grid50, path.x[None, :], path.controls[None, :])[0]
        target = leader.target_at(grid50.nodes, grid50.horizon)
        oracle = trapezoid_primary_cost(
            path.x, path.controls, target, leader.q_track, leader.r_control,
            leader.q_terminal, grid50.h,
        )
        assert cost == pytest.approx(oracle, abs=1e-8)


class TestFollowerCost:
    def test_tracking_term_vanishes_on_dilated_path(self, grid50):
        model = make_follower()
        fr = si.solve_follower_a(model, grid50)
        x_leader = si.Trajectory(grid=grid50, values=np.linspace(0.0, 1.0, grid50.n_nodes))
        [b] = si.solve_follower_bc(fr, model, [x_leader])
        fpath = si.FollowerPath(grid=grid50, x=model.dilation * x_leader.values)
        heavy = make_follower(q_track=5.0)
        cost_light = evaluate_follower_cost(model, fpath, x_leader, fr, b)
        cost_heavy = evaluate_follower_cost(heavy, fpath, x_leader, fr, b)
        assert cost_light == pytest.approx(cost_heavy, abs=1e-12)

    def test_entropy_and_effort_constants(self):
        # With a zero-source value function, zero leader path and zero noise,
        # only the policy-variance and entropy terms remain:
        # (r/2)(lam/r) - lam * (1/2) log(2 pi e lam / r) per unit time.
        grid = si.build_grid(1.0, 40)
        model = make_follower(q_track=0.0, a_drift=0.0, sigma=0.0, x0=0.0)
        fr = si.solve_follower_a(model, grid)
        x_leader = si.Trajectory(grid=grid, values=np.zeros(grid.n_nodes))
        [b] = si.solve_follower_bc(fr, model, [x_leader])
        fpath = si.FollowerPath(grid=grid, x=np.zeros(grid.n_nodes))
        cost = evaluate_follower_cost(model, fpath, x_leader, fr, b)
        lam, r = model.entropy_weight, model.r_control
        expected = (0.5 * lam - 0.5 * lam * math.log(2 * math.pi * math.e * lam / r)) * 1.0
        assert cost == pytest.approx(expected, abs=1e-12)

    def test_mean_cost_matches_value_function(self, follower):
        # Realized cost averaged over optimal-response paths equals the
        # quadratic value function at the initial state.
        grid = si.build_grid(HORIZON, 500)
        fr = si.solve_follower_a(follower, grid)
        x_leader = si.Trajectory(
            grid=grid, values=0.3 * np.sin(2 * math.pi * grid.nodes / HORIZON) + 0.2
        )
        [b] = si.solve_follower_bc(fr, follower, [x_leader])
        _, c = follower_bc_loop(fr, follower, x_leader)
        n_paths = 10_000
        shocks = si.RngContract(5).stream(1).standard_normal((n_paths, grid.n_steps))
        xs = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact")
        costs = np.empty(n_paths)
        for i in range(n_paths):
            fpath = si.FollowerPath(grid=grid, x=xs[i])
            costs[i] = evaluate_follower_cost(follower, fpath, x_leader, fr, b)
        value = fr.a[0] * follower.x0**2 + b[0] * follower.x0 + c[0]
        se = float(np.std(costs, ddof=1) / math.sqrt(n_paths))
        assert np.mean(costs) >= value - 3.0 * se
        assert abs(float(np.mean(costs)) - value) <= 3.0 * se + 1e-3


def leader_stats(leader, follower, coeffs, fr, grid, n_paths, seed, policy=None):
    """Each path's precision and primary cost on the first ``n_paths`` leader rows."""
    if policy is None:
        policy = riccati_policy(leader, follower, coeffs)
    shocks = si.RngContract(seed).normal_matrix(n_paths, grid.n_steps, STREAM_LEADER)
    _, precision, j_p, _ = leader_batch_stats(leader, follower, coeffs, fr, policy, grid, shocks)
    return precision, j_p


class TestObjectives:
    def test_zero_weight_collapses_objectives(self, follower, fr50, co50, grid50):
        leader = make_leader(0.0)
        precision, j_p = leader_stats(leader, follower, co50, fr50, grid50, 200, 2)
        for objective in ("fisher", "variance"):
            values = objective_paths(leader, follower, precision, j_p, objective)
            assert np.array_equal(values, j_p)

    def test_information_weight_shifts_objectives(self, follower, fr50, co50, grid50):
        leader = make_leader(0.5)
        precision, j_p = leader_stats(leader, follower, co50, fr50, grid50, 500, 2)
        j_info = np.mean(objective_paths(leader, follower, precision, j_p, "fisher"))
        j_var = np.mean(objective_paths(leader, follower, precision, j_p, "variance"))
        assert j_info < np.mean(j_p) < j_var
        assert np.mean(precision) / follower.noise_to_signal > 0.0

    def test_fisher_in_reported_range_at_half_weight(self, follower, fr50, co50, grid50):
        leader = make_leader(0.5)
        precision, _ = leader_stats(leader, follower, co50, fr50, grid50, 10_000, 3)
        mean_fisher = np.mean(precision) / follower.noise_to_signal
        assert 0.8 * 0.001 <= mean_fisher <= 1.2 * 0.146

    def test_all_degenerate_raises(self, follower, fr50, co50, grid50):
        leader = make_leader(0.0, x0=0.0, sigma=0.0)
        precision, j_p = leader_stats(leader, follower, co50, fr50, grid50, 16, 2,
                                      policy=zero_policy())
        with pytest.raises(si.DegenerateEnsembleError):
            objective_paths(leader, follower, precision, j_p, "variance")

    def test_degenerate_paths_leave_variance_only(self, follower):
        leader = make_leader(0.5)
        # The third path sits at the floor: its Fisher information is FISHER_FLOOR.
        precision = np.array([0.3, np.nan, FISHER_FLOOR * follower.noise_to_signal, 0.0, 0.5])
        j_p = np.arange(1.0, 6.0)
        fisher = objective_paths(leader, follower, precision, j_p, "fisher")
        info = si.scaled_info_weight(leader, follower)
        assert np.array_equal(fisher, -info * precision + j_p, equal_nan=True)
        variance = objective_paths(leader, follower, precision, j_p, "variance")
        scale = leader.inference_weight * follower.noise_to_signal
        assert np.array_equal(variance, scale / precision[[0, 4]] + j_p[[0, 4]])

    def test_noiseless_follower_floors_only_zero_precision(self):
        # noise_to_signal is 0, so the floor is 0: it is compared as a
        # product, never as 0 / 0, and only the zero and NaN precisions drop.
        follower = make_follower(sigma=0.0)
        precision = np.array([0.0, 1e-300, np.nan])
        variance = objective_paths(make_leader(0.5), follower, precision, np.ones(3), "variance")
        assert np.array_equal(variance, [1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(1e-6, 10.0), min_size=2, max_size=30))
    def test_jensen_ordering(self, precisions):
        # mean(1/p) >= 1/mean(p): reciprocal-precision (variance) estimates
        # dominate the reciprocal of mean precision (information). At unit
        # inference weight, with no primary cost, the variance objective is
        # noise_to_signal / p and the information objective -p / noise_to_signal.
        model = make_follower()
        leader = make_leader(1.0)
        p = np.array(precisions)
        zero = np.zeros_like(p)
        var = np.mean(objective_paths(leader, model, p, zero, "variance"))
        fi = -np.mean(objective_paths(leader, model, p, zero, "fisher"))
        assert var * fi >= 1.0 - 1e-12
