import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stackinfer as si
from conftest import HORIZON, TARGET_AMP, TARGET_OMEGA, make_follower, make_leader
from oracles import (
    FollowerClosedForm,
    follower_a_decimal,
    follower_bc_loop,
    leader_system_fine,
    riccati_constant_solution,
)


class TestFollowerQuadraticCoefficient:
    def test_terminal_condition(self, follower, fr50):
        assert fr50.a[-1] == 0.0

    def test_nonnegative_and_interior_positive(self, follower, fr50):
        assert np.all(fr50.a >= 0.0)
        assert np.all(fr50.a[:-1] > 0.0)

    def test_matches_closed_form(self, follower):
        grid = si.build_grid(HORIZON, 500)
        fr = si.solve_follower_a(follower, grid)
        cf = FollowerClosedForm(-1.0, 1.0, 0.1, 1.0, 1.0, HORIZON)
        assert abs(fr.a[0] - float(cf.a(0.0))) < 1e-10

    def test_zero_source_keeps_zero_solution(self):
        model = make_follower(q_track=0.0, a_drift=-1.0)
        grid = si.build_grid(HORIZON, 100)
        fr = si.solve_follower_a(model, grid)
        assert np.all(fr.a == 0.0)
        assert np.allclose(fr.f, -1.0, atol=0)
        coeffs = si.compute_coefficients(fr, model)
        assert np.allclose(coeffs.decay, np.exp(2.0 * grid.nodes), rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        a_drift=st.floats(-3.0, 1.0),
        b_control=st.floats(0.2, 3.0) | st.floats(-3.0, -0.2),
        q_track=st.floats(0.01, 5.0),
        r_control=st.floats(0.3, 7.0),
        horizon=st.floats(0.1, 10.0),
        n_steps=st.sampled_from([1, 7, 50, 1000]),
    )
    # r1 = (a_drift + s)/alpha cancels where a_drift < 0 and alpha q_track is
    # small: formed that way, a was 2.8e-13 off at t = 0 here.
    @example(a_drift=-1.7482109320598915, b_control=0.5, q_track=0.015625, r_control=2.0,
             horizon=1.0, n_steps=1)
    # Where the float oracle FollowerClosedForm lost digits (1.9e-13 off).
    @example(a_drift=-1.6615008435478564, b_control=0.25, q_track=0.0625, r_control=1.0,
             horizon=1.0, n_steps=1)
    def test_matches_closed_form_on_drawn_models(
        self, a_drift, b_control, q_track, r_control, horizon, n_steps
    ):
        model = make_follower(a_drift=a_drift, b_control=b_control, q_track=q_track,
                              r_control=r_control)
        grid = si.build_grid(horizon, n_steps)
        a = si.solve_follower_a(model, grid).a
        want = follower_a_decimal(a_drift, b_control, q_track, r_control, horizon, grid.nodes)
        assert np.max(np.abs(a - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("a_drift", [0.0, 0.5])
    def test_zero_source_with_degenerate_roots(self, a_drift):
        # One root is zero (both are, at a_drift = 0): the oracle's ratio
        # form divides by zero, the library stays on the equilibrium a = 0.
        model = make_follower(q_track=0.0, a_drift=a_drift)
        grid = si.build_grid(HORIZON, 50)
        with pytest.raises((ValueError, ZeroDivisionError)):
            FollowerClosedForm(a_drift, 1.0, 0.1, 0.0, 1.0, HORIZON).a(grid.nodes)
        fr = si.solve_follower_a(model, grid)
        assert np.all(fr.a == 0.0)
        assert np.all(fr.f == a_drift)

    def test_zero_gain_refused(self):
        model = make_follower(b_control=0.0)
        with pytest.raises(si.InvalidArgumentError, match="b_control"):
            si.solve_follower_a(model, si.build_grid(HORIZON, 50))


class TestDerivedCoefficients:
    def test_zero_coefficient_limits(self):
        model = make_follower(q_track=0.0, a_drift=0.0)
        grid = si.build_grid(1.0, 50)
        fr = si.solve_follower_a(model, grid)
        coeffs = si.compute_coefficients(fr, model)
        assert np.all(coeffs.weight == 0.0)
        assert np.all(coeffs.decay == 1.0)
        assert coeffs.decay_l1 == pytest.approx(1.0, abs=1e-15)

    def test_initial_values(self, follower, co50):
        assert co50.decay[0] == 1.0
        assert co50.weight[0] == follower.q_track
        assert np.all(co50.decay > 0.0)
        assert np.all(np.diff(si.cumtrapz(co50.decay, co50.grid)) > 0.0)

    def test_norms_match_closed_form(self, follower):
        grid = si.build_grid(HORIZON, 1000)
        fr = si.solve_follower_a(follower, grid)
        coeffs = si.compute_coefficients(fr, follower)
        cf = FollowerClosedForm(-1.0, 1.0, 0.1, 1.0, 1.0, HORIZON)
        w_exact = cf.weight(grid.nodes)
        d_exact = cf.decay(grid.nodes)
        assert abs(coeffs.weight_sup - np.max(np.abs(w_exact))) < 1e-6
        assert abs(coeffs.decay_sup - np.max(d_exact)) < 1e-6
        assert abs(coeffs.decay_l1 - cf.decay_l1()) < 1e-6


class TestFollowerLinearCoefficient:
    def test_zero_forcing(self, follower, fr50, grid50):
        x = si.Trajectory(grid=grid50, values=np.zeros(grid50.n_nodes))
        [b] = si.solve_follower_bc(fr50, follower, [x])
        assert np.all(b == 0.0)
        _, c = follower_bc_loop(fr50, follower, x)
        assert np.all(np.isfinite(c))

    def test_zero_dilation(self, fr50, grid50):
        model = make_follower(dilation=0.0)
        x = si.Trajectory(grid=grid50, values=np.ones(grid50.n_nodes))
        [b] = si.solve_follower_bc(fr50, model, [x])
        assert np.all(b == 0.0)

    def test_matches_dilation_times_score(self, follower):
        # b solves a linear backward ODE whose closed form is the dilation
        # factor times the score profile.
        grid = si.build_grid(HORIZON, 1000)
        fr = si.solve_follower_a(follower, grid)
        x = si.Trajectory(grid=grid, values=np.ones(grid.n_nodes))
        [b] = si.solve_follower_bc(fr, follower, [x])
        gp = si.compute_g(fr, follower, x)
        assert abs(b[0] - follower.dilation * gp.g[0]) < 1e-6

    def test_dilation_times_score_gap_falls_at_second_order(self):
        # b (RK4) and g (trapezoid) integrate the same kernel by two schemes;
        # their gap falls 4x per grid doubling, so at least 3x is asked.
        model = make_follower(dilation=1.7)
        gaps = []
        for n_steps in (50, 100, 200, 400):
            grid = si.build_grid(HORIZON, n_steps)
            fr = si.solve_follower_a(model, grid)
            x = si.Trajectory(grid=grid, values=0.3 * np.sin(4.0 * grid.nodes) + 0.2)
            [b] = si.solve_follower_bc(fr, model, [x])
            g = si.compute_g(fr, model, x).g
            gaps.append(np.max(np.abs(b - model.dilation * g)) / np.max(np.abs(b)))
        assert all(coarse >= 3.0 * fine for coarse, fine in zip(gaps, gaps[1:]))

    def test_grid_mismatch(self, follower, fr50):
        other = si.build_grid(HORIZON, 60)
        x = si.Trajectory(grid=other, values=np.zeros(other.n_nodes))
        with pytest.raises(si.InvalidArgumentError):
            si.solve_follower_bc(fr50, follower, [x])


class TestLeaderSystem:
    def test_terminal_conditions(self, follower, co50, grid50):
        leader = make_leader(0.5)
        [lr] = si.solve_leader_system([leader], follower, co50)
        lam_s = si.scaled_info_weight(leader, follower)
        f_T = leader.target_at(grid50.horizon, grid50.horizon)
        expected = np.zeros((3, 3))
        expected[0, 0] = 0.5 * leader.q_terminal
        expected[1, 1] = -lam_s * co50.decay_l1
        expected[1, 2] = expected[2, 1] = lam_s
        assert np.array_equal(lr.quad[-1], expected)
        assert np.array_equal(lr.lin[-1], [-leader.q_terminal * f_T, 0.0, 0.0])
        assert lr.offset[-1] == 0.5 * leader.q_terminal * f_T**2

    def test_zero_inference_reduces_to_scalar_tracking(self, follower):
        grid = si.build_grid(HORIZON, 5000)
        fr = si.solve_follower_a(follower, grid)
        coeffs = si.compute_coefficients(fr, follower)
        leader = make_leader(0.0)
        [lr] = si.solve_leader_system([leader], follower, coeffs)
        off_diag = lr.quad.copy()
        off_diag[:, 0, 0] = 0.0
        assert np.max(np.abs(off_diag)) <= 1e-12
        # (1,1) solves the constant-coefficient scalar tracking Riccati.
        expected = riccati_constant_solution(
            2.0 * leader.b_control**2 / leader.r_control,
            -2.0 * leader.a_drift,
            -0.5 * leader.q_track,
            HORIZON,
            0.0,
            terminal=0.5 * leader.q_terminal,
        )
        assert abs(lr.quad[0, 0, 0] - float(expected)) < 1e-8

    def test_symmetry_everywhere(self, follower, co50):
        leader = make_leader(0.93)
        [lr] = si.solve_leader_system([leader], follower, co50)
        assert np.max(np.abs(lr.quad - np.transpose(lr.quad, (0, 2, 1)))) <= 1e-12

    def test_against_fine_oracle(self, follower):
        grid = si.build_grid(HORIZON, 2000)
        fr = si.solve_follower_a(follower, grid)
        coeffs = si.compute_coefficients(fr, follower)
        leader = make_leader(0.5)
        [lr] = si.solve_leader_system([leader], follower, coeffs)
        cf = FollowerClosedForm(-1.0, 1.0, 0.1, 1.0, 1.0, HORIZON)
        quad0, lin0, off0 = leader_system_fine(
            cf, -1.0, 1.0, 0.1, 1.0, 1.0, 1.0, 0.5, follower.noise_to_signal,
            TARGET_AMP, TARGET_OMEGA, HORIZON, 100_000,
        )
        assert np.max(np.abs(lr.quad[0] - quad0)) < 6e-6
        assert np.max(np.abs(lr.lin[0] - lin0)) < 1e-7
        assert abs(lr.offset[0] - off0) < 1e-8

    def test_refinement_order_at_least_two(self, follower):
        leader = make_leader(0.5)
        values = []
        for n in (250, 500, 1000):
            grid = si.build_grid(HORIZON, n)
            fr = si.solve_follower_a(follower, grid)
            coeffs = si.compute_coefficients(fr, follower)
            values.append(si.solve_leader_system([leader], follower, coeffs)[0].quad[0, 0, 0])
        d1 = abs(values[0] - values[1])
        d2 = abs(values[1] - values[2])
        # Interpolated coefficients cap the scheme at second order.
        assert d1 / d2 > 3.4

    def test_blow_up_detection(self, follower, co50, grid50):
        leader = make_leader(2.0)
        with pytest.raises(si.BlowUpError) as err:
            si.solve_leader_system([leader], follower, co50)
        assert 0.0 < err.value.blow_up_time < grid50.horizon


class TestHorizonBound:
    def test_positive_for_paper_configuration(self, follower, co50):
        bound = si.horizon_bound(make_leader(0.5), follower, co50)
        assert bound.t_max > 0.0
        assert bound.q > 0.0 and bound.beta > 0.0 and bound.y0 > 0.0

    def test_larger_terminal_weight_shrinks_horizon(self, follower, co50):
        # with zero inference weight, y0 is driven by the terminal weight
        small = si.horizon_bound(make_leader(0.0, q_terminal=1.0), follower, co50)
        large = si.horizon_bound(make_leader(0.0, q_terminal=4.0), follower, co50)
        assert large.y0 > small.y0
        assert large.t_max < small.t_max

    def test_formula_against_oracle_norms(self, follower):
        grid = si.build_grid(HORIZON, 1000)
        fr = si.solve_follower_a(follower, grid)
        coeffs = si.compute_coefficients(fr, follower)
        leader = make_leader(0.5)
        bound = si.horizon_bound(leader, follower, coeffs)
        cf = FollowerClosedForm(-1.0, 1.0, 0.1, 1.0, 1.0, HORIZON)
        t_dense = np.linspace(0.0, HORIZON, 20_001)
        w_sup = float(np.max(np.abs(cf.weight(t_dense))))
        d_sup = float(np.max(cf.decay(t_dense)))
        d_l1 = cf.decay_l1()
        lam_s = leader.inference_weight / follower.noise_to_signal
        q = max(abs(0.5 * leader.q_track - abs(leader.a_drift) - w_sup), (lam_s + 1) * d_sup)
        beta = max(2 * leader.b_control**2 / leader.r_control + abs(leader.a_drift), w_sup, d_sup)
        y0 = max(0.5 * leader.q_terminal, lam_s * (d_l1 + 1))
        t_max = math.atan(math.sqrt(q / beta) / y0) / math.sqrt(beta * q)
        assert bound.q == pytest.approx(q, rel=1e-5)
        assert bound.beta == pytest.approx(beta, rel=1e-5)
        assert bound.y0 == pytest.approx(y0, rel=1e-5)
        assert bound.t_max == pytest.approx(t_max, rel=1e-5)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_solver_succeeds_inside_bound(self, follower, lam):
        grid = si.build_grid(HORIZON, 200)
        fr = si.solve_follower_a(follower, grid)
        coeffs = si.compute_coefficients(fr, follower)
        leader = make_leader(lam)
        bound = si.horizon_bound(leader, follower, coeffs)
        horizon = min(HORIZON, 0.99 * bound.t_max)
        small_grid = si.build_grid(horizon, 50)
        fr_s = si.solve_follower_a(follower, small_grid)
        coeffs_s = si.compute_coefficients(fr_s, follower)
        si.solve_leader_system([leader], follower, coeffs_s)  # must not blow up
