import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackinfer as si
from conftest import HORIZON, make_follower, make_leader


@pytest.fixture(scope="module")
def fixed_setup(follower):
    """One leader path at moderate inference weight with everything derived."""
    grid = si.build_grid(HORIZON, 1000)
    fr = si.solve_follower_a(follower, grid)
    coeffs = si.compute_coefficients(fr, follower)
    leader = make_leader(1.13)
    lr = si.solve_leader_system(leader, follower, coeffs)
    rng = si.RngContract(5)
    lpath = si.simulate_leader(leader, coeffs, si.RiccatiPolicy(leader, lr), grid, rng)
    x_leader = lpath.trajectory()
    gp = si.compute_g(fr, follower, x_leader)
    b, _ = si.solve_follower_bc(fr, follower, x_leader)
    return grid, fr, coeffs, x_leader, gp, b


class TestContinuousMle:
    def test_noiseless_recovery(self, follower, fixed_setup):
        grid, fr, _, _, gp, _ = fixed_setup
        noiseless = replace(follower, sigma=0.0)
        # Drive the follower with exactly dilation * score so the estimator
        # identity is tested without solver cross-error.
        b_exact = follower.dilation * gp.g
        fpath = si.simulate_follower(noiseless, fr, b_exact, grid, si.RngContract(0),
                                     mode="exact")
        report = si.mle_continuous(fpath, gp, fr, noiseless)
        # Quadrature-convention mismatch leaves an O(h) residual.
        assert abs(report.m_hat - follower.dilation) < grid.h
        assert report.cond_variance == 0.0
        assert report.cond_fisher == math.inf

    def test_replay_matches_noise_representation(self, follower, fixed_setup):
        grid, fr, _, _, gp, b = fixed_setup
        fpath = si.simulate_follower(follower, fr, b, grid, si.RngContract(8), 3)
        report = si.mle_continuous(fpath, gp, fr, follower)
        predicted = follower.dilation - follower.sigma * float(
            gp.g[:-1] @ fpath.brownian
        ) / (follower.gain_sq_over_r * gp.precision)
        # Residual gap is the deterministic quadrature mismatch, O(h).
        assert abs(report.m_hat - predicted) < 50.0 * grid.h

    def test_batch_matches_single(self, follower, fixed_setup):
        grid, fr, _, _, gp, b = fixed_setup
        shocks = si.RngContract(10).normal_matrix(6, grid.n_steps, si.core.STREAM_FOLLOWER, 0)
        xs = si.simulate_follower_batch(follower, fr, b, grid, shocks)
        batch = si.mle_continuous_batch(xs, gp, fr, follower)
        for i in range(6):
            fpath = si.simulate_follower(follower, fr, b, grid, si.RngContract(10), i)
            single = si.mle_continuous(fpath, gp, fr, follower)
            assert batch[i] == pytest.approx(single.m_hat, rel=1e-12)

    def test_unbiased_over_replays(self, follower, fixed_setup):
        grid, fr, _, _, gp, b = fixed_setup
        n_rep = 4000
        shocks = si.RngContract(11).stream(2).standard_normal((n_rep, grid.n_steps))
        xs = si.simulate_follower_batch(follower, fr, b, grid, shocks)
        m_hats = si.mle_continuous_batch(xs, gp, fr, follower)
        se = float(np.std(m_hats, ddof=1) / math.sqrt(n_rep))
        assert abs(float(np.mean(m_hats)) - follower.dilation) < 3.0 * se

    def test_conditional_moments_product(self, follower, fixed_setup):
        grid, fr, _, _, gp, b = fixed_setup
        fpath = si.simulate_follower(follower, fr, b, grid, si.RngContract(12))
        report = si.mle_continuous(fpath, gp, fr, follower)
        assert abs(report.cond_variance * report.cond_fisher - 1.0) < 1e-12
        assert report.cond_variance == pytest.approx(
            follower.noise_to_signal / gp.precision, rel=1e-15
        )

    def test_degenerate_path_rejected(self, follower, fr50, grid50):
        zero = si.Trajectory(grid=grid50, values=np.zeros(grid50.n_nodes))
        gp = si.compute_g(fr50, follower, zero)
        fpath = si.FollowerPath(grid=grid50, x=np.zeros(grid50.n_nodes),
                                brownian=np.zeros(grid50.n_steps), stream_key=(0,),
                                mode="euler")
        with pytest.raises(si.core.DegeneratePathError):
            si.mle_continuous(fpath, gp, fr50, follower)
        with pytest.raises(si.core.DegeneratePathError):
            si.mle_continuous_batch(fpath.x[None], gp, fr50, follower)


class TestEnsembleMoments:
    def test_zero_paths_give_zero_information(self, follower):
        assert si.fisher_information_mc([0.0, 0.0], follower) == 0.0

    def test_single_path_equals_conditional(self, follower, fixed_setup):
        grid, fr, _, _, gp, b = fixed_setup
        fi = si.fisher_information_mc([gp], follower)
        var = si.variance_mc([gp], follower)
        assert fi == pytest.approx(gp.precision / follower.noise_to_signal, rel=1e-15)
        assert var == pytest.approx(follower.noise_to_signal / gp.precision, rel=1e-15)

    def test_empty_ensemble_rejected(self, follower):
        with pytest.raises(si.InvalidArgumentError):
            si.fisher_information_mc([], follower)

    def test_all_degenerate_rejected(self, follower):
        with pytest.raises(si.DegenerateEnsembleError):
            si.variance_mc([0.0, 1e-16], follower)

    def test_variance_over_replays_matches_conditional(self, follower, fixed_setup):
        grid, fr, _, _, gp, b = fixed_setup
        n_rep = 20_000
        shocks = si.RngContract(13).stream(0).standard_normal((n_rep, grid.n_steps))
        xs = si.simulate_follower_batch(follower, fr, b, grid, shocks)
        m_hats = si.mle_continuous_batch(xs, gp, fr, follower)
        sample = float(np.var(m_hats, ddof=1))
        assert sample == pytest.approx(follower.noise_to_signal / gp.precision, rel=0.05)


class TestMultiPeriod:
    def _report(self, m_hat, precision):
        return si.MleReport(m_hat=m_hat, precision=precision,
                            cond_variance=0.01 / precision,
                            cond_fisher=precision / 0.01,
                            drift_term=0.0, ito_term=0.0)

    def test_first_episode(self):
        state = si.multi_period_update(si.MultiPeriodState.empty(), self._report(2.5, 0.3))
        assert state.m_bar == 2.5
        assert state.n_episodes == 1
        assert list(state.weights()) == [1.0]

    def test_equal_precisions_give_arithmetic_mean(self):
        state = si.MultiPeriodState.empty()
        values = [1.0, 2.0, 4.0, -1.0]
        for v in values:
            state = si.multi_period_update(state, self._report(v, 0.7))
        assert state.m_bar == pytest.approx(float(np.mean(values)), abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(1e-4, 10.0)),
                    min_size=1, max_size=12))
    def test_online_equals_batch(self, episodes):
        state = si.MultiPeriodState.empty()
        for m, p in episodes:
            state = si.multi_period_update(state, self._report(m, p))
        ms = np.array([m for m, _ in episodes])
        ps = np.array([p for _, p in episodes])
        batch = float(np.sum(ps * ms) / np.sum(ps))
        assert abs(state.m_bar - batch) < 1e-12
        assert state.weights().sum() == pytest.approx(1.0, abs=1e-12)

    def test_aggregation_dominates_single_episodes(self, follower):
        state = si.MultiPeriodState.empty()
        for m, p in [(1.2, 0.2), (0.7, 0.05), (1.0, 0.5)]:
            state = si.multi_period_update(state, self._report(m, p))
        proxy = si.realized_variance_proxy(state, follower)
        singles = [follower.noise_to_signal / p for _, p in state.history]
        assert proxy <= min(singles)

    def test_stopping_rule(self, follower):
        state = si.multi_period_update(si.MultiPeriodState.empty(), self._report(1.0, 0.5))
        assert si.stopping_rule(state, 1e12, follower)
        proxy = si.realized_variance_proxy(state, follower)
        assert not si.stopping_rule(state, proxy * 0.5, follower)
        with pytest.raises(si.InvalidArgumentError):
            si.stopping_rule(state, 0.0, follower)


class TestQuadraticVariation:
    def test_zero_path(self, grid50):
        fpath = si.FollowerPath(grid=grid50, x=np.zeros(grid50.n_nodes),
                                brownian=np.zeros(grid50.n_steps), stream_key=(0,),
                                mode="euler")
        assert si.sigma_quadratic_variation(fpath) == 0.0

    def test_pure_noise_consistency(self):
        model = make_follower(q_track=0.0, a_drift=0.0)
        grid = si.build_grid(HORIZON, 5000)
        fr = si.solve_follower_a(model, grid)
        b = np.zeros(grid.n_nodes)
        estimates = []
        for rep in range(100):
            fpath = si.simulate_follower(model, fr, b, grid, si.RngContract(500), rep)
            estimates.append(si.sigma_quadratic_variation(fpath))
        assert float(np.mean(estimates)) == pytest.approx(model.sigma**2, rel=0.03)

    def test_drift_bias_shrinks_with_resolution(self):
        model = make_follower(a_drift=-4.0, x0=1.0)
        biases = []
        for n in (250, 500, 1000):
            grid = si.build_grid(HORIZON, n)
            fr = si.solve_follower_a(model, grid)
            b = np.zeros(grid.n_nodes)
            vals = []
            for rep in range(200):
                fpath = si.simulate_follower(model, fr, b, grid, si.RngContract(n), rep)
                vals.append(si.sigma_quadratic_variation(fpath))
            biases.append(abs(float(np.mean(vals)) - model.sigma**2))
        assert biases[0] > biases[-1]


class TestDiscreteJoint:
    def test_observation_validation(self):
        with pytest.raises(si.InvalidArgumentError):
            si.DiscreteObservations(times=np.array([0.0]), values=np.array([1.0]))
        with pytest.raises(si.InvalidArgumentError):
            si.DiscreteObservations(times=np.array([0.0, 0.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(si.InvalidArgumentError):
            si.DiscreteObservations(times=np.array([0.0, 1.0]), values=np.array([1.0]))

    def test_mesh(self):
        obs = si.DiscreteObservations(times=np.array([0.0, 0.25, 1.0]),
                                      values=np.array([0.0, 0.0, 0.0]))
        assert obs.mesh == 0.75

    def test_noiseless_exact_recovery(self, follower, fixed_setup):
        grid, fr, _, _, gp, _ = fixed_setup
        noiseless = replace(follower, sigma=0.0)
        b_exact = follower.dilation * gp.g
        fpath = si.simulate_follower(noiseless, fr, b_exact, grid, si.RngContract(0),
                                     mode="exact")
        obs = si.DiscreteObservations(times=grid.nodes, values=fpath.x)
        est = si.mle_discrete_joint(obs, fr, gp, noiseless)
        assert abs(est.m_hat - follower.dilation) < 1e-8
        assert est.sigma2_hat < 1e-16

    def test_refinement_approaches_continuous(self, follower):
        # Averaged over replays on one leader path, the gap to the
        # continuous estimate shrinks steadily as the mesh refines.
        grid = si.build_grid(HORIZON, 2**12)
        fr = si.solve_follower_a(follower, grid)
        coeffs = si.compute_coefficients(fr, follower)
        leader = make_leader(0.5)
        lr = si.solve_leader_system(leader, follower, coeffs)
        rng = si.RngContract(11)
        lpath = si.simulate_leader(leader, coeffs, si.RiccatiPolicy(leader, lr), grid, rng, 2)
        x_leader = lpath.trajectory()
        gp = si.compute_g(fr, follower, x_leader)
        b, _ = si.solve_follower_bc(fr, follower, x_leader)
        n_rep = 20
        shocks = rng.normal_matrix(n_rep, grid.n_steps, si.core.STREAM_FOLLOWER, 50)
        xs = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact")
        m_cont = si.mle_continuous_batch(xs, gp, fr, follower)
        mean_diffs = []
        for k in (4, 6, 8, 10):
            stride = 2 ** (12 - k)
            idx = np.arange(0, grid.n_nodes, stride)
            level = []
            for i in range(n_rep):
                obs = si.DiscreteObservations(times=grid.nodes[idx], values=xs[i, idx])
                est = si.mle_discrete_joint(obs, fr, gp, follower)
                level.append(abs(est.m_hat - m_cont[i]))
            mean_diffs.append(float(np.mean(level)))
        assert all(a > b for a, b in zip(mean_diffs, mean_diffs[1:]))
        assert mean_diffs[-1] < 0.05 * mean_diffs[0]

    def test_batched_rows_match_single_calls(self, follower, fixed_setup):
        grid, fr, _, _, gp, b = fixed_setup
        shocks = si.RngContract(9).normal_matrix(6, grid.n_steps, si.core.STREAM_FOLLOWER, 0)
        xs = si.simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact")
        idx = np.arange(0, grid.n_nodes, 8)
        m_hat, sigma2_hat = si.mle_discrete_joint_batch(grid.nodes[idx], xs[:, idx], fr, gp,
                                                        follower)
        for i in range(xs.shape[0]):
            obs = si.DiscreteObservations(times=grid.nodes[idx], values=xs[i, idx])
            est = si.mle_discrete_joint(obs, fr, gp, follower)
            assert m_hat[i] == pytest.approx(est.m_hat, rel=1e-12)
            assert sigma2_hat[i] == pytest.approx(est.sigma2_hat, rel=1e-12)

    def test_batch_rejects_mismatched_rows(self, follower, fixed_setup):
        grid, fr, _, _, gp, _ = fixed_setup
        with pytest.raises(si.InvalidArgumentError):
            si.mle_discrete_joint_batch(grid.nodes[:5], np.zeros((2, 4)), fr, gp, follower)

    def test_degenerate_rejected(self, follower, fr50, grid50):
        zero = si.Trajectory(grid=grid50, values=np.zeros(grid50.n_nodes))
        gp = si.compute_g(fr50, follower, zero)
        obs = si.DiscreteObservations(times=grid50.nodes[:5], values=np.zeros(5))
        with pytest.raises(si.core.DegeneratePathError):
            si.mle_discrete_joint(obs, fr50, gp, follower)
