import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackinfer as si
from conftest import HORIZON, make_leader
from oracles import FollowerClosedForm, FollowerPolicyLaw


def last_control(policy, prefix):
    """The control a one-path session gives at the prefix's last node,
    stepped over the whole prefix from node 0."""
    session = policy.session(1)
    zeros = np.zeros(1)
    for j in range(len(prefix)):
        u = session.controls(j, np.asarray(prefix, dtype=float)[None, : j + 1], zeros, zeros)
    return float(u[0])


@pytest.fixture(scope="module")
def solved(follower, co50):
    leader = make_leader(0.5)
    [lr] = si.solve_leader_system([leader], follower, co50)
    return leader, lr


class TestRiccatiPolicy:
    def test_zero_coefficients_give_zero_control(self, grid50):
        leader = make_leader(0.5)
        n = grid50.n_nodes
        lr = si.LeaderRiccati(grid=grid50, quad=np.zeros((n, 3, 3)),
                              lin=np.zeros((n, 3)), offset=np.zeros(n),
                              scaled_info_weight=0.0)
        assert si.RiccatiPolicy(leader, lr).control_at(0, 3.0, -1.0, 2.0) == 0.0

    def test_zero_inference_depends_only_on_state(self, follower, co50):
        leader = make_leader(0.0)
        [lr] = si.solve_leader_system([leader], follower, co50)
        u1 = si.RiccatiPolicy(leader, lr).control_at(10, 0.2, 0.0, 0.0)
        u2 = si.RiccatiPolicy(leader, lr).control_at(10, 0.2, 5.0, -7.0)
        assert u1 == u2

    def test_formula(self, solved):
        leader, lr = solved
        psi = (0.1, -0.02, 0.3)
        expected = -(leader.b_control / leader.r_control) * (
            2.0 * (lr.quad[4, 0, 0] * psi[0] + lr.quad[4, 0, 1] * psi[1]
                   + lr.quad[4, 0, 2] * psi[2]) + lr.lin[4, 0]
        )
        assert si.RiccatiPolicy(leader, lr).control_at(4, *psi) == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3, 3), st.floats(-2, 2), st.floats(-2, 2), st.floats(-4, 4))
    def test_affine_in_state(self, solved, x, y, z, scale):
        leader, lr = solved
        policy = si.RiccatiPolicy(leader, lr)
        u0 = policy.control_at(7, 0.0, 0.0, 0.0)
        u1 = policy.control_at(7, x, y, z)
        u2 = policy.control_at(7, scale * x, scale * y, scale * z)
        assert u2 - u0 == pytest.approx(scale * (u1 - u0), rel=1e-9, abs=1e-9)


class TestFollowerPolicyLaw:
    def test_zero_coefficients(self, follower, grid50):
        fr = si.FollowerRiccati(grid=grid50, a=np.zeros(grid50.n_nodes),
                                f=np.zeros(grid50.n_nodes), cum_f=np.zeros(grid50.n_nodes))
        law = FollowerPolicyLaw(model=follower, fr=fr, b=np.zeros(grid50.n_nodes))
        mean, var = law.moments(3, 1.7)
        assert mean == 0.0
        assert var == follower.entropy_weight / follower.r_control

    def test_variance_state_independent(self, follower, fr50, grid50):
        law = FollowerPolicyLaw(model=follower, fr=fr50, b=np.zeros(grid50.n_nodes))
        variances = {law.moments(j, x)[1]
                     for j in (0, 10, 50) for x in (-2.0, 0.0, 3.5)}
        assert variances == {follower.entropy_weight / follower.r_control}

    def test_initial_mean_against_oracles(self, follower):
        grid = si.build_grid(HORIZON, 1000)
        fr = si.solve_follower_a(follower, grid)
        x_leader = si.Trajectory(grid=grid, values=np.ones(grid.n_nodes))
        [b] = si.solve_follower_bc(fr, follower, [x_leader])
        law = FollowerPolicyLaw(model=follower, fr=fr, b=b)
        mean, _ = law.moments(0, follower.x0)
        cf = FollowerClosedForm(-1.0, 1.0, 0.1, 1.0, 1.0, HORIZON)
        a0 = float(cf.a(0.0))
        gp = si.compute_g(fr, follower, x_leader)
        expected = -(2.0 * a0 * follower.x0 + follower.dilation * gp.g[0])
        assert mean == pytest.approx(expected, abs=1e-5)


class TestRecurrentPolicy:
    def test_zero_parameters_give_zero_control(self, grid50):
        cfg = si.RecurrentConfig()
        policy = si.RecurrentPolicy(grid=grid50, theta=np.zeros(cfg.dim), config=cfg)
        session = policy.session(4)
        x = np.full((4, 1), 0.3)
        for j in range(3):
            u = session.controls(j, np.tile(x, (1, j + 1)), np.zeros(4), np.zeros(4))
            assert np.all(u == 0.0)

    def test_time_features_active(self, grid50):
        policy = si.initial_policy(grid50, si.RecurrentConfig(), si.RngContract(3))
        theta = si.RngContract(5).stream(0).normal(0.0, 0.3, policy.config.dim)
        policy = policy.with_theta(theta)
        # On a constant path only the timestamps distinguish the nodes.
        const_prefix = np.full(grid50.n_nodes, 0.2)
        u_early = last_control(policy, const_prefix[:3])
        u_late = last_control(policy, const_prefix[:31])
        assert u_early != u_late

    def test_replay_deterministic(self, grid50):
        policy = si.initial_policy(grid50, si.RecurrentConfig(), si.RngContract(3))
        theta = si.RngContract(4).stream(0).normal(0.0, 0.3, policy.config.dim)
        policy = policy.with_theta(theta)
        prefix = np.linspace(-0.2, 0.4, 9)
        assert last_control(policy, prefix) == last_control(policy, prefix)

    def test_theta_dimension_enforced(self, grid50):
        cfg = si.RecurrentConfig()
        with pytest.raises(si.InvalidArgumentError):
            si.RecurrentPolicy(grid=grid50, theta=np.zeros(cfg.dim - 1), config=cfg)

    def test_decay_validated(self):
        with pytest.raises(si.InvalidArgumentError):
            si.RecurrentConfig(decay=0.0)
        with pytest.raises(si.InvalidArgumentError):
            si.RecurrentConfig(decay=1.5)


class TestOptimizer:
    def test_config_validation(self):
        with pytest.raises(si.InvalidArgumentError):
            si.OptimizerConfig(objective="entropy")
        with pytest.raises(si.InvalidArgumentError):
            si.OptimizerConfig(budget=0)
        with pytest.raises(si.InvalidArgumentError):
            si.OptimizerConfig(batch_size=1)

    def test_smoke_run_and_trace(self, follower, fr50, co50, grid50):
        leader = make_leader(0.5)
        cfg = si.OptimizerConfig(objective="fisher", batch_size=32, budget=40,
                                 eval_every=10, eval_paths=64, master_seed=1)
        res = si.optimize_policy(cfg, leader, follower, co50, fr50, grid50)
        assert res.trace.shape == (40,)
        assert np.all(np.isfinite(res.trace))
        best_values = res.best_trace[:, 1]
        assert np.all(np.diff(best_values) <= 1e-15)
        assert math.isfinite(res.final_objective)

    def test_pure_tracking_approaches_value_function(self, follower, fr50, co50, grid50):
        # With no inference incentive, a zero target and zero start, the
        # optimal expected cost is the value-function offset at zero state.
        leader = make_leader(0.0, x0=0.0, target=si.Sinusoid(amplitude=0.0, omega=1.0))
        [lr] = si.solve_leader_system([leader], follower, co50)
        optimum = lr.offset[0]
        cfg = si.OptimizerConfig(objective="fisher", batch_size=128, budget=2000,
                                 eval_every=100, eval_paths=2048, master_seed=2)
        res = si.optimize_policy(cfg, leader, follower, co50, fr50, grid50)
        shocks = si.RngContract(123).stream(0).standard_normal((20_000, grid50.n_steps))
        ens = si.simulate_leader_batch(leader, co50, res.policy, grid50, shocks)
        j_p = si.primary_cost_batch(leader, grid50, ens.x, ens.controls)
        mean = float(np.mean(j_p))
        se = float(np.std(j_p, ddof=1) / math.sqrt(len(j_p)))
        assert mean <= 1.05 * optimum + 3.0 * se


class TestPolicySerialization:
    def test_roundtrip(self, grid50, tmp_path):
        from stackinfer.studies import _policy_document, load_policy_file

        policy = si.initial_policy(grid50, si.RecurrentConfig(hidden_width=8, out_width=4),
                                   si.RngContract(6))
        theta = si.RngContract(7).stream(0).normal(0.0, 0.2, policy.config.dim)
        policy = policy.with_theta(theta)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(_policy_document(policy)))
        loaded = load_policy_file(str(path), grid50)
        assert loaded.config == policy.config
        assert np.array_equal(loaded.theta, policy.theta)
        prefix = np.linspace(0.0, 0.3, 6)
        assert last_control(loaded, prefix) == last_control(policy, prefix)
