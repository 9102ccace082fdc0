import math

import numpy as np
import pytest
from hypothesis import settings

import stackinfer as si

# A rare falsifying draw then prints the @reproduce_failure line that replays it.
settings.register_profile("stackinfer", print_blob=True)
settings.load_profile("stackinfer")

HORIZON = 0.5
TARGET_AMP = 0.1
TARGET_OMEGA = 2.0 * math.pi / HORIZON


def make_follower(**overrides) -> si.FollowerModel:
    base = dict(
        a_drift=-1.0,
        b_control=1.0,
        sigma=0.1,
        x0=0.1,
        q_track=1.0,
        r_control=1.0,
        entropy_weight=1.0,
        dilation=1.0,
    )
    base.update(overrides)
    return si.FollowerModel(**base)


def make_leader(inference_weight=0.5, **overrides) -> si.LeaderModel:
    base = dict(
        a_drift=-1.0,
        b_control=1.0,
        sigma=0.1,
        x0=0.1,
        q_track=1.0,
        r_control=1.0,
        q_terminal=1.0,
        inference_weight=inference_weight,
        target=si.Sinusoid(amplitude=TARGET_AMP, omega=TARGET_OMEGA),
    )
    base.update(overrides)
    return si.LeaderModel(**base)


def exact_means(leader, coeffs, fr, policy, grid) -> tuple[float, float]:
    """Exact on-grid mean precision and primary cost of an affine law: the
    moment evaluator on the standard normal's own moments (0, I)."""
    from stackinfer.studies import CHUNK_ELEMENTS
    from stackinfer.simulate import leader_mean_stats

    n = grid.n_steps
    [(precision, j_primary, _, _)] = leader_mean_stats(
        [(leader, policy)], coeffs, fr, grid, np.zeros(n), np.eye(n), np.empty((0, n)),
        CHUNK_ELEMENTS,
    )
    return precision, j_primary


def zero_policy() -> si.FunctionPolicy:
    return si.FunctionPolicy(lambda j, x, a, a2: np.zeros(x.shape[0]))


def constant_policy(value: float) -> si.FunctionPolicy:
    return si.FunctionPolicy(lambda j, x, a, a2: np.full(x.shape[0], float(value)))


@pytest.fixture(scope="session")
def follower():
    return make_follower()


@pytest.fixture(scope="session")
def grid50():
    return si.build_grid(HORIZON, 50)


@pytest.fixture(scope="session")
def grid1000():
    return si.build_grid(HORIZON, 1000)


@pytest.fixture(scope="session")
def fr50(follower, grid50):
    return si.solve_follower_a(follower, grid50)


@pytest.fixture(scope="session")
def co50(follower, fr50):
    return si.compute_coefficients(fr50, follower)


@pytest.fixture(scope="session")
def fr1000(follower, grid1000):
    return si.solve_follower_a(follower, grid1000)


@pytest.fixture(scope="session")
def co1000(follower, fr1000):
    return si.compute_coefficients(fr1000, follower)
