import tracemalloc
from collections import Counter

import numpy as np
import pytest

import stackinfer as si
from conftest import HORIZON, make_follower, make_leader
from oracles import estimator_study_per_arm, tradeoff_sweep_per_arm
from stackinfer import core, riccati, studies
from stackinfer.config import validate_config
from stackinfer.studies import run_episodes


@pytest.fixture(scope="module")
def solved_200(follower):
    grid = si.build_grid(HORIZON, 200)
    fr = si.solve_follower_a(follower, grid)
    coeffs = si.compute_coefficients(fr, follower)
    return grid, fr, coeffs


class TestEpisodeDriver:
    def test_states_chain_and_noise_is_fresh(self, follower, solved_200):
        grid, fr, coeffs = solved_200
        leader = make_leader(0.5)
        history = run_episodes(leader, follower, fr, coeffs, grid, 3, si.RngContract(3))
        assert len(history) == 3
        states = [h[0] for h in history]
        assert [len(s.history) for s in states] == [1, 2, 3]
        # precision accumulates strictly
        totals = [s.total_precision for s in states]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_common_seed_noise_shared_across_intensities(self, follower, solved_200):
        # same master seed => identical Brownian streams per episode, so the
        # two intensities see the same follower innovations
        grid, fr, coeffs = solved_200
        rng = si.RngContract(12)
        a = rng.normals(grid.n_steps, si.core.STREAM_FOLLOWER, 0)
        b = si.RngContract(12).normals(grid.n_steps, si.core.STREAM_FOLLOWER, 0)
        assert np.array_equal(a, b)

    def test_error_dominance_every_episode(self, follower, solved_200):
        # With no information incentive, the aggregate error stays above the
        # informed one at every episode count (pinned common-seed run).
        grid, fr, coeffs = solved_200
        h0 = run_episodes(make_leader(0.0), follower, fr, coeffs, grid, 30,
                          si.RngContract(16))
        h93 = run_episodes(make_leader(0.93), follower, fr, coeffs, grid, 30,
                           si.RngContract(16))
        e0 = [abs(s.m_bar - follower.dilation) for s, _, _ in h0]
        e93 = [abs(s.m_bar - follower.dilation) for s, _, _ in h93]
        assert all(a > b for a, b in zip(e0, e93))

    def test_stopping_episode_concentrates_across_seeds(self, follower, solved_200):
        # The plug-in stopping rule at a 1e-3 variance threshold fires after
        # a tightly clustered number of episodes.
        grid, fr, coeffs = solved_200
        leader = make_leader(0.93)
        stops = []
        for seed in range(1, 21):
            history = run_episodes(leader, follower, fr, coeffs, grid, 25,
                                   si.RngContract(seed))
            stop_n = next(
                (i + 1 for i, (state, _, _) in enumerate(history)
                 if si.stopping_rule(state, 1e-3, follower)),
                None,
            )
            assert stop_n is not None
            stops.append(stop_n)
        median = float(np.median(stops))
        within = sum(abs(s - median) <= 2 for s in stops)
        assert within >= 0.8 * len(stops)


MODEL = {
    "follower": {
        "a_drift": -1.0, "b_control": 1.0, "sigma": 0.1, "x0": 0.1,
        "q_track": 1.0, "r_control": 1.0, "entropy_weight": 1.0, "dilation": 1.0,
    },
    "leader": {
        "a_drift": -1.0, "b_control": 1.0, "sigma": 0.1, "x0": 0.1,
        "q_track": 1.0, "r_control": 1.0, "q_terminal": 1.0, "inference_weight": 0.5,
        "target": {"kind": "sinusoid", "amplitude": 0.1, "cycles": 1.0},
    },
    "grid": {"horizon": HORIZON, "n_steps": 50},
    "rng": {"master_seed": 11},
}
TINY_SPSA = {"budget": 2, "batch_size": 16, "eval_every": 1, "eval_paths": 32}
SWEEP = {"name": "tradeoff-sweep", "ratios": [0.5, 1.0, 10.0, 25.0, 100.0], "n_paths": 200}
SWEEP_MODEL_STEPS = MODEL["grid"]["n_steps"]
# The moment route's means against the per-path loop's, relative: the largest
# gap measured on this model was 4.9e-15 (at one path; 2.1e-15 over 200, 257
# and 2000 paths), in chunks of 20, 70 and 5242 rows.
SWEEP_MEAN_RTOL = 1e-14
ESTIMATOR = {"name": "estimator-study", "inference_weights": [0.0, 0.5, 0.93], "n_replays": 200}


def study_config(study):
    return validate_config({**MODEL, "study": study})


def traced_peak(run, *args):
    """tracemalloc's peak over run(*args), after one untraced warm-up call."""
    run(*args)  # warm caches and imports outside the trace
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCommonNoise:
    """Each study draws its common shocks once and gets the per-arm answer."""

    @pytest.mark.parametrize("study", [
        SWEEP,
        ESTIMATOR,
        {"name": "benchmark-compare", "n_eval_paths": 200, "n_display_paths": 2,
         "optimizer": TINY_SPSA},
        {"name": "objective-compare", "pairs": [[1e-6, 0.5], [1e-5, 0.93]], "n_paths": 200,
         "optimizer": TINY_SPSA},
    ], ids=lambda study: study["name"])
    def test_each_row_block_is_drawn_once(self, monkeypatch, study):
        monkeypatch.setattr(studies, "CHUNK_ELEMENTS", 70 * 50)  # 3 chunks of rows
        requests = Counter()
        normal_matrix = core.RngContract.normal_matrix

        def counted(rng, n_paths, n, namespace, offset=0):
            requests[namespace, offset, n_paths] += 1
            return normal_matrix(rng, n_paths, n, namespace, offset)

        monkeypatch.setattr(core.RngContract, "normal_matrix", counted)
        studies.run_study(study_config(study))
        assert requests
        assert max(requests.values()) == 1, requests

    @pytest.mark.parametrize("chunk_rows", [20, 70])
    def test_sweep_matches_the_per_arm_loop(self, monkeypatch, chunk_rows):
        # The sweep's two mean columns come from the shocks' sample moments,
        # the loop's from every path: they agree to rounding. Path 0 is
        # stepped in the sweep's stacked recurrence and by the loop's node
        # loop (70-row first chunk) or blocked recurrence (20 rows, fewer
        # than the steps), which round differently.
        monkeypatch.setattr(studies, "CHUNK_ELEMENTS", chunk_rows * 50)
        cfg = study_config(SWEEP)
        tables = studies.run_study(cfg).tables
        rows, traj_rows = tradeoff_sweep_per_arm(cfg, chunk_rows)
        got, want = np.array(tables["sweep"][1]), np.array(rows)
        means = [tables["sweep"][0].index(name) for name in ("mean_fisher", "mean_primary_cost")]
        assert np.array_equal(np.delete(got, means, axis=1), np.delete(want, means, axis=1))
        assert np.all(np.abs(got[:, means] - want[:, means]) <= SWEEP_MEAN_RTOL * want[:, means])
        got, want = np.array(tables["trajectories"][1]), np.array(traj_rows)
        assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=0))

    def test_sweep_above_the_step_bound_matches_the_per_arm_loop(self, monkeypatch):
        # Past core.MOMENT_MAX_STEPS every path is simulated, as the loop does.
        n_steps = core.MOMENT_MAX_STEPS + 1
        monkeypatch.setattr(studies, "CHUNK_ELEMENTS", 30 * n_steps)
        cfg = validate_config({**MODEL, "grid": {"horizon": HORIZON, "n_steps": n_steps},
                               "study": {**SWEEP, "ratios": [1.0, 25.0], "n_paths": 70}})
        tables = studies.run_study(cfg).tables
        rows, traj_rows = tradeoff_sweep_per_arm(cfg, 30)
        assert tables["sweep"][1] == rows
        assert tables["trajectories"][1] == traj_rows

    @pytest.mark.parametrize("study, stack", [
        pytest.param(SWEEP, 1, id="1"),
        pytest.param(SWEEP, 2, id="2"),
        pytest.param(SWEEP, 4, id="4"),
        pytest.param(ESTIMATOR, 2, id="estimator-study"),
    ])
    def test_sweep_rows_do_not_depend_on_their_stack(self, monkeypatch, study, stack):
        # Each arm's rows (a ratio's sweep row and trajectory, a weight's
        # estimator row and bias curve) are the same bits whether it runs
        # alone or stacked with the other arms, however the chunk cap of the
        # moment route and the leader solve's arm cap group them (``stack``
        # arms at a time here).
        n = SWEEP_MODEL_STEPS
        key = "ratios" if study is SWEEP else "inference_weights"
        alone = [studies.run_study(study_config({**study, key: [arm]})).tables
                 for arm in study[key]]
        monkeypatch.setattr(studies, "CHUNK_ELEMENTS", stack * (n + 1) * 3 * (n + 2))
        monkeypatch.setattr(riccati, "_CHUNK_STEPS", stack * n)
        together = studies.run_study(study_config(study)).tables
        for i, tables in enumerate(alone):
            for name, (_, rows) in tables.items():
                per_arm = len(rows)
                assert together[name][1][i * per_arm : (i + 1) * per_arm] == rows, name

    def test_moment_sweep_memory_does_not_grow_with_paths(self):
        # The moment route holds one chunk of shocks as it is drawn, the block
        # buffer and the second moment, whatever the path count: its peak over
        # a one-path sweep stays within those at 2000 paths (one chunk of 2000
        # rows) and at 10000 (two chunks of CHUNK_ELEMENTS // n_steps rows).
        n = SWEEP_MODEL_STEPS

        def sweep(n_paths):
            studies.run_study(study_config({**SWEEP, "n_paths": n_paths}))

        base = traced_peak(sweep, 1)
        for n_paths in (2000, 10000):
            rows = min(n_paths, studies.CHUNK_ELEMENTS // n)
            chunk = traced_peak(core.RngContract(0).normal_matrix, rows, n, core.STREAM_LEADER)
            bound = chunk + 8 * (studies.MOMENT_BLOCK_ROWS * n + n * n)
            assert traced_peak(sweep, n_paths) - base <= bound, n_paths

    def test_moment_sweep_stacks_no_more_than_the_cap(self):
        # At 400 steps one ratio's stacked state alone passes CHUNK_ELEMENTS,
        # so the ratios are stepped one at a time: five ratios peak within
        # half a state of one ratio, not at five states.
        n = core.MOMENT_MAX_STEPS

        def sweep(ratios):
            studies.run_study(validate_config({
                **MODEL, "grid": {"horizon": HORIZON, "n_steps": n},
                "study": {**SWEEP, "ratios": ratios},
            }))

        state = 8 * (n + 1) * 3 * (n + 2)
        one = traced_peak(sweep, [1.0])
        five = traced_peak(sweep, SWEEP["ratios"])
        assert five - one <= state / 2, (one, five, state)

    def test_fine_grid_sweep_solves_one_arm_at_a_time(self, monkeypatch):
        # Past 1024 steps the leader solve's arm cap, max(1, _CHUNK_STEPS //
        # n_steps), is 1: a 5-ratio sweep's solve peaks at a one-ratio
        # sweep's, plus the tables of the ratios already solved, and half a
        # ratio's transfer maps to spare; it would hold five ratios' maps
        # if it stacked them.
        n = 1500
        real, peaks = studies.solve_leader_system, []

        def measured(leaders, follower, coeffs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(leaders, follower, coeffs)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        monkeypatch.setattr(studies, "solve_leader_system", measured)

        def solver_peak(ratios):
            traced_peak(studies.run_study, validate_config({
                **MODEL, "grid": {"horizon": HORIZON, "n_steps": n},
                "study": {**SWEEP, "ratios": ratios, "n_paths": 8},
            }))
            return peaks[-1]

        tables = 8 * (n + 1) * (9 + 3 + 1)  # one ratio's quad, lin and offset
        maps = 8 * n * 8 * 8
        one = solver_peak([1.0])
        five = solver_peak(SWEEP["ratios"])
        assert five - one <= 4 * tables + maps / 2, (one, five)

    @pytest.mark.parametrize("chunk_rows", [20, 70])
    def test_estimator_study_matches_the_per_arm_loop(self, monkeypatch, chunk_rows):
        monkeypatch.setattr(studies, "CHUNK_ELEMENTS", chunk_rows * 50)
        cfg = study_config(ESTIMATOR)
        tables = studies.run_study(cfg).tables
        rows, curve_rows = estimator_study_per_arm(cfg, chunk_rows)
        assert tables["estimator"][1] == rows
        assert tables["bias_curve"][1] == curve_rows

    def test_arms_let_go_of_their_paths(self):
        # Five ratios may hold five arms' result vectors, not an earlier
        # arm's paths or score profile while the next arm simulates.
        n_paths = 2000

        def sweep(ratios):
            studies.run_study(study_config(
                {"name": "tradeoff-sweep", "ratios": ratios, "n_paths": n_paths}
            ))

        one = traced_peak(sweep, [1.0])
        five = traced_peak(sweep, SWEEP["ratios"])
        assert five <= 1.1 * (one + 5 * 3 * n_paths * 8), (one, five)
