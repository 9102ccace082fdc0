import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stackinfer as si
from stackinfer import _seedseq

# Stream keys of test_matrix_matches_streams: master seeds past 2**128,
# namespaces past 2**32 and path indices that cross 2**32.
MASTER_SEEDS = st.one_of(
    st.sampled_from([0, 2**31 - 1]),
    st.integers(0, 2**20).map(lambda k: 2**32 + k),
    st.integers(2**128, 2**140),
)
NAMESPACES = st.one_of(st.integers(0, 3), st.integers(2**32, 2**40))
OFFSETS = st.one_of(st.integers(0, 1000), st.integers(2**32 - 300, 2**32 + 5))

# Path 0 of this key draws more than 500 words for its 500 normals: at least
# one draw takes the ziggurat's rejection or tail branch.
LONG_ROW_KEY = dict(master_seed=99, namespace=1, offset=0)


def words_drawn(master_seed, namespace, index, n):
    """Number of uint64 words that n normals of stream (namespace, index) use."""
    seed = np.random.SeedSequence(master_seed, spawn_key=(namespace, index))
    drawn = np.random.PCG64(seed)
    np.random.Generator(drawn).standard_normal(n)
    counted, used = np.random.PCG64(seed).advance(n), n
    while counted.state != drawn.state:
        counted.advance(1)
        used += 1
    return used


class TestBuildGrid:
    def test_paper_grid(self):
        grid = si.build_grid(0.5, 50)
        assert grid.n_nodes == 51
        assert grid.h == pytest.approx(0.01, abs=1e-15)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 0.5
        assert np.max(np.abs(np.diff(grid.nodes) - grid.h)) < 1e-15

    def test_minimal_grid(self):
        grid = si.build_grid(1.0, 1)
        assert list(grid.nodes) == [0.0, 1.0]

    def test_fine_grid(self):
        assert si.build_grid(0.5, 500).h == pytest.approx(0.001, abs=1e-15)

    @pytest.mark.parametrize("horizon,n", [(0.0, 10), (-1.0, 10), (1.0, 0), (1.0, -3)])
    def test_invalid_arguments(self, horizon, n):
        with pytest.raises(si.InvalidArgumentError):
            si.build_grid(horizon, n)


class TestEvalTarget:
    def test_sinusoid_at_zero(self):
        target = si.Sinusoid(amplitude=0.1, omega=2 * math.pi / 0.5)
        assert si.eval_target(target, 0.0, 0.5) == 0.0

    def test_sinusoid_quarter_period(self):
        target = si.Sinusoid(amplitude=0.1, omega=2 * math.pi / 0.5)
        assert si.eval_target(target, 0.125, 0.5) == pytest.approx(0.1, abs=1e-15)

    def test_tabulated_interpolation(self):
        grid = si.build_grid(1.0, 2)
        target = si.Tabulated(grid=grid, table=np.array([0.0, 1.0, 2.0]))
        assert si.eval_target(target, 0.25, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_out_of_domain(self):
        target = si.Sinusoid(amplitude=0.1, omega=1.0)
        with pytest.raises(si.OutOfDomainError):
            si.eval_target(target, 1.5, 1.0)
        with pytest.raises(si.OutOfDomainError):
            si.eval_target(target, -0.1, 1.0)

    def test_tabulated_length_check(self):
        grid = si.build_grid(1.0, 2)
        with pytest.raises(si.InvalidArgumentError):
            si.Tabulated(grid=grid, table=np.array([0.0, 1.0]))


class TestCumtrapz:
    def test_constant_exact(self):
        grid = si.build_grid(1.0, 10)
        out = si.cumtrapz(np.ones(11), grid)
        assert out[0] == 0.0
        assert out[-1] == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        grid = si.build_grid(1.0, 10)
        out = si.cumtrapz(grid.nodes, grid)
        assert out[-1] == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_against_analytic(self):
        grid = si.build_grid(1.0, 1000)
        out = si.cumtrapz(grid.nodes**2, grid)
        assert out[-1] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_length_mismatch(self):
        grid = si.build_grid(1.0, 10)
        with pytest.raises(si.InvalidArgumentError):
            si.cumtrapz(np.ones(10), grid)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=6, max_size=6),
           st.lists(st.floats(-100, 100), min_size=6, max_size=6),
           st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, u, v, a, b):
        grid = si.build_grid(1.0, 5)
        u, v = np.array(u), np.array(v)
        combined = si.cumtrapz(a * u + b * v, grid)
        split = a * si.cumtrapz(u, grid) + b * si.cumtrapz(v, grid)
        assert np.allclose(combined, split, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 50), min_size=8, max_size=8))
    def test_nonnegative_gives_nondecreasing(self, v):
        grid = si.build_grid(2.0, 7)
        out = si.cumtrapz(np.array(v), grid)
        assert np.all(np.diff(out) >= -1e-12)


class TestRngContract:
    def test_reproducible_streams(self):
        rng = si.RngContract(master_seed=12345)
        a = rng.normals(64, 0, 7)
        b = rng.normals(64, 0, 7)
        assert np.array_equal(a, b)

    def test_streams_independent_of_order(self):
        rng = si.RngContract(master_seed=12345)
        first_then_second = (rng.normals(8, 0, 1), rng.normals(8, 0, 2))
        second_then_first = (rng.normals(8, 0, 2), rng.normals(8, 0, 1))
        assert np.array_equal(first_then_second[0], second_then_first[1])
        assert np.array_equal(first_then_second[1], second_then_first[0])

    def test_distinct_keys_differ(self):
        rng = si.RngContract(master_seed=1)
        assert not np.array_equal(rng.normals(16, 0, 0), rng.normals(16, 0, 1))
        assert not np.array_equal(rng.normals(16, 0, 0), rng.normals(16, 1, 0))

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_refuses_a_master_seed_that_is_not_a_nonnegative_int(self, seed):
        # -1 reached numpy's ValueError at the first draw, 1.5 a TypeError
        # from SeedSequence, and True drew seed 1's streams.
        with pytest.raises(si.InvalidArgumentError, match="master_seed"):
            si.RngContract(seed)

    def test_accepts_a_numpy_integer_master_seed(self):
        rng, ref = si.RngContract(np.int64(7)), si.RngContract(7)
        assert np.array_equal(rng.normal_matrix(2, 3, 0), ref.normal_matrix(2, 3, 0))
        assert np.array_equal(rng.normals(3, 0, 0), ref.normals(3, 0, 0))

    @settings(max_examples=60, deadline=None)
    @given(
        master_seed=MASTER_SEEDS,
        namespace=NAMESPACES,
        offset=OFFSETS,
        n_paths=st.integers(0, 300),
        n=st.one_of(st.integers(1, 6), st.integers(500, 3000)),
    )
    @example(master_seed=99, namespace=1, offset=2**32 - 2, n_paths=4, n=10)
    @example(**LONG_ROW_KEY, n_paths=3, n=500)
    def test_matrix_matches_streams(self, master_seed, namespace, offset, n_paths, n):
        """The batched seeding and the shared generator are bit-identical to one
        SeedSequence per row, also on rows long enough to reach the
        ziggurat's rejection and tail branches."""
        rng = si.RngContract(master_seed=master_seed)
        mat = rng.normal_matrix(n_paths, n, namespace, offset=offset)
        assert mat.shape == (n_paths, n)
        for i in range(n_paths):
            assert np.array_equal(mat[i], rng.normals(n, namespace, offset + i))

    def test_long_row_example_takes_a_slow_branch(self):
        """The pinned long-row example's first row draws extra words, so its
        second row shows that no state outlives the four words written."""
        key = LONG_ROW_KEY
        assert words_drawn(key["master_seed"], key["namespace"], key["offset"], 500) > 500

    @settings(max_examples=60, deadline=None)
    @given(
        master_seed=MASTER_SEEDS,
        namespace=NAMESPACES,
        offset=st.one_of(OFFSETS, st.integers(2**64 - 300, 2**64 - 1)),
        n_rows=st.integers(1, 5),
    )
    @example(master_seed=2**128, namespace=2**32, offset=2**64 - 1, n_rows=1)
    def test_seeding_replay_matches_numpy(self, master_seed, namespace, offset, n_rows):
        """Each row's (state, inc) is the one PCG64 seeds itself with."""
        n_rows = min(n_rows, 2**64 - offset)
        seeds = _seedseq.row_seed_states(master_seed, namespace, offset, n_rows)
        states = _seedseq.pcg64_states(seeds)
        for i, (state_lo, state_hi, inc_lo, inc_hi) in enumerate(states.tolist()):
            seq = np.random.SeedSequence(master_seed, spawn_key=(namespace, offset + i))
            want = np.random.PCG64(seq).state["state"]
            assert (state_hi << 64 | state_lo, inc_hi << 64 | inc_lo) == (want["state"], want["inc"])

    STATE, INC = 0x0123456789ABCDEF_FEDCBA9876543210, 0x1111222233334444_5555666677778889
    # (state low, state high, inc low, inc high)
    WORDS = [0xFEDCBA9876543210, 0x0123456789ABCDEF, 0x5555666677778889, 0x1111222233334444]

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 3, 2)], ids=["low-first", "high-first"])
    def test_layout_probe_reads_both_numpy_layouts(self, order):
        raw = [self.WORDS[k] for k in order]
        assert _seedseq.state_word_order(raw, self.STATE, self.INC) == order

    def test_layout_probe_refuses_other_layouts(self):
        inc_first = [self.WORDS[k] for k in (2, 3, 0, 1)]
        with pytest.raises(RuntimeError, match="unsupported PCG64 state layout"):
            _seedseq.state_word_order(inc_first, self.STATE, self.INC)

    def test_layout_probe_matches_the_public_getter(self):
        """Words written through the probed order read back through ``state``."""
        bit_generator = np.random.PCG64(7)
        _seedseq.state_words(bit_generator)[:] = [self.WORDS[k] for k in _seedseq.word_order()]
        reported = bit_generator.state["state"]
        assert (reported["state"], reported["inc"]) == (self.STATE, self.INC)

    def test_matrix_independent_across_threads(self):
        """Concurrent calls on different keys give their serial arrays."""
        rng = si.RngContract(master_seed=3)
        keys = [[(thread, 300 * call) for call in range(8)] for thread in (0, 1)]
        serial = {key: rng.normal_matrix(300, 50, *key) for calls in keys for key in calls}
        drawn = {}
        barrier = threading.Barrier(2, timeout=60)

        def draw(calls):
            barrier.wait()
            for key in calls:
                drawn[key] = rng.normal_matrix(300, 50, *key)

        threads = [threading.Thread(target=draw, args=(calls,)) for calls in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert drawn.keys() == serial.keys()
        for key, want in serial.items():
            assert np.array_equal(drawn[key], want)

    def test_matrix_rejects_out_of_range_offset(self):
        rng = si.RngContract(master_seed=1)
        with pytest.raises(si.InvalidArgumentError):
            rng.normal_matrix(3, 4, 0, offset=-1)
        with pytest.raises(si.InvalidArgumentError):
            rng.normal_matrix(3, 4, 0, offset=2**64 - 2)
        for name, args in (("n_paths", (-1, 4, 0)), ("n", (3, -1, 0)), ("namespace", (3, 4, -1))):
            with pytest.raises(si.InvalidArgumentError, match=f"^{name} must be >= 0"):
                rng.normal_matrix(*args)


class TestModelValidation:
    def test_follower_rejects_negative_sigma(self):
        with pytest.raises(si.InvalidArgumentError):
            si.FollowerModel(a_drift=0, b_control=1, sigma=-0.1, x0=0,
                             q_track=1, r_control=1, entropy_weight=1, dilation=1)

    def test_follower_rejects_bad_weights(self):
        with pytest.raises(si.InvalidArgumentError):
            si.FollowerModel(a_drift=0, b_control=1, sigma=0.1, x0=0,
                             q_track=1, r_control=0, entropy_weight=1, dilation=1)
        with pytest.raises(si.InvalidArgumentError):
            si.FollowerModel(a_drift=0, b_control=1, sigma=0.1, x0=0,
                             q_track=1, r_control=1, entropy_weight=0, dilation=1)

    def test_leader_rejects_negative_inference_weight(self):
        with pytest.raises(si.InvalidArgumentError):
            si.LeaderModel(a_drift=0, b_control=1, sigma=0.1, x0=0, q_track=1,
                           r_control=1, q_terminal=1, inference_weight=-0.5,
                           target=si.Sinusoid(amplitude=1, omega=1))

    def test_trajectory_shape_and_finiteness(self):
        grid = si.build_grid(1.0, 2)
        with pytest.raises(si.InvalidArgumentError):
            si.Trajectory(grid=grid, values=np.array([0.0, 1.0]))
        with pytest.raises(si.InvalidArgumentError):
            si.Trajectory(grid=grid, values=np.array([0.0, np.nan, 1.0]))
