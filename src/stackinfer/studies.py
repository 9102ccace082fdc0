"""The experiment studies behind the command line.

Each study builds its models from a validated configuration, runs the
corresponding numerical experiment, and returns a ``StudyResult`` holding a
scalar summary plus CSV tables. Every path draws from its own index-keyed
stream, so output does not depend on how paths are batched. The arms a
study compares (ratios, weights, policies) share their noise: each chunk
of rows is drawn once and every arm runs on it, chunks outside and arms
inside, so memory stays bounded by ``CHUNK_ELEMENTS``. The ``threads``
argument is still accepted, but all work runs on the calling thread: the
per-path work holds the GIL, and a thread pool only slowed it down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .core import (
    BlowUpError,
    RngContract,
    STREAM_FOLLOWER,
    STREAM_LEADER,
    TimeGrid,
    Trajectory,
    build_grid,
    trapz,
)
from .infer import (
    DiscreteObservations,
    MultiPeriodState,
    mle_continuous,
    mle_continuous_batch,
    mle_discrete_joint,
    mle_discrete_joint_batch,
    multi_period_update,
    realized_variance_proxy,
    stopping_rule,
)
from .policy import (
    OptimizerConfig,
    RecurrentConfig,
    RecurrentPolicy,
    RiccatiPolicy,
    optimize_policy,
)
from .riccati import (
    BLOW_UP_THRESHOLD,
    compute_coefficients,
    horizon_bound,
    solve_follower_a,
    solve_follower_bc,
    solve_leader_system,
)
from .simulate import (
    FollowerPath,
    _exact_transition_tables,
    compute_g,
    leader_batch_stats,
    objective_paths,
    simulate_follower,
    simulate_follower_batch,
    simulate_leader,
    simulate_leader_batch,
)


@dataclass(frozen=True)
class StudyResult:
    """Summary scalars plus named CSV tables for one study run."""

    name: str
    summary: dict
    tables: dict  # table name -> (header list, row list)
    provenance: dict


def _provenance(cfg: ExperimentConfig) -> dict:
    return {
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.master_seed,
        "bit_exact": cfg.bit_exact,
        "version": __version__,
    }


# Rows x steps simulated at once by a study chunk: bounds peak memory on fine
# grids (100 paths of 2^13 steps become 4 chunks) while 50-step ensembles of
# up to 5242 paths stay in one. Paths draw from index-keyed streams and rows
# never mix, so chunking changes no output, except that the affine-law
# solver picks its schedule from the chunk's shape (``core._use_scan``): a
# chunk of at most ``core.SCAN_MAX_PATHS`` rows, fewer than its steps, may be
# solved blocked where the whole batch would be stepped (they agree to
# rounding).
CHUNK_ELEMENTS = 1 << 18


def _row_chunks(lo: int, hi: int, n_steps: int):
    """Split rows [lo, hi) into runs of at most CHUNK_ELEMENTS // n_steps rows."""
    rows = max(1, CHUNK_ELEMENTS // n_steps)
    for start in range(lo, hi, rows):
        yield start, min(start + rows, hi)


def _run_chunked(n_paths: int, threads: int, work):
    """Run work(lo, hi) over all paths on the calling thread.

    ``threads`` is accepted for interface stability only: the per-path work
    holds the GIL, so a thread pool made it slower, not faster.
    """
    work(0, n_paths)


def _leader_stats(arms, follower, coeffs, fr, grid, n_paths, rng, threads,
                  keep_paths: int = 0, *, effort: bool = False):
    """Per-path precision, primary cost and control effort for each arm.

    ``arms`` is a list of (leader, policy) pairs that share the leader shocks:
    each chunk's rows are drawn once and every arm is simulated on them.
    Returns one (precision, j_primary, effort, kept) per arm; effort is None
    unless asked for.
    """
    stats = [
        (np.empty(n_paths), np.empty(n_paths), np.empty(n_paths) if effort else None, {})
        for _ in arms
    ]

    def work(lo, hi):
        for start, stop in _row_chunks(lo, hi, grid.n_steps):
            shocks = rng.normal_matrix(stop - start, grid.n_steps, STREAM_LEADER, start)
            for (leader, policy), (precision, j_primary, eff, kept) in zip(arms, stats):
                ens, precision[start:stop], j_primary[start:stop] = leader_batch_stats(
                    leader, follower, coeffs, fr, policy, grid, shocks
                )
                if eff is not None:
                    eff[start:stop] = trapz(ens.controls**2, grid)
                for i in range(start, min(stop, keep_paths)):
                    kept[i] = (ens.x[i - start].copy(), ens.controls[i - start].copy())
                # Let go of this arm's paths before the next arm simulates.
                del ens

    _run_chunked(n_paths, threads, work)
    return stats


def _follower_mhats(follower, fr, arms, grid, n_replays, rng, threads):
    """Dilation estimates over follower replays, one array per (gp, b) arm.

    Every arm replays the same follower shocks, drawn once per chunk.
    """
    m_hats = [np.empty(n_replays) for _ in arms]

    def work(lo, hi):
        for start, stop in _row_chunks(lo, hi, grid.n_steps):
            shocks = rng.normal_matrix(stop - start, grid.n_steps, STREAM_FOLLOWER, start)
            for (gp, b), out in zip(arms, m_hats):
                xs = simulate_follower_batch(follower, fr, b, grid, shocks)
                out[start:stop] = mle_continuous_batch(xs, gp, fr, follower)
                del xs

    _run_chunked(n_replays, threads, work)
    return m_hats


def _fixed_leader_path(follower, lm, coeffs, fr, grid, shocks):
    """The leader's path under its Riccati law on one row of shocks."""
    lr = solve_leader_system(lm, follower, coeffs)
    ens = simulate_leader_batch(lm, coeffs, RiccatiPolicy(lm, lr), grid, shocks)
    return Trajectory(grid=grid, values=ens.x[0])


def run_tradeoff_sweep(cfg: ExperimentConfig, threads: int = 1) -> StudyResult:
    """Sweep the tracking-to-inference weight ratio; report mean Fisher information.

    The ratio is q_track / inference_weight: the inference weight stays at
    its configured value and q_track is set to ratio * inference_weight.
    """
    lam = cfg.leader["inference_weight"]
    grid = cfg.build_grid()
    follower = cfg.build_follower()
    fr = solve_follower_a(follower, grid)
    coeffs = compute_coefficients(fr, follower)
    rng = RngContract(cfg.master_seed)
    n_paths = cfg.study["n_paths"]

    ratios = cfg.study["ratios"]
    arms = []
    for ratio in ratios:
        lm = cfg.build_leader(grid, q_track=ratio * lam)
        lr = solve_leader_system(lm, follower, coeffs)
        arms.append((lm, RiccatiPolicy(lm, lr)))
    stats = _leader_stats(arms, follower, coeffs, fr, grid, n_paths, rng, threads, keep_paths=1)
    # Every ratio's trajectory row sees the same follower shocks.
    fshocks = rng.normal_matrix(1, grid.n_steps, STREAM_FOLLOWER, 0)

    rows = []
    traj_rows = []
    for ratio, (lm, _), (precision, j_p, _, kept) in zip(ratios, arms, stats):
        mean_fisher = float(np.mean(precision)) / follower.noise_to_signal
        rows.append(
            [ratio, lam, ratio * lam, mean_fisher, float(np.mean(j_p)), n_paths, cfg.master_seed]
        )
        x_path, controls = kept[0]
        b, _ = solve_follower_bc(fr, follower, Trajectory(grid=grid, values=x_path))
        xf = simulate_follower_batch(follower, fr, b, grid, fshocks)[0]
        target = lm.target_at(grid.nodes, grid.horizon)
        for j in range(grid.n_nodes):
            traj_rows.append(
                [ratio, j, grid.nodes[j], x_path[j], controls[j], xf[j], target[j]]
            )

    fishers = [r[3] for r in rows]
    summary = {
        "ratios": list(cfg.study["ratios"]),
        "mean_fisher": fishers,
        "strictly_decreasing": bool(all(a > b for a, b in zip(fishers, fishers[1:]))),
        "n_paths": n_paths,
    }
    return StudyResult(
        name="tradeoff-sweep",
        summary=summary,
        tables={
            "sweep": (
                ["ratio", "inference_weight", "q_track", "mean_fisher",
                 "mean_primary_cost", "n_paths", "seed"],
                rows,
            ),
            "trajectories": (
                ["ratio", "node", "time", "x_leader", "control", "x_follower", "target"],
                traj_rows,
            ),
        },
        provenance=_provenance(cfg),
    )


def run_estimator_study(cfg: ExperimentConfig, threads: int = 1) -> StudyResult:
    """Conditional bias and variance of the dilation estimate per inference weight.

    One leader path per weight (common leader noise across weights), then
    follower replays with common noise indices.
    """
    grid = cfg.build_grid()
    follower = cfg.build_follower()
    fr = solve_follower_a(follower, grid)
    coeffs = compute_coefficients(fr, follower)
    rng = RngContract(cfg.master_seed)
    n_replays = cfg.study["n_replays"]
    path_index = cfg.study["path_seed_index"]

    rows = []
    curve_rows = []
    checkpoints = np.unique(
        np.round(np.logspace(1, math.log10(n_replays), 20)).astype(int)
    )
    weights = cfg.study["inference_weights"]
    lshocks = rng.normal_matrix(1, grid.n_steps, STREAM_LEADER, path_index)
    arms = []
    for lam in weights:
        lm = cfg.build_leader(grid, inference_weight=lam)
        x_leader = _fixed_leader_path(follower, lm, coeffs, fr, grid, lshocks)
        b, _ = solve_follower_bc(fr, follower, x_leader)
        arms.append((compute_g(fr, follower, x_leader), b))
    all_m_hats = _follower_mhats(follower, fr, arms, grid, n_replays, rng, threads)

    for lam, (gp, _), m_hats in zip(weights, arms, all_m_hats):
        bias = float(np.mean(m_hats)) - follower.dilation
        se = float(np.std(m_hats, ddof=1) / math.sqrt(n_replays))
        sample_var = float(np.var(m_hats, ddof=1))
        formula_var = follower.noise_to_signal / gp.precision
        rows.append(
            [lam, gp.precision, bias, se, sample_var, formula_var, n_replays, cfg.master_seed]
        )
        running = np.cumsum(m_hats) / np.arange(1, n_replays + 1)
        for n_used in checkpoints:
            curve_rows.append([lam, int(n_used), running[n_used - 1] - follower.dilation])

    summary = {
        "inference_weights": list(cfg.study["inference_weights"]),
        "conditional_variance": [r[5] for r in rows],
        "n_replays": n_replays,
    }
    return StudyResult(
        name="estimator-study",
        summary=summary,
        tables={
            "estimator": (
                ["inference_weight", "precision", "cond_bias", "bias_se",
                 "sample_cond_var", "formula_cond_var", "n_replays", "seed"],
                rows,
            ),
            "bias_curve": (["inference_weight", "n_replays_used", "running_bias"], curve_rows),
        },
        provenance=_provenance(cfg),
    )


def run_episodes(
    leader_model,
    follower_model,
    fr,
    coeffs,
    grid: TimeGrid,
    n_episodes: int,
    rng: RngContract,
    follower_mode: str = "euler",
) -> list[tuple[MultiPeriodState, float, float]]:
    """Consecutive episodes with chained initial states and fresh noise.

    Both agents keep their within-episode strategies; episode i draws leader
    and follower noise from the index-i streams, so different intensities
    compared at the same master seed share every Brownian increment. Returns
    the aggregate state plus the terminal states after each episode.
    """
    lr = solve_leader_system(leader_model, follower_model, coeffs)
    lm, fm = leader_model, follower_model
    state = MultiPeriodState.empty()
    out = []
    for ep in range(n_episodes):
        lpath = simulate_leader(lm, coeffs, RiccatiPolicy(lm, lr), grid, rng, ep)
        x_leader = lpath.trajectory()
        gp = compute_g(fr, follower_model, x_leader)
        b, _ = solve_follower_bc(fr, fm, x_leader)
        fpath = simulate_follower(fm, fr, b, grid, rng, ep, mode=follower_mode)
        report = mle_continuous(fpath, gp, fr, fm)
        state = multi_period_update(state, report)
        lm = replace(lm, x0=float(lpath.x[-1]))
        fm = replace(fm, x0=float(fpath.x[-1]))
        out.append((state, float(lpath.x[-1]), float(fpath.x[-1])))
    return out


def run_multi_period(cfg: ExperimentConfig, threads: int = 1) -> StudyResult:
    """Aggregate estimation error and variance proxy over consecutive episodes."""
    grid = cfg.build_grid()
    follower = cfg.build_follower()
    fr = solve_follower_a(follower, grid)
    coeffs = compute_coefficients(fr, follower)
    n_episodes = cfg.study["n_episodes"]
    threshold = cfg.study["variance_threshold"]

    rows = []
    final_errors = {}
    stop_at = {}
    for lam in cfg.study["inference_weights"]:
        lm = cfg.build_leader(grid, inference_weight=lam)
        rng = RngContract(cfg.master_seed)
        history = run_episodes(lm, follower, fr, coeffs, grid, n_episodes, rng)
        for ep, (state, _, _) in enumerate(history, start=1):
            err = abs(state.m_bar - follower.dilation)
            proxy = realized_variance_proxy(state, follower)
            stopped = (
                stopping_rule(state, threshold, follower) if threshold is not None else False
            )
            if stopped and lam not in stop_at:
                stop_at[lam] = ep
            m_hat_ep, prec_ep = state.history[-1]
            rows.append([lam, ep, m_hat_ep, prec_ep, state.m_bar, err, proxy, stopped])
        final_errors[str(lam)] = abs(history[-1][0].m_bar - follower.dilation)

    summary = {
        "inference_weights": list(cfg.study["inference_weights"]),
        "n_episodes": n_episodes,
        "final_abs_error": final_errors,
        "stopped_at": {str(k): v for k, v in stop_at.items()},
    }
    return StudyResult(
        name="multi-period",
        summary=summary,
        tables={
            "episodes": (
                ["inference_weight", "episode", "m_hat", "precision", "m_bar",
                 "abs_error", "variance_proxy", "stopped"],
                rows,
            )
        },
        provenance=_provenance(cfg),
    )


def run_discrete_convergence(cfg: ExperimentConfig, threads: int = 1) -> StudyResult:
    """Discrete-observation estimates against the continuous one on a fine path."""
    follower = cfg.build_follower()
    fine_exp = cfg.study["fine_exponent"]
    levels = cfg.study["levels"]
    n_reps = cfg.study["n_sigma_replications"]

    grid = build_grid(cfg.grid["horizon"], 2**fine_exp)
    fr = solve_follower_a(follower, grid)
    coeffs = compute_coefficients(fr, follower)
    lm = cfg.build_leader(grid)
    rng = RngContract(cfg.master_seed)
    x_leader = _fixed_leader_path(
        follower, lm, coeffs, fr, grid, rng.normal_matrix(1, grid.n_steps, STREAM_LEADER, 0)
    )
    gp = compute_g(fr, follower, x_leader)
    b, _ = solve_follower_bc(fr, follower, x_leader)

    # One set of exact-transition tables serves the path and every replication.
    tables = _exact_transition_tables(follower, fr, b, grid)
    fshocks = rng.normal_matrix(1, grid.n_steps, STREAM_FOLLOWER, 0)
    xf = simulate_follower_batch(follower, fr, b, grid, fshocks, mode="exact", tables=tables)[0]
    fpath = FollowerPath(
        grid=grid,
        x=xf,
        brownian=math.sqrt(grid.h) * fshocks[0],
        stream_key=(rng.master_seed, STREAM_FOLLOWER, 0),
        mode="exact",
    )
    m_cont = mle_continuous(fpath, gp, fr, follower).m_hat

    rows = []
    for k in sorted(levels):
        stride = 2 ** (fine_exp - k)
        idx = np.arange(0, grid.n_nodes, stride)
        obs = DiscreteObservations(times=grid.nodes[idx], values=xf[idx])
        est = mle_discrete_joint(obs, fr, gp, follower)
        rows.append(
            [k, len(idx) - 1, obs.mesh, est.m_hat, m_cont, abs(est.m_hat - m_cont),
             est.sigma2_hat]
        )

    # Noise-level consistency at the finest level over fresh follower paths.
    k_fin = max(levels)
    stride = 2 ** (fine_exp - k_fin)
    idx = np.arange(0, grid.n_nodes, stride)
    sigma2 = np.empty(n_reps)

    def work(lo, hi):
        for start, stop in _row_chunks(lo, hi, grid.n_steps):
            shocks = rng.normal_matrix(stop - start, grid.n_steps, STREAM_FOLLOWER, 1 + start)
            xs = simulate_follower_batch(follower, fr, b, grid, shocks, mode="exact",
                                         tables=tables)
            _, sigma2[start:stop] = mle_discrete_joint_batch(
                grid.nodes[idx], xs[:, idx], fr, gp, follower
            )

    _run_chunked(n_reps, threads, work)

    summary = {
        "m_hat_continuous": m_cont,
        "abs_diff_by_level": {str(r[0]): r[5] for r in rows},
        "sigma2_mean_finest": float(np.mean(sigma2)),
        "sigma2_sd_finest": float(np.std(sigma2, ddof=1)),
        "n_sigma_replications": n_reps,
    }
    return StudyResult(
        name="discrete-convergence",
        summary=summary,
        tables={
            "levels": (
                ["level", "n_obs", "mesh", "m_hat_discrete", "m_hat_continuous",
                 "abs_diff", "sigma2_hat"],
                rows,
            )
        },
        provenance=_provenance(cfg),
    )


def run_benchmark_compare(cfg: ExperimentConfig, threads: int = 1) -> StudyResult:
    """Fit the recurrent policy and compare it with the semi-explicit law.

    Both policies are evaluated on the same Brownian draws; the summary
    reports the information objective of each and their relative gap.
    """
    grid = cfg.build_grid()
    follower = cfg.build_follower()
    fr = solve_follower_a(follower, grid)
    coeffs = compute_coefficients(fr, follower)
    lm = cfg.build_leader(grid)
    lr = solve_leader_system(lm, follower, coeffs)
    riccati = RiccatiPolicy(lm, lr)
    rng = RngContract(cfg.master_seed)
    n_eval = cfg.study["n_eval_paths"]
    n_display = cfg.study["n_display_paths"]

    policy_file = cfg.study["policy_file"]
    if policy_file is not None:
        recurrent = load_policy_file(policy_file, grid)
    else:
        opt_cfg = OptimizerConfig(objective="fisher", master_seed=cfg.master_seed,
                                  **cfg.study["optimizer"])
        recurrent = optimize_policy(opt_cfg, lm, follower, coeffs, fr, grid).policy

    # Both policies run on the same leader shocks, drawn once per chunk.
    (prec_r, jp_r, _, kept_r), (prec_n, jp_n, _, kept_n) = _leader_stats(
        [(lm, riccati), (lm, recurrent)], follower, coeffs, fr, grid, n_eval, rng, threads,
        keep_paths=n_display,
    )
    vals_r = objective_paths(lm, follower, prec_r, jp_r, "fisher")
    vals_n = objective_paths(lm, follower, prec_n, jp_n, "fisher")
    diff = vals_n - vals_r
    j_r, j_n = float(np.mean(vals_r)), float(np.mean(vals_n))
    summary = {
        "j_info_riccati": j_r,
        "j_info_recurrent": j_n,
        "rel_gap": (j_n - j_r) / abs(j_r),
        "diff_se": float(np.std(diff, ddof=1) / math.sqrt(n_eval)),
        "n_eval_paths": n_eval,
        # Parameters ride along in the summary so the fitted policy can be
        # reloaded with load_policy_file on the same architecture.
        "policy": _policy_document(recurrent),
    }
    traj_rows = []
    for i in range(n_display):
        xr, ur = kept_r[i]
        xn, un = kept_n[i]
        for j in range(grid.n_nodes):
            traj_rows.append([i, j, grid.nodes[j], xr[j], ur[j], xn[j], un[j]])
    return StudyResult(
        name="benchmark-compare",
        summary=summary,
        tables={
            "trajectories": (
                ["path", "node", "time", "x_riccati", "u_riccati",
                 "x_recurrent", "u_recurrent"],
                traj_rows,
            )
        },
        provenance=_provenance(cfg),
    )


def run_objective_compare(cfg: ExperimentConfig, threads: int = 1) -> StudyResult:
    """Variance-minimizing recurrent policy vs information-maximizing law per pair."""
    grid = cfg.build_grid()
    follower = cfg.build_follower()
    fr = solve_follower_a(follower, grid)
    coeffs = compute_coefficients(fr, follower)
    rng = RngContract(cfg.master_seed)
    n_paths = cfg.study["n_paths"]
    opt_cfg = OptimizerConfig(objective="variance", master_seed=cfg.master_seed,
                              **cfg.study["optimizer"])

    pairs = cfg.study["pairs"]
    arms = []
    for lam_var, lam_info in pairs:
        lm_info = cfg.build_leader(grid, inference_weight=lam_info)
        lr = solve_leader_system(lm_info, follower, coeffs)
        lm_var = cfg.build_leader(grid, inference_weight=lam_var)
        trained = optimize_policy(opt_cfg, lm_var, follower, coeffs, fr, grid).policy
        arms += [(lm_info, RiccatiPolicy(lm_info, lr)), (lm_var, trained)]
    # Every policy of every pair runs on the same leader shocks.
    stats = _leader_stats(arms, follower, coeffs, fr, grid, n_paths, rng, threads, effort=True)

    rows = []
    for (lam_var, lam_info), info, var in zip(pairs, stats[0::2], stats[1::2]):
        prec_i, jp_i, eff_i, _ = info
        prec_v, jp_v, eff_v, _ = var
        nts = follower.noise_to_signal
        rows.append(
            [lam_var, lam_info,
             float(np.mean(prec_v)) / nts, float(np.mean(prec_i)) / nts,
             float(np.mean(eff_v)), float(np.mean(eff_i)),
             float(np.mean(jp_v)), float(np.mean(jp_i)),
             n_paths, cfg.master_seed]
        )

    summary = {
        "pairs": [list(p) for p in cfg.study["pairs"]],
        "fisher_variance_policy": [r[2] for r in rows],
        "fisher_info_policy": [r[3] for r in rows],
    }
    return StudyResult(
        name="objective-compare",
        summary=summary,
        tables={
            "pairs": (
                ["lambda_variance", "lambda_info", "fi_variance_policy", "fi_info_policy",
                 "effort_variance_policy", "effort_info_policy",
                 "jp_variance_policy", "jp_info_policy", "n_paths", "seed"],
                rows,
            )
        },
        provenance=_provenance(cfg),
    )


def run_wellposedness(cfg: ExperimentConfig, threads: int = 1) -> StudyResult:
    """Existence-horizon constants and the observed blow-up time, if any."""
    grid = cfg.build_grid()
    follower = cfg.build_follower()
    fr = solve_follower_a(follower, grid)
    coeffs = compute_coefficients(fr, follower)
    lm = cfg.build_leader(grid)
    bound = horizon_bound(lm, follower, coeffs)
    blow_up_time = None
    quad_peak = None
    try:
        lr = solve_leader_system(lm, follower, coeffs)
        quad_peak = float(np.max(np.abs(lr.quad)))
    except BlowUpError as exc:
        blow_up_time = exc.blow_up_time
    solved = blow_up_time is None
    summary = {
        "q": bound.q,
        "beta": bound.beta,
        "y0": bound.y0,
        "t_max": bound.t_max,
        "horizon": grid.horizon,
        "solved_on_horizon": solved,
        "blow_up_time": blow_up_time,
        "quad_peak": quad_peak,
        "blow_up_threshold": BLOW_UP_THRESHOLD,
    }
    return StudyResult(
        name="wellposedness",
        summary=summary,
        tables={
            "bound": (
                ["q", "beta", "y0", "t_max", "horizon", "solved_on_horizon", "blow_up_time"],
                [[bound.q, bound.beta, bound.y0, bound.t_max, grid.horizon, solved,
                  "" if blow_up_time is None else blow_up_time]],
            )
        },
        provenance=_provenance(cfg),
    )


def _policy_document(policy: RecurrentPolicy) -> dict:
    """A fitted policy's architecture and parameters, as ``load_policy_file`` reads them."""
    cfg = policy.config
    return {
        "architecture": {
            "window": cfg.window,
            "decay": cfg.decay,
            "hidden_width": cfg.hidden_width,
            "out_width": cfg.out_width,
        },
        "theta": [float(v) for v in policy.theta],
    }


def save_policy_file(path: str, policy: RecurrentPolicy):
    """Serialize fitted policy parameters with their architecture."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_policy_document(policy), fh, sort_keys=True)


def load_policy_file(path: str, grid: TimeGrid) -> RecurrentPolicy:
    """Reload a serialized policy onto a grid.

    Accepts either a bare policy document or a benchmark-compare summary
    carrying one under summary.policy.
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "theta" not in doc and "summary" in doc:
        doc = doc["summary"]["policy"]
    arch = doc["architecture"]
    config = RecurrentConfig(
        window=arch["window"],
        decay=arch["decay"],
        hidden_width=arch["hidden_width"],
        out_width=arch["out_width"],
    )
    return RecurrentPolicy(grid=grid, theta=np.asarray(doc["theta"]), config=config)


STUDY_RUNNERS = {
    "tradeoff-sweep": run_tradeoff_sweep,
    "estimator-study": run_estimator_study,
    "multi-period": run_multi_period,
    "discrete-convergence": run_discrete_convergence,
    "benchmark-compare": run_benchmark_compare,
    "objective-compare": run_objective_compare,
    "wellposedness": run_wellposedness,
}


def run_study(cfg: ExperimentConfig, threads: int = 1) -> StudyResult:
    """Dispatch a validated configuration to its study runner."""
    runner = STUDY_RUNNERS[cfg.study_name]
    return runner(cfg, threads=threads)
