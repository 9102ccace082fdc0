"""The experiment studies behind the command line.

Each study builds its models from a validated configuration, runs the
corresponding numerical experiment, and returns a ``StudyResult`` holding a
scalar summary plus CSV tables. Every path draws from its own index-keyed
stream, so output does not depend on how paths are batched. The arms a
study compares (ratios, weights, policies) share their noise: each chunk
of rows is drawn once and every arm runs on it, chunks outside and arms
inside, so memory stays bounded by ``CHUNK_ELEMENTS``. One driver,
``_for_chunks``, draws the chunks for every study, and ``_models`` builds
the grid, follower solve and coefficients every study starts from. Every
runner returns through ``_result``, which names each CSV column beside the
value that fills it. A
study's single leader path, and the tradeoff sweep's follower path, come
from ``simulate_leader`` and ``simulate_follower``, whose one row of shocks
is the row ``normal_matrix`` draws at the same index. The tradeoff sweep's
means come from its shocks' sample moments (``_shock_moments``) on grids of
at most ``core.MOMENT_MAX_STEPS`` steps. All
work runs on the calling thread: ``run_study`` still accepts ``threads``,
but the per-path work holds the GIL, and a thread pool only slowed it down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .core import (
    BlowUpError,
    InvalidArgumentError,
    MOMENT_MAX_STEPS,
    RngContract,
    STREAM_FOLLOWER,
    STREAM_LEADER,
    TimeGrid,
    Trajectory,
)
from .infer import (
    DiscreteObservations,
    MultiPeriodState,
    _interval_tables,
    _mle_discrete_rows,
    mle_continuous,
    mle_continuous_batch,
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
    _exact_transition_tables,
    _follower_nodes,
    compute_g,
    leader_batch_stats,
    leader_mean_stats,
    objective_paths,
    simulate_follower,
    simulate_follower_batch,
    simulate_leader,
)


@dataclass(frozen=True)
class StudyResult:
    """Summary scalars plus named CSV tables for one study run."""

    name: str
    summary: dict
    tables: dict  # table name -> (header list, row list)
    provenance: dict


def _result(cfg: ExperimentConfig, summary: dict, **tables) -> StudyResult:
    """A study's result, named from its config and stamped with its provenance.

    Each table is a list of dict rows, every row built by one dict
    expression, so each column is named beside the value that fills it; the
    header is the first row's keys.
    """
    return StudyResult(
        name=cfg.study_name,
        summary=summary,
        tables={
            table: (list(rows[0]), [list(row.values()) for row in rows])
            for table, rows in tables.items()
        },
        provenance={
            "config_hash": cfg.config_hash(),
            "master_seed": cfg.master_seed,
            "bit_exact": cfg.bit_exact,
            "version": __version__,
        },
    )


# Rows x steps drawn at once by a study chunk: bounds peak memory on fine
# grids (100 paths of 2^13 steps become 4 chunks) while 50-step ensembles of
# up to 5242 paths stay in one. Paths draw from index-keyed streams and rows
# never mix, so chunking changes no output, except that a schedule is picked
# from the chunk's shape (``core._use_scan``): a chunk of at most
# ``core.SCAN_MAX_PATHS`` rows, fewer than its steps, may be solved blocked
# where the whole batch would be stepped (they agree to rounding). The
# discrete-convergence replications are solved on their observation grid, so
# their schedule comes from the chunk's rows and that coarse grid's steps.
CHUNK_ELEMENTS = 1 << 18


def _run_chunked(n_paths: int, threads: int, work):
    """Run work(0, n_paths): one chunked pass, which the benchmark's tracer
    wraps by this name and signature to time and count. ``threads`` is unused."""
    work(0, n_paths)


def _for_chunks(rng: RngContract, stream: int, n_rows: int, n_steps: int, step, first: int = 0):
    """Call step(start, stop, shocks) over rows [0, n_rows), chunk by chunk.

    Each chunk holds at most ``CHUNK_ELEMENTS // n_steps`` rows, and its
    shocks are rows first + start .. first + stop of ``stream``, drawn when
    the chunk starts, so nothing a step builds outlives it.
    """
    rows = max(1, CHUNK_ELEMENTS // n_steps)

    def work(lo, hi):
        for start in range(lo, hi, rows):
            stop = min(start + rows, hi)
            step(start, stop, rng.normal_matrix(stop - start, n_steps, stream, first + start))

    _run_chunked(n_rows, 1, work)


def _models(cfg: ExperimentConfig):
    """(grid, follower, fr, coeffs, rng) of a study, on the grid it runs on."""
    grid = cfg.build_grid()
    follower = cfg.build_follower()
    fr = solve_follower_a(follower, grid)
    return grid, follower, fr, compute_coefficients(fr, follower), RngContract(cfg.master_seed)


def _leader_stats(arms, follower, coeffs, fr, grid, n_paths, rng, keep_paths: int = 0):
    """Per-path precision, primary cost and control effort for each arm.

    ``arms`` is a list of (leader, policy) pairs that share the leader shocks:
    each chunk's rows are drawn once and every arm is simulated on them.
    Returns one (precision, j_primary, effort, kept) per arm, ``kept``
    mapping each of the first ``keep_paths`` rows to its (x, controls).
    """
    stats = [(np.empty(n_paths), np.empty(n_paths), np.empty(n_paths), {}) for _ in arms]

    def step(start, stop, shocks):
        for (leader, policy), (precision, j_primary, effort, kept) in zip(arms, stats):
            rows = slice(start, stop)
            ens, precision[rows], j_primary[rows], effort[rows] = leader_batch_stats(
                leader, follower, coeffs, fr, policy, grid, shocks
            )
            for i in range(start, min(stop, keep_paths)):
                kept[i] = (ens.x[i - start].copy(), ens.controls[i - start].copy())
            # Let go of this arm's paths before the next arm simulates.
            del ens

    _for_chunks(rng, STREAM_LEADER, n_paths, grid.n_steps, step)
    return stats


def _follower_mhats(follower, fr, arms, grid, n_replays, rng):
    """Dilation estimates over follower replays, one array per (gp, b) arm.

    Every arm replays the same follower shocks, drawn once per chunk.
    """
    m_hats = [np.empty(n_replays) for _ in arms]

    def step(start, stop, shocks):
        for (gp, b), out in zip(arms, m_hats):
            xs = simulate_follower_batch(follower, fr, b, grid, shocks)
            out[start:stop] = mle_continuous_batch(xs, gp, fr, follower)
            del xs  # before the next arm simulates

    _for_chunks(rng, STREAM_FOLLOWER, n_replays, grid.n_steps, step)
    return m_hats


# Rows per block of the shock-moment sums: blocks are cut from the path
# index, not from the chunks, so the sums' bits do not depend on the chunk size.
MOMENT_BLOCK_ROWS = 256


def _shock_moments(rng, n_paths, n_steps):
    """(mean, second moment, row 0) of the leader shock rows 0 .. n_paths - 1.

    The rows are drawn in one chunked pass, copied into one block buffer in
    path order, and each full block (and the last, partial one) is added to
    the sums of eps and eps eps^T.
    """
    total = np.zeros(n_steps)
    second = np.zeros((n_steps, n_steps))
    block = np.empty((MOMENT_BLOCK_ROWS, n_steps))
    held = 0
    row0 = None

    def fold(rows):
        total[:] += rows.sum(axis=0)
        second[:] += rows.T @ rows

    def step(start, stop, shocks):
        nonlocal held, row0
        if start == 0:
            row0 = shocks[:1].copy()
        i = 0
        while i < len(shocks):
            take = min(MOMENT_BLOCK_ROWS - held, len(shocks) - i)
            block[held : held + take] = shocks[i : i + take]
            held, i = held + take, i + take
            if held == MOMENT_BLOCK_ROWS:
                fold(block)
                held = 0

    _for_chunks(rng, STREAM_LEADER, n_paths, n_steps, step)
    if held:
        fold(block[:held])
    return total / n_paths, second / n_paths, row0


def _sweep_means(arms, follower, coeffs, fr, grid, n_paths, rng):
    """(mean precision, mean primary cost, path 0's x, its controls) per arm.

    On at most ``core.MOMENT_MAX_STEPS`` steps the means come from the
    shocks' sample moments (``leader_mean_stats``, every arm at once),
    otherwise from every path (``_leader_stats``).
    """
    if grid.n_steps > MOMENT_MAX_STEPS:
        stats = _leader_stats(arms, follower, coeffs, fr, grid, n_paths, rng, keep_paths=1)
        return [(np.mean(precision), np.mean(j_p), *kept[0])
                for precision, j_p, _, kept in stats]
    mean, second, row0 = _shock_moments(rng, n_paths, grid.n_steps)
    return [(precision, j_p, x[0], controls[0]) for precision, j_p, x, controls in
            leader_mean_stats(arms, coeffs, fr, grid, mean, second, row0, CHUNK_ELEMENTS)]


def run_tradeoff_sweep(cfg: ExperimentConfig) -> StudyResult:
    """Sweep the tracking-to-inference weight ratio; report mean Fisher information.

    The ratio is q_track / inference_weight: the inference weight stays at
    its configured value and q_track is set to ratio * inference_weight.
    Every ratio runs on the same leader shocks. On a grid of at most
    ``core.MOMENT_MAX_STEPS`` steps the means are exact functions of the
    shocks' sample mean and second moment, so the ratios' unit-impulse
    responses and path 0 are stepped together as one stacked recurrence,
    not every path (``_sweep_means``).
    """
    lam = cfg.leader["inference_weight"]
    grid, follower, fr, coeffs, rng = _models(cfg)
    n_paths = cfg.study["n_paths"]

    ratios = cfg.study["ratios"]
    arms = []
    for ratio in ratios:
        lm = cfg.build_leader(grid, q_track=ratio * lam)
        arms.append((lm, RiccatiPolicy(lm, solve_leader_system(lm, follower, coeffs))))
    means = _sweep_means(arms, follower, coeffs, fr, grid, n_paths, rng)

    sweep = []
    trajectories = []
    for ratio, (lm, _), (precision, j_p, x_path, controls) in zip(ratios, arms, means):
        sweep.append(dict(
            ratio=ratio, inference_weight=lam, q_track=ratio * lam,
            mean_fisher=float(precision) / follower.noise_to_signal,
            mean_primary_cost=float(j_p), n_paths=n_paths, seed=cfg.master_seed,
        ))
        b = solve_follower_bc(fr, follower, Trajectory(grid=grid, values=x_path))
        # Every ratio's trajectory row sees the same follower shocks.
        xf = simulate_follower(follower, fr, b, grid, rng, 0).x
        target = lm.target_at(grid.nodes, grid.horizon)
        trajectories += [
            dict(ratio=ratio, node=j, time=grid.nodes[j], x_leader=x_path[j],
                 control=controls[j], x_follower=xf[j], target=target[j])
            for j in range(grid.n_nodes)
        ]

    fishers = [row["mean_fisher"] for row in sweep]
    summary = {
        "ratios": list(cfg.study["ratios"]),
        "mean_fisher": fishers,
        "strictly_decreasing": bool(all(a > b for a, b in zip(fishers, fishers[1:]))),
        "n_paths": n_paths,
    }
    return _result(cfg, summary, sweep=sweep, trajectories=trajectories)


def run_estimator_study(cfg: ExperimentConfig) -> StudyResult:
    """Conditional bias and variance of the dilation estimate per inference weight.

    One leader path per weight (common leader noise across weights), then
    follower replays with common noise indices.
    """
    grid, follower, fr, coeffs, rng = _models(cfg)
    n_replays = cfg.study["n_replays"]
    path_index = cfg.study["path_seed_index"]

    checkpoints = np.unique(
        np.round(np.logspace(1, math.log10(n_replays), 20)).astype(int)
    )
    weights = cfg.study["inference_weights"]
    arms = []
    for lam in weights:
        lm = cfg.build_leader(grid, inference_weight=lam)
        lr = solve_leader_system(lm, follower, coeffs)
        # Every weight's path sees the same leader shocks.
        x_leader = simulate_leader(lm, coeffs, RiccatiPolicy(lm, lr), grid, rng,
                                   path_index).trajectory()
        b = solve_follower_bc(fr, follower, x_leader)
        arms.append((compute_g(fr, follower, x_leader), b))
    all_m_hats = _follower_mhats(follower, fr, arms, grid, n_replays, rng)

    estimator = []
    bias_curve = []
    for lam, (gp, _), m_hats in zip(weights, arms, all_m_hats):
        estimator.append(dict(
            inference_weight=lam, precision=gp.precision,
            cond_bias=float(np.mean(m_hats)) - follower.dilation,
            bias_se=float(np.std(m_hats, ddof=1) / math.sqrt(n_replays)),
            sample_cond_var=float(np.var(m_hats, ddof=1)),
            formula_cond_var=follower.noise_to_signal / gp.precision,
            n_replays=n_replays, seed=cfg.master_seed,
        ))
        running = np.cumsum(m_hats) / np.arange(1, n_replays + 1)
        bias_curve += [
            dict(inference_weight=lam, n_replays_used=int(n_used),
                 running_bias=running[n_used - 1] - follower.dilation)
            for n_used in checkpoints
        ]

    summary = {
        "inference_weights": list(cfg.study["inference_weights"]),
        "conditional_variance": [row["formula_cond_var"] for row in estimator],
        "n_replays": n_replays,
    }
    return _result(cfg, summary, estimator=estimator, bias_curve=bias_curve)


def run_episodes(
    leader_model,
    follower_model,
    fr,
    coeffs,
    grid: TimeGrid,
    n_episodes: int,
    rng: RngContract,
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
        b = solve_follower_bc(fr, fm, x_leader)
        fpath = simulate_follower(fm, fr, b, grid, rng, ep)
        report = mle_continuous(fpath, gp, fr, fm)
        state = multi_period_update(state, report)
        lm = replace(lm, x0=float(lpath.x[-1]))
        fm = replace(fm, x0=float(fpath.x[-1]))
        out.append((state, float(lpath.x[-1]), float(fpath.x[-1])))
    return out


def run_multi_period(cfg: ExperimentConfig) -> StudyResult:
    """Aggregate estimation error and variance proxy over consecutive episodes."""
    grid, follower, fr, coeffs, rng = _models(cfg)
    n_episodes = cfg.study["n_episodes"]
    threshold = cfg.study["variance_threshold"]

    episodes = []
    final_errors = {}
    stop_at = {}
    for lam in cfg.study["inference_weights"]:
        lm = cfg.build_leader(grid, inference_weight=lam)
        history = run_episodes(lm, follower, fr, coeffs, grid, n_episodes, rng)
        for ep, (state, _, _) in enumerate(history, start=1):
            err = abs(state.m_bar - follower.dilation)
            proxy = realized_variance_proxy(state, follower)
            stopped = threshold is not None and stopping_rule(state, threshold, follower)
            if stopped and lam not in stop_at:
                stop_at[lam] = ep
            m_hat_ep, prec_ep = state.history[-1]
            episodes.append(dict(
                inference_weight=lam, episode=ep, m_hat=m_hat_ep, precision=prec_ep,
                m_bar=state.m_bar, abs_error=err, variance_proxy=proxy, stopped=stopped,
            ))
        final_errors[str(lam)] = abs(history[-1][0].m_bar - follower.dilation)

    summary = {
        "inference_weights": list(cfg.study["inference_weights"]),
        "n_episodes": n_episodes,
        "final_abs_error": final_errors,
        "stopped_at": {str(k): v for k, v in stop_at.items()},
    }
    return _result(cfg, summary, episodes=episodes)


def run_discrete_convergence(cfg: ExperimentConfig) -> StudyResult:
    """Discrete-observation estimates against the continuous one on a fine path."""
    fine_exp = cfg.study["fine_exponent"]
    levels = cfg.study["levels"]
    n_reps = cfg.study["n_sigma_replications"]

    grid, follower, fr, coeffs, rng = _models(cfg)
    lm = cfg.build_leader(grid)
    lr = solve_leader_system(lm, follower, coeffs)
    x_leader = simulate_leader(lm, coeffs, RiccatiPolicy(lm, lr), grid, rng, 0).trajectory()
    gp = compute_g(fr, follower, x_leader)
    b = solve_follower_bc(fr, follower, x_leader)

    # One set of exact-transition tables serves the path and every replication.
    tables = _exact_transition_tables(follower, fr, b, grid)
    fshocks = rng.normal_matrix(1, grid.n_steps, STREAM_FOLLOWER, 0)
    xf = _follower_nodes(follower, tables, fshocks, 1)[0]
    m_cont = float(mle_continuous_batch(xf[None], gp, fr, follower)[0])

    # Each level observes the fine path at every stride-th node. The loop ends
    # at the finest level, whose stride and interval tables also serve the
    # replications below.
    rows = []
    for k in sorted(levels):
        stride = 2 ** (fine_exp - k)
        idx = np.arange(0, grid.n_nodes, stride)
        obs = DiscreteObservations(times=grid.nodes[idx], values=xf[idx])
        level_tables = _interval_tables(obs.times, fr, gp)
        m_hat, sigma2_hat = (
            float(v[0]) for v in _mle_discrete_rows(obs.values[None], level_tables, follower)
        )
        rows.append(dict(
            level=k, n_obs=len(idx) - 1, mesh=obs.mesh, m_hat_discrete=m_hat,
            m_hat_continuous=m_cont, abs_diff=abs(m_hat - m_cont), sigma2_hat=sigma2_hat,
        ))

    # Noise-level consistency at the finest level over fresh follower paths,
    # simulated on its observation nodes only.
    sigma2 = np.empty(n_reps)

    def step(start, stop, shocks):
        xs = _follower_nodes(follower, tables, shocks, stride)
        _, sigma2[start:stop] = _mle_discrete_rows(xs, level_tables, follower)

    # Replication i replays follower row 1 + i; row 0 is the fine path's.
    _for_chunks(rng, STREAM_FOLLOWER, n_reps, grid.n_steps, step, first=1)

    summary = {
        "m_hat_continuous": m_cont,
        "abs_diff_by_level": {str(row["level"]): row["abs_diff"] for row in rows},
        "sigma2_mean_finest": float(np.mean(sigma2)),
        "sigma2_sd_finest": float(np.std(sigma2, ddof=1)),
        "n_sigma_replications": n_reps,
    }
    return _result(cfg, summary, levels=rows)


def run_benchmark_compare(cfg: ExperimentConfig) -> StudyResult:
    """Fit the recurrent policy and compare it with the semi-explicit law.

    Both policies are evaluated on the same Brownian draws; the summary
    reports the information objective of each and their relative gap.
    """
    grid, follower, fr, coeffs, rng = _models(cfg)
    lm = cfg.build_leader(grid)
    riccati = RiccatiPolicy(lm, solve_leader_system(lm, follower, coeffs))
    n_eval = cfg.study["n_eval_paths"]
    n_display = cfg.study["n_display_paths"]

    recurrent = load_study_policy(cfg, grid)
    if recurrent is None:
        opt_cfg = OptimizerConfig(objective="fisher", master_seed=cfg.master_seed,
                                  **cfg.study["optimizer"])
        recurrent = optimize_policy(opt_cfg, lm, follower, coeffs, fr, grid).policy

    # Both policies run on the same leader shocks, drawn once per chunk.
    (prec_r, jp_r, _, kept_r), (prec_n, jp_n, _, kept_n) = _leader_stats(
        [(lm, riccati), (lm, recurrent)], follower, coeffs, fr, grid, n_eval, rng,
        keep_paths=n_display,
    )
    vals_r = objective_paths(lm, follower, prec_r, jp_r, "fisher")
    vals_n = objective_paths(lm, follower, prec_n, jp_n, "fisher")
    diff = vals_n - vals_r
    j_r, j_n = float(np.mean(vals_r)), float(np.mean(vals_n))
    summary = {
        "j_info_riccati": j_r,
        "j_info_recurrent": j_n,
        # A leader at rest (no noise, start or target) has j_r exactly 0.
        "rel_gap": (j_n - j_r) / abs(j_r) if j_r != 0.0 else None,
        "diff_se": float(np.std(diff, ddof=1) / math.sqrt(n_eval)),
        "n_eval_paths": n_eval,
        # Parameters ride along in the summary so the fitted policy can be
        # reloaded with load_policy_file on the same architecture.
        "policy": _policy_document(recurrent),
    }
    trajectories = []
    for i in range(n_display):
        (xr, ur), (xn, un) = kept_r[i], kept_n[i]
        trajectories += [
            dict(path=i, node=j, time=grid.nodes[j], x_riccati=xr[j], u_riccati=ur[j],
                 x_recurrent=xn[j], u_recurrent=un[j])
            for j in range(grid.n_nodes)
        ]
    return _result(cfg, summary, trajectories=trajectories)


def run_objective_compare(cfg: ExperimentConfig) -> StudyResult:
    """Variance-minimizing recurrent policy vs information-maximizing law per pair."""
    grid, follower, fr, coeffs, rng = _models(cfg)
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
    stats = _leader_stats(arms, follower, coeffs, fr, grid, n_paths, rng)

    nts = follower.noise_to_signal
    rows = [
        dict(
            lambda_variance=lam_var, lambda_info=lam_info,
            fi_variance_policy=float(np.mean(prec_v)) / nts,
            fi_info_policy=float(np.mean(prec_i)) / nts,
            effort_variance_policy=float(np.mean(eff_v)),
            effort_info_policy=float(np.mean(eff_i)),
            jp_variance_policy=float(np.mean(jp_v)), jp_info_policy=float(np.mean(jp_i)),
            n_paths=n_paths, seed=cfg.master_seed,
        )
        for (lam_var, lam_info), (prec_i, jp_i, eff_i, _), (prec_v, jp_v, eff_v, _) in zip(
            pairs, stats[0::2], stats[1::2]
        )
    ]

    summary = {
        "pairs": [list(p) for p in cfg.study["pairs"]],
        "fisher_variance_policy": [row["fi_variance_policy"] for row in rows],
        "fisher_info_policy": [row["fi_info_policy"] for row in rows],
    }
    return _result(cfg, summary, pairs=rows)


def run_wellposedness(cfg: ExperimentConfig) -> StudyResult:
    """Existence-horizon constants and the observed blow-up time, if any."""
    grid, follower, _, coeffs, _ = _models(cfg)
    lm = cfg.build_leader(grid)
    bound = horizon_bound(lm, follower, coeffs)
    blow_up_time = None
    quad_peak = None
    try:
        lr = solve_leader_system(lm, follower, coeffs)
        quad_peak = float(np.max(np.abs(lr.quad)))
    except BlowUpError as exc:
        blow_up_time = exc.blow_up_time
    row = dict(
        q=bound.q, beta=bound.beta, y0=bound.y0, t_max=bound.t_max, horizon=grid.horizon,
        solved_on_horizon=blow_up_time is None, blow_up_time=blow_up_time,
    )
    summary = {**row, "quad_peak": quad_peak, "blow_up_threshold": BLOW_UP_THRESHOLD}
    # The CSV writes the blow-up time None as an empty cell.
    return _result(cfg, summary, bound=[row])


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


def load_policy_file(path: str, grid: TimeGrid) -> RecurrentPolicy:
    """Reload a serialized policy onto a grid.

    Accepts either a bare policy document or a benchmark-compare summary
    carrying one under summary.policy. A file that cannot be read raises
    ``OSError``; one that is not such a document, or whose architecture or
    parameters are out of range, raises ``InvalidArgumentError``.
    """
    try:
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
        theta = np.asarray(doc["theta"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON or bad values
        raise InvalidArgumentError(f"not a policy document: {exc!r}") from exc
    if not np.all(np.isfinite(theta)):
        raise InvalidArgumentError("theta must be finite")
    return RecurrentPolicy(grid=grid, theta=theta, config=config)


def load_study_policy(cfg: ExperimentConfig, grid: TimeGrid) -> RecurrentPolicy | None:
    """The policy ``study.policy_file`` names on ``grid``, or None if it names none.

    A file that ``load_policy_file`` refuses raises ``ConfigError`` naming
    the field; one that cannot be read raises ``OSError``.
    """
    path = cfg.policy_file
    if path is None:
        return None
    try:
        return load_policy_file(path, grid)
    except InvalidArgumentError as exc:
        raise ConfigError(f"config.study.policy_file: {path}: {exc}") from exc


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
    """Dispatch a validated configuration to its study runner.

    ``threads`` is accepted for the command line's ``--threads`` and for
    ``perfbench``, which runs every study at 1 and 2; all work runs on the
    calling thread.
    """
    return STUDY_RUNNERS[cfg.study_name](cfg)
