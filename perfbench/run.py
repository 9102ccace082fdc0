"""Closed-loop benchmark for stackinfer: one process, one client, at most 2 threads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {ensemble,fine_grid,policy_fit} \
        --seed N --seconds S --trace {0,1}

The client repeats the workload's operation (see workloads.py) until
``--seconds`` have passed, each operation starting after the previous one
returns. Every line but the last is a human-readable report; the last line is
one JSON object with ``correct``, ``attempted`` and ``failed`` (study calls,
counting a call whose output check failed as failed) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation. With ``--trace 1`` untraced and traced operations alternate;
the metrics are per-layer self times and counts from the traced operations,
and the tracing overhead is printed. Spans are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
# The reference host runs in two CPU speed states about 1.5x apart, switching
# within seconds to minutes, which moves raw timings of whole runs by up to
# 35%. End-to-end times are therefore rescaled to the fast state: a fixed
# calibration kernel is timed before every operation (and every set-up probe),
# and times are multiplied by CALIBRATION_REF_S / mean(kernel time). The kernel
# takes about CALIBRATION_REF_S seconds in the fast state on that host.
CALIBRATION_REF_S = 0.1

sys.path.insert(0, str(HERE))
from tracing import Recorder, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Per-layer metrics: module-wide self times, the sub-layer times an
# optimisation is most likely to move, and counts taken at the same
# boundaries. Only times every workload produces are listed, so none reads 0;
# the printed table has every span name.
LAYER_TIMES = {
    "core.rng_s": ("core.rng",),
    "riccati_s": ("riccati.",),
    "riccati.leader_s": ("riccati.leader",),
    "simulate_s": ("simulate.",),
    "simulate.leader_s": ("simulate.leader",),
    "policy_s": ("policy.",),
    "policy.control_s": ("policy.control",),
    "studies_s": ("studies.",),
    "config.validate_s": ("config.validate",),
    "cli.write_s": ("cli.write",),
}
LAYER_COUNTS = (
    "core.rng_streams", "core.rng_draws", "riccati.rk4_steps",
    "simulate.leader_path_steps", "simulate.follower_path_steps",
    "policy.control_calls", "policy.control_rows", "policy.spsa_iters",
    "infer.estimates", "studies.chunks", "cli.bytes_written",
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _load_program():
    """Import stackinfer from this checkout's sources only."""
    # numpy's BLAS pool would add threads beyond the studies' own pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import stackinfer
    from stackinfer import cli, config, studies

    if Path(stackinfer.__file__).resolve().parent != (SRC / "stackinfer").resolve():
        raise ImportError(f"stackinfer imported from {stackinfer.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, config=config, studies=studies)


def calibrate() -> float:
    """Seconds for a fixed mix of scalar Python and small-array numpy work."""
    import numpy as np

    start = perf_counter()
    y = 0.0
    for _ in range(300_000):
        y -= 1e-3 * (0.5 * y * y - 0.3 * y + 1e-3)
    a = np.zeros((256, 10))
    w = np.full((10, 10), 0.01)
    for _ in range(6_000):
        a = np.tanh(a @ w + 0.1)
    return perf_counter() - start


def speed_scale(kernel_times) -> float:
    """Factor that converts times measured next to these kernel runs to the fast state."""
    return CALIBRATION_REF_S / statistics.fmean(kernel_times)


def measure_setup(docs: dict) -> tuple[list, list]:
    """Seconds to import, validate and build models, each time in a fresh process."""
    payload = json.dumps(list(docs.values()))
    times, kernel = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), payload],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(proc.stdout.split()[-1]))
        kernel.append(calibrate())
    return times, kernel


def run_ops(workload, seconds: float, out_dir: Path, recorder: Recorder | None = None):
    """Repeat the operation until the time is up; with a recorder, trace every other one.

    Untraced runs time the calibration kernel before each operation and once
    at the end; those times are returned as the third value.
    """
    untraced, traced, kernel = [], [], []
    deadline = perf_counter() + seconds
    i = 0
    while not untraced or (recorder and not traced) or perf_counter() < deadline:
        if recorder is None:
            kernel.append(calibrate())
            untraced.append(workload.run_op(out_dir))
        elif i % 2 == 0:
            untraced.append(workload.run_op(out_dir))
        else:
            recorder.run_id = i
            plain_call = workload.call
            workload.call = lambda *a, **k: recorder.timed("bench.call", plain_call, a, k)
            recorder.install()
            try:
                op = workload.run_op(out_dir)
            finally:
                recorder.uninstall()
                del workload.call
            traced.append((i, op, recorder.take_counts()))
        i += 1
    if recorder is None:
        kernel.append(calibrate())
    return untraced, traced, kernel


def _summarise(name, values, unit):
    """Print sample count, quartiles and median; return the median."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name}: n={len(values)} median={_median(values):.6g} "
              f"q1={q1:.6g} q3={q3:.6g} {unit}")
    return _median(values)


def end_to_end(workload, ops, setup, kernel) -> dict:
    setup_times, setup_kernel = setup
    setup_scale, op_scale = speed_scale(setup_kernel), speed_scale(kernel)
    timed = [op for op in ops if op.main(1).study_seconds > 0 and op.main(2).study_seconds > 0]
    rates = [op.main_units / op.main(1).study_seconds for op in timed]
    # Paired within one operation, so the host's speed state cancels.
    speedups = [op.main(1).study_seconds / op.main(2).study_seconds for op in timed]
    walls = [op.wall_s for op in ops]

    print(f"work unit for work_per_s: {workload.unit} "
          f"({ops[0].main_units} per main study call)")
    print(f"calibration kernel: mean {statistics.fmean(kernel):.4f} s over {len(kernel)} runs "
          f"(set-up {statistics.fmean(setup_kernel):.4f} s); times below are raw, "
          f"the metrics scaled by {op_scale:.4f} (set-up {setup_scale:.4f})")
    return {
        "setup_s": (setup_scale * _summarise("setup_s", setup_times, "s"), "s"),
        "wall_s": (op_scale * _summarise("wall_s", walls, "s"), "s"),
        "work_per_s": (_summarise("work_per_s", rates, "1/s") / op_scale, "1/s"),
        "speedup_2t": (_summarise("speedup_2t", speedups, "ratio"), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(untraced, traced, recorder: Recorder) -> dict:
    spans_by_run = {}
    for span in recorder.spans:
        spans_by_run.setdefault(span[6], []).append(span)

    rows = []  # one dict of per-layer values per traced operation
    names = set()
    for run_id, op, counts in traced:
        spans = spans_by_run.get(run_id, [])
        selfs = self_times(spans)
        names.update(selfs)
        values = {
            key: sum(t for name, t in selfs.items() if name.startswith(prefixes))
            for key, prefixes in LAYER_TIMES.items()
        }
        values.update({key: counts.get(key, 0) for key in LAYER_COUNTS})
        busy = sum(s[3] - s[2] for s in spans if s[1] == "studies.chunk")
        capacity = sum(c.threads * c.study_seconds for c in op.calls)
        values["studies.worker_busy_frac"] = busy / capacity if capacity else 0.0
        values["_selfs"] = selfs
        values["_wall"] = op.wall_s
        rows.append(values)

    traced_wall = _median([r["_wall"] for r in rows])
    plain_wall = _median([op.wall_s for op in untraced])
    print(f"traced operations: {len(rows)}, untraced: {len(untraced)}")
    print(f"tracing overhead: {traced_wall - plain_wall:.4f} s per operation "
          f"({traced_wall:.4f} s traced vs {plain_wall:.4f} s untraced)")
    print(f"{'span':24s} {'self_s':>10s} {'share':>7s}   (medians per traced operation)")
    layer_share = {}
    for name in sorted(names):
        t = _median([r["_selfs"].get(name, 0.0) for r in rows])
        share = t / traced_wall if traced_wall else 0.0
        layer_share[name.split(".")[0]] = layer_share.get(name.split(".")[0], 0.0) + share
        print(f"{name:24s} {t:10.4f} {share:7.1%}")
    covered = sum(v for k, v in layer_share.items() if k != "bench")
    print("layer shares: " + ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(layer_share.items(), key=lambda kv: -kv[1])))
    print(f"layer self time / traced wall: {covered:.1%} (threads=2 calls overlap, "
          f"so this can pass 100%)")

    units = {key: "s" for key in LAYER_TIMES}
    units.update({key: "count" for key in LAYER_COUNTS})
    units["cli.bytes_written"] = "bytes"
    units["studies.worker_busy_frac"] = "ratio"
    return {key: (_median([r[key] for r in rows]), unit) for key, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stackinfer" / "__init__.py").is_file():
        print(f"error: no stackinfer sources under {SRC}", file=sys.stderr)
        return 2
    si = _load_program()
    workload = WORKLOADS[args.workload](args.seed, si)
    out_dir = OUT / f"ops-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            recorder = Recorder()
            untraced, traced, _ = run_ops(workload, args.seconds, out_dir, recorder)
            ops = untraced + [op for _, op, _ in traced]
            metrics = per_layer(untraced, traced, recorder)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            recorder.write(spans_path)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            setup = measure_setup(workload.docs)
            ops, _, kernel = run_ops(workload, args.seconds, out_dir)
            metrics = end_to_end(workload, ops, setup, kernel)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    for op in ops:
        for call in op.calls:
            for error in call.errors:
                print(f"check failed: {error}")
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, "
          f"{attempted} study calls, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
