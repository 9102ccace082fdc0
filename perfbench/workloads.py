"""Seeded study configs, the per-workload operation, and its output checks.

One operation is a fixed sequence of study calls through the same path the
``stackinfer run`` command takes (validate_config -> run_study ->
write_result). Every workload runs its main study at threads=1 and again at
threads=2 and requires byte-identical output files; the checks below are
seed-independent invariants of the study outputs.
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

DEFAULT_SEED = 0

# Relative tolerance for the default-seed summaries against the references
# recorded at the commit that introduced the benchmark. Studies are bit-exact
# at a fixed seed, so this only absorbs reordered floating-point sums.
REFERENCE_RTOL = 1e-6

# Conditional-bias check: |cond_bias| <= BIAS_SE_LIMIT * bias_se. Over 300
# master seeds at 1000 replays the bias z-score had mean -0.41 (Euler bias on
# the 50-step grid) and standard deviation 1.0.
BIAS_SE_LIMIT = 5.0
# |sample_cond_var / formula_cond_var - 1| bound; the ratio's sampling spread
# at 2000 replays is about 0.035 around a discretisation offset of about 0.03.
VARIANCE_RTOL = 0.25
# |sigma2_mean_finest / sigma**2 - 1| bound; the mean over 100 replications
# has a relative standard error of about 0.0045.
SIGMA2_RTOL = 0.03
# The reloaded policy must reproduce the fitted objective on the same draws.
RELOAD_RTOL = 1e-12

SIGMA = 0.1

_MODEL = {
    "follower": {
        "a_drift": -1.0, "b_control": 1.0, "sigma": SIGMA, "x0": 0.1,
        "q_track": 1.0, "r_control": 1.0, "entropy_weight": 1.0, "dilation": 1.0,
    },
    "leader": {
        "a_drift": -1.0, "b_control": 1.0, "sigma": SIGMA, "x0": 0.1,
        "q_track": 1.0, "r_control": 1.0, "q_terminal": 1.0, "inference_weight": 0.5,
        "target": {"kind": "sinusoid", "amplitude": 0.1, "cycles": 1.0},
    },
    "grid": {"horizon": 0.5, "n_steps": 50},
    "rng": {"master_seed": 0, "bit_exact": True},
    "output": {"formats": ["csv", "json"]},
}

# Study blocks. Sizes keep one operation to a few seconds so a run holds
# several operations; the shipped configs use 5x larger ensembles, a
# 2^14-step fine grid and a 3000-iteration SPSA budget.
TRADEOFF = {"name": "tradeoff-sweep", "ratios": [0.5, 1.0, 10.0, 25.0, 100.0], "n_paths": 2000}
ESTIMATOR = {"name": "estimator-study", "inference_weights": [0.0, 0.5, 0.93], "n_replays": 2000}
DISCRETE = {
    "name": "discrete-convergence", "fine_exponent": 13,
    "levels": [4, 5, 6, 7, 8, 9, 10], "n_sigma_replications": 100,
}
BENCH_COMPARE = {
    "name": "benchmark-compare", "n_eval_paths": 1024, "n_display_paths": 5,
    "optimizer": {"budget": 20, "batch_size": 256, "eval_every": 10, "eval_paths": 512},
}


def model_doc(seed: int) -> dict:
    """Model blocks for a seed: master seed, target amplitude and initial states vary.

    None of the varied inputs enters the Riccati quadratic terms, so every
    seed keeps the leader system well-posed and the amount of work fixed.
    """
    gen = random.Random(seed)
    doc = copy.deepcopy(_MODEL)
    doc["rng"]["master_seed"] = gen.randrange(2**31)
    doc["leader"]["target"]["amplitude"] = round(gen.uniform(0.08, 0.12), 6)
    doc["leader"]["x0"] = round(gen.uniform(0.05, 0.15), 6)
    doc["follower"]["x0"] = round(gen.uniform(0.05, 0.15), 6)
    return doc


def study_doc(seed: int, study: dict, **leader) -> dict:
    doc = model_doc(seed)
    doc["leader"].update(leader)
    doc["study"] = copy.deepcopy(study)
    return doc


@dataclass
class Call:
    """One study call through the CLI path."""

    label: str
    threads: int
    seconds: float = 0.0  # validate + run + write
    study_seconds: float = 0.0  # run_study alone
    result: object = None
    files: dict = field(default_factory=dict)
    out_dir: Path | None = None
    errors: list = field(default_factory=list)


@dataclass
class OpResult:
    calls: list
    main_units: int  # work units of the main study (see Workload.unit)

    @property
    def wall_s(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c.errors)

    def main(self, threads: int) -> Call:
        return next(c for c in self.calls if c.label == "main" and c.threads == threads)


class Workload:
    """Base: subclasses set name, unit, main_units and the extra calls and checks."""

    name = ""
    unit = ""

    def __init__(self, seed: int, si):
        self.seed = seed
        self.si = si  # namespace with config, studies, cli modules
        self.docs = self.build_docs()
        # The program receives only generated inputs that passed validation.
        for doc in self.docs.values():
            si.config.validate_config(doc)

    def build_docs(self) -> dict:
        raise NotImplementedError

    def main_units(self) -> int:
        raise NotImplementedError

    def call(self, label: str, doc_label: str, threads: int, out_root: Path, doc=None) -> Call:
        si = self.si
        call = Call(label=label, threads=threads)
        call.out_dir = out_root / f"{label}-{threads}t"
        doc = self.docs[doc_label] if doc is None else doc
        start = perf_counter()
        try:
            cfg = si.config.validate_config(doc)
            t0 = perf_counter()
            call.result = si.studies.run_study(cfg, threads=threads)
            call.study_seconds = perf_counter() - t0
            written = si.cli.write_result(call.result, cfg, call.out_dir)
        except Exception as exc:  # one failed call must not stop the run
            call.seconds = perf_counter() - start
            call.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return call
        call.seconds = perf_counter() - start
        call.files = {p.name: p.read_bytes() for p in written}
        return call

    def run_op(self, out_root: Path) -> OpResult:
        shutil.rmtree(out_root, ignore_errors=True)
        out_root.mkdir(parents=True)
        calls = [self.call("main", "main", 1, out_root), self.call("main", "main", 2, out_root)]
        one, two = calls
        if not one.errors and not two.errors and one.files != two.files:
            differing = sorted(k for k in one.files if one.files[k] != two.files.get(k))
            two.errors.append(f"threads=1 and threads=2 outputs differ: {differing}")
        calls += self.extra_calls(one, out_root)
        for c in calls:
            if not c.errors:
                c.errors += self.check(c)
        if self.seed == DEFAULT_SEED:
            self.check_references(calls)
        # Keep only timings and errors, so peak memory does not grow with the
        # number of operations a run completes.
        for c in calls:
            c.result, c.files = None, {}
        return OpResult(calls=calls, main_units=self.main_units())

    def extra_calls(self, main: Call, out_root: Path) -> list:
        return []

    def check(self, call: Call) -> list:
        raise NotImplementedError

    def reference_values(self, calls) -> dict:
        raise NotImplementedError

    def check_references(self, calls):
        if any(c.errors for c in calls):
            return
        path = Path(__file__).with_name("references.json")
        refs = json.loads(path.read_text())[self.name]
        got = self.reference_values(calls)
        bad = [
            f"{key}: got {got[key]!r}, reference {want!r}"
            for key, want in refs.items()
            if not math.isclose(got[key], want, rel_tol=REFERENCE_RTOL, abs_tol=0.0)
        ]
        if bad:
            calls[0].errors.append("default-seed reference mismatch: " + "; ".join(bad))


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Ensemble(Workload):
    name = "ensemble"
    unit = "leader paths"

    def build_docs(self):
        return {
            "main": study_doc(self.seed, TRADEOFF, inference_weight=1.0),
            "estimator": study_doc(self.seed, ESTIMATOR),
        }

    def main_units(self):
        return len(TRADEOFF["ratios"]) * TRADEOFF["n_paths"]

    def extra_calls(self, main, out_root):
        return [self.call("estimator", "estimator", 1, out_root)]

    def check(self, call):
        summary = call.result.summary
        if call.label == "main":
            fisher = summary["mean_fisher"]
            if not (_finite(fisher) and all(a > b for a, b in zip(fisher, fisher[1:]))):
                return [f"mean Fisher information not strictly decreasing: {fisher}"]
            return []
        errors = []
        header, rows = call.result.tables["estimator"]
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            lam = row[col["inference_weight"]]
            bias, se = row[col["cond_bias"]], row[col["bias_se"]]
            if not abs(bias) <= BIAS_SE_LIMIT * se:
                errors.append(f"weight {lam}: cond_bias {bias} beyond {BIAS_SE_LIMIT} x {se}")
            sample, formula = row[col["sample_cond_var"]], row[col["formula_cond_var"]]
            if not abs(sample / formula - 1.0) <= VARIANCE_RTOL:
                errors.append(f"weight {lam}: sample var {sample} vs formula {formula}")
        return errors

    def reference_values(self, calls):
        out = {}
        for i, v in enumerate(calls[0].result.summary["mean_fisher"]):
            out[f"mean_fisher[{i}]"] = v
        header, rows = calls[2].result.tables["estimator"]
        for row in rows:
            out[f"cond_bias[{row[0]}]"] = row[header.index("cond_bias")]
            out[f"sample_cond_var[{row[0]}]"] = row[header.index("sample_cond_var")]
        return out


class FineGrid(Workload):
    name = "fine_grid"
    unit = "fine-grid steps"

    def build_docs(self):
        return {"main": study_doc(self.seed, DISCRETE)}

    def main_units(self):
        return 2 ** DISCRETE["fine_exponent"]

    def check(self, call):
        sigma2 = call.result.summary["sigma2_mean_finest"]
        if not abs(sigma2 / SIGMA**2 - 1.0) <= SIGMA2_RTOL:
            return [f"sigma2_mean_finest {sigma2} not within {SIGMA2_RTOL:.0%} of {SIGMA**2}"]
        return []

    def reference_values(self, calls):
        s = calls[0].result.summary
        out = {"m_hat_continuous": s["m_hat_continuous"],
               "sigma2_mean_finest": s["sigma2_mean_finest"]}
        for level, diff in s["abs_diff_by_level"].items():
            out[f"abs_diff[{level}]"] = diff
        return out


class PolicyFit(Workload):
    name = "policy_fit"
    unit = "SPSA iterations"

    def build_docs(self):
        return {"main": study_doc(self.seed, BENCH_COMPARE)}

    def main_units(self):
        return BENCH_COMPARE["optimizer"]["budget"]

    def extra_calls(self, main, out_root):
        """Re-evaluate the fitted policy reloaded from the written summary."""
        if main.errors:
            return []
        doc = copy.deepcopy(self.docs["main"])
        del doc["study"]["optimizer"]
        doc["study"]["policy_file"] = str(main.out_dir / "benchmark-compare_summary.json")
        reload = self.call("reload", "main", 1, out_root, doc=doc)
        if not reload.errors:
            fitted = main.result.summary["j_info_recurrent"]
            again = reload.result.summary["j_info_recurrent"]
            if not math.isclose(fitted, again, rel_tol=RELOAD_RTOL):
                reload.errors.append(f"reloaded policy gives {again}, fitted gave {fitted}")
        return [reload]

    def check(self, call):
        s = call.result.summary
        keys = ("j_info_riccati", "j_info_recurrent", "rel_gap", "diff_se")
        if not _finite([s[k] for k in keys]):
            return [f"non-finite objectives: {[s[k] for k in keys]}"]
        return []

    def reference_values(self, calls):
        s = calls[0].result.summary
        return {"j_info_riccati": s["j_info_riccati"], "j_info_recurrent": s["j_info_recurrent"]}


WORKLOADS = {cls.name: cls for cls in (Ensemble, FineGrid, PolicyFit)}
