"""Experiment configuration: schema validation and model construction.

Configs are single JSON documents with five fixed blocks (follower, leader,
grid, rng, output) plus one study block. Validation walks the document
against a declarative schema, rejects unknown keys, and reports the full
field path of the first violation. Each optional field's default is
declared once, next to its validator, and the validated configuration holds
every field; only the ``optimizer`` block holds just the SPSA settings it
overrides, over the defaults of ``policy.OptimizerConfig``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import FollowerModel, LeaderModel, Sinusoid, Tabulated, TimeGrid, build_grid


class ConfigError(ValueError):
    """Configuration rejected; the message carries the offending field path."""


_NUMBER = (int, float)


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _check_block(block: Any, path: str, required: dict, optional: dict | None = None) -> dict:
    """Validate one object and return every field of its schema.

    ``optional`` maps keys to (validator, default). An absent key takes its
    default through the validator (so nested defaults fill in), or None.
    """
    _expect(isinstance(block, dict), path, "must be an object")
    optional = optional or {}
    allowed = set(required) | set(optional)
    for key in block:
        _expect(key in allowed, f"{path}.{key}", "unknown key")
    for key in required:
        _expect(key in block, f"{path}.{key}", "missing required key")
    out = {key: check(block[key], f"{path}.{key}") for key, check in required.items()}
    for key, (check, default) in optional.items():
        if key in block:
            out[key] = check(block[key], f"{path}.{key}")
        else:
            out[key] = None if default is None else check(default, f"{path}.{key}")
    return out


def _number(value, path):
    _expect(isinstance(value, _NUMBER) and not isinstance(value, bool), path, "must be a number")
    _expect(math.isfinite(float(value)), path, "must be finite")
    return float(value)


def _positive(value, path):
    v = _number(value, path)
    _expect(v > 0, path, "must be > 0")
    return v


def _nonzero(value, path):
    v = _number(value, path)
    _expect(v != 0, path, "must be nonzero")
    return v


def _nonnegative(value, path):
    v = _number(value, path)
    _expect(v >= 0, path, "must be >= 0")
    return v


def _integer(value, path):
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "must be an integer")
    return value


def _positive_int(value, path):
    v = _integer(value, path)
    _expect(v > 0, path, "must be > 0")
    return v


def _nonnegative_int(value, path):
    v = _integer(value, path)
    _expect(v >= 0, path, "must be >= 0")
    return v


def _stream_index(value, path):
    v = _nonnegative_int(value, path)
    _expect(v < 1 << 64, path, "must be < 2**64 (stream path indices are 64-bit words)")
    return v


def _boolean(value, path):
    _expect(isinstance(value, bool), path, "must be a boolean")
    return value


def _string(value, path):
    _expect(isinstance(value, str), path, "must be a string")
    return value


def _list_of(check):
    """Validator of a nonempty array whose every entry passes ``check``."""

    def check_list(value, path):
        _expect(isinstance(value, list) and len(value) > 0, path, "must be a nonempty array")
        return [check(v, f"{path}[{i}]") for i, v in enumerate(value)]

    return check_list


def _nonnegative_pair(value, path):
    _expect(isinstance(value, list) and len(value) == 2, path, "must be a pair")
    return _nonnegative(value[0], f"{path}[0]"), _nonnegative(value[1], f"{path}[1]")


def _finite_gain(path: str, what: str, compute, positive: bool = True):
    """Refuse ``path`` unless compute() is a finite float, > 0 if ``positive``
    (else >= 0); overflow counts as inf."""
    try:
        v = compute()
    except (OverflowError, ZeroDivisionError):
        v = math.inf
    sign = "positive" if positive else "nonnegative"
    _expect(math.isfinite(v) and (v > 0 if positive else v >= 0), path,
            f"{what} is {v!r}, must be {sign} and finite")


def _check_levels(study: dict, given: dict):
    """Every level must lie below fine_exponent, the field at fault when
    the study block as written (``given``) leaves the levels at default,
    and appear once."""
    fine = study["fine_exponent"]
    levels = study["levels"]
    for i, level in enumerate(levels):
        field = f"levels[{i}]" if "levels" in given else "fine_exponent"
        _expect(level < fine, f"config.study.{field}",
                f"level {level} must be below fine_exponent ({fine})")
        _expect(level not in levels[:i], f"config.study.{field}",
                f"level {level} repeats levels[{levels.index(level)}]")


# The most steps of one time grid. A discrete-convergence study peaks at
# about 1.3 KB per step (57, 115 and 346 MB at 2^14, 2^16 and 2^18 steps),
# so 2^20 steps take about 1.3 GB.
MAX_STEPS = 2**20


def _step_count(value, path):
    v = _positive_int(value, path)
    _expect(v <= MAX_STEPS, path, f"must be <= {MAX_STEPS} (about 1.3 KB of memory per step)")
    return v


def _step_exponent(value, path):
    v = _positive_int(value, path)
    # Compared without forming 2**v, which a huge exponent makes costly.
    _expect(v < MAX_STEPS.bit_length(), path,
            f"2**{v} steps must be <= {MAX_STEPS} (about 1.3 KB of memory per step)")
    return v


def _int_at_least(minimum: int, reason: str):
    """Validator of an integer >= minimum; ``reason`` says why in the error."""

    def check(value, path):
        v = _integer(value, path)
        _expect(v >= minimum, path, f"must be >= {minimum} ({reason})")
        return v

    return check


def _target(value, path):
    _expect(isinstance(value, dict), path, "must be an object")
    kind = value.get("kind")
    _expect(kind in ("sinusoid", "tabulated"), f"{path}.kind", "must be 'sinusoid' or 'tabulated'")
    if kind == "sinusoid":
        spec = _check_block(
            value,
            path,
            {"kind": _string, "amplitude": _number},
            {"omega": (_number, None), "cycles": (_number, None), "phase": (_number, 0.0)},
        )
        _expect(
            (spec["omega"] is None) != (spec["cycles"] is None),
            path,
            "exactly one of 'omega' or 'cycles' is required",
        )
        return spec
    return _check_block(value, path, {"kind": _string, "values": _list_of(_number)})


def _formats(value, path):
    _expect(isinstance(value, list) and all(f in ("csv", "json") for f in value),
            path, "must be an array of 'csv'/'json'")
    return list(value)


_FOLLOWER_SCHEMA = {
    "a_drift": _number,
    # Every study divides by the noise-to-signal ratio sigma^2 r^2 / b^4, so
    # a noiseless or uncontrolled follower (which FollowerModel accepts) is
    # refused here.
    "b_control": _nonzero,
    "sigma": _positive,
    "x0": _number,
    "q_track": _nonnegative,
    "r_control": _positive,
    "entropy_weight": _positive,
    "dilation": _number,
}

_LEADER_SCHEMA = {
    "a_drift": _number,
    "b_control": _number,
    "sigma": _nonnegative,
    "x0": _number,
    "q_track": _positive,
    "r_control": _positive,
    "q_terminal": _positive,
    "inference_weight": _nonnegative,
    "target": _target,
}

# SPSA settings a study's ``optimizer`` block may override; their defaults
# are those of ``policy.OptimizerConfig``.
_OPTIMIZER_OVERRIDES = {
    "batch_size": _int_at_least(2, "the optimizer refuses smaller batches"),
    "budget": _positive_int,
    "step_scale": _positive,
    "perturb_scale": _positive,
    "eval_every": _positive_int,
    "eval_paths": _int_at_least(2, "the held-out standard error needs two paths"),
}


def _optimizer(value, path):
    """The overrides given, validated; unset keys stay unset."""
    _expect(isinstance(value, dict), path, "must be an object")
    given = {key: check for key, check in _OPTIMIZER_OVERRIDES.items() if key in value}
    return _check_block(value, path, given)


# Each study's (required validators, optional (validator, default) pairs).
STUDY_SCHEMAS = {
    "benchmark-compare": (
        {},
        {
            "n_eval_paths": (_int_at_least(2, "the gap's standard error needs two paths"), 8192),
            "n_display_paths": (_positive_int, 5),
            "optimizer": (_optimizer, {}),
            "policy_file": (_string, None),
        },
    ),
    "tradeoff-sweep": (
        {"ratios": _list_of(_positive)},
        {"n_paths": (_positive_int, 10_000)},
    ),
    "objective-compare": (
        {"pairs": _list_of(_nonnegative_pair)},
        {"n_paths": (_positive_int, 10_000), "optimizer": (_optimizer, {})},
    ),
    "estimator-study": (
        {"inference_weights": _list_of(_nonnegative)},
        {"n_replays": (_int_at_least(10, "the bias curve starts at 10 replays"), 10_000),
         "path_seed_index": (_stream_index, 0)},
    ),
    "multi-period": (
        {"inference_weights": _list_of(_nonnegative), "n_episodes": _positive_int},
        {"variance_threshold": (_positive, None)},
    ),
    "discrete-convergence": (
        {},
        {
            "fine_exponent": (_step_exponent, 14),
            "levels": (_list_of(_nonnegative_int), list(range(4, 11))),
            "n_sigma_replications": (_int_at_least(2, "a spread needs two replications"), 100),
        },
    ),
    "wellposedness": ({}, {}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration plus the raw document."""

    raw: dict
    follower: dict
    leader: dict
    grid: dict
    rng: dict
    output: dict
    study: dict

    @property
    def study_name(self) -> str:
        return self.study["name"]

    @property
    def policy_file(self) -> str | None:
        """The path ``study.policy_file`` names; None where the study names none."""
        return self.study.get("policy_file")

    @property
    def master_seed(self) -> int:
        return self.rng["master_seed"]

    @property
    def bit_exact(self) -> bool:
        return self.rng["bit_exact"]

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def build_grid(self) -> TimeGrid:
        """The grid the study runs on (see ``_study_steps``)."""
        return build_grid(self.grid["horizon"], _study_steps(self.grid, self.study))

    def build_follower(self) -> FollowerModel:
        return FollowerModel(**self.follower)

    def build_leader(self, grid: TimeGrid, **overrides) -> LeaderModel:
        spec = {**self.leader, **overrides}
        tgt = spec.pop("target")
        if isinstance(tgt, dict):
            tgt = self._build_target(tgt, grid)
        return LeaderModel(target=tgt, **spec)

    def _build_target(self, spec: dict, grid: TimeGrid):
        if spec["kind"] == "sinusoid":
            omega = spec["omega"]
            if omega is None:
                omega = 2.0 * math.pi * spec["cycles"] / grid.horizon
            return Sinusoid(amplitude=spec["amplitude"], omega=omega, phase=spec["phase"])
        values = spec["values"]
        _check_target_length(values, grid.n_steps)
        return Tabulated(grid=grid, table=np.asarray(values))


def _study_steps(grid: dict, study: dict) -> int:
    """Steps of the grid a study runs on: discrete-convergence's fine path
    of 2**fine_exponent steps, which leaves ``grid.n_steps`` unread, and
    ``grid.n_steps`` for every other study."""
    if study["name"] == "discrete-convergence":
        return 2 ** study["fine_exponent"]
    return grid["n_steps"]


def _check_target_length(values: list, n_steps: int):
    _expect(len(values) == n_steps + 1, "config.leader.target.values",
            f"needs {n_steps + 1} entries for this grid, got {len(values)}")


def validate_config(doc: Any) -> ExperimentConfig:
    """Validate a parsed JSON document and return the typed configuration."""
    _expect(isinstance(doc, dict), "config", "must be a JSON object")
    top = _check_block(
        doc,
        "config",
        {
            "follower": lambda v, p: _check_block(v, p, _FOLLOWER_SCHEMA),
            "leader": lambda v, p: _check_block(v, p, _LEADER_SCHEMA),
            "grid": lambda v, p: _check_block(
                v, p, {"horizon": _positive}, {"n_steps": (_step_count, None)}
            ),
            "rng": lambda v, p: _check_block(
                v, p, {"master_seed": _nonnegative_int}, {"bit_exact": (_boolean, True)}
            ),
            "study": lambda v, p: v,
        },
        {
            "output": (
                lambda v, p: _check_block(
                    v, p, {},
                    {"directory": (_string, None), "formats": (_formats, ["csv", "json"])},
                ),
                {},
            ),
        },
    )
    study = top["study"]
    _expect(isinstance(study, dict), "config.study", "must be an object")
    name = study.get("name")
    _expect(
        isinstance(name, str) and name in STUDY_SCHEMAS,
        "config.study.name",
        f"must be one of {sorted(STUDY_SCHEMAS)}",
    )
    # Only discrete-convergence, which runs on its own fine grid, may leave it out.
    _expect(top["grid"]["n_steps"] is not None or name == "discrete-convergence",
            "config.grid.n_steps", "missing required key")
    required, optional = STUDY_SCHEMAS[name]
    checked = _check_block(study, "config.study", {"name": _string, **required}, optional)
    if name == "discrete-convergence":
        _check_levels(checked, study)
    if name == "benchmark-compare":
        n_eval = checked["n_eval_paths"]
        _expect(checked["n_display_paths"] <= n_eval,
                "config.study.n_display_paths", f"must not exceed n_eval_paths ({n_eval})")
    # Every study divides by the follower's noise-to-signal ratio, and the
    # leader's Riccati solve forms its gain 2 b^2 / r (0 for b = 0), both in floats.
    fol, leader = top["follower"], top["leader"]
    _finite_gain("config.follower", "noise-to-signal sigma^2 r_control^2 / b_control^4",
                 lambda: FollowerModel(**fol).noise_to_signal)
    _finite_gain("config.leader", "gain 2 b_control^2 / r_control",
                 lambda: 2.0 * leader["b_control"] ** 2 / leader["r_control"], positive=False)
    # The follower's Riccati solve forms a_drift^2, the leader's sigma^2; the
    # estimator study squares estimates of the dilation's size.
    _finite_gain("config.follower.a_drift", "a_drift^2", lambda: fol["a_drift"] ** 2,
                 positive=False)
    _finite_gain("config.leader.sigma", "sigma^2", lambda: leader["sigma"] ** 2,
                 positive=False)
    _finite_gain("config.follower.dilation", "dilation^2", lambda: fol["dilation"] ** 2,
                 positive=False)
    if name == "tradeoff-sweep":
        # The sweep sets q_track = ratio * inference_weight.
        lam = leader["inference_weight"]
        _expect(lam > 0, "config.leader.inference_weight", "tradeoff-sweep needs > 0")
        for i, ratio in enumerate(checked["ratios"]):
            _finite_gain(f"config.study.ratios[{i}]", "q_track = ratio * inference_weight",
                         lambda: ratio * lam)
    if leader["target"]["kind"] == "tabulated":
        _check_target_length(leader["target"]["values"], _study_steps(top["grid"], checked))
    return ExperimentConfig(
        raw=doc,
        follower=top["follower"],
        leader=top["leader"],
        grid=top["grid"],
        rng=top["rng"],
        output=top["output"],
        study=checked,
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return validate_config(doc)
