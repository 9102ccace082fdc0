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


def _boolean(value, path):
    _expect(isinstance(value, bool), path, "must be a boolean")
    return value


def _string(value, path):
    _expect(isinstance(value, str), path, "must be a string")
    return value


def _number_list(value, path):
    _expect(isinstance(value, list) and len(value) > 0, path, "must be a nonempty array")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _pair_list(value, path):
    _expect(isinstance(value, list) and len(value) > 0, path, "must be a nonempty array")
    out = []
    for i, v in enumerate(value):
        _expect(isinstance(v, list) and len(v) == 2, f"{path}[{i}]", "must be a pair")
        out.append((_nonnegative(v[0], f"{path}[{i}][0]"), _nonnegative(v[1], f"{path}[{i}][1]")))
    return out


def _nonnegative_int_list(value, path):
    _expect(isinstance(value, list) and len(value) > 0, path, "must be a nonempty array")
    return [_nonnegative_int(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _check_levels(study: dict, given: dict):
    """Every level must lie below fine_exponent, the field at fault when
    the study block as written (``given``) leaves the levels at default."""
    fine = study["fine_exponent"]
    for i, level in enumerate(study["levels"]):
        field = f"levels[{i}]" if "levels" in given else "fine_exponent"
        _expect(level < fine, f"config.study.{field}",
                f"level {level} must be below fine_exponent ({fine})")


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
    return _check_block(value, path, {"kind": _string, "values": _number_list})


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
        {"ratios": _number_list},
        {"n_paths": (_positive_int, 10_000)},
    ),
    "objective-compare": (
        {"pairs": _pair_list},
        {"n_paths": (_positive_int, 10_000), "optimizer": (_optimizer, {})},
    ),
    "estimator-study": (
        {"inference_weights": _number_list},
        {"n_replays": (_int_at_least(10, "the bias curve starts at 10 replays"), 10_000),
         "path_seed_index": (_nonnegative_int, 0)},
    ),
    "multi-period": (
        {"inference_weights": _number_list, "n_episodes": _positive_int},
        {"variance_threshold": (_positive, None)},
    ),
    "discrete-convergence": (
        {},
        {
            "fine_exponent": (_positive_int, 14),
            "levels": (_nonnegative_int_list, list(range(4, 11))),
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
    def master_seed(self) -> int:
        return self.rng["master_seed"]

    @property
    def bit_exact(self) -> bool:
        return self.rng["bit_exact"]

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def build_grid(self) -> TimeGrid:
        return build_grid(self.grid["horizon"], self.grid["n_steps"])

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
                v, p, {"horizon": _positive, "n_steps": _positive_int}
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
    required, optional = STUDY_SCHEMAS[name]
    checked = _check_block(study, "config.study", {"name": _string, **required}, optional)
    if name == "discrete-convergence":
        _check_levels(checked, study)
    if name == "benchmark-compare":
        n_eval = checked["n_eval_paths"]
        _expect(checked["n_display_paths"] <= n_eval,
                "config.study.n_display_paths", f"must not exceed n_eval_paths ({n_eval})")
    leader = top["leader"]
    if name == "tradeoff-sweep":
        # The sweep sets q_track = ratio * inference_weight.
        _expect(leader["inference_weight"] > 0, "config.leader.inference_weight",
                "tradeoff-sweep needs > 0")
    if leader["target"]["kind"] == "tabulated":
        n_steps = top["grid"]["n_steps"]
        if name == "discrete-convergence":  # its leader lives on its fine grid
            n_steps = 2 ** checked["fine_exponent"]
        _check_target_length(leader["target"]["values"], n_steps)
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
