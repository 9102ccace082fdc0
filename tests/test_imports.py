"""The package's import graph and public surface.

``import stackinfer`` loads names and submodules on first use, so a config
check never pays for the solvers. Each import-graph test runs in a fresh
interpreter, where no other test has loaded a module yet. Every exported
name serves a study, the command line or the README; identities that only
tests check live in ``tests/oracles.py``.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stackinfer as si

SRC = Path(si.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))
SOLVERS = ["stackinfer.riccati", "stackinfer.simulate", "stackinfer.infer",
           "stackinfer.policy", "stackinfer.studies"]

# The exported names, each with the submodule that defines it.
PUBLIC = {
    "core": [
        "BlowUpError", "DegenerateEnsembleError", "DegeneratePathError", "FollowerModel",
        "InvalidArgumentError", "LeaderModel", "OutOfDomainError", "PolicyEvaluationError",
        "RngContract", "Sinusoid", "SolverFailureError", "Tabulated", "TimeGrid",
        "Trajectory", "build_grid", "cumtrapz", "eval_target",
    ],
    "riccati": [
        "DerivedCoefficients", "FollowerRiccati", "HorizonBound", "LeaderRiccati",
        "compute_coefficients", "horizon_bound", "scaled_info_weight", "solve_follower_a",
        "solve_follower_bc", "solve_leader_system",
    ],
    "simulate": [
        "AugmentedLeaderPath", "FollowerPath", "GProfile", "LeaderEnsemble", "compute_g",
        "compute_g_batch", "primary_cost_batch",
        "simulate_follower", "simulate_follower_batch", "simulate_leader",
        "simulate_leader_batch",
    ],
    "infer": [
        "DiscreteJointEstimate", "DiscreteObservations", "MleReport", "MultiPeriodState",
        "mle_continuous", "mle_continuous_batch", "mle_discrete_joint",
        "multi_period_update", "realized_variance_proxy", "stopping_rule",
    ],
    "policy": [
        "FunctionPolicy", "OptimizeResult", "OptimizerConfig",
        "RecurrentConfig", "RecurrentPolicy", "RiccatiPolicy", "initial_policy",
        "optimize_policy",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)
# The files whose use makes a name public: the library's own modules, the
# README, and the benchmark's tracer, which wraps some names by their
# package path.
USERS = [
    *(path for path in sorted((SRC / "stackinfer").glob("*.py")) if path.name != "__init__.py"),
    ROOT / "README.md",
    ROOT / "perfbench" / "tracing.py",
]


def fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportGraph:
    def test_config_loads_only_config_and_core(self):
        loaded = fresh(
            "import json, sys\n"
            "import stackinfer.config\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        assert [m for m in loaded if m.startswith("stackinfer")] == [
            "stackinfer", "stackinfer.config", "stackinfer.core"]
        # core imports numpy.random only where a seed sequence is built.
        assert "numpy.random" not in loaded

    def test_validate_loads_no_solver(self):
        assert len(CONFIGS) == 7
        got = fresh(
            "import json, sys\n"
            "from stackinfer import cli\n"
            "codes = [cli.main(['validate', '--config', path]) for path in sys.argv[1:]]\n"
            "print(json.dumps({'codes': codes, 'loaded': sorted(sys.modules)}))\n",
            *map(str, CONFIGS),
        )
        assert got["codes"] == [0] * len(CONFIGS)
        assert [m for m in SOLVERS if m in got["loaded"]] == []

    def test_validate_loads_a_named_policy_file(self, tmp_path):
        # The policy file alone brings in the studies, and a malformed one still exits 2.
        doc = json.loads((CONFIG_DIR / "benchmark_compare.json").read_text())
        policy_path = tmp_path / "policy.json"
        policy_path.write_text("{not json")
        doc["study"]["policy_file"] = str(policy_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        got = fresh(
            "import json, sys\n"
            "from stackinfer import cli\n"
            "code = cli.main(['validate', '--config', sys.argv[1]])\n"
            "print(json.dumps({'code': code, 'loaded': sorted(sys.modules)}))\n",
            str(path),
        )
        assert got["code"] == 2
        assert "stackinfer.studies" in got["loaded"]


class TestPublicSurface:
    def test_all_lists_the_exported_names(self):
        assert len(NAMES) == 56
        assert sorted(si.__all__) == NAMES

    def test_every_name_is_used_outside_its_definition(self):
        lines = [line for path in USERS for line in path.read_text().splitlines()]
        unused = []
        for name in NAMES:
            word = re.compile(rf"\b{name}\b")
            own = re.compile(rf"\s*(def|class) {name}\b")
            if not any(word.search(line) and not own.match(line) for line in lines):
                unused.append(name)
        assert unused == []

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_names_are_their_submodules_objects(self, module):
        home = importlib.import_module(f"stackinfer.{module}")
        for name in PUBLIC[module]:
            assert getattr(si, name) is getattr(home, name), name

    def test_dir_lists_names_and_submodules(self):
        listed = set(dir(si))
        assert set(NAMES) <= listed
        assert {"cli", "config", "core", "infer", "policy", "riccati", "simulate",
                "studies"} <= listed

    def test_submodules_resolve_after_a_bare_import(self):
        got = fresh(
            "import json, stackinfer as si\n"
            "print(json.dumps([si.core.STREAM_LEADER, si.riccati.__name__,"
            " si.studies.__name__]))\n"
        )
        assert got == [si.core.STREAM_LEADER, "stackinfer.riccati", "stackinfer.studies"]

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from stackinfer import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == NAMES

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            si.no_such_name
