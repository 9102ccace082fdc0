"""The benchmark's default-seed operations, run as tests.

``perfbench/workloads.py`` is loaded read-only, as ``test_tracer_contract.py``
loads the tracer. One operation of a workload at its default seed runs the
study at one and two threads, requires byte-identical outputs, applies the
workload's output checks and compares the summaries with
``perfbench/references.json`` to a relative 1e-6. A change that moves
output bits therefore meets those checks here, not only when the benchmark
runs.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from stackinfer import cli, config, studies

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["ensemble", "fine_grid"])
def test_default_seed_operation_passes_every_check(workloads, tmp_path, name):
    program = SimpleNamespace(cli=cli, config=config, studies=studies)
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, program)
    op = workload.run_op(tmp_path / name)
    assert op.attempted >= 2
    assert [error for call in op.calls for error in call.errors] == []
