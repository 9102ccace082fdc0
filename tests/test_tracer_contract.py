"""The contract between the library and the benchmark's outside-in tracer.

``perfbench/tracing.py`` wraps public functions by name and reads some of
their arguments by position. A refactor that renames or moves any of them
would otherwise fail only when the benchmark runs with ``--trace 1``.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import stackinfer as si
from conftest import make_leader
from stackinfer import cli, config, core, infer, policy, riccati, simulate, studies

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("function, index, name", [
    (simulate.simulate_leader_batch, 4, "shocks"),
    (simulate.simulate_follower_batch, 4, "shocks"),
    (riccati.solve_follower_a, 1, "grid"),
    (riccati.solve_follower_bc, 0, "fr"),
    (riccati.solve_leader_system, 2, "coeffs"),
])
def test_traced_argument_positions(function, index, name):
    assert list(inspect.signature(function).parameters)[index] == name


def test_install_and_uninstall_restore_every_entry_point(tracing, follower, grid50):
    originals = {
        (module, attr): getattr(module, attr)
        for module in (si, cli, config, core, infer, policy, riccati, simulate, studies)
        for attr in dir(module)
        if callable(getattr(module, attr))
    }
    rng_methods = dict(vars(core.RngContract))
    private_chunked = studies._run_chunked

    rec = tracing.Recorder()
    rec.install()
    try:
        assert riccati.solve_follower_a is not originals[(riccati, "solve_follower_a")]
        assert studies._run_chunked is not private_chunked
        # A traced call reads its arguments where the contract says they are.
        fr = riccati.solve_follower_a(follower, grid50)
        shocks = np.zeros((2, grid50.n_steps))
        simulate.simulate_follower_batch(follower, fr, np.zeros(grid50.n_nodes), grid50,
                                         shocks, mode="exact")
        counts = rec.take_counts()
        assert counts["riccati.rk4_steps"] == grid50.n_steps
        assert counts["simulate.follower_path_steps"] == shocks.size
        assert {span[1] for span in rec.spans} >= {"riccati.follower_a", "simulate.follower"}
    finally:
        rec.uninstall()

    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    assert dict(vars(core.RngContract)) == rng_methods
    assert studies._run_chunked is private_chunked


@pytest.mark.parametrize("affine", [True, False])
def test_leader_evaluator_reaches_the_traced_simulator(tracing, follower, grid50, fr50, co50,
                                                       affine):
    # The evaluator calls simulate_leader_batch through the module, so the
    # tracer's simulate.leader span and path-step count see every batch.
    leader = make_leader(0.5)
    policy = si.RiccatiPolicy(leader, riccati.solve_leader_system([leader], follower, co50)[0])
    if not affine:
        policy = si.FunctionPolicy(lambda j, x, aux, aux2, law=policy:
                                   law.control_at(j, x[:, -1], aux, aux2))
    shocks = np.zeros((3, grid50.n_steps))
    rec = tracing.Recorder()
    rec.install()
    try:
        simulate.leader_batch_stats(leader, follower, co50, fr50, policy, grid50, shocks)
        counts = rec.take_counts()
    finally:
        rec.uninstall()
    assert counts["simulate.leader_path_steps"] == shocks.size
    assert "simulate.leader" in {span[1] for span in rec.spans}


@pytest.mark.parametrize("name, study, n_steps", [
    ("tradeoff_sweep", dict(ratios=[1.0, 10.0], n_paths=20), 50),
    ("estimator_study", dict(inference_weights=[0.0, 0.5], n_replays=20), 50),
    ("discrete_convergence", dict(fine_exponent=6, levels=[4], n_sigma_replications=20), 64),
])
def test_each_chunked_pass_is_one_traced_span(tracing, monkeypatch, name, study, n_steps):
    # The tracer wraps studies._run_chunked, which runs a whole chunked pass
    # over a study's rows: each call of the chunk driver is one
    # studies.chunked span holding one studies.chunk, and one studies.chunks
    # count, however many chunks the pass draws (here 7 rows at a time).
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["study"].update(study)
    cfg = config.validate_config(doc)
    monkeypatch.setattr(studies, "CHUNK_ELEMENTS", 7 * n_steps)
    driver, passes = studies._for_chunks, []

    def counted_driver(*args, **kwargs):
        passes.append(args)
        return driver(*args, **kwargs)

    monkeypatch.setattr(studies, "_for_chunks", counted_driver)
    rec = tracing.Recorder()
    rec.install()
    try:
        studies.run_study(cfg)
        counts = rec.take_counts()
    finally:
        rec.uninstall()
    chunked = {span[0] for span in rec.spans if span[1] == "studies.chunked"}
    chunk_parents = [span[4] for span in rec.spans if span[1] == "studies.chunk"]
    assert len(passes) == len(chunked) == counts["studies.chunks"] == 1
    assert set(chunk_parents) == chunked and len(chunk_parents) == 1
