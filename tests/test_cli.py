import copy
import csv
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stackinfer import cli, core, studies
from stackinfer.config import ConfigError, validate_config

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

BASE = {
    "follower": {
        "a_drift": -1.0, "b_control": 1.0, "sigma": 0.1, "x0": 0.1,
        "q_track": 1.0, "r_control": 1.0, "entropy_weight": 1.0, "dilation": 1.0,
    },
    "leader": {
        "a_drift": -1.0, "b_control": 1.0, "sigma": 0.1, "x0": 0.1,
        "q_track": 1.0, "r_control": 1.0, "q_terminal": 1.0, "inference_weight": 1.0,
        "target": {"kind": "sinusoid", "amplitude": 0.1, "cycles": 1.0},
    },
    "grid": {"horizon": 0.5, "n_steps": 50},
    "rng": {"master_seed": 7, "bit_exact": True},
    "output": {"formats": ["csv", "json"]},
    "study": {"name": "wellposedness"},
}


def make_doc(**study):
    doc = copy.deepcopy(BASE)
    if study:
        doc["study"] = study
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigValidation:
    def test_valid_document(self):
        cfg = validate_config(make_doc())
        assert cfg.study_name == "wellposedness"
        assert cfg.master_seed == 7
        assert cfg.bit_exact is True

    def test_unknown_key_rejected_with_path(self):
        doc = make_doc()
        doc["leader"]["tracking_gain"] = 2.0
        with pytest.raises(ConfigError, match=r"config\.leader\.tracking_gain"):
            validate_config(doc)

    def test_missing_key_reported(self):
        doc = make_doc()
        del doc["follower"]["sigma"]
        with pytest.raises(ConfigError, match=r"config\.follower\.sigma"):
            validate_config(doc)

    def test_bad_type_reported(self):
        doc = make_doc()
        doc["grid"]["n_steps"] = 12.5
        with pytest.raises(ConfigError, match=r"config\.grid\.n_steps"):
            validate_config(doc)

    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigError, match=r"config\.study\.name"):
            validate_config(make_doc(name="fourier-sweep"))

    def test_target_requires_one_frequency_spec(self):
        doc = make_doc()
        doc["leader"]["target"] = {"kind": "sinusoid", "amplitude": 0.1}
        with pytest.raises(ConfigError, match="omega"):
            validate_config(doc)
        doc["leader"]["target"] = {
            "kind": "sinusoid", "amplitude": 0.1, "omega": 1.0, "cycles": 1.0
        }
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_study_fields_validated(self):
        with pytest.raises(ConfigError, match=r"config\.study\.ratios"):
            validate_config(make_doc(name="tradeoff-sweep", ratios=[]))
        with pytest.raises(ConfigError, match=r"config\.study\.n_episodes"):
            validate_config(
                make_doc(name="multi-period", inference_weights=[0.5], n_episodes=0)
            )

    def test_models_constructed(self):
        cfg = validate_config(make_doc())
        grid = cfg.build_grid()
        follower = cfg.build_follower()
        leader = cfg.build_leader(grid)
        assert follower.dilation == 1.0
        assert leader.target_at(0.125, 0.5) == pytest.approx(0.1, abs=1e-15)

    def test_config_hash_stable_under_key_order(self):
        doc = make_doc()
        shuffled = json.loads(json.dumps(doc, sort_keys=True))
        assert validate_config(doc).config_hash() == validate_config(shuffled).config_hash()


class TestCliCommands:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_doc(tmp_path, make_doc())
        assert cli.main(["validate", "--config", path]) == cli.EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_validate_bad_config_exit_code(self, tmp_path, capsys):
        doc = make_doc()
        doc["grid"]["horizon"] = -1.0
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert "config.grid.horizon" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert cli.main(["validate", "--config", "/nonexistent.json"]) == cli.EXIT_CONFIG

    def test_run_wellposedness(self, tmp_path, capsys):
        path = write_doc(tmp_path, make_doc())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "wellposedness_summary.json").read_text())
        assert summary["config"]["grid"]["n_steps"] == 50
        assert summary["provenance"]["master_seed"] == 7
        assert summary["summary"]["t_max"] > 0
        csv_text = (out / "wellposedness_bound.csv").read_text()
        assert csv_text.splitlines()[0] == "q,beta,y0,t_max,horizon,solved_on_horizon,blow_up_time"

    def test_wellposedness_reports_riccati_peak(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = str(CONFIGS[0].parent / "wellposedness.json")
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "wellposedness_summary.json").read_text())["summary"]
        assert summary["solved_on_horizon"]
        assert 0.0 < summary["quad_peak"] < summary["blow_up_threshold"]
        doc = make_doc()
        doc["leader"]["inference_weight"] = 5.0  # blows up on this horizon
        path = write_doc(tmp_path, doc)
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "wellposedness_summary.json").read_text())["summary"]
        assert summary["blow_up_time"] is not None and summary["quad_peak"] is None

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        doc = make_doc()
        doc["leader"]["inference_weight"] = 5.0  # blows up on this horizon
        doc["study"] = {"name": "estimator-study", "inference_weights": [5.0],
                        "n_replays": 10}
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("study", [
        dict(name="estimator-study", inference_weights=[0.5], n_replays=10),
        dict(name="multi-period", inference_weights=[0.5], n_episodes=2),
    ], ids=lambda study: study["name"])
    def test_untracking_follower_exit_code(self, tmp_path, capsys, study):
        # follower.q_track 0 is valid, but then a = 0 and every precision is 0.
        doc = make_doc(**study)
        doc["follower"]["q_track"] = 0.0
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_OK
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert "precision 0 is below the floor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, key, field",
        [("rng", "master_seed", "config.rng.master_seed"),
         ("study", "path_seed_index", "config.study.path_seed_index")],
    )
    def test_negative_rng_key_exit_code(self, tmp_path, capsys, block, key, field):
        doc = make_doc(name="estimator-study", inference_weights=[0.5], n_replays=10)
        doc[block][key] = -3
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "study, field",
        [(dict(levels=[-1]), "config.study.levels[0]"),
         (dict(levels=[4], n_sigma_replications=1), "config.study.n_sigma_replications")],
    )
    def test_bad_discrete_convergence_exit_code(self, tmp_path, capsys, study, field):
        doc = make_doc(name="discrete-convergence", fine_exponent=8, **study)
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "study, field",
        [(dict(levels=[20]), "config.study.levels[0]"),
         (dict(fine_exponent=8, levels=[4, 8]), "config.study.levels[1]"),
         (dict(fine_exponent=8), "config.study.fine_exponent")],
    )
    def test_validate_agrees_with_run_on_levels(self, tmp_path, capsys, study, field):
        path = write_doc(tmp_path, make_doc(name="discrete-convergence", **study))
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, field", [
        (dict(name="tradeoff-sweep", ratios=[1.0], n_paths=10),
         "config.leader.inference_weight"),
    ])
    def test_validate_agrees_with_run_on_tradeoff_weight(self, tmp_path, capsys, doc, field):
        doc = make_doc(**doc)
        doc["leader"]["inference_weight"] = 0.0
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_validate_agrees_with_run_on_noiseless_follower(self, tmp_path, capsys, config):
        # Every study divides by the follower's noise-to-signal ratio.
        doc = json.loads(config.read_text())
        doc["follower"]["sigma"] = 0.0
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert "config.follower.sigma" in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "config.follower.sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_validate_agrees_with_run_on_uncontrolled_follower(self, tmp_path, capsys, config):
        # The noise-to-signal ratio and the follower's Riccati solve divide by b_control.
        doc = json.loads(config.read_text())
        doc["follower"]["b_control"] = 0.0
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert "config.follower.b_control" in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "config.follower.b_control" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study, field", [
        # diff_se is a standard deviation over the evaluation paths.
        (dict(name="benchmark-compare", n_eval_paths=1, n_display_paths=1,
              optimizer=dict(budget=1, batch_size=4, eval_paths=4)),
         "config.study.n_eval_paths"),
        (dict(name="objective-compare", pairs=[[0.0, 0.5]], n_paths=4,
              optimizer=dict(budget=1, batch_size=1, eval_paths=4)),
         "config.study.optimizer.batch_size"),
        # The runner never read it; grid.horizon sets the probed horizon.
        (dict(name="wellposedness", probe_horizon=5.0), "config.study.probe_horizon"),
        # final_se is a standard deviation over the held-out paths.
        (dict(name="objective-compare", pairs=[[0.0, 0.5]], n_paths=4,
              optimizer=dict(budget=1, batch_size=4, eval_paths=1)),
         "config.study.optimizer.eval_paths"),
    ])
    def test_validate_agrees_with_run_on_study_minimums(self, tmp_path, capsys, study, field):
        path = write_doc(tmp_path, make_doc(**study))
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study", [
        dict(name="benchmark-compare", n_eval_paths=4, n_display_paths=1),
        dict(name="objective-compare", pairs=[[0.0, 0.5]], n_paths=4),
    ], ids=lambda study: study["name"])
    @pytest.mark.parametrize("key, value", [
        # The output labelled the policy with the study's objective whatever
        # it was trained on.
        ("objective", "variance"),
        # Its False branch never ran.
        ("common_random_numbers", False),
    ])
    def test_removed_optimizer_options_refused(self, tmp_path, capsys, study, key, value):
        path = write_doc(tmp_path, make_doc(**study, optimizer={"budget": 1, key: value}))
        field = f"config.study.optimizer.{key}: unknown key"
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study, n_nodes", [
        (dict(name="wellposedness"), 51),
        (dict(name="discrete-convergence", fine_exponent=8, levels=[4],
              n_sigma_replications=2), 2**8 + 1),
    ])
    def test_validate_checks_tabulated_target_length(self, tmp_path, capsys, study, n_nodes):
        doc = make_doc(**study)
        doc["leader"]["target"] = {"kind": "tabulated", "values": [0.0, 0.1, 0.2]}
        path = write_doc(tmp_path, doc)
        field = f"config.leader.target.values: needs {n_nodes} entries"
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        doc["leader"]["target"]["values"] = [0.0] * n_nodes
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_OK
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        path = write_doc(tmp_path, make_doc())
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        assert (tmp_path / "envout" / "wellposedness_summary.json").exists()


def rarely(draw, usual, invalid):
    """``invalid`` in about one draw of sixteen, otherwise a draw from ``usual``."""
    return invalid if draw(st.integers(0, 15)) == 15 else draw(usual)


@st.composite
def mutated_configs(draw):
    """A shipped config on a small grid, with drawn weights, targets and counts.

    Each drawn field is invalid in about one draw of sixteen, so that most
    configs reach ``run``. Grids are mostly tiny, and sometimes two steps
    past the affine-law solver's path bound, so that path counts fall on
    both sides of its schedule choice (``core._use_scan``).
    """
    doc = json.loads(draw(st.sampled_from(CONFIGS)).read_text())
    grid, leader, study = doc["grid"], doc["leader"], doc["study"]
    weights = st.sampled_from([0.0, 0.3, 0.93, 2.0])
    bound = core.SCAN_MAX_PATHS
    n_steps = draw(st.integers(1, 16) | st.just(bound + 2))
    grid["n_steps"] = n_steps
    straddle = [n_steps - 1, n_steps, n_steps + 1, bound - 1, bound, bound + 1]
    paths = st.integers(2, 12) | st.sampled_from([k for k in straddle if k >= 2])
    doc["follower"]["sigma"] = rarely(draw, st.just(0.1), 0.0)
    doc["follower"]["b_control"] = rarely(draw, st.just(1.0), 0.0)
    # Valid, but no path then carries information: run must exit 3, not crash.
    doc["follower"]["q_track"] = rarely(draw, st.just(doc["follower"]["q_track"]), 0.0)
    leader["inference_weight"] = draw(weights)
    if "n_paths" in study:
        study["n_paths"] = draw(paths)
    if "n_replays" in study:
        study["n_replays"] = rarely(draw, paths.filter(lambda k: k >= 10), 9)
    if "n_eval_paths" in study:
        study["n_eval_paths"] = rarely(draw, paths, 1)
        n_eval = study["n_eval_paths"]
        study["n_display_paths"] = rarely(draw, st.integers(1, max(1, n_eval)), n_eval + 1)
    if "inference_weights" in study:
        study["inference_weights"] = draw(st.lists(weights, min_size=1, max_size=3))
    if "pairs" in study:
        study["pairs"] = draw(st.lists(st.lists(weights, min_size=2, max_size=2),
                                       min_size=1, max_size=2))
    if "n_episodes" in study:
        study["n_episodes"] = draw(st.integers(1, 3))
    if "optimizer" in study:
        study["optimizer"].update(budget=draw(st.integers(1, 2)),
                                  batch_size=rarely(draw, st.sampled_from([2, 4]), 1),
                                  eval_paths=rarely(draw, st.sampled_from([2, 4]), 1))
    if study["name"] == "discrete-convergence":
        fine = study["fine_exponent"] = draw(st.integers(1, 6))
        study["levels"] = rarely(
            draw, st.lists(st.integers(0, fine - 1), min_size=1, max_size=3), [fine]
        )
        study["n_sigma_replications"] = rarely(draw, st.integers(2, 8), 1)
    if draw(st.booleans()):
        fits = 2 ** study.get("fine_exponent", 0) if "fine_exponent" in study else n_steps
        n_values = rarely(draw, st.just(fits + 1), fits + 2)
        leader["target"] = {"kind": "tabulated", "values": [0.05] * n_values}
    return doc


def _refuse_constant(name):
    raise AssertionError(f"summary JSON holds {name}, which strict JSON readers reject")


class TestValidateRunAgreement:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=mutated_configs())
    def test_run_never_refuses_a_validated_config(self, tmp_path, doc):
        path = write_doc(tmp_path, doc)
        if cli.main(["validate", "--config", path]) == cli.EXIT_OK:
            out = tmp_path / "out"
            code = cli.main(["run", "--config", path, "--out", str(out)])
            assert code in (cli.EXIT_OK, cli.EXIT_NUMERICAL, cli.EXIT_IO)
            if code == cli.EXIT_OK:
                for summary in out.glob("*_summary.json"):
                    json.loads(summary.read_text(), parse_constant=_refuse_constant)


def _outputs(out_dir):
    """Every output file's content; summaries without the config echo and its hash."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith("_summary.json"):
            doc = json.loads(path.read_text())
            del doc["config"], doc["provenance"]["config_hash"]
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return files


class TestReproducibility:
    @pytest.mark.parametrize("study, block, key, default", [
        (dict(name="estimator-study", inference_weights=[0.5], n_replays=20),
         "study", "path_seed_index", 0),
        (dict(name="benchmark-compare", n_eval_paths=6,
              optimizer=dict(budget=1, batch_size=4, eval_every=1, eval_paths=4)),
         "study", "n_display_paths", 5),
        (dict(name="discrete-convergence", n_sigma_replications=2),
         "study", "levels", [4, 5, 6, 7, 8, 9, 10]),
        (dict(name="tradeoff-sweep", ratios=[1.0], n_paths=10), "target", "phase", 0.0),
        (dict(name="wellposedness"), "output", "formats", ["csv", "json"]),
        (dict(name="wellposedness"), "rng", "bit_exact", True),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_field_at_its_default_changes_no_file(self, tmp_path, study, block, key, default):
        outputs = []
        for tag, write in (("omitted", False), ("written", True)):
            doc = make_doc(**study)
            fields = doc["leader"]["target"] if block == "target" else doc[block]
            fields.pop(key, None)
            if write:
                fields[key] = default
            out = tmp_path / tag
            assert cli.main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
            outputs.append(_outputs(out))
        assert outputs[0] == outputs[1]

    def test_csv_bytes_identical_across_threads(self, tmp_path):
        doc = make_doc(name="tradeoff-sweep", ratios=[1.0, 10.0], n_paths=400)
        path = write_doc(tmp_path, doc)
        payloads = {}
        for threads in (1, 4, 8):
            out = tmp_path / f"t{threads}"
            code = cli.main(["run", "--config", path, "--threads", str(threads),
                             "--out", str(out)])
            assert code == cli.EXIT_OK
            payloads[threads] = {
                name: (out / name).read_bytes()
                for name in ("tradeoff-sweep_summary.json", "tradeoff-sweep_sweep.csv",
                             "tradeoff-sweep_trajectories.csv")
            }
        assert payloads[1] == payloads[4] == payloads[8]

    @pytest.mark.parametrize("study", [
        dict(name="tradeoff-sweep", ratios=[1.0, 10.0], n_paths=50),
        dict(name="estimator-study", inference_weights=[0.0, 0.5], n_replays=40),
    ])
    def test_csv_cells_are_plain_numbers(self, tmp_path, study):
        path = write_doc(tmp_path, make_doc(**study))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        tables = sorted(out.glob("*.csv"))
        assert tables
        for table in tables:
            with open(table, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows
            for row in rows:
                for cell in row:
                    if cell not in ("true", "false"):
                        float(cell)  # raises on np.float64(...) or any other wrapper

    def test_rerun_identical(self, tmp_path):
        doc = make_doc(name="estimator-study", inference_weights=[0.5], n_replays=200)
        path = write_doc(tmp_path, doc)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
            outs.append((out / "estimator-study_estimator.csv").read_bytes())
        assert outs[0] == outs[1]


class TestStudySurfaces:
    def test_multi_period_table_schema(self, tmp_path):
        doc = make_doc(name="multi-period", inference_weights=[0.0, 0.93], n_episodes=4,
                       variance_threshold=0.01)
        doc["leader"]["inference_weight"] = 0.93
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "multi-period_episodes.csv").read_text().splitlines()
        assert lines[0] == ("inference_weight,episode,m_hat,precision,m_bar,"
                            "abs_error,variance_proxy,stopped")
        assert len(lines) == 1 + 2 * 4

    def test_discrete_convergence_schema(self, tmp_path):
        doc = make_doc(name="discrete-convergence", fine_exponent=10, levels=[4, 6],
                       n_sigma_replications=8)
        doc["leader"]["inference_weight"] = 0.5
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "discrete-convergence_levels.csv").read_text().splitlines()
        assert lines[0] == ("level,n_obs,mesh,m_hat_discrete,m_hat_continuous,"
                            "abs_diff,sigma2_hat")
        summary = json.loads((out / "discrete-convergence_summary.json").read_text())
        assert summary["summary"]["sigma2_mean_finest"] > 0

    @pytest.mark.parametrize(("chunk_rows", "study"), [
        # every chunk on the blocked recurrence (one path per 3-row chunk)
        (3, dict(name="discrete-convergence", fine_exponent=9, levels=[4, 6],
                 n_sigma_replications=10)),
        # every chunk on the per-step loop
        (70, dict(name="estimator-study", inference_weights=[0.5], n_replays=200)),
        (70, dict(name="tradeoff-sweep", ratios=[1.0, 10.0], n_paths=200)),
    ])
    def test_chunk_cap_leaves_files_unchanged(self, tmp_path, monkeypatch, chunk_rows, study):
        doc = make_doc(**study)
        path = write_doc(tmp_path, doc)
        n_steps = 2 ** study["fine_exponent"] if "fine_exponent" in study else 50
        outs = {}
        for tag, cap in (("whole", studies.CHUNK_ELEMENTS), ("chunked", chunk_rows * n_steps)):
            monkeypatch.setattr(studies, "CHUNK_ELEMENTS", cap)
            out = tmp_path / tag
            assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
            outs[tag] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outs["whole"] == outs["chunked"]

    def test_estimator_study_variance_ordering(self, tmp_path):
        doc = make_doc(name="estimator-study", inference_weights=[0.0, 0.5],
                       n_replays=400)
        doc["leader"]["inference_weight"] = 0.5
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "estimator-study_summary.json").read_text())
        variances = summary["summary"]["conditional_variance"]
        assert variances[1] < variances[0]
