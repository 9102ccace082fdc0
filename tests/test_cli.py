import copy
import csv
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stackinfer as si
from stackinfer import cli, core, studies
from stackinfer.config import MAX_STEPS, ConfigError, validate_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

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

    @pytest.mark.parametrize("chunk_steps", [50, 100, 1024])
    def test_sweep_blow_up_names_the_first_arm(self, tmp_path, capsys, monkeypatch,
                                               chunk_steps):
        # The second and fourth ratios blow up, at different nodes. However
        # the leader solve stacks the ratios (1, 2 or 5 at a time on these 50
        # steps), it raises the second ratio's error, as that ratio solved
        # alone does, and the run exits 3 with that message.
        monkeypatch.setattr(si.riccati, "_CHUNK_STEPS", chunk_steps)
        doc = make_doc(name="tradeoff-sweep", ratios=[10.0, 1.0, 25.0, 0.5, 100.0],
                       n_paths=10)
        doc["leader"]["inference_weight"] = 2.0
        cfg = validate_config(doc)
        grid, follower = cfg.build_grid(), cfg.build_follower()
        coeffs = si.compute_coefficients(si.solve_follower_a(follower, grid), follower)
        leaders = [cfg.build_leader(grid, q_track=2.0 * ratio) for ratio in cfg.study["ratios"]]
        alone = []
        for leader in leaders:
            try:
                si.solve_leader_system([leader], follower, coeffs)
                alone.append(None)
            except si.BlowUpError as exc:
                alone.append(exc)
        assert [exc is not None for exc in alone] == [False, True, False, True, False]
        assert alone[1].blow_up_time != alone[3].blow_up_time
        with pytest.raises(si.BlowUpError) as err:
            si.solve_leader_system(leaders, follower, coeffs)
        assert err.value.blow_up_time == alone[1].blow_up_time
        assert str(err.value) == str(alone[1])
        out = tmp_path / "out"
        path = write_doc(tmp_path, doc)
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: tradeoff-sweep: leader Riccati system blew up at t=0.08 "
            "(|quad| reached 9.06e+04)\n"
        )
        assert not out.exists()

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
         (dict(fine_exponent=8), "config.study.fine_exponent"),
         # a repeated level would write two identical rows
         (dict(fine_exponent=8, levels=[6, 6, 0]), "config.study.levels[1]")],
    )
    def test_validate_agrees_with_run_on_levels(self, tmp_path, capsys, study, field):
        path = write_doc(tmp_path, make_doc(name="discrete-convergence", **study))
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study, n_steps, field", [
        (dict(name="discrete-convergence", fine_exponent=45, levels=[4]), 50,
         "config.study.fine_exponent"),
        (dict(name="discrete-convergence", fine_exponent=21, levels=[4]), 50,
         "config.study.fine_exponent"),
        (dict(name="wellposedness"), MAX_STEPS + 1, "config.grid.n_steps"),
    ])
    def test_grid_above_the_step_cap_is_refused(self, tmp_path, capsys, study, n_steps, field):
        # A grid past the cap would exhaust memory inside run; both
        # commands refuse it up front, naming the field.
        doc = make_doc(**study)
        doc["grid"]["n_steps"] = n_steps
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_grid_steps_required_where_read(self, tmp_path, capsys):
        # discrete-convergence runs on its own 2**fine_exponent grid, so
        # grid.n_steps may be left out there and changes no file.
        study = dict(name="discrete-convergence", fine_exponent=8, levels=[4, 6],
                     n_sigma_replications=2)
        outputs = []
        for tag in ("given", "omitted"):
            doc = make_doc(**study)
            if tag == "omitted":
                del doc["grid"]["n_steps"]
            path = write_doc(tmp_path, doc)
            assert cli.main(["validate", "--config", path]) == cli.EXIT_OK
            out = tmp_path / tag
            assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
            outputs.append(_outputs(out))
        assert outputs[0] == outputs[1]
        doc = make_doc(name="tradeoff-sweep", ratios=[1.0], n_paths=10)
        del doc["grid"]["n_steps"]
        path = write_doc(tmp_path, doc)
        for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*command, "--config", path]) == cli.EXIT_CONFIG
            assert "config.grid.n_steps: missing required key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("study, n_steps", [
        (dict(name="discrete-convergence", fine_exponent=20, levels=[4]), 50),
        (dict(name="wellposedness"), MAX_STEPS),
    ])
    def test_grid_at_the_step_cap_validates(self, study, n_steps):
        doc = make_doc(**study)
        doc["grid"]["n_steps"] = n_steps
        validate_config(doc)

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
        # Stream path indices are 64-bit words.
        (dict(name="estimator-study", inference_weights=[0.5], n_replays=10,
              path_seed_index=2**64),
         "config.study.path_seed_index"),
        # The sweep's leader needs q_track = ratio * inference_weight > 0.
        (dict(name="tradeoff-sweep", ratios=[-1.0, 1.0], n_paths=10), "config.study.ratios[0]"),
        (dict(name="tradeoff-sweep", ratios=[0.0, 1.0], n_paths=10), "config.study.ratios[0]"),
        # A leader's inference weight is >= 0.
        (dict(name="estimator-study", inference_weights=[0.5, -1.0], n_replays=10),
         "config.study.inference_weights[1]"),
        (dict(name="multi-period", inference_weights=[-0.5], n_episodes=2),
         "config.study.inference_weights[0]"),
    ])
    def test_validate_agrees_with_run_on_study_minimums(self, tmp_path, capsys, study, field):
        path = write_doc(tmp_path, make_doc(**study))
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edits, field", [
        # sigma^2 underflows, so the noise-to-signal ratio is 0.
        ([("follower", "sigma", 1e-200)], "config.follower:"),
        # b^4 overflows.
        ([("follower", "b_control", 1e100)], "config.follower:"),
        # 2 b^2 / r overflows.
        ([("leader", "b_control", 1e200)], "config.leader:"),
        # q_track = ratio * inference_weight underflows to 0.
        ([("leader", "inference_weight", 1e-10), ("study", "ratios", [1e-320])],
         "config.study.ratios[0]:"),
        # The solvers square the leader's sigma and the follower's a_drift as
        # Python floats, whatever the study.
        ([("leader", "sigma", 1e200)], "config.leader.sigma:"),
        ([(None, "study", dict(name="wellposedness")), ("leader", "sigma", 1e200)],
         "config.leader.sigma:"),
        ([("follower", "a_drift", 1e200)], "config.follower.a_drift:"),
        # The estimator study squares estimates of the dilation's size in
        # its sample variance, which overflowed to an infinite bias_se cell.
        ([(None, "study", dict(name="estimator-study", inference_weights=[0.5],
                               n_replays=10)), ("follower", "dilation", 1e200)],
         "config.follower.dilation:"),
    ])
    def test_validate_agrees_with_run_on_derived_gains(self, tmp_path, capsys, edits, field):
        # The follower's sigma^2 r^2 / b^4 and the sweep's q_track must be
        # positive finite floats, the leader's 2 b^2 / r, sigma^2 and the
        # follower's a_drift^2 finite ones. A None block edits the document.
        doc = make_doc(name="tradeoff-sweep", ratios=[1.0], n_paths=10)
        for block, key, value in edits:
            (doc if block is None else doc[block])[key] = value
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study, horizon, message", [
        # exp(-2 cum_f) overflows.
        (dict(name="wellposedness"), 1000.0, "horizon 1000.0"),
        (dict(name="tradeoff-sweep", ratios=[1.0], n_paths=10), 1000.0, "horizon 1000.0"),
        # The coefficients fit a float, but the horizon bound's y0 does not.
        (dict(name="wellposedness"), 250.0, "horizon bound on horizon 250.0"),
    ])
    def test_long_horizon_exit_code(self, tmp_path, capsys, study, horizon, message):
        # Overflow on a long horizon is a numerical failure, with no warning
        # and no summary of infinite constants.
        doc = make_doc(**study)
        doc["grid"]["horizon"] = horizon
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert message in capsys.readouterr().err
        assert not out.exists()

    # Valid models whose floats overflow: numpy warns of it on the way.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    # The ids keep the numbering the cases had when the list also held the
    # sigma**2, a_drift**2 and dilation**2 overflows, which validate now
    # refuses (see test_validate_agrees_with_run_on_derived_gains).
    @pytest.mark.parametrize("study, block, key, value", [
        # numpy overflows to inf or NaN in a summary or a table cell.
        pytest.param(dict(name="tradeoff-sweep", ratios=[1.0, 10.0], n_paths=10),
                     "leader", "x0", 1e300, id="study4-leader-x0-1e+300"),
        pytest.param(dict(name="discrete-convergence", fine_exponent=8, levels=[4, 5],
                          n_sigma_replications=4),
                     "leader", "x0", 1e300, id="study5-leader-x0-1e+300"),
        pytest.param(dict(name="estimator-study", inference_weights=[0.0, 0.5], n_replays=10),
                     "follower", "x0", 1e300, id="study6-follower-x0-1e+300"),
        pytest.param(dict(name="estimator-study", inference_weights=[0.0, 0.5], n_replays=10),
                     "leader", "x0", 1e300, id="study7-leader-x0-1e+300"),
    ])
    def test_overflow_exit_code(self, tmp_path, capsys, study, block, key, value):
        doc = make_doc(**study)
        doc[block][key] = value
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_OK
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert f"numerical failure: {study['name']}: " in capsys.readouterr().err
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

    @pytest.mark.parametrize("edit, code", [
        (lambda doc: json.dumps(doc), cli.EXIT_OK),
        (lambda doc: json.dumps({"summary": {"policy": doc}}), cli.EXIT_OK),
        (lambda doc: "{not json", cli.EXIT_CONFIG),
        (lambda doc: json.dumps([doc]), cli.EXIT_CONFIG),
        (lambda doc: json.dumps({"summary": {}}), cli.EXIT_CONFIG),
        (lambda doc: json.dumps({**doc, "architecture": {
            k: v for k, v in doc["architecture"].items() if k != "decay"}}), cli.EXIT_CONFIG),
        (lambda doc: json.dumps({**doc, "architecture": {
            **doc["architecture"], "decay": 1.5}}), cli.EXIT_CONFIG),
        (lambda doc: json.dumps({**doc, "architecture": {
            **doc["architecture"], "hidden_width": 16.0}}), cli.EXIT_CONFIG),
        (lambda doc: json.dumps({**doc, "theta": doc["theta"][:-1]}), cli.EXIT_CONFIG),
        (lambda doc: json.dumps({**doc, "theta": ["x"] * len(doc["theta"])}), cli.EXIT_CONFIG),
        (lambda doc: json.dumps({**doc, "theta": [math.nan] * len(doc["theta"])}),
         cli.EXIT_CONFIG),
        (None, cli.EXIT_IO),
    ], ids=["bare", "summary", "bad-json", "not-an-object", "no-policy", "no-decay",
            "decay-out-of-range", "fractional-width", "short-theta", "text-theta",
            "nan-theta", "missing-file"])
    def test_policy_file_exit_code(self, tmp_path, capsys, edit, code):
        grid = core.build_grid(0.5, 50)
        doc = studies._policy_document(
            si.initial_policy(grid, si.RecurrentConfig(), si.RngContract(0)))
        policy_path = tmp_path / "policy.json"
        if edit is not None:
            policy_path.write_text(edit(doc))
        path = write_doc(tmp_path, make_doc(name="benchmark-compare", n_eval_paths=4,
                                            n_display_paths=1, policy_file=str(policy_path)))
        out = tmp_path / "out"
        for argv in (["validate"], ["run", "--out", str(out)]):
            assert cli.main([*argv, "--config", path]) == code
            err = capsys.readouterr().err
            if code == cli.EXIT_CONFIG:
                assert "config error: config.study.policy_file" in err
        assert out.exists() == (code == cli.EXIT_OK)

    def test_leader_at_rest_has_no_relative_gap(self, tmp_path):
        # No noise, start or target: the semi-explicit objective is exactly 0.
        doc = make_doc(name="benchmark-compare", n_eval_paths=8, n_display_paths=1,
                       optimizer=dict(budget=2, batch_size=4, eval_paths=4))
        doc["leader"].update(sigma=0.0, x0=0.0)
        doc["leader"]["target"]["amplitude"] = 0.0
        out = tmp_path / "out"
        path = write_doc(tmp_path, doc)
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "benchmark-compare_summary.json").read_text())["summary"]
        assert summary["j_info_riccati"] == 0.0
        assert summary["rel_gap"] is None

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
    grid["n_steps"] = rarely(draw, st.just(n_steps), MAX_STEPS + 1)
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
        study["inference_weights"] = rarely(draw, st.lists(weights, min_size=1, max_size=3),
                                            [0.3, -0.5])
    if "ratios" in study:
        study["ratios"] = rarely(draw, st.just(study["ratios"]), [-1.0, 1.0])
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
        fine = draw(st.integers(1, 6))
        study["fine_exponent"] = rarely(draw, st.just(fine), 45)
        study["levels"] = rarely(
            draw, st.lists(st.integers(0, fine - 1), min_size=1, max_size=3), [fine]
        )
        study["n_sigma_replications"] = rarely(draw, st.integers(2, 8), 1)
    if draw(st.booleans()):
        fits = 2**fine if "fine_exponent" in study else n_steps
        n_values = rarely(draw, st.just(fits + 1), fits + 2)
        leader["target"] = {"kind": "tabulated", "values": [0.05] * n_values}
    # Valid, but a leader at rest (no noise, start or target) has precision 0
    # on every path and a semi-explicit objective of exactly 0.
    if draw(st.integers(0, 7)) == 7:
        leader.update(sigma=0.0, x0=0.0)
        target = leader["target"]
        if target["kind"] == "tabulated":
            target["values"] = [0.0] * len(target["values"])
        else:
            target["amplitude"] = 0.0
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
        # stride 16: replications on a 32-step observation grid, chunks of
        # 3, 3, 3 and 1 rows, whole batch and chunks all blocked
        (3, dict(name="discrete-convergence", fine_exponent=9, levels=[5, 4],
                 n_sigma_replications=10)),
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

    def test_estimator_study_runs_in_any_units_of_length(self, tmp_path):
        # Lengths (both agents' x0 and sigma, the target's amplitude) times
        # c = 2^-20 and information weights times c^2: the degeneracy floor
        # is on the Fisher information, which has no units, so the study
        # runs, and every file is the shipped study's, the weights and
        # precisions scaled by exactly c^2.
        doc = json.loads((ROOT / "configs" / "estimator_study.json").read_text())
        doc["study"]["n_replays"] = 200
        c = 2.0**-20
        scaled = copy.deepcopy(doc)
        for agent in ("follower", "leader"):
            scaled[agent]["x0"] *= c
            scaled[agent]["sigma"] *= c
        scaled["leader"]["target"]["amplitude"] *= c
        scaled["leader"]["inference_weight"] *= c * c
        scaled["study"]["inference_weights"] = [lam * c * c for lam in
                                                doc["study"]["inference_weights"]]
        tables = {}
        for tag, run_doc in (("shipped", doc), ("scaled", scaled)):
            out = tmp_path / tag
            path = write_doc(tmp_path, run_doc, f"{tag}.json")
            assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
            tables[tag] = {p.name: list(csv.reader(p.read_text().splitlines()))
                           for p in sorted(out.glob("*.csv"))}
        assert tables["shipped"].keys() == tables["scaled"].keys()
        for name, (header, *rows) in tables["shipped"].items():
            assert tables["scaled"][name][0] == header
            for row, scaled_row in zip(rows, tables["scaled"][name][1:], strict=True):
                for column, cell, scaled_cell in zip(header, row, scaled_row):
                    power = 2 if column in ("inference_weight", "precision") else 0
                    assert float(scaled_cell) == float(cell) * c**power, (name, column)

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


def test_readme_sessions_run():
    # A README session that calls a removed name fails here, not for a reader.
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.S | re.M)
    sessions = [b for b in blocks if re.search(r"^(import|from) stackinfer", b, re.M)]
    assert sessions
    for source in sessions:
        exec(compile(source, str(readme), "exec"), {"__name__": "readme"})


# Each shipped config's study at a size that runs in well under a second.
SMALL_STUDIES = {
    "benchmark-compare": dict(n_eval_paths=6, n_display_paths=2,
                              optimizer=dict(budget=1, batch_size=4, eval_paths=4)),
    "discrete-convergence": dict(fine_exponent=8, levels=[4, 5], n_sigma_replications=2),
    "estimator-study": dict(n_replays=20),
    "multi-period": dict(n_episodes=2),
    "objective-compare": dict(n_paths=6, optimizer=dict(budget=1, batch_size=4, eval_paths=4)),
    "tradeoff-sweep": dict(n_paths=10),
    "wellposedness": {},
}


def test_readme_lists_every_csv_column(tmp_path):
    # A study runner names each column once, beside its value; the study
    # catalog must list the same columns, in order, for every CSV it writes.
    catalog = (ROOT / "README.md").read_text().split("## Study catalog")[1].split("\n## ")[0]
    documented = {}
    for study, text in re.findall(r"^- \*\*`([\w-]+)`\*\*(.*?)(?=^- |\Z)", catalog, re.S | re.M):
        for table, columns in re.findall(r"`(\w+)\.csv`:\s+`([^`]+)`", text):
            documented[study, table] = re.sub(r"\s+", "", columns)
    written = {}
    for config in CONFIGS:
        doc = json.loads(config.read_text())
        doc["study"].update(SMALL_STUDIES[doc["study"]["name"]])
        out = tmp_path / config.stem
        path = write_doc(tmp_path, doc)
        assert cli.main(["run", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        for table in out.glob("*.csv"):
            written[tuple(table.stem.split("_", 1))] = table.read_text().splitlines()[0]
    assert written == documented
