import csv
import json
from pathlib import Path

import pytest

from gridrisk import assess, cascade, cases
from gridrisk.cli import main
from gridrisk.network import serialize_case


@pytest.fixture()
def toy_case_file(tmp_path):
    path = tmp_path / "toy6.json"
    path.write_text(serialize_case(cases.toy6()))
    return str(path)


def run_cli(argv):
    return main(argv)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# schema_version=")
    return list(csv.DictReader(lines[1:]))


class TestExitCodes:
    def test_missing_case_file(self, tmp_path):
        code = run_cli(["assess", "--case", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "o")])
        assert code == 2

    def test_bad_case_content(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(["assess", "--case", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("base_mva", [0.0, -100.0])
    def test_non_positive_base_mva(self, tmp_path, capsys, base_mva):
        doc = json.loads(serialize_case(cases.toy6()))
        doc["base_mva"] = base_mva
        f = tmp_path / "case.json"
        f.write_text(json.dumps(doc))
        code = run_cli(["assess", "--case", str(f), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "base_mva must be > 0" in capsys.readouterr().err

    def test_infeasible_base_case(self, tmp_path):
        doc = json.loads(serialize_case(cases.toy6()))
        for l in doc["loads"]:
            l["p"] = 500.0  # beyond total generation capability
        f = tmp_path / "over.json"
        f.write_text(json.dumps(doc))
        code = run_cli(["assess", "--case", str(f), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_success(self, toy_case_file, tmp_path):
        out = tmp_path / "ok"
        code = run_cli([
            "assess", "--case", toy_case_file, "--outages", "3",
            "--tau-d", "15", "--t-max", "30", "--policy", "exhaustive",
            "--attempts", "100", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 2
        assert summary["R"] == pytest.approx(summary["C0"] + summary["R_prime"])
        assert (out / "tree.csv").exists()
        assert (out / "convergence.csv").exists()


    @pytest.mark.parametrize("kind, eid", [("loads", 99), ("generators", 7)])
    def test_strategy_with_unknown_id(self, toy_case_file, tmp_path, capsys, kind, eid):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({kind: [{"id": eid, "target_mw": 10.0}]}))
        code = run_cli(["assess", "--case", toy_case_file, "--outages", "3",
                        "--strategy", str(strategy), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"unknown {kind[:-1]} id {eid}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("attempts", "10"), ("tau_d", True), ("seed", 1.5), ("outages", "3"),
        ("epsilon_stop", "1"),
    ])
    def test_config_value_of_wrong_type(self, toy_case_file, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": toy_case_file, key: value}))
        code = run_cli(["assess", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config key '{key}' has the wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("gradient", "threshold", "abc"),
        ("irm", "delta_r", "x"),
        ("irm", "delta_r", [50000.0, "x"]),
    ])
    def test_config_threshold_and_delta_r_checked(self, toy_case_file, tmp_path, capsys,
                                                  command, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "case": toy_case_file, "outages": [3], "tau_d": 15, "t_max": 30,
            "policy": "exhaustive", "attempts": 5, key: value,
        }))
        code = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("gradient", "threshold", None), ("gradient", "threshold", 1e-5),
        ("irm", "delta_r", 50000), ("irm", "delta_r", [50000.0, 20000])
    ])
    def test_config_threshold_and_delta_r_accepted(self, toy_case_file, tmp_path,
                                                   command, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "case": toy_case_file, "outages": [3], "tau_d": 15, "t_max": 30,
            "policy": "exhaustive", "attempts": 5, "max_iterations": 2, key: value,
        }))
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("step", ["0", "nan", "-0.25"])
    def test_fd_step_must_be_finite_and_positive(self, toy_case_file, tmp_path, capsys, step):
        code = run_cli(["validate-gradient", "--case", toy_case_file, "--outages", "3",
                        "--policy", "exhaustive", "--t-max", "30", "--fd-step", step,
                        "--out", str(tmp_path / "v")])
        assert code == 2
        assert "config key 'fd_step'" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("command, flag, value, key", [
        ("gradient", "--threshold", "nan", "threshold"),
        ("assess", "--tau-d", "nan", "tau_d"),
        ("assess", "--t-max", "inf", "t_max"),
        ("irm", "--delta-r", "nan", "delta_r"),
        ("irm", "--delta-r", "50000,inf", "delta_r"),
    ])
    def test_non_finite_flag_rejected(self, toy_case_file, tmp_path, capsys,
                                      command, flag, value, key):
        code = run_cli([command, "--case", toy_case_file, "--outages", "3",
                        "--policy", "exhaustive", "--t-max", "30", flag, value,
                        "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config key '{key}' must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("epsilon_stop", float("nan"), "config key 'epsilon_stop' must be finite"),
        ("delta_r", [50000.0, float("-inf")], "config key 'delta_r' must be finite"),
        ("outages", ["3"], "config key 'outages' must be a list of integer branch ids"),
        ("outages", [3.0], "config key 'outages' must be a list of integer branch ids"),
    ])
    def test_config_value_rejected(self, toy_case_file, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "case": toy_case_file, "outages": [3], "t_max": 30, "policy": "exhaustive",
            key: value,
        }))
        code = run_cli(["irm", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, eid, text", [
        ("loads", 2, "NaN"), ("loads", 1, "Infinity"), ("generators", 3, "-Infinity"),
    ])
    def test_strategy_with_non_finite_target(self, toy_case_file, tmp_path, capsys,
                                             kind, eid, text):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(f'{{"{kind}": [{{"id": {eid}, "target_mw": {text}}}]}}')
        code = run_cli(["assess", "--case", toy_case_file, "--outages", "3",
                        "--strategy", str(strategy), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"target_mw of {kind[:-1]} id {eid} must be finite" in capsys.readouterr().err

    def test_config_accepts_int_for_float(self, toy_case_file, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "case": toy_case_file, "outages": [3], "tau_d": 15, "t_max": 30,
            "policy": "exhaustive", "attempts": 5, "epsilon_stop": None,
        }))
        assert run_cli(["assess", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_internal_error(self, toy_case_file, tmp_path, monkeypatch, capsys):
        def unbalanced(case, topo, state):
            raise cascade.InternalError("island 0 unbalanced after dispatch")

        monkeypatch.setattr(cascade, "_assert_balanced", unbalanced)
        code = run_cli(["assess", "--case", toy_case_file, "--outages", "3",
                        "--out", str(tmp_path / "o")])
        assert code == 4
        assert "internal error: island 0 unbalanced" in capsys.readouterr().err


class TestCommands:
    def test_zero_rate_assess_reports_zero_risk(self, tmp_path):
        doc = json.loads(serialize_case(cases.toy6()))
        for br in doc["branches"]:
            br.update({"lambda_0": 0.0, "lambda_1": 0.0, "overload_slope": 0.0,
                       "lambda_max": 0.0})
        f = tmp_path / "zero.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli(["gradient", "--case", str(f), "--policy", "exhaustive",
                        "--t-max", "30", "--attempts", "50",
                        "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["R_prime"] == 0.0
        assert summary["gamma_norm"] == 0.0
        rows = read_csv(out / "gradient.csv")
        assert all(float(r["gamma"]) == 0.0 for r in rows)

    def test_gradient_outputs(self, toy_case_file, tmp_path):
        out = tmp_path / "g"
        code = run_cli([
            "gradient", "--case", toy_case_file, "--outages", "3",
            "--tau-d", "15", "--t-max", "30", "--policy", "exhaustive",
            "--attempts", "100", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "gradient.csv")
        assert len(rows) == cases.toy6().n_x
        assert {"variable", "bus", "gamma"} <= set(rows[0])
        conv = read_csv(out / "convergence.csv")
        assert conv[-1]["delta_dir"] != "" or conv[-1]["delta"] != ""

    def test_gradient_compressed_vs_dense_report(self, toy_case_file, tmp_path):
        out = tmp_path / "gc"
        code = run_cli([
            "gradient", "--case", toy_case_file, "--outages", "3",
            "--tau-d", "15", "--t-max", "30", "--policy", "exhaustive",
            "--attempts", "100", "--seed", "1", "--threshold", "1e-5",
            "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "delta_dir_compressed_vs_dense" not in summary
        assert summary["schema_version"] == 2
        assert summary["stored_entries"] <= summary["dense_entries"]

    @pytest.mark.parametrize("threshold", [["--threshold", "1e-5"], []])
    def test_gradient_runs_one_assessment(self, toy_case_file, tmp_path, monkeypatch,
                                          threshold):
        calls = []
        run = assess.run_assessment

        def counting(*args, **kwargs):
            calls.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(assess, "run_assessment", counting)
        assert run_cli(["gradient", "--case", toy_case_file, "--outages", "3",
                        "--t-max", "30", "--policy", "exhaustive", "--attempts", "100",
                        *threshold, "--out", str(tmp_path / "g")]) == 0
        assert len(calls) == 1

    def test_validate_gradient_requires_exhaustive(self, toy_case_file, tmp_path):
        code = run_cli([
            "validate-gradient", "--case", toy_case_file, "--outages", "3",
            "--policy", "probability-sampled", "--out", str(tmp_path / "v"),
        ])
        assert code == 2

    def test_validate_gradient_report(self, toy_case_file, tmp_path):
        out = tmp_path / "v"
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({
            "loads": [
                {"id": 1, "target_mw": 110.0},
                {"id": 2, "target_mw": 85.0},
                {"id": 3, "target_mw": 55.0},
            ],
            "generators": [
                {"id": 1, "target_mw": 5.0},
                {"id": 2, "target_mw": 160.0},
                {"id": 3, "target_mw": 10.0},
            ],
        }))
        code = run_cli([
            "validate-gradient", "--case", toy_case_file, "--outages", "3",
            "--tau-d", "15", "--t-max", "30", "--policy", "exhaustive",
            "--attempts", "300", "--strategy", str(strategy),
            "--fd-step", "0.25", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is True
        rows = read_csv(out / "validation.csv")
        assert len(rows) == cases.toy6().n_x

    def test_irm_outputs(self, toy_case_file, tmp_path):
        out = tmp_path / "irm"
        code = run_cli([
            "irm", "--case", toy_case_file, "--outages", "3",
            "--tau-d", "15", "--t-max", "30", "--policy", "exhaustive",
            "--attempts", "200", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "trajectory.csv")
        assert rows[0]["round"] == "0"
        strategy = json.loads((out / "strategy.json").read_text())
        assert {"loads", "generators", "subsequent_risk"} <= set(strategy)

    def test_config_file_with_flag_override(self, toy_case_file, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "case": toy_case_file, "outages": [3], "tau_d": 15.0, "t_max": 30.0,
            "policy": "exhaustive", "attempts": 50, "seed": 7,
        }))
        out = tmp_path / "c"
        assert run_cli(["assess", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 7


class TestDeterminism:
    def test_byte_identical_outputs(self, toy_case_file, tmp_path):
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / rep
            assert run_cli([
                "gradient", "--case", toy_case_file, "--outages", "3",
                "--tau-d", "15", "--t-max", "30",
                "--policy", "probability-sampled", "--attempts", "150",
                "--seed", "11", "--out", str(out),
            ]) == 0
            outs.append(out)
        for name in ("summary.json", "tree.csv", "convergence.csv", "gradient.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_strategy_roundtrip_between_commands(tmp_path):
    # the irm strategy output is directly consumable as an assess strategy
    case_file = tmp_path / "toy6.json"
    case_file.write_text(serialize_case(cases.toy6()))
    irm_out = tmp_path / "irm"
    assert run_cli([
        "irm", "--case", str(case_file), "--outages", "3",
        "--tau-d", "15", "--t-max", "30", "--policy", "exhaustive",
        "--attempts", "200", "--seed", "2", "--out", str(irm_out),
    ]) == 0
    assess_out = tmp_path / "post"
    assert run_cli([
        "assess", "--case", str(case_file), "--outages", "3",
        "--tau-d", "15", "--t-max", "30", "--policy", "exhaustive",
        "--attempts", "200", "--seed", "2",
        "--strategy", str(irm_out / "strategy.json"), "--out", str(assess_out),
    ]) == 0
    summary = json.loads((assess_out / "summary.json").read_text())
    strategy = json.loads((irm_out / "strategy.json").read_text())
    assert summary["R_prime"] == pytest.approx(strategy["subsequent_risk"], rel=1e-9)
