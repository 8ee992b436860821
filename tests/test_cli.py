import csv
import json
import time
import warnings
from pathlib import Path

import pytest
import scipy.optimize._highspy._core as core
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrisk import assess, cascade, cases, management
from gridrisk.assess import POLICIES, AssessmentConfig
from gridrisk.cli import build_parser, main
from gridrisk.management import RmConfig
from gridrisk.network import IllConditionedIsland, serialize_case


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

    @pytest.mark.parametrize("doc, message", [
        ({"loads": [{"target_mw": 10.0}]}, "missing key 'id' [strategy loads[0]]"),
        ({"generators": [{"id": 2}]}, "missing key 'target_mw' [strategy generator id 2]"),
        ([{"id": 1, "target_mw": 10.0}], "top-level JSON value must be an object [strategy]"),
        ({"loads": [1, {"id": 1, "target_mw": 10.0}]},
         "'loads' must be a list of objects [strategy]"),
        ({"generators": {"id": 1, "target_mw": 10.0}},
         "'generators' must be a list of objects [strategy]"),
        ({"loads": [{"id": 1.9, "target_mw": 10.0}]},
         "'id' must be an integer, got 1.9 [strategy loads[0]]"),
        ({"generators": [{"id": True, "target_mw": 10.0}]},
         "'id' must be an integer, got True [strategy generators[0]]"),
        ({"loads": [{"id": 1, "target_mw": True}]},
         "'target_mw' must be a number, got True [strategy load id 1]"),
        ({"loads": [{"id": 1, "target_mw": "5"}]},
         "'target_mw' must be a number, got '5' [strategy load id 1]"),
        ({"generators": [{"id": "3", "target_mw": 5.0}]},
         "'id' must be a number, got '3' [strategy generators[0]]"),
    ], ids=["no-id", "no-target", "top-level-list", "row-not-object", "generators-object",
            "non-integral-id", "boolean-id", "boolean-target", "string-target", "string-id"])
    def test_malformed_strategy(self, toy_case_file, tmp_path, capsys, doc, message):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(doc))
        code = run_cli(["assess", "--case", toy_case_file, "--outages", "3",
                        "--strategy", str(strategy), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

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
        ("policy", "x", "unknown policy 'x'"),
        ("base_dispatch", "case", "unknown config key 'base_dispatch'"),
        ("epsilon_stop", -1e12, "config key 'epsilon_stop' must be >= 0"),
        ("max_iterations", -1, "config key 'max_iterations' must be >= 0"),
        ("threshold", -1e-5, "config key 'threshold' must be >= 0"),
        ("seed", -1, "config key 'seed' must be >= 0"),
        ("attempts", 0, "config key 'attempts' must be >= 1"),
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

    def test_negative_threshold_flag_rejected(self, toy_case_file, tmp_path, capsys):
        code = run_cli(["gradient", "--case", toy_case_file, "--outages", "3",
                        "--threshold", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config key 'threshold' must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["irm", "--strategy", "x.json"], ["assess", "--threshold", "1e-5"],
    ])
    def test_flag_the_command_does_not_read(self, toy_case_file, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--case", toy_case_file, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_shared_parser_keeps_no_state_between_calls(self, toy_case_file, tmp_path):
        """`main` parses with one parser per process; a command that ran
        before does not make the next one accept a flag it does not read."""
        assert run_cli(["assess", "--case", toy_case_file, "--outages", "3",
                        "--t-max", "15", "--attempts", "2", "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as exc:
            run_cli(["irm", "--strategy", "x.json", "--case", toy_case_file,
                     "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()
        assert build_parser() is build_parser()

    def test_outages_flag_names_bad_token(self, toy_case_file, tmp_path, capsys):
        code = run_cli(["assess", "--case", toy_case_file, "--outages", "3,x",
                        "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--outages takes integer branch ids, got 'x'" in capsys.readouterr().err

    def test_horizon_of_infinitely_many_levels_exits_2(self, toy_case_file, tmp_path, capsys):
        code = run_cli(["assess", "--case", toy_case_file, "--tau-d", "1e-300",
                        "--t-max", "1e308", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config key 't_max' must be a finite multiple of tau_d" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--case", "--config", "--strategy", "--out"])
    def test_os_error_on_a_path_exits_2(self, toy_case_file, tmp_path, capsys, flag):
        """A directory where a file is read, or a file where the output
        directory goes, is an error naming the path."""
        bad = tmp_path / "bad"
        if flag == "--out":
            bad.write_text("")
        else:
            bad.mkdir()
        paths = {"--case": toy_case_file, "--out": str(tmp_path / "o"), flag: str(bad)}
        code = run_cli(["assess", "--outages", "3", "--t-max", "15", "--attempts", "2",
                        *(arg for item in paths.items() for arg in item)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["assess", "gradient", "validate-gradient", "irm"])
    def test_out_that_cannot_be_made_fails_before_the_run(self, toy_case_file, tmp_path,
                                                          capsys, monkeypatch, command):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started before the output directory was made")

        for module, name in ((assess, "run_assessment"), (management, "irm"),
                             (assess, "validate_gradient")):
            monkeypatch.setattr(module, name, no_run)
        bad = tmp_path / "bad"
        bad.write_text("")
        code = run_cli([command, "--case", toy_case_file, "--outages", "3",
                        "--policy", "exhaustive", "--t-max", "30", "--out", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err

    @pytest.mark.parametrize("command", ["assess", "gradient", "validate-gradient", "irm"])
    @pytest.mark.parametrize("settings, message", [
        ({"costs": {"load_shed": "x"}, "failure_rate": {"knee": "y"}},
         "'load_shed' must be a number, got 'x' [costs]"),
        ({"failure_rate": {"knee": "y"}}, "'knee' must be a number, got 'y' [failure_rate]"),
        ({"fd_step": 0}, "config key 'fd_step' must be finite and > 0"),
        ({"strategy": "missing.json"}, "missing.json"),
    ], ids=["default-blocks", "failure-rate-block", "fd-step", "strategy"])
    def test_every_command_checks_every_key(self, toy_case_file, tmp_path, capsys,
                                            command, settings, message):
        """A config file is checked alike by every command, also where the
        command does not use the key (a native case's default blocks, `fd_step`
        outside validate-gradient, `strategy` in irm), before any output."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "case": toy_case_file, "outages": [3], "t_max": 30, "policy": "exhaustive",
            "out": str(tmp_path / "o"), **settings,
        }))
        code = run_cli([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_huge_exhaustive_depth_exits_2_at_once(self, toy_case_file, tmp_path, capsys):
        """The label-space bound stops counting once it is passed, instead of
        building (n+1)^depth for a depth of 66,666,666."""
        start = time.perf_counter()
        code = run_cli(["assess", "--case", toy_case_file, "--outages", "3",
                        "--policy", "exhaustive", "--t-max", "1e9",
                        "--out", str(tmp_path / "o")])
        assert code == 2
        assert "^66666666 labels exceeds the 200000 node bound" in capsys.readouterr().err
        assert time.perf_counter() - start < 10.0

    def test_delta_r_flag_names_bad_token(self, toy_case_file, tmp_path, capsys):
        code = run_cli(["irm", "--case", toy_case_file, "--outages", "3", "--delta-r", "1,x",
                        "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--delta-r takes numbers, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, costs, message", [
        ("native-json", {}, "missing key 'ramp' [gen 1]"),
        ("matpower-text", {"load_shed": "x"}, "'load_shed' must be a number, got 'x' [costs]"),
        ("matpower-text", {"load_shed": None}, "'load_shed' must be a number, got None [costs]"),
        ("matpower-text", {"load_shed": "100"}, "'load_shed' must be a number, got '100' [costs]"),
    ])
    def test_malformed_case_input(self, tmp_path, capsys, fmt, costs, message):
        case = tmp_path / "case"
        if fmt == "native-json":
            doc = json.loads(serialize_case(cases.toy6()))
            del doc["generators"][0]["ramp"]
            case.write_text(json.dumps(doc))
        else:
            case.write_text(cases.rts96_text())
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": str(case), "format": fmt, "costs": costs}))
        code = run_cli(["assess", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_non_integral_case_id(self, tmp_path, capsys):
        doc = json.loads(serialize_case(cases.toy6()))
        doc["buses"][0]["id"] = 1.5
        f = tmp_path / "case.json"
        f.write_text(json.dumps(doc))
        code = run_cli(["assess", "--case", str(f), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'id' must be an integer, got 1.5 [buses[0]]" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, message", [
        ("branches", "f_max", "'f_max' must be a number, got True [branch 1]"),
        ("loads", "p", "'p' must be a number, got True [load 1]"),
    ])
    def test_boolean_case_number(self, tmp_path, capsys, section, key, message):
        doc = json.loads(serialize_case(cases.toy6()))
        doc[section][0][key] = True
        f = tmp_path / "case.json"
        f.write_text(json.dumps(doc))
        code = run_cli(["assess", "--case", str(f), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, message", [
        ("branches", "f_max", "100", "'f_max' must be a number, got '100' [branch 1]"),
        ("loads", "p", " 50 ", "'p' must be a number, got ' 50 ' [load 1]"),
        ("buses", "id", "3", "'id' must be a number, got '3' [buses[0]]"),
    ])
    def test_string_case_number(self, tmp_path, capsys, section, key, value, message):
        """A numeric JSON string is refused, not read as its number."""
        doc = json.loads(serialize_case(cases.toy6()))
        doc[section][0][key] = value
        f = tmp_path / "case.json"
        f.write_text(json.dumps(doc))
        code = run_cli(["assess", "--case", str(f), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_strategy_with_integral_float_id(self, toy_case_file, tmp_path):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({"loads": [{"id": 1.0, "target_mw": 100.0}]}))
        argv = ["assess", "--case", toy_case_file, "--outages", "3", "--t-max", "30",
                "--attempts", "5", "--strategy"]
        assert run_cli([*argv, str(strategy), "--out", str(tmp_path / "a")]) == 0
        strategy.write_text(json.dumps({"loads": [{"id": 1, "target_mw": 100.0}]}))
        assert run_cli([*argv, str(strategy), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "tree.csv").read_text()
                == (tmp_path / "b" / "tree.csv").read_text())

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

    def test_optimal_lp_without_basis_exits_4(self, toy_case_file, tmp_path, monkeypatch,
                                              capsys):
        class NoBasis(core._Highs):
            def getBasis(self):
                basis = super().getBasis()
                basis.valid = False
                return basis

        monkeypatch.setattr(core, "_Highs", NoBasis)
        code = run_cli(["assess", "--case", toy_case_file, "--outages", "3",
                        "--out", str(tmp_path / "o")])
        assert code == 4
        assert "internal error: HiGHS reports an optimal LP without a valid basis" in (
            capsys.readouterr().err)

    @staticmethod
    def _toy6_branch1_y(tmp_path, y):
        doc = json.loads(serialize_case(cases.toy6()))
        next(br for br in doc["branches"] if br["id"] == 1)["y"] = y
        f = tmp_path / "case.json"
        f.write_text(json.dumps(doc))
        return ["assess", "--case", str(f), "--tau-d", "15", "--t-max", "30",
                "--out", str(tmp_path / "o")]

    def test_singular_island_system_exits_2(self, tmp_path, capsys):
        # y = 1e-17 passes the case check (y > 0), but next to the other
        # branches' y it leaves the island's susceptance matrix singular
        assert run_cli(self._toy6_branch1_y(tmp_path, 1e-17)) == 2
        assert ("error: singular island system (island of buses [1, 2, 3, 4, 5, 6])"
                in capsys.readouterr().err)

    def test_overflowing_admittance_sum_exits_2_without_warning(self, tmp_path, capsys):
        # branches 1 and 2 both end at bus 3, and 1e308 + 1e308 is not finite:
        # the case check names the branch before any numpy sum overflows
        doc = json.loads(serialize_case(cases.toy6()))
        for br in doc["branches"]:
            if br["id"] in (1, 2):
                br["y"] = 1e308
        f = tmp_path / "case.json"
        f.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["assess", "--case", str(f), "--tau-d", "15", "--t-max", "30",
                            "--out", str(tmp_path / "o")]) == 2
        assert ("error: branch admittance overflows the susceptance sum at bus 3 "
                "[branch 2]" in capsys.readouterr().err)

    def test_ill_conditioned_island_system_only_warns(self, tmp_path):
        with pytest.warns(IllConditionedIsland, match=r"island of buses \[.*rcond = "):
            assert run_cli(self._toy6_branch1_y(tmp_path, 1e300)) == 0
        assert (tmp_path / "o" / "summary.json").exists()


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

    @pytest.fixture()
    def interior_strategy(self, tmp_path):
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
        return str(strategy)

    def test_validate_gradient_sampled(self, toy_case_file, interior_strategy, tmp_path):
        out = tmp_path / "v"
        code = run_cli([
            "validate-gradient", "--case", toy_case_file, "--outages", "3",
            "--tau-d", "15", "--t-max", "30", "--policy", "probability-sampled",
            "--attempts", "40", "--seed", "17", "--strategy", interior_strategy,
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is True
        assert report["checked_components"] >= 4

    def test_validate_gradient_report(self, toy_case_file, interior_strategy, tmp_path):
        out = tmp_path / "v"
        code = run_cli([
            "validate-gradient", "--case", toy_case_file, "--outages", "3",
            "--tau-d", "15", "--t-max", "30", "--policy", "exhaustive",
            "--attempts", "300", "--strategy", interior_strategy,
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


# Library config settings: each bad value raises a ValueError naming its key.
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_NOT_NUMBERS = st.sampled_from([True, False, "1", "x", None, [1.0]])
_NEGATIVE = st.floats(max_value=-1e-12, allow_nan=False, allow_infinity=False)
_NON_INTEGRAL = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: not v.is_integer())
_BAD_FLOAT = st.one_of(_NON_FINITE, _NOT_NUMBERS, _NEGATIVE, st.integers(max_value=-1))
_BAD_INT = st.one_of(_NON_FINITE, _NOT_NUMBERS, _NON_INTEGRAL, st.integers(max_value=-1))
_BAD_SETTINGS = {
    (AssessmentConfig, "tau_d"): st.one_of(_BAD_FLOAT, st.just(0.0)),
    (AssessmentConfig, "t_max"): st.one_of(_BAD_FLOAT, st.floats(0.0, 14.99)),
    (AssessmentConfig, "attempts"): st.one_of(_BAD_INT, st.just(0)),
    (AssessmentConfig, "seed"): _BAD_INT,
    (AssessmentConfig, "policy"): st.text().filter(lambda p: p not in POLICIES),
    (AssessmentConfig, "threshold"): st.one_of(
        _NON_FINITE, _NEGATIVE, st.sampled_from([True, "x", "Auto", [1e-5]])),
    (RmConfig, "delta_r"): st.one_of(
        _NON_FINITE, st.sampled_from([True, "x", {}]),
        st.lists(st.one_of(_NON_FINITE, st.sampled_from([True, "x", None])), min_size=1)
        .flatmap(lambda bad: st.permutations([50000.0, *bad]))),
    (RmConfig, "epsilon_stop"): st.one_of(_NON_FINITE, _NEGATIVE, st.sampled_from([True, "1"])),
    (RmConfig, "max_iterations"): _BAD_INT,
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bad_setting_raises_named_error(data):
    cls, key = data.draw(st.sampled_from(list(_BAD_SETTINGS)))
    value = data.draw(_BAD_SETTINGS[cls, key])
    with pytest.raises(ValueError) as exc:
        cls(**{key: value})
    assert key in str(exc.value)


def test_t_max_over_tau_d_must_be_finite():
    # 1e308 / 1e-300 overflows, so the tree would have no finite depth
    with pytest.raises(ValueError, match="config key 't_max' must be a finite multiple"):
        AssessmentConfig(tau_d=1e-300, t_max=1e308)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(
    tau_d=st.floats(1e-3, 1e3), horizon=st.floats(1.0, 20.0),
    attempts=st.integers(1, 10**6), seed=st.integers(0, 2**63),
    policy=st.sampled_from(POLICIES),
    threshold=st.one_of(st.just("auto"), st.none(), st.integers(0, 5), st.floats(0.0, 1.0)),
    delta_r=st.one_of(st.none(), st.integers(), _FINITE, st.lists(_FINITE)),
    epsilon_stop=st.one_of(st.none(), st.floats(0.0, 1e12)),
    max_iterations=st.integers(0, 100),
)
def test_valid_settings_construct(tau_d, horizon, attempts, seed, policy, threshold,
                                  delta_r, epsilon_stop, max_iterations):
    assessment = AssessmentConfig(
        tau_d=tau_d, t_max=tau_d * horizon, attempts=attempts, policy=policy, seed=seed,
        threshold=threshold,
    )
    RmConfig(delta_r=delta_r, epsilon_stop=epsilon_stop, max_iterations=max_iterations,
             assessment=assessment)


def test_operation_after_import_loads_no_module(fresh_python, toy_case_file, tmp_path):
    # numpy 2 loads numpy.random on first use; import work done then would
    # be timed as part of the first operation instead of the set-up
    out = fresh_python(
        "import sys, gridrisk.cli\n"
        "before = set(sys.modules)\n"
        f"code = gridrisk.cli.main(['assess', '--case', {toy_case_file!r},"
        f" '--out', {str(tmp_path / 'o')!r}])\n"
        "added = sorted(set(sys.modules) - before)\n"
        "print(code, [m for m in added if m.split('.')[0] in ('numpy', 'scipy', 'gridrisk')])\n"
    )
    assert out.splitlines()[-1] == "0 []"
