import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conedyn import cli, registry, reports
from conedyn.cli import Scenario, load_scenario, run, save_scenario, validate_scenario
from conedyn.errors import ScenarioError
from helpers import blowup_rotation


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- scenarios


def test_scenario_minimal_defaults(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"system": "coop2d", "experiment": "converge"}')
    s = load_scenario(str(p))
    assert s.T == 100.0 and s.dt == 1e-3 and s.N == 1000 and s.seed == 0


def test_scenario_unknown_system_named(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"system": "nope"}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(p))
    assert any(prob.startswith("system") for prob in err.value.problems)


def test_scenario_collects_every_violation():
    with pytest.raises(ScenarioError) as err:
        validate_scenario({"system": "nope", "T": -1, "bogus": 1, "seed": -2})
    joined = "\n".join(err.value.problems)
    for frag in ("system", "T", "bogus", "seed"):
        assert frag in joined
    assert len(err.value.problems) >= 4


def test_scenario_parse_error_has_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"system": }')
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(p))
    assert "line" in err.value.problems[0]


def test_scenario_roundtrip(tmp_path):
    # no experiment reads both N and x0: dichotomy reads N, trichotomy x0
    for experiment, extra in (("dichotomy", {"N": 17}),
                              ("trichotomy", {"x0": [0.5, 0.5]})):
        s = Scenario(system="coop2d", experiment=experiment, T=42.0,
                     dt=1e-2, seed=3, **extra)
        p = tmp_path / f"{experiment}.json"
        save_scenario(s, str(p))
        assert load_scenario(str(p)) == s


# ------------------------------------------------------------------- runs


def test_list_names_all_systems(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("coop2d", "metzler_linear", "rotation2d", "bistable1d",
                 "spd_lyapunov"):
        assert name in out


def test_check_dp_coop2d_sdp(tmp_path):
    out = tmp_path / "dp.json"
    code = run(["check-dp", "--system", "coop2d", "--field", "orthant",
                "--seed", "7", "--n", "30", "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["status"] == "SDP"
    assert rep["exit_code"] == 0
    reports.validate_report(rep)


def test_check_dp_rotation_violated(tmp_path):
    out = tmp_path / "dp.json"
    code = run(["check-dp", "--system", "rotation2d", "--n", "10",
                "--out", str(out)])
    assert code == 1
    assert read_json(out)["status"] == "violated"


def test_converge_rotation_control_case(tmp_path):
    out = tmp_path / "c.json"
    code = run(["converge", "--system", "rotation2d", "--n", "10",
                "--T", "50", "--out", str(out)])
    assert code == 1
    rep = read_json(out)
    assert rep["status"] == "violated"  # missing SDP precondition flagged
    assert rep["counts"]["converged"] == 0
    reports.validate_report(rep)


def test_converge_writes_csv(tmp_path):
    out = tmp_path / "c.json"
    csv_path = tmp_path / "c.csv"
    code = run(["converge", "--system", "coop2d", "--n", "5", "--T", "60",
                "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("index,x0_0,x0_1,outcome")
    assert lines[0].endswith(",residual,certified_at")
    assert len(lines) == 6  # header + 5 samples
    rows = list(csv.DictReader(lines))
    certified = [r for r in rows if r["certified_at"] != ""]
    assert certified  # coop2d rows settle long before the tail at t = 45
    assert read_json(out)["counts"]["certified"] == len(certified)
    assert all(r["outcome"] == "converged" for r in certified)


def test_scenario_file_drives_run(tmp_path):
    scen = tmp_path / "scen.json"
    out = tmp_path / "r.json"
    scen.write_text(json.dumps({
        "system": "coop2d", "experiment": "converge", "N": 5, "T": 60.0,
        "out": str(out)}))
    assert run(["converge", "--scenario", str(scen)]) == 0
    rep = read_json(out)
    assert rep["report_type"] == "converge"
    assert rep["counts"]["total"] == 5


def test_explicit_flags_override_scenario(tmp_path):
    scen = tmp_path / "scen.json"
    out = tmp_path / "r.json"
    scen.write_text(json.dumps({
        "system": "coop2d", "experiment": "converge", "N": 5, "T": 60.0}))
    assert run(["converge", "--scenario", str(scen), "--n", "3",
                "--out", str(out)]) == 0
    assert read_json(out)["counts"]["total"] == 3


def test_pf_reports_direction(tmp_path):
    out = tmp_path / "pf.json"
    code = run(["pf", "--system", "coop2d", "--T", "20", "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    assert len(rep["direction"]) == 2
    assert rep["final_distance"] >= 0.0


def test_dichotomy_cli(tmp_path):
    out = tmp_path / "d.json"
    code = run(["dichotomy", "--system", "coop2d", "--n", "20", "--T", "60",
                "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["counts"]["violations"] == 0


def test_criterion_cli(tmp_path):
    out = tmp_path / "cr.json"
    code = run(["criterion", "--system", "bistable1d", "--n", "20",
                "--T", "60", "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["counts"]["triggered"] == rep["counts"]["confirmed"]


def test_trichotomy_cli(tmp_path):
    out = tmp_path / "t.json"
    code = run(["trichotomy", "--system", "coop2d", "--x0", "1,1",
                "--T", "60", "--out", str(out)])
    assert code == 0
    assert read_json(out)["branch"] == 2


def test_order_cli(tmp_path):
    out = tmp_path / "o.json"
    assert run(["order", "--n", "100", "--out", str(out)]) == 0
    assert read_json(out)["counts"]["violations"] == 0


def test_causal_cli(tmp_path):
    out = tmp_path / "m.json"
    assert run(["causal", "--n", "100", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["agreement"] >= 0.99
    assert rep["counts"]["violations"] == 0


def test_identical_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["dichotomy", "--system", "coop2d", "--n", "10", "--T", "60",
            "--seed", "5"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_exit_2(tmp_path):
    assert run(["no-such-command"]) == 2
    assert run(["check-dp", "--system", "unknown_system"]) == 2
    assert run(["trichotomy", "--system", "coop2d", "--x0", "a,b"]) == 2
    scen = tmp_path / "bad.json"
    scen.write_text('{"system": "coop2d", "experiment": "converge", "T": -5}')
    assert run(["converge", "--scenario", str(scen)]) == 2


_CONVERGE = ["converge", "--system", "coop2d", "--n", "5"]


@pytest.mark.parametrize("argv,bad", [
    (_CONVERGE + ["--T", "nan"], None),
    (_CONVERGE + ["--T", "inf"], None),
    (_CONVERGE + ["--dt", "nan"], None),
    (None, {"T": float("nan")}),
    (None, {"T": float("-inf")}),
    (None, {"dt": float("inf")}),
    (None, {"dt": "1e-3"}),
    (None, {"T": True}),
    (None, {"dt": False}),
    (None, {"N": True}),
    (None, {"N": 2.7}),
    (None, {"N": "5"}),
    (["pf", "--system", "coop2d", "--T", "1", "--x0", "nan,1"], None),
    (None, {"system": ["coop2d"]}),
], ids=["T-nan", "T-inf", "dt-nan", "file-T-nan", "file-T-neg-inf",
        "file-dt-inf", "file-dt-string", "file-T-bool", "file-dt-bool",
        "file-N-bool", "file-N-fraction", "file-N-string", "x0-nan",
        "file-system-list"])
def test_invalid_scenario_values_exit_2(tmp_path, capsys, argv, bad):
    args = argv
    if bad is not None:
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"system": "coop2d", "N": 5, "T": 1.0,
                                    **bad}))
        args = ["converge", "--scenario", str(scen)]
    assert run(args) == 2
    assert "scenario error" in capsys.readouterr().err


def _constant(cone):
    return json.dumps({"field": "constant", "cone": cone})


@pytest.mark.parametrize("system,spec", [
    ("coop2d", "{bad"),
    ("coop2d", _constant({"type": "orthant"})),
    ("coop2d", _constant({"type": "polyhedral",
                          "generators": [[1, 0], [0, 1]]})),
    ("coop2d", _constant({"type": "orthant", "n": "x"})),
    ("coop2d", _constant({"type": "orthant", "n": 2.7})),
    ("coop2d", _constant({"type": "polyhedral",
                          "generators": [[1, 0], [0, float("nan")]],
                          "facet_normals": [[1, 0], [0, 1]]})),
    ("coop2d", _constant({"type": "polyhedral", "generators": [[0, 1]],
                          "facet_normals": [[1, -1]]})),
    ("coop2d", _constant({"type": "polyhedral",
                          "generators": [[1, 0], [-1, 0]],
                          "facet_normals": [[0, 1]]})),
    ("coop2d", json.dumps({"field": "constant"})),
    ("coop2d", json.dumps({"field": "homogeneous_spd", "n": 10 ** 11})),
    # the token "psd" is refused on a flat system; its JSON form must be too
    ("bistable1d", json.dumps({"field": "homogeneous_spd", "n": 1})),
], ids=["bad-json", "missing-n", "missing-facet-normals", "n-string",
        "n-fraction", "nan-generator", "inconsistent", "unpointed",
        "missing-cone", "huge-spd-n", "spd-field-on-flat-system"])
def test_malformed_field_specs_exit_2(capsys, system, spec):
    assert run(["pf", "--system", system, "--T", "1", "--field", spec]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_field_dimension_is_checked_before_building(capsys):
    # an orthant of this size would allocate I_n before any check fired
    spec = _constant({"type": "orthant", "n": 10 ** 11})
    assert run(["pf", "--system", "coop2d", "--T", "1", "--field", spec]) == 2
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "orthant", "lorentz", _constant({"type": "orthant", "n": 3})])
def test_flat_field_on_spd_system_exits_2(capsys, spec):
    # a constant cone field is defined on flat space only, not on SPD(2)
    assert run(["check-dp", "--system", "spd_lyapunov", "--n", "5",
                "--field", spec]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("spec", [
    "psd", "{bad", json.dumps({"field": "constant",
                               "cone": {"type": "lorentz", "n": 2}})])
def test_order_refuses_fields_it_does_not_run(capsys, spec):
    assert run(["order", "--n", "10", "--field", spec]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_order_help_names_exactly_the_fields_order_runs(capsys):
    assert run(["order", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    field_help = re.search(r"--field FIELD (.*?) --", text).group(1)
    tokens = re.search(r"\w+(\|\w+)+", field_help).group(0).split("|")
    assert set(tokens) == {"orthant", "lorentz"}
    assert "psd" not in field_help and "JSON" not in field_help
    for token in tokens:
        assert run(["order", "--n", "10", "--field", token]) == 0


@pytest.mark.parametrize("extra", [["--field", "psd"], ["--system", "coop2d"],
                                   ["--field", "psd", "--system", "coop2d"]])
def test_causal_refuses_options_it_does_not_read(capsys, extra):
    assert run(["causal", "--n", "10"] + extra) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


# a valid value of each option, so that only the option itself is refused
_VALUES = {"scenario": "missing.json", "system": "coop2d", "field": "orthant",
           "seed": 1, "N": 5, "T": 1.0, "dt": 0.01, "x0": [1.0, 1.0],
           "out": "r.json", "csv": "r.csv"}
_UNREAD = [(command, key) for command, (_, reads) in cli.COMMANDS.items()
           for key in cli.OPTIONS if key not in reads]


@pytest.mark.parametrize("command,key", _UNREAD)
def test_an_option_a_command_does_not_read_exits_2(tmp_path, capsys,
                                                   command, key):
    flag, value = cli.OPTIONS[key][0], _VALUES[key]
    if key == "x0":
        value = "1,1"
    elif key in ("scenario", "csv"):
        value = tmp_path / value  # tmp_path must stay empty
    assert run([command, flag, str(value),
                "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and flag in err[0]
    assert list(tmp_path.iterdir()) == []  # no report, no CSV


@pytest.mark.parametrize("command,key", [
    (command, key) for command, key in _UNREAD if command != "list"])
def test_a_scenario_key_the_experiment_does_not_read_exits_2(
        tmp_path, capsys, command, key):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({key: _VALUES[key]}))
    assert run([command, "--scenario", str(scen)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:")
    assert f"{key}: not read by {command}" in err
    with pytest.raises(ScenarioError):
        validate_scenario({"experiment": command, key: _VALUES[key]})


def test_a_scenario_for_another_experiment_exits_2(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"experiment": "dichotomy",
                                "system": "coop2d", "N": 5}))
    assert run(["converge", "--scenario", str(scen)]) == 2
    assert "experiment:" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_lists_exactly_the_options_a_command_reads(capsys, command):
    assert run([command, "--help"]) == 0
    listed = set(re.findall(r"--\w+", capsys.readouterr().out))
    reads = cli.COMMANDS[command][1]
    assert listed == {"--help"} | {cli.OPTIONS[k][0] for k in reads}


def test_pf_tangent_overflow_exits_3(monkeypatch, capsys):
    # the rays' r part grows like r(t)^2 and overflows a step before r does
    monkeypatch.setitem(registry.SYSTEMS, "blowup_rotation", blowup_rotation)
    assert run(["pf", "--system", "blowup_rotation", "--field", "orthant",
                "--T", "3", "--x0", "2,1,0"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: tangent")


def test_a_huge_valid_pf_start_runs_cleanly(tmp_path, capsys):
    # 1e200 I is an SPD point; normalizing its section must not overflow
    # (RuntimeWarnings are errors under this suite's settings)
    out = tmp_path / "pf.json"
    assert run(["pf", "--system", "spd_lyapunov", "--x0", "1e200,0,1e200",
                "--T", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = read_json(out)
    assert report["converged"] and np.all(np.isfinite(report["direction"]))


@pytest.mark.parametrize("command", ["pf", "trichotomy"])
def test_x0_off_the_spd_chart_exits_2(capsys, command):
    # diag(1, -1) is symmetric but not positive definite
    assert run([command, "--system", "spd_lyapunov", "--T", "1",
                "--x0", "1,0,-1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: x0:")


def test_step_cap_rejects_unbounded_plans():
    # T/dt = 1e300 steps would never finish; the validator must refuse it
    with pytest.raises(ScenarioError) as err:
        validate_scenario({"system": "coop2d", "experiment": "pf",
                           "T": 1.0, "dt": 1e-300})
    assert any(p.startswith("dt:") for p in err.value.problems)
    with pytest.raises(ScenarioError):
        validate_scenario({"system": "coop2d", "T": 1e300, "dt": 1e-300})
    assert validate_scenario({"system": "coop2d", "T": 10.0,
                              "dt": 1e-6}).dt == 1e-6  # 1e7 steps: the cap


def test_python_m_conedyn_runs_cleanly():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "conedyn", "list"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0
    assert "coop2d" in proc.stdout
    assert proc.stderr == ""


def test_unwritable_output_exits_2(tmp_path):
    missing = tmp_path / "no_such_dir"
    assert run(["order", "--n", "10", "--out", str(missing / "r.json")]) == 2
    assert run(["converge", "--system", "coop2d", "--n", "3", "--T", "1",
                "--out", str(tmp_path / "r.json"),
                "--csv", str(missing / "r.csv")]) == 2


def test_handler_crash_exits_3_with_one_line(monkeypatch, capsys):
    def crash(scen):
        raise Exception("unexpected")
    monkeypatch.setitem(cli.COMMANDS, "order", (crash, cli.COMMANDS["order"][1]))
    assert run(["order"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "unexpected" in err[0]


def test_numeric_failure_exits_3():
    # rotation pushes the test rays out of the orthant: cone-exit error
    assert run(["pf", "--system", "rotation2d", "--T", "5"]) == 3


def test_reports_validate_against_shipped_schema(tmp_path):
    out = tmp_path / "r.json"
    run(["check-dp", "--system", "metzler_linear", "--n", "10",
         "--out", str(out)])
    rep = read_json(out)
    assert reports.schema_problems(rep) == []
    rep.pop("report_type")
    assert reports.schema_problems(rep) != []


def test_an_unresolvable_trichotomy_start_exits_3(tmp_path, capsys):
    # x0 = 1e300 is a valid point, but x0 - w/n rounds back to x0 in
    # float64, so no strictly increasing probe sequence can be built
    out = tmp_path / "t.json"
    assert run(["trichotomy", "--system", "coop2d", "--x0", "1e300,1e300",
                "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numeric failure: sequence is not strictly increasing"]
    assert not out.exists()


# ----------------------------------------------------------- hostile inputs

_HOSTILE_NUMBERS = ["nan", "inf", "0", "-1", "1e300", "1e-300"]
_DEGENERATE_CONES = {
    "zero-generator": {"type": "polyhedral", "generators": [[0, 0], [1, 0]],
                       "facet_normals": [[0, 1], [1, 0]]},
    "not-pointed": {"type": "polyhedral",
                    "generators": [[1, 0], [-1, 0], [0, 1]],
                    "facet_normals": [[0, 1]]},
    "wrong-dimension": {"type": "orthant", "n": 3},
}
# small runs of every command; a hostile option given after them wins
_SMALL = {"check-dp": ["--system", "coop2d", "--n", "3", "--T", "1"],
          "pf": ["--system", "coop2d", "--T", "1"],
          "converge": ["--system", "coop2d", "--n", "3", "--T", "1"],
          "dichotomy": ["--system", "coop2d", "--n", "3", "--T", "1"],
          "trichotomy": ["--system", "coop2d", "--T", "1"],
          "criterion": ["--system", "coop2d", "--n", "3", "--T", "1"],
          "order": ["--n", "20"], "causal": ["--n", "20"], "list": []}


def _hostile_cases():
    for command, (_, reads) in cli.COMMANDS.items():
        yield command, []
        for key in ("seed", "N", "T", "dt"):
            if key in reads:
                flag = cli.OPTIONS[key][0]
                yield from ((command, [f"{flag}={v}"])
                            for v in _HOSTILE_NUMBERS)
        if "x0" in reads:
            yield from ((command, [f"--x0={v},{v}"]) for v in _HOSTILE_NUMBERS)
            yield command, ["--x0=1,2,3"]  # coop2d is 2-d
            yield command, ["--system", "spd_lyapunov", "--x0=1,0,-1"]
        if "field" in reads:
            yield from ((command, ["--field", json.dumps(
                {"field": "constant", "cone": cone})])
                for cone in _DEGENERATE_CONES.values())
        if "dt" in reads:  # coop2d's RK4 is unstable far below this step
            yield command, ["--T", "400", "--dt", "4"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,extra", list(_hostile_cases()),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_hostile_inputs_exit_with_a_documented_code(tmp_path, capsys,
                                                    command, extra):
    out = tmp_path / "r.json"
    code = run([command, *_SMALL[command], *extra, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    for leak in ("internal error", "Traceback", "Warning"):
        assert leak not in err
    if code in (2, 3):
        assert not out.exists() and len(err.strip().splitlines()) >= 1
    elif command == "list":
        assert out.read_text().startswith("system")
    else:
        assert read_json(out)["exit_code"] == code
