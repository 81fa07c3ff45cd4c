"""End-to-end command-line checks through cli_main."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chargeqfi
from chargeqfi import dynamics
from chargeqfi.cli import cli_main
from chargeqfi.model import SystemParams
from chargeqfi.qfi import FD_STEP_DEFAULT, EstimandTag, d_rho, spectral_derivative
from chargeqfi.sweeps import AXES

REF_FLAGS = ["--gamma", "0.4", "--e", "0.1"]


def run_cli(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qfi_json_payload(capsys):
    code, out, _ = run_cli(["qfi", "--param", "gamma", "--t", "2.0", *REF_FLAGS], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["estimand"] == "gamma"
    assert abs(payload["f_total"] - (payload["f_c"] + payload["f_p"] - payload["f_m"])) < 1e-12
    assert abs(payload["f_total"] - payload["sld"]) / payload["sld"] < 1e-4
    assert abs(payload["crb"] * payload["f_total"] - 1.0) < 1e-10
    assert payload["params"]["ej"] == 0.1 and payload["params"]["em"] == 0.1
    assert payload["n_clamped"] == 0


P_REF = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)


@pytest.mark.parametrize("call,batches", [
    # one propagate_checked call over the grid, in chunks of at most 128 generators
    pytest.param(["evolve", "--points", "201", *REF_FLAGS], [128, 73], id="evolve"),
    pytest.param(["audit", "--points", "21", *REF_FLAGS], [21], id="audit"),
    # the base, +h and -h states in one stack; d_rho reports the base state's
    # contract fault too, as qfi_sld does
    pytest.param(lambda: spectral_derivative(P_REF, 2.0, EstimandTag.GAMMA), [3],
                 id="spectral_derivative"),
    pytest.param(lambda: d_rho(P_REF, 2.0, EstimandTag.GAMMA), [3], id="d_rho"),
    # the same three states serve both the breakdown and the SLD value
    pytest.param(["qfi", "--param", "gamma", "--t", "2.0", *REF_FLAGS], [3], id="qfi"),
])
def test_expm_batches(monkeypatch, capsys, call, batches):
    """Generators per expm_states call; call is a CLI argv or a library call."""
    sizes = []

    def counting_expm_states(rho0, generators):
        sizes.append(len(generators))
        return real_expm_states(rho0, generators)

    real_expm_states = dynamics.expm_states
    monkeypatch.setattr(dynamics, "expm_states", counting_expm_states)
    if callable(call):
        call()
    else:
        assert run_cli(call, capsys)[0] == 0
    assert sizes == batches


def test_qfi_crb_is_inf_string_at_t0(capsys):
    code, out, _ = run_cli(["qfi", "--param", "em", "--t", "0.0", *REF_FLAGS], capsys)
    assert code == 0
    assert json.loads(out)["crb"] == "inf"


def test_qfi_explicit_ej_beats_shorthand(capsys):
    code, out, _ = run_cli(["qfi", "--param", "gamma", "--e", "0.2", "--ej", "0.1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["ej"] == 0.1
    assert payload["params"]["em"] == 0.2


def test_evolve_csv_layout(capsys):
    code, out, _ = run_cli(["evolve", "--t-max", "2.0", "--points", "3", *REF_FLAGS], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1:5] == ["rho_re_11", "rho_im_11", "rho_re_12", "rho_im_12"]
    assert len(header) == 33
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    # Bell state: entries (2,2), (2,3), (3,2), (3,3) are 0.5
    row = np.array(first[1:]).reshape(4, 4, 2)
    assert row[1, 1, 0] == 0.5 and row[1, 2, 0] == 0.5
    assert np.all(row[:, :, 1] == 0.0)
    assert abs(sum(row[i, i, 0] for i in range(4)) - 1.0) < 1e-12


def test_sweep_stdout_and_file_agree(tmp_path, capsys):
    args = ["sweep", "--param", "gamma", "--axis", "time", "--axis-start", "0",
            "--axis-end", "1", "--points", "3", *REF_FLAGS]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    target = tmp_path / "sweep.csv"
    code2, _, _ = run_cli([*args, "--out", str(target)], capsys)
    assert code2 == 0
    assert target.read_text(encoding="utf-8") == out
    assert out.startswith("axis,f_total,f_c,f_p,f_m,crb\n")


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "estimand": "em", "axis": "time", "axis_start": 0.0, "axis_end": 2.0,
        "points": 5, "gamma": 0.4, "e": 0.1, "output_format": "json",
    }), encoding="utf-8")
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--points", "3"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["config"]["estimand"] == "em"
    assert parsed["config"]["points"] == 3          # flag wins over file
    assert parsed["config"]["axis_end"] == 2.0      # file wins over default
    assert len(parsed["rows"]) == 3


# each sweep config key: its flag, a flag value, a file value and the default
# (the estimand has none); every key is echoed in the sweep JSON config block
PRECEDENCE = [
    ("gamma", "--gamma", 0.3, 0.35, 0.4),
    ("ej", "--ej", 0.15, 0.25, 0.1),
    ("em", "--em", 0.15, 0.25, 0.1),
    ("ec1", "--ec1", 1.1, 1.2, 1.0),
    ("ec2", "--ec2", 1.1, 1.2, 1.0),
    ("ng1", "--ng1", 0.45, 0.55, 0.5),
    ("ng2", "--ng2", 0.45, 0.55, 0.5),
    ("estimand", "--param", "em", "ej", None),
    ("axis", "--axis", "gamma", "em", "time"),
    ("axis_start", "--axis-start", 1.0, 2.0, 0.0),
    ("axis_end", "--axis-end", 3.0, 4.0, 10.0),
    ("points", "--points", 3, 4, 101),
    ("t", "--t", 1.5, 2.5, 1.0),
    ("fd_step", "--fd-step", 2e-4, 3e-4, FD_STEP_DEFAULT),
]


def run_sweep_cli(tmp_path, capsys, flags, file_cfg):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg), encoding="utf-8")
    return run_cli(["sweep", "--config", str(cfg), *flags], capsys)


@pytest.mark.parametrize("key,flag,flag_value,file_value,default", PRECEDENCE,
                         ids=[case[0] for case in PRECEDENCE])
def test_sweep_setting_precedence(tmp_path, capsys, key, flag, flag_value, file_value, default):
    """A flag beats the config file, which beats the default."""
    # the other settings: estimand gamma and 2 points, unless under test
    base = {name: value for name, value in (("estimand", "gamma"), ("points", 2)) if name != key}
    for flags, file_cfg, expected in (([flag, str(flag_value)], {key: file_value}, flag_value),
                                      ([], {key: file_value}, file_value),
                                      ([], {}, default)):
        code, out, err = run_sweep_cli(tmp_path, capsys, [*flags, "--format", "json"],
                                       {**base, **file_cfg})
        if expected is None:
            assert (code, out) == (1, "") and "an estimand is required" in err
        else:
            assert code == 0, err
            assert json.loads(out)["config"][key] == expected


@pytest.mark.parametrize("name,other", [("ej", "em"), ("em", "ej")])
def test_sweep_e_shorthand_precedence(tmp_path, capsys, name, other):
    """--e (flag, then file) stands in for the ej and em defaults only."""
    base = {"estimand": "gamma", "points": 2}
    for flags, file_cfg, expected, expected_other in (
            (["--e", "0.2"], {}, 0.2, 0.2),                      # --e beats the default
            ([], {"e": 0.3}, 0.3, 0.3),                          # --e given in the file
            (["--e", "0.2"], {"e": 0.3}, 0.2, 0.2),              # the flag's --e beats the file's
            (["--e", "0.2"], {name: 0.25}, 0.25, 0.2),           # the file beats --e
            ([], {name: 0.25, "e": 0.3}, 0.25, 0.3),
            ([f"--{name}", "0.15", "--e", "0.2"], {name: 0.25, "e": 0.3}, 0.15, 0.2)):
        code, out, err = run_sweep_cli(tmp_path, capsys, [*flags, "--format", "json"],
                                       {**base, **file_cfg})
        assert code == 0, err
        config = json.loads(out)["config"]
        assert (config[name], config[other]) == (expected, expected_other)


def test_sweep_output_format_precedence(tmp_path, capsys):
    """The output format is a command-line setting: --format beats the file's
    output_format, which beats CSV; the JSON config block does not echo it."""
    base = {"estimand": "gamma", "points": 2}
    for flags, file_cfg, expected in ((["--format", "csv"], {"output_format": "json"}, "csv"),
                                      (["--format", "json"], {"output_format": "csv"}, "json"),
                                      ([], {"output_format": "json"}, "json"),
                                      ([], {"output_format": "csv"}, "csv"),
                                      ([], {}, "csv")):
        code, out, err = run_sweep_cli(tmp_path, capsys, flags, {**base, **file_cfg})
        assert code == 0, err
        if expected == "csv":
            assert out.startswith("axis,f_total,f_c,f_p,f_m,crb\n")
        else:
            assert set(json.loads(out)["config"]).isdisjoint({"output_format", "parallelism"})


def test_sweep_config_rejects_output_format(tmp_path, capsys):
    code, out, err = run_sweep_cli(tmp_path, capsys, [],
                                   {"estimand": "gamma", "output_format": "yaml"})
    assert (code, out) == (1, "")
    assert err == "error: output_format must be one of ('csv', 'json'), got 'yaml'\n"


def test_sweep_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for key in ("bogus", "parallelism"):
        cfg.write_text(json.dumps({"estimand": "em", key: 1}), encoding="utf-8")
        code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: unknown config keys: [{key!r}]\n"


def test_sweep_config_read_failures(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(["sweep", "--config", str(missing)], capsys)
    assert code == 1 and out == "" and err.startswith(f"error: cannot read config {missing}: ")
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{bad", encoding="utf-8")
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 1 and out == "" and err.startswith(f"error: cannot read config {cfg}: ")
    cfg.write_text("[1, 2]", encoding="utf-8")
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 1 and out == "" and err == "error: config file must hold a flat JSON object\n"


def test_sweep_requires_estimand(capsys):
    code, _, err = run_cli(["sweep", "--axis", "time"], capsys)
    assert code == 1
    assert "estimand" in err


def test_figure_writes_one_csv_per_curve(tmp_path, capsys):
    code, _, _ = run_cli(["figure", "fig1a", "--points", "50",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["fig1a_e0.05.csv", "fig1a_e0.1.csv", "fig1a_e0.2.csv"]
    body = (tmp_path / "fig1a_e0.1.csv").read_text(encoding="utf-8")
    assert body.count("\n") == 51
    assert "\r" not in body


@pytest.mark.parametrize("command,target", [
    # a file under a missing directory, and an output directory that is a file
    pytest.param(["qfi", "--param", "gamma"], "missing/x.json", id="qfi"),
    pytest.param(["figure", "fig2a", "--points", "50"], "taken", id="figure"),
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command, target):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    out_path = tmp_path / target
    code, out, err = run_cli([*command, "--out", str(out_path)], capsys)
    assert (code, out) == (1, "") and err.startswith(f"error: cannot write {out_path}: ")
    assert [f.name for f in tmp_path.iterdir()] == ["taken"]
    assert (tmp_path / "taken").read_text(encoding="utf-8") == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [
    # a short output fails at the flush, a long one at the write
    pytest.param(["qfi", "--param", "gamma"], id="qfi"),
    pytest.param(["evolve", "--points", "5000"], id="evolve"),
    pytest.param(["qfi", "--help"], id="qfi-help"),
])
def test_full_stdout_is_a_usage_error(command):
    src = str(Path(chargeqfi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "chargeqfi.cli", *command], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    # one line, and no second error from the interpreter's final flush
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write stdout: [Errno 28] ")
    assert proc.stderr.count("\n") == 1


def test_audit_json_output(capsys):
    code, out, _ = run_cli(["audit", "--t-max", "2.0", "--points", "3", *REF_FLAGS], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] in ("consistent", "inconsistent")
    assert payload["max_abs_deviation"] > 0.0
    assert payload["grid"] == [0.0, 1.0, 2.0]


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli(["qfi"], capsys)[0] == 1                       # missing --param
    assert run_cli(["qfi", "--param", "gamma", "--bogus"], capsys)[0] == 1
    assert run_cli(["qfi", "--param", "gamma", "--gamma", "-1"], capsys)[0] == 1
    assert run_cli(["qfi", "--param", "gamma", "--t", "-2"], capsys)[0] == 1
    assert run_cli(["figure", "fig1a", "--points", "10"], capsys)[0] == 1
    assert run_cli(["evolve", "--points", "1"], capsys)[0] == 1
    # non-finite and out-of-range option values
    for value in ("inf", "nan"):
        assert run_cli(["evolve", "--t-max", value, "--points", "3"], capsys)[0] == 1
        assert run_cli(["audit", "--t-max", value, "--points", "3"], capsys)[0] == 1
        assert run_cli(["qfi", "--param", "gamma", "--t", value], capsys)[0] == 1
        assert run_cli(["audit", "--tol", value, "--points", "3"], capsys)[0] == 1
        assert run_cli(["sweep", "--param", "gamma", "--axis-end", value], capsys)[0] == 1
    code, _, err = run_cli(["sweep", "--param", "gamma", "--axis", "gamma", "--axis-start=-1e308",
                            "--axis-end=1e308", "--points", "3"], capsys)
    assert code == 1 and err.startswith("error: axis_end - axis_start must be finite")
    assert run_cli(["qfi", "--param", "gamma", "--fd-step", "1"], capsys)[0] == 1
    assert run_cli(["audit", "--tol", "0", "--points", "3"], capsys)[0] == 1
    out_dir = tmp_path / "figures"
    assert run_cli(["figure", "fig1a", "--fd-step", "1", "--out", str(out_dir)], capsys)[0] == 1
    assert not out_dir.exists()
    # wrongly typed config-file values are usage errors, not tracebacks
    cfg = tmp_path / "cfg.json"
    for entry in ({"points": 3.5}, {"points": 5.0}, {"points": "5"}, {"points": True},
                  {"t": "1"}, {"axis_end": "5"}, {"fd_step": "0.001"}):
        cfg.write_text(json.dumps({"estimand": "gamma", **entry}))
        code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 1 and err.startswith(f"error: {next(iter(entry))} must be")
    # JSON true/false are not parameter values
    sweep = {"estimand": "gamma", "points": 3, "axis_start": 0.5, "axis_end": 1}
    for entry, name in (({"gamma": True}, "gamma"), ({"ej": False}, "ej")):
        cfg.write_text(json.dumps({**sweep, **entry}))
        code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 1 and out == "" and err.startswith(f"error: {name} must be")
    # a model value is checked under the name it was given, not its SystemParams field
    for flags, name in ((["--ej", "nan"], "ej"), (["--e", "inf"], "ej"), (["--em", "nan"], "em"),
                        (["--ec1", "inf"], "ec1"), (["--ng1", "inf"], "ng1"), (["--ng2", "nan"], "ng2")):
        code, out, err = run_cli(["qfi", "--param", "gamma", *flags], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {name} must be a finite real number, got {float(flags[1])!r}\n"


def test_parallelism_is_not_an_option(tmp_path, capsys):
    # sweeps run serially, so no command takes a worker count
    code, out, err = run_cli(["sweep", "--param", "gamma", "--parallelism", "2"], capsys)
    assert code == 1 and out == ""
    assert err == "error: unrecognized arguments: --parallelism 2\n"
    out_dir = tmp_path / "figures"
    code, out, err = run_cli(["figure", "fig1a", "--parallelism", "2", "--out", str(out_dir)],
                             capsys)
    assert code == 1 and out == ""
    assert err == "error: unrecognized arguments: --parallelism 2\n"
    assert not out_dir.exists()


def test_numerical_failures_exit_2(capsys):
    # gamma too small for a symmetric gamma step: a domain failure in the
    # computation, not a malformed invocation
    code, _, err = run_cli(["qfi", "--param", "gamma", "--gamma", "0.00005"], capsys)
    assert code == 2
    assert "numerical contract failure" in err
    # expm(L t) overflows long before t = 1e300: the state contract fails
    # and nothing is written
    for command in ("evolve", "audit"):
        code, out, err = run_cli([command, "--t-max", "1e300", "--points", "3"], capsys)
        assert (code, out) == (2, "")
        assert err == "numerical contract failure: state has non-finite entries\n"


def test_audit_reports_closed_form_overflow(capsys):
    # the closed form overflows from t ~ 887.2 at the default point; the
    # report lists those times as failures instead of dying
    code, out, err = run_cli(["audit", "--t-max", "1000"], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert [entry["t"] for entry in payload["failures"]] == [900.0, 950.0, 1000.0]
    assert payload["verdict"] == "inconsistent"


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "evolve" in out and "sweep" in out
    # the --param and --axis choices are the estimands and sweeps.AXES
    estimands = "{" + ",".join(eta.value for eta in EstimandTag) + "}"
    assert estimands == "{gamma,ej,em}" and AXES == ("time", "gamma", "ej", "em")
    for command in ("qfi", "sweep"):
        assert cli_main([command, "--help"]) == 0
        assert f"--param {estimands}" in capsys.readouterr().out
    assert cli_main(["sweep", "--help"]) == 0
    assert "--axis {" + ",".join(AXES) + "}" in capsys.readouterr().out
