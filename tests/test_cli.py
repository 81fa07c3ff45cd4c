"""End-to-end command-line checks through cli_main."""

import json

import numpy as np
import pytest

from chargeqfi import dynamics
from chargeqfi.cli import cli_main
from chargeqfi.model import SystemParams
from chargeqfi.qfi import EstimandTag, d_rho, spectral_derivative

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
    # one propagate_many call over the grid, in chunks of at most 128 generators
    pytest.param(["evolve", "--points", "201", *REF_FLAGS], [128, 73], id="evolve"),
    pytest.param(["audit", "--points", "21", *REF_FLAGS], [21], id="audit"),
    # the base, +h and -h states in one stack
    pytest.param(lambda: spectral_derivative(P_REF, 2.0, EstimandTag.GAMMA), [3],
                 id="spectral_derivative"),
    pytest.param(lambda: d_rho(P_REF, 2.0, EstimandTag.GAMMA), [2], id="d_rho"),
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


def test_sweep_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimand": "em", "bogus": 1}), encoding="utf-8")
    code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 1
    assert "bogus" in err


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
    # JSON true/false are neither parameter values nor worker counts
    sweep = {"estimand": "gamma", "points": 3, "axis_start": 0.5, "axis_end": 1}
    for entry, name in (({"gamma": True, "parallelism": True}, "gamma"),
                        ({"ej": False}, "e_j1"), ({"parallelism": True}, "parallelism")):
        cfg.write_text(json.dumps({**sweep, **entry}))
        code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 1 and out == "" and err.startswith(f"error: {name} must be")


@pytest.mark.parametrize("env,flags,name", [
    ("0", [], "QFI_DEPHASE_THREADS"),
    ("abc", [], "QFI_DEPHASE_THREADS"),
    (None, ["--parallelism", "0"], "parallelism"),
])
def test_bad_parallelism_is_a_usage_error(tmp_path, monkeypatch, capsys, env, flags, name):
    if env is None:
        monkeypatch.delenv("QFI_DEPHASE_THREADS", raising=False)
    else:
        monkeypatch.setenv("QFI_DEPHASE_THREADS", env)
    code, _, err = run_cli(["sweep", "--param", "gamma", "--points", "3", "--axis-start", "0.1",
                            "--axis-end", "1", *flags], capsys)
    assert code == 1 and name in err
    out_dir = tmp_path / "figures"
    code, _, err = run_cli(["figure", "fig1a", "--out", str(out_dir), *flags], capsys)
    assert code == 1 and name in err
    assert not out_dir.exists()


def test_numerical_failures_exit_2(capsys):
    # gamma too small for a symmetric gamma step: a domain failure in the
    # computation, not a malformed invocation
    code, _, err = run_cli(["qfi", "--param", "gamma", "--gamma", "0.00005"], capsys)
    assert code == 2
    assert "numerical contract failure" in err


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "evolve" in out and "sweep" in out
