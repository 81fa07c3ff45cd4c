"""Acceptance gate.

Each test prints exactly one line, "ACCEPTANCE <nn> [<name>] <verdict>: ...".
Criteria 1-4, 9 and 10 are hard requirements and fail the suite when violated.
Criteria 5-8 compare computed curves against qualitative claims about the
published figures; they report PASS or DIVERGENCE without failing, since the
published curves embody a closed form whose printed coefficients do not
reproduce the propagator (see the audit artifact checked by criterion 9).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from chargeqfi.cli import cli_main
from chargeqfi.dynamics import propagate_expm, propagate_rk
from chargeqfi.model import SystemParams, as_matrix, bell_state_psi_plus, max_abs_diff
from chargeqfi.qfi import EstimandTag, qfi_components, qfi_sld
from chargeqfi.sweeps import figure_dataset

GAMMAS = (0.3, 0.4, 0.5)
COUPLINGS = (0.05, 0.1, 0.2)
TIMES = (0.5, 1.0, 2.0, 5.0, 10.0)
ALL_TAGS = (EstimandTag.GAMMA, EstimandTag.EJ, EstimandTag.EM)

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"
AUDIT_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "write_audit_artifact.py"

_figure_cache = {}


def curves(figure_id):
    if figure_id not in _figure_cache:
        _figure_cache[figure_id] = [
            (label, np.array([r.axis_value for r in res.rows]),
             np.array([r.breakdown.f_total for r in res.rows]))
            for label, res in figure_dataset(figure_id, points=201)
        ]
    return _figure_cache[figure_id]


def report(num, name, ok, detail, flag_level=False):
    verdict = "PASS" if ok else ("DIVERGENCE" if flag_level else "FAIL")
    print(f"ACCEPTANCE {num:02d} [{name}] {verdict}: {detail}")
    if not flag_level:
        assert ok, f"criterion {num} failed: {detail}"


def test_01_propagator_contract():
    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "route": 0.0}
    rho0 = bell_state_psi_plus()
    for g in GAMMAS:
        for e in COUPLINGS:
            p = SystemParams.degenerate(e_j=e, e_m=e, gamma=g)
            for t in TIMES:
                a = as_matrix(propagate_expm(rho0, p, t))
                b = as_matrix(propagate_rk(rho0, p, t))
                worst["trace"] = max(worst["trace"], abs(a.trace() - 1.0))
                worst["herm"] = max(worst["herm"], max_abs_diff(a, a.conj().T))
                worst["eig"] = max(worst["eig"], max(0.0, -np.linalg.eigvalsh(a).min()))
                worst["route"] = max(worst["route"], max_abs_diff(a, b))
    ok = (worst["trace"] <= 1e-9 and worst["herm"] <= 1e-10
          and worst["eig"] <= 1e-9 and worst["route"] <= 1e-7)
    report(1, "propagator contract", ok,
           f"45-point grid, worst trace dev {worst['trace']:.2e}, "
           f"hermiticity {worst['herm']:.2e}, negativity {worst['eig']:.2e}, "
           f"route disagreement {worst['route']:.2e}")


def test_02_pure_dephasing_decay_law():
    p = SystemParams.degenerate(e_j=0.0, e_m=0.0, gamma=0.4)
    rho0 = bell_state_psi_plus()
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        got = as_matrix(propagate_expm(rho0, p, t))[1, 2]
        worst = max(worst, abs(got - 0.5 * np.exp(-0.4 * t)))
    report(2, "coherence decay law", worst <= 1e-9,
           f"max |rho_23(t) - exp(-gamma t)/2| = {worst:.2e} over t in (0.5, 1, 2)")


def test_03_breakdown_matches_sld_oracle():
    worst = {tag: 0.0 for tag in ALL_TAGS}
    for g in GAMMAS:
        for e in COUPLINGS:
            p = SystemParams.degenerate(e_j=e, e_m=e, gamma=g)
            for t in TIMES:
                for tag in ALL_TAGS:
                    f = qfi_components(p, t, tag).f_total
                    s = qfi_sld(p, t, tag)
                    worst[tag] = max(worst[tag], abs(f - s) / max(s, 1e-6))
    ok = all(v <= 1e-4 for v in worst.values())
    report(3, "decomposition equals SLD oracle", ok,
           "worst relative deviation " +
           ", ".join(f"{tag.value} {worst[tag]:.2e}" for tag in ALL_TAGS))


def test_04_no_information_at_t0():
    p = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
    vals = {tag.value: qfi_components(p, 0.0, tag).f_total for tag in ALL_TAGS}
    ok = all(abs(v) <= 1e-6 for v in vals.values())
    report(4, "zero information at t=0", ok,
           ", ".join(f"F_{k} = {v:.1e}" for k, v in vals.items()))


def test_05_gamma_qfi_versus_coupling():
    data = curves("fig1a")
    shapes_ok = True
    for _, ts, fs in data:
        k = int(np.argmax(fs))
        shapes_ok &= fs[0] < 1e-3 * fs[k] and 0 < k < len(fs) - 1 and fs[-1] < fs[k]
    finals = [fs[-1] for _, _, fs in data]
    order_ok = finals[0] < finals[1] < finals[2]
    detail = (f"rise-peak-decay per curve: {bool(shapes_ok)}; "
              f"late-time values {[round(float(v), 3) for v in finals]} "
              f"{'increase' if order_ok else 'do not increase'} with coupling")
    report(5, "gamma QFI vs coupling", bool(shapes_ok) and order_ok, detail,
           flag_level=True)


def test_06_gamma_qfi_versus_dephasing():
    data = curves("fig1b")
    peaks = [fs.max() for _, _, fs in data]
    ok = peaks[0] < peaks[1] < peaks[2]
    report(6, "gamma QFI vs dephasing rate", ok,
           f"peak values {[round(float(v), 3) for v in peaks]} for gamma (0.3, 0.4, 0.5); "
           f"claim expects increase, computed curves "
           f"{'increase' if ok else 'decrease'}", flag_level=True)


def test_07_ej_qfi_versus_dephasing():
    data = curves("fig3b")
    mask = (data[0][1] >= 0.5) & (data[0][1] <= 2.0)
    ok = bool(np.all(data[0][2][mask] > data[1][2][mask])
              and np.all(data[1][2][mask] > data[2][2][mask]))
    report(7, "Josephson QFI vs dephasing rate", ok,
           f"pointwise decreasing in gamma on t in [0.5, 2]: {ok}",
           flag_level=True)


def test_08_em_qfi_versus_coupling():
    data = curves("fig5a")
    peaks = [fs.max() for _, _, fs in data]
    ok = peaks[0] > peaks[1] > peaks[2]
    report(8, "coupling QFI vs coupling strength", ok,
           f"peak values {[round(float(v), 3) for v in peaks]} for couplings (0.05, 0.1, 0.2); "
           f"claim expects decrease, computed curves "
           f"{'decrease' if ok else 'increase'}", flag_level=True)


def test_09_closed_form_audit_artifact(tmp_path):
    # rebuild the artifact with its writer script; the committed copy must match
    spec = importlib.util.spec_from_file_location("write_audit_artifact", AUDIT_SCRIPT)
    writer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(writer)
    built = tmp_path / "closed_form_audit.json"
    assert writer.main([str(built)]) == 0
    committed = DOCS_DIR / "closed_form_audit.json"
    ok = committed.is_file() and built.read_bytes() == committed.read_bytes()
    artifact = json.loads(built.read_text(encoding="utf-8"))
    worst = artifact["worst"]
    n_incons = sum(1 for c in artifact["combos"] if c["verdict"] == "inconsistent")
    report(9, "closed-form audit artifact", ok,
           f"rebuilt {committed.name} {'matches' if ok else 'differs from'} the committed file: "
           f"{n_incons}/9 combos inconsistent, "
           f"max deviation {worst['max_abs_deviation']:.3f} at "
           f"gamma={worst['gamma']}, coupling={worst['coupling']}")


def test_10_deterministic_figure_output(tmp_path):
    outs = {}
    for tag, par in (("a", "1"), ("b", "8"), ("c", "8")):
        d = tmp_path / tag
        code = cli_main(["figure", "fig1a", "--points", "60",
                         "--parallelism", par, "--out", str(d)])
        assert code == 0
        outs[tag] = {f.name: f.read_bytes() for f in sorted(d.iterdir())}
    ok = outs["a"] == outs["b"] == outs["c"] and len(outs["a"]) == 3
    report(10, "byte-identical reruns", ok,
           f"figure fig1a at parallelism 1 vs 8 vs 8: "
           f"{len(outs['a'])} files {'identical' if ok else 'differ'}")
