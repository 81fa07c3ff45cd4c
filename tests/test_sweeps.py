"""Sweep engine: determinism, error rows, serialization, figure presets."""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from chargeqfi import qfi
from chargeqfi.dynamics import propagate_expm
from chargeqfi.errors import ContractViolationError, DegenerateDerivativeError
from chargeqfi.model import SystemParams, bell_state_psi_plus
from chargeqfi.qfi import EstimandTag, qfi_components, qfi_sld
from chargeqfi.sweeps import (
    CSV_HEADER,
    FIGURE_MIN_POINTS,
    FIGURES,
    SweepConfig,
    figure_dataset,
    format_float,
    resolve_parallelism,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)

P_REF = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
# off degeneracy: distinct gate charges away from 1/2, distinct charging energies
P_OFF = SystemParams(e_c1=0.9, e_c2=1.15, e_j1=0.12, e_j2=0.12, e_m=0.15,
                     n_g1=0.46, n_g2=0.55, gamma=0.35)


def small_time_sweep(**kw):
    base = dict(params=P_REF, estimand=EstimandTag.GAMMA, axis="time",
                axis_start=0.0, axis_end=2.0, points=5)
    base.update(kw)
    return SweepConfig(**base)


def test_format_float_round_trip():
    assert format_float(0.1) == "1.0000000000000001e-01"
    assert format_float(1.0) == "1.0000000000000000e+00"
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"
    for nan in (float("nan"), -float("nan"), np.copysign(np.nan, -1.0)):
        assert format_float(nan) == "nan"
    for x in (0.1, 1.0 / 3.0, 2.5e-17, 123456.789):
        assert float(format_float(x)) == x


def test_run_sweep_rows_and_order():
    res = run_sweep(small_time_sweep())
    assert len(res.rows) == 5
    axis = [r.axis_value for r in res.rows]
    assert axis == sorted(axis)
    assert axis[0] == 0.0 and axis[-1] == 2.0
    first = res.rows[0]
    assert first.error is None
    assert abs(first.breakdown.f_total) < 1e-6
    assert first.breakdown.crb == float("inf")
    assert res.provenance["errors"] == 0
    assert res.provenance["worst_oracle_rel_dev"] < 1e-4


def test_sweep_deterministic_across_parallelism():
    a = sweep_to_csv(run_sweep(small_time_sweep(parallelism=1)))
    b = sweep_to_csv(run_sweep(small_time_sweep(parallelism=4)))
    assert a == b
    c = sweep_to_csv(run_sweep(small_time_sweep(parallelism=4)))
    assert b == c


def test_sweep_csv_shape():
    text = sweep_to_csv(run_sweep(small_time_sweep()))
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""          # trailing newline
    assert len(lines) == 7
    body = lines[1:-1]
    float_re = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$|^-?inf$|^nan$")
    for row in body:
        cells = row.split(",")
        assert len(cells) == 6
        for cell in cells:
            assert float_re.match(cell), cell
    assert "\r" not in text


def test_sweep_error_rows_do_not_abort():
    # a gamma axis that starts at 0 cannot take a symmetric gamma step at
    # the first point; the row is recorded as an error and the sweep goes on
    cfg = SweepConfig(params=P_REF, estimand=EstimandTag.GAMMA, axis="gamma",
                      axis_start=0.0, axis_end=0.4, points=3, t=1.0)
    res = run_sweep(cfg)
    assert res.rows[0].error is not None
    assert res.rows[0].breakdown is None
    assert res.rows[1].error is None
    assert res.provenance["errors"] == 1
    csv_text = sweep_to_csv(res)
    first_body = csv_text.split("\n")[1]
    assert first_body.split(",")[1:] == ["nan"] * 5
    parsed = json.loads(sweep_to_json(res))
    assert parsed["rows"][0]["error"]
    assert parsed["rows"][2]["error"] is None


def test_sweep_json_round_trip():
    res = run_sweep(small_time_sweep(points=3))
    parsed = json.loads(sweep_to_json(res))
    assert parsed["config"]["axis"] == "time"
    assert parsed["config"]["estimand"] == "gamma"
    assert len(parsed["rows"]) == 3
    assert parsed["rows"][0]["crb"] == "inf"
    assert isinstance(parsed["rows"][1]["f_total"], float)
    assert parsed["provenance"]["engine"] == "chargeqfi"


def test_sweep_axes_move_the_right_parameter():
    cfg = SweepConfig(params=P_REF, estimand=EstimandTag.GAMMA, axis="em",
                      axis_start=0.05, axis_end=0.2, points=2, t=1.0)
    res = run_sweep(cfg)
    # em = 0.05 at t = 1 matches the em-shifted golden configuration
    from chargeqfi.qfi import qfi_sld
    p = SystemParams.degenerate(e_j=0.1, e_m=0.05, gamma=0.4)
    assert abs(res.rows[0].sld - qfi_sld(p, 1.0, EstimandTag.GAMMA)) < 1e-12


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        small_time_sweep(axis="bogus")
    with pytest.raises(ValueError):
        small_time_sweep(axis_start=2.0, axis_end=2.0)
    with pytest.raises(ValueError):
        small_time_sweep(points=1)
    with pytest.raises(ValueError):
        small_time_sweep(parallelism=0)
    for flag in (True, False):
        with pytest.raises(ValueError, match="^parallelism must be an integer"):
            small_time_sweep(parallelism=flag)
    with pytest.raises(ValueError):
        small_time_sweep(fd_step=1.0)
    with pytest.raises(ValueError):
        small_time_sweep(output_format="yaml")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="^axis_start must be finite"):
            small_time_sweep(axis_start=bad)
        with pytest.raises(ValueError, match="^axis_end must be finite"):
            small_time_sweep(axis_end=bad)
        with pytest.raises(ValueError, match="^t must be finite"):
            small_time_sweep(t=bad)
    # finite bounds whose span overflows
    with pytest.raises(ValueError, match="^axis_end - axis_start must be finite"):
        small_time_sweep(axis="gamma", axis_start=-1e308, axis_end=1e308, points=3)
    # wrongly typed fields, as a JSON config file may hold them
    for bad in (3.5, 5.0, "5", True):
        with pytest.raises(ValueError, match="^points must be an integer"):
            small_time_sweep(points=bad)
    for name, bad in (("axis_start", "0"), ("axis_end", "5"), ("t", "1"), ("t", True),
                      ("axis_end", False), ("fd_step", "0.001"), ("fd_step", None)):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            small_time_sweep(**{name: bad})
    small_time_sweep(axis_start=0, axis_end=2, t=1)  # ints are real numbers
    # t only matters off the time axis, where it must be non-negative
    small_time_sweep(t=-1.0)
    with pytest.raises(ValueError):
        small_time_sweep(axis="gamma", axis_start=0.1, axis_end=0.4, t=-1.0)


def test_resolve_parallelism_env(monkeypatch):
    monkeypatch.delenv("QFI_DEPHASE_THREADS", raising=False)
    assert resolve_parallelism(3) == 3
    assert resolve_parallelism(None) == 1
    monkeypatch.setenv("QFI_DEPHASE_THREADS", "6")
    assert resolve_parallelism(None) == 6
    assert resolve_parallelism(2) == 2
    monkeypatch.setenv("QFI_DEPHASE_THREADS", "0")
    with pytest.raises(ValueError):
        resolve_parallelism(None)


def test_figure_preset_table():
    assert set(FIGURES) == {"fig1a", "fig1b", "fig2a", "fig2b",
                            "fig3a", "fig3b", "fig4a", "fig4b",
                            "fig5a", "fig5b", "fig6a", "fig6b"}
    by_estimand = {"fig1": EstimandTag.GAMMA, "fig2": EstimandTag.GAMMA,
                   "fig3": EstimandTag.EJ, "fig4": EstimandTag.EJ,
                   "fig5": EstimandTag.EM, "fig6": EstimandTag.EM}
    for fid, spec in FIGURES.items():
        assert spec.estimand == by_estimand[fid[:4]]
    # family a of the odd figures: fixed gamma 0.4, three couplings
    for fid in ("fig1a", "fig3a", "fig5a"):
        labels = [c[0] for c in FIGURES[fid].curves]
        assert labels == ["e0.05", "e0.1", "e0.2"]
        assert all(c[1].gamma == 0.4 for c in FIGURES[fid].curves)
        assert [c[1].e_j1 for c in FIGURES[fid].curves] == [0.05, 0.1, 0.2]
        assert all(c[1].e_j1 == c[1].e_m for c in FIGURES[fid].curves)
    # family b: fixed coupling 0.1, three dephasing rates
    for fid in ("fig1b", "fig3b", "fig5b"):
        labels = [c[0] for c in FIGURES[fid].curves]
        assert labels == ["g0.3", "g0.4", "g0.5"]
        assert [c[1].gamma for c in FIGURES[fid].curves] == [0.3, 0.4, 0.5]
        assert all(c[1].e_j1 == 0.1 and c[1].e_m == 0.1 for c in FIGURES[fid].curves)
    # single-curve panels
    for fid, e in (("fig2a", 0.1), ("fig2b", 0.2), ("fig4a", 0.1),
                   ("fig4b", 0.2), ("fig6a", 0.1), ("fig6b", 0.2)):
        curves = FIGURES[fid].curves
        assert len(curves) == 1
        assert curves[0][1].e_j1 == e and curves[0][1].e_m == e
        assert curves[0][1].gamma == 0.4


def test_figure_dataset_grid_and_validation():
    data = figure_dataset("fig2a", points=FIGURE_MIN_POINTS)
    assert len(data) == 1
    label, res = data[0]
    assert label == "e0.1"
    assert len(res.rows) == FIGURE_MIN_POINTS
    assert res.rows[0].axis_value == 1e-6
    assert res.rows[-1].axis_value == 10.0
    assert res.provenance["errors"] == 0
    with pytest.raises(ValueError):
        figure_dataset("fig2a", points=FIGURE_MIN_POINTS - 1)
    with pytest.raises(ValueError):
        figure_dataset("fig99")


def _point(cfg, value):
    if cfg.axis == "time":
        return cfg.params, value
    field = {"gamma": ("gamma",), "ej": ("e_j1", "e_j2"), "em": ("e_m",)}[cfg.axis]
    return dataclasses.replace(cfg.params, **{name: value for name in field}), cfg.t


@pytest.mark.parametrize("axis,start,end", [("time", 0.5, 6.0), ("gamma", 0.2, 0.6),
                                            ("ej", 0.05, 0.3), ("em", 0.05, 0.3),
                                            ("gamma", -0.4, 0.6), ("ej", -0.3, 0.2)])
def test_batch_rows_equal_single_point_evaluation(axis, start, end):
    for eta in EstimandTag:
        cfg = SweepConfig(params=P_OFF, estimand=eta, axis=axis, axis_start=start,
                          axis_end=end, points=5, t=1.7)
        res = run_sweep(cfg)
        for row in res.rows:
            try:
                p, t = _point(cfg, row.axis_value)
            except ValueError as exc:  # gamma < 0: SystemParams' own message
                assert row.error == str(exc) and row.breakdown is None and row.sld is None
                continue
            assert row.error is None
            # every field bit for bit, the diagnostics included
            assert row.breakdown == qfi_components(p, t, eta), (axis, eta, row.axis_value)
            assert row.sld == qfi_sld(p, t, eta), (axis, eta, row.axis_value)


@pytest.mark.parametrize("start", [-1.0, -1e-10])
def test_batch_negative_times_become_scalar_error_rows(start):
    # backward evolution over a short enough time still passes the state
    # contract, so only the domain check keeps -1e-10 out of the batch
    cfg = small_time_sweep(params=P_OFF, axis_start=start, axis_end=-start, points=5)
    res = run_sweep(cfg)
    for row in res.rows:
        if row.axis_value < 0:
            with pytest.raises(ValueError) as exc:
                qfi_components(P_OFF, row.axis_value, EstimandTag.GAMMA)
            assert row.error == str(exc.value)
            assert row.breakdown is None and row.sld is None
        else:
            assert row.error is None
    assert res.provenance["errors"] == 2


def test_batch_matching_failures_keep_scalar_messages(monkeypatch):
    cfg = small_time_sweep(params=P_OFF, axis_start=0.5, axis_end=3.0, points=4)
    unpatched = run_sweep(cfg)
    # every overlap gap is below an ambiguity threshold above 1
    monkeypatch.setattr(qfi, "MATCH_AMBIGUITY", 2.0)
    res = run_sweep(cfg)
    assert res.provenance["errors"] == len(res.rows)
    points = [(P_OFF, row.axis_value) for row in res.rows]
    batch = qfi.qfi_points(points, EstimandTag.GAMMA)
    for row, before, (breakdown, sld) in zip(res.rows, unpatched.rows, batch):
        with pytest.raises(DegenerateDerivativeError) as exc:
            qfi_components(P_OFF, row.axis_value, EstimandTag.GAMMA)
        assert row.error == str(exc.value)
        # the SLD route never matches branches, so it keeps its value
        assert qfi_sld(P_OFF, row.axis_value, EstimandTag.GAMMA) == before.sld
        assert isinstance(breakdown, DegenerateDerivativeError)
        assert str(breakdown) == row.error
        assert sld == before.sld


def test_overflowing_fields_fail_typed_without_warnings():
    # e_m = 1e308 overflows the Hamiltonian; the state contract reports it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = SweepConfig(params=P_OFF, estimand=EstimandTag.EM, axis="em",
                          axis_start=1e307, axis_end=1e308, points=3)
        assert [row.error for row in run_sweep(cfg).rows] == ["state has non-finite entries"] * 3
        for route in (qfi_components, qfi_sld):
            with pytest.raises(ContractViolationError, match="^state has non-finite entries$"):
                route(dataclasses.replace(P_REF, e_m=1e308), 1.0, EstimandTag.GAMMA)


def test_non_finite_states_become_typed_error_rows():
    # expm(L t) overflows long before t = 1e300
    cfg = small_time_sweep(params=P_OFF, axis_start=1.0, axis_end=1e300, points=4)
    res = run_sweep(cfg)
    assert res.rows[0].error is None
    assert res.rows[0].breakdown == qfi_components(P_OFF, 1.0, EstimandTag.GAMMA)
    assert res.rows[0].sld == qfi_sld(P_OFF, 1.0, EstimandTag.GAMMA)
    assert [row.error for row in res.rows[1:]] == ["state has non-finite entries"] * 3
    with pytest.raises(ContractViolationError, match="^state has non-finite entries$"):
        propagate_expm(bell_state_psi_plus(), P_OFF, 1e300)
