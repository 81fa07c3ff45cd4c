"""Deterministic parameter sweeps and bundled figure presets.

A sweep is evaluated as one batch: each distinct parameter set gets one
Liouvillian, each of the base, +h and -h shift groups one stacked matrix
exponential, and the state contract, eigendecomposition, branch matching
and Fisher-information sums run over the point axis. A point that is out
of domain or fails any check is evaluated again on its own through
qfi_components and qfi_sld, so its error row reads exactly as theirs.
Every row is a pure function of the configuration and floats are formatted
to 17 significant digits, so output bytes do not depend on the
(accepted, no longer used) parallelism setting.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .model import SystemParams, bell_state_psi_plus, state_faults
from .dynamics import build_liouvillian, check_time, expm_states, propagation_faults
from .qfi import (
    FD_STEP_DEFAULT,
    EstimandTag,
    QfiBreakdown,
    check_fd_step,
    check_step,
    qfi_components,
    qfi_from_states,
    qfi_sld,
)
from . import __version__

AXES = ("time", "gamma", "ej", "em")
FORMATS = ("csv", "json")
THREADS_ENV_VAR = "QFI_DEPHASE_THREADS"
CSV_HEADER = "axis,f_total,f_c,f_p,f_m,crb"
# relative floor used when comparing the two Fisher-information routes
ORACLE_REL_FLOOR = 1e-6
FIGURE_T_START = 1e-6
FIGURE_T_END = 10.0
FIGURE_MIN_POINTS = 50


def format_float(x: float) -> str:
    """17 significant digits, lowercase scientific; inf/nan spelled literally."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.16e}"


def json_float(x: float):
    """x itself for JSON, or the format_float spelling where JSON has no number."""
    return x if math.isfinite(x) else format_float(x)


@dataclass(frozen=True)
class SweepConfig:
    """One-dimensional sweep of the Fisher information.

    axis selects what varies: "time" sweeps t, the parameter axes sweep the
    named energy/rate at fixed evaluation time t.
    """

    params: SystemParams
    estimand: EstimandTag
    axis: str
    axis_start: float
    axis_end: float
    points: int
    t: float = 1.0
    fd_step: float = FD_STEP_DEFAULT
    output_format: str = "csv"
    parallelism: int | None = None

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not (self.axis_start < self.axis_end):
            raise ValueError(f"axis_start must be < axis_end, got [{self.axis_start}, {self.axis_end}]")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        check_fd_step(self.fd_step)
        if self.output_format not in FORMATS:
            raise ValueError(f"output_format must be one of {FORMATS}, got {self.output_format!r}")
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.axis != "time":
            check_time(self.t)


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    breakdown: QfiBreakdown | None
    sld: float | None
    error: str | None


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Rows sorted by ascending axis value plus provenance of the run."""

    config: SweepConfig
    rows: tuple
    provenance: dict


def resolve_parallelism(requested: int | None) -> int:
    """Validated worker count: the argument, else QFI_DEPHASE_THREADS, else 1.

    Sweeps run as one batch in the calling thread, so the count changes
    nothing; it is still resolved so that a bad value is reported.
    """
    if requested is not None:
        return requested
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        n = int(env)
        if n < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {env}")
        return n
    return 1


def _point_inputs(cfg: SweepConfig, value: float) -> tuple[SystemParams, float]:
    if cfg.axis == "time":
        return cfg.params, value
    if cfg.axis == "gamma":
        return dataclasses.replace(cfg.params, gamma=value), cfg.t
    if cfg.axis == "ej":
        return dataclasses.replace(cfg.params, e_j1=value, e_j2=value), cfg.t
    return dataclasses.replace(cfg.params, e_m=value), cfg.t


def _eval_point(cfg: SweepConfig, value: float) -> SweepRow:
    try:
        p, t = _point_inputs(cfg, value)
        breakdown = qfi_components(p, t, cfg.estimand, cfg.fd_step)
        sld = qfi_sld(p, t, cfg.estimand, cfg.fd_step)
    except (ValueError, ContractViolationError) as exc:
        return SweepRow(axis_value=value, breakdown=None, sld=None, error=str(exc))
    return SweepRow(axis_value=value, breakdown=breakdown, sld=sld, error=None)


def _passes_state_contract(mats: np.ndarray) -> np.ndarray:
    """Per state of a stack: finite and through the checks propagate_expm applies."""
    # a non-finite state would stop the batched eigensolvers for every point
    ok = np.isfinite(mats).all(axis=(-2, -1))
    for faults in (propagation_faults, state_faults):
        live = np.flatnonzero(ok)
        ok[live] = [fault is None for fault in faults(mats[live])]
    return ok


def _eval_batch(cfg: SweepConfig, values: list) -> list:
    """Rows for the points the batch can evaluate; None for the others.

    A point stays out of the batch when its inputs are out of domain
    (t < 0, gamma - h < 0, invalid parameters), when a propagated state is
    not finite, or when it fails the state contract, the spectral checks,
    branch matching or the breakdown floors.
    """
    eta, h = cfg.estimand, cfg.fd_step
    points = []  # (row index, t, (params, params + h, params - h))
    for k, value in enumerate(values):
        try:
            p, t = _point_inputs(cfg, value)
            check_time(t)
            check_step(p, eta, h)
            points.append((k, t, (p, eta.shifted(p, +h), eta.shifted(p, -h))))
        except ValueError:
            continue
    rows = [None] * len(values)
    if not points:
        return rows
    times = np.array([t for _, t, _ in points])[:, np.newaxis, np.newaxis]
    liouvillians = {}  # one generator per distinct parameter set
    rho0 = bell_state_psi_plus()
    states = []
    ok = np.ones(len(points), dtype=bool)
    for group in zip(*(shifts for _, _, shifts in points)):
        for q in group:
            if q not in liouvillians:
                liouvillians[q] = build_liouvillian(q).matrix
        mats = expm_states(rho0, np.stack([liouvillians[q] for q in group]) * times)
        ok &= _passes_state_contract(mats)
        states.append(mats)
    live = np.flatnonzero(ok)
    if len(live):
        results = qfi_from_states(*(mats[live] for mats in states), h)
        for k, result in zip(live, results):
            if result is not None:
                i = points[k][0]
                rows[i] = SweepRow(axis_value=values[i], breakdown=result[0],
                                   sld=result[1], error=None)
    return rows


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate the sweep; per-point failures become error rows, not crashes."""
    values = [float(v) for v in np.linspace(cfg.axis_start, cfg.axis_end, cfg.points)]
    resolve_parallelism(cfg.parallelism)
    rows = [row if row is not None else _eval_point(cfg, v)
            for row, v in zip(_eval_batch(cfg, values), values)]
    worst = 0.0
    for row in rows:
        if row.error is None:
            dev = abs(row.breakdown.f_total - row.sld) / max(row.sld, ORACLE_REL_FLOOR)
            worst = max(worst, dev)
    provenance = {
        "engine": "chargeqfi",
        "version": __version__,
        "worst_oracle_rel_dev": worst,
        "errors": sum(1 for r in rows if r.error is not None),
    }
    return SweepResult(config=cfg, rows=tuple(rows), provenance=provenance)


def sweep_to_csv(result: SweepResult) -> str:
    """CSV with header axis,f_total,f_c,f_p,f_m,crb; error rows carry nan."""
    lines = [CSV_HEADER]
    for row in result.rows:
        if row.error is None:
            b = row.breakdown
            fields = (row.axis_value, b.f_total, b.f_c, b.f_p, b.f_m, b.crb)
        else:
            fields = (row.axis_value, math.nan, math.nan, math.nan, math.nan, math.nan)
        lines.append(",".join(format_float(f) for f in fields))
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    cfg = result.config
    payload = {
        "config": {
            "gamma": cfg.params.gamma, "ej": cfg.params.e_j1, "em": cfg.params.e_m,
            "ec1": cfg.params.e_c1, "ec2": cfg.params.e_c2,
            "ng1": cfg.params.n_g1, "ng2": cfg.params.n_g2,
            "estimand": cfg.estimand.value, "axis": cfg.axis,
            "axis_start": cfg.axis_start, "axis_end": cfg.axis_end,
            "points": cfg.points, "t": cfg.t, "fd_step": cfg.fd_step,
            "output_format": cfg.output_format, "parallelism": cfg.parallelism,
        },
        "provenance": result.provenance,
        "rows": [
            {
                "axis": row.axis_value,
                "f_total": json_float(row.breakdown.f_total) if row.error is None else None,
                "f_c": json_float(row.breakdown.f_c) if row.error is None else None,
                "f_p": json_float(row.breakdown.f_p) if row.error is None else None,
                "f_m": json_float(row.breakdown.f_m) if row.error is None else None,
                "crb": json_float(row.breakdown.crb) if row.error is None else None,
                "sld": json_float(row.sld) if row.error is None else None,
                "error": row.error,
            }
            for row in result.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# bundled figure presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FigureSpec:
    """Preset family of time sweeps: one curve per parameter set."""

    figure_id: str
    estimand: EstimandTag
    curves: tuple  # (label, SystemParams)


def _curves_e(gamma: float) -> tuple:
    return tuple((f"e{e:g}", SystemParams.degenerate(e_j=e, e_m=e, gamma=gamma))
                 for e in (0.05, 0.1, 0.2))


def _curves_gamma(e: float) -> tuple:
    return tuple((f"g{g:g}", SystemParams.degenerate(e_j=e, e_m=e, gamma=g))
                 for g in (0.3, 0.4, 0.5))


def _single(e: float, gamma: float) -> tuple:
    return ((f"e{e:g}", SystemParams.degenerate(e_j=e, e_m=e, gamma=gamma)),)


FIGURES: dict[str, FigureSpec] = {}
for _tag, _eta in (("1", EstimandTag.GAMMA), ("3", EstimandTag.EJ), ("5", EstimandTag.EM)):
    FIGURES[f"fig{_tag}a"] = FigureSpec(f"fig{_tag}a", _eta, _curves_e(gamma=0.4))
    FIGURES[f"fig{_tag}b"] = FigureSpec(f"fig{_tag}b", _eta, _curves_gamma(e=0.1))
for _tag, _eta in (("2", EstimandTag.GAMMA), ("4", EstimandTag.EJ), ("6", EstimandTag.EM)):
    FIGURES[f"fig{_tag}a"] = FigureSpec(f"fig{_tag}a", _eta, _single(e=0.1, gamma=0.4))
    FIGURES[f"fig{_tag}b"] = FigureSpec(f"fig{_tag}b", _eta, _single(e=0.2, gamma=0.4))


def figure_dataset(figure_id: str, points: int = 201,
                   parallelism: int | None = None,
                   fd_step: float = FD_STEP_DEFAULT) -> list[tuple[str, SweepResult]]:
    """Run the preset time sweeps for one figure id.

    Time grids start at 1e-6 instead of 0: three eigenvalues vanish at t = 0
    and the classical term is only removably singular there. points >= 50 so
    curve-shape statements (maxima, late-time ordering) are grid-stable.
    """
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; valid ids: {sorted(FIGURES)}")
    if points < FIGURE_MIN_POINTS:
        raise ValueError(f"points must be >= {FIGURE_MIN_POINTS} for figure datasets, got {points}")
    spec = FIGURES[figure_id]
    out = []
    for label, params in spec.curves:
        cfg = SweepConfig(params=params, estimand=spec.estimand, axis="time",
                          axis_start=FIGURE_T_START, axis_end=FIGURE_T_END,
                          points=points, fd_step=fd_step, parallelism=parallelism)
        out.append((label, run_sweep(cfg)))
    return out
