"""Deterministic parameter sweeps and bundled figure presets.

A sweep maps its axis to parameter rows and times and evaluates them all in
one call of the row-level core of qfi.qfi_points, the evaluator behind
qfi_components and qfi_sld too. A point whose axis value is not a valid
parameter, or whose evaluation fails, becomes an error row carrying the
message of its first failure, in the order: domain (t, step) -> state
contract of the base, +h and -h states -> base eigensystem -> shifted
eigensystems -> branch matching -> breakdown floors. Every row is a pure
function of the configuration and floats are formatted to 17 significant
digits, so output bytes do not depend on the (accepted, no longer used)
parallelism setting.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import PARAM_FIELDS, SystemParams, check_field, param_rows
from .dynamics import check_time
from .qfi import FD_STEP_DEFAULT, EstimandTag, QfiBreakdown, check_fd_step, _qfi_rows
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
    """17 significant digits, lowercase scientific; inf, -inf and nan (either sign) as such."""
    return f"{x:.16e}"


def json_float(x: float):
    """x itself for JSON, or the format_float spelling where JSON has no number."""
    return x if math.isfinite(x) else format_float(x)


@dataclass(frozen=True)
class SweepConfig:
    """One-dimensional sweep of the Fisher information.

    axis selects what varies: "time" sweeps t, the parameter axes sweep the
    named energy/rate at fixed evaluation time t. points is an int;
    axis_start, axis_end, t and fd_step are real numbers (bool and str are
    rejected), and the first three are finite.
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
        for name in ("axis_start", "axis_end", "t", "fd_step"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if name != "fd_step" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.axis_start < self.axis_end):
            raise ValueError(f"axis_start must be < axis_end, got [{self.axis_start}, {self.axis_end}]")
        if not math.isfinite(self.axis_end - self.axis_start):
            raise ValueError(f"axis_end - axis_start must be finite, got {self.axis_end - self.axis_start}")
        if isinstance(self.points, bool) or not isinstance(self.points, int):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        check_fd_step(self.fd_step)
        if self.output_format not in FORMATS:
            raise ValueError(f"output_format must be one of {FORMATS}, got {self.output_format!r}")
        resolve_parallelism(self.parallelism)
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
    nothing; it is still resolved so that a bad value is reported. ValueError
    unless the count is an integer >= 1 (True and False are not counts).
    """
    if requested is not None:
        name, value = "parallelism", requested
    else:
        name, value = THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR) or 1
    try:
        count = 0 if isinstance(value, bool) else int(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate the sweep; per-point failures become error rows, not crashes."""
    values = [float(v) for v in np.linspace(cfg.axis_start, cfg.axis_end, cfg.points)]
    # a parameter axis sets the fields its estimand moves; a value they reject is an error row
    fields = () if cfg.axis == "time" else EstimandTag(cfg.axis).fields
    field_faults = []
    for value in values:
        try:
            for name in fields:
                check_field(name, value)
            field_faults.append(None)
        except ValueError as exc:
            field_faults.append(exc)
    valid = [value for value, fault in zip(values, field_faults) if fault is None]
    point_rows = np.tile(param_rows([cfg.params]), (len(valid), 1))
    point_rows[:, [PARAM_FIELDS.index(name) for name in fields]] = np.array(valid)[:, np.newaxis]
    times = valid if cfg.axis == "time" else [cfg.t] * len(valid)
    results = iter(_qfi_rows(point_rows, times, cfg.estimand, cfg.fd_step))
    rows, worst = [], 0.0
    for value, fault in zip(values, field_faults):
        breakdown, sld = (fault, fault) if fault is not None else next(results)
        if isinstance(breakdown, Exception):
            rows.append(SweepRow(axis_value=value, breakdown=None, sld=None, error=str(breakdown)))
        else:
            rows.append(SweepRow(axis_value=value, breakdown=breakdown, sld=sld, error=None))
            worst = max(worst, abs(breakdown.f_total - sld) / max(sld, ORACLE_REL_FLOOR))
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
