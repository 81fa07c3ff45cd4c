"""Deterministic parameter sweeps and bundled figure presets.

A sweep writes every axis value into parameter rows or times and evaluates
them all in one call of qfi._qfi_rows, the row form of qfi_points, which
reads both QFI routes from the derivative core qfi._derivative_rows. The
core checks each value in its domain pass (a negative gamma, t, the step),
so a point that fails there or later becomes an error row carrying the
message of its first failure, in the qfi module's order: domain, state
contract, branch matching, breakdown floors. Every row is a pure function
of the configuration and floats are formatted to 17 significant digits, so
output bytes do not depend on the (accepted, no longer used) parallelism
setting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .model import MODEL_NAMES, PARAM_FIELDS, SystemParams, check_field, param_rows
from .dynamics import check_time
from .qfi import FD_STEP_DEFAULT, EstimandTag, QfiBreakdown, check_fd_step, _qfi_rows
from . import __version__

AXES = ("time", *(eta.value for eta in EstimandTag))
# breakdown fields a CSV row and a JSON result carry, the latter before the SLD value
RESULT_FIELDS = ("f_total", "f_c", "f_p", "f_m", "crb")
_result_values = attrgetter(*RESULT_FIELDS)
CSV_HEADER = ",".join(("axis", *RESULT_FIELDS))
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


def model_json(p: SystemParams) -> dict:
    """p as qfi and sweep JSON echo it: each external name of MODEL_NAMES whose
    fields hold one value, and otherwise each of its fields under its own name."""
    out = {}
    for name, fields in MODEL_NAMES.items():
        values = [getattr(p, field) for field in fields]
        out.update({name: values[0]} if len(set(values)) == 1 else zip(fields, values))
    return out


def result_json(breakdown: QfiBreakdown | None, sld: float | None) -> dict:
    """The f_total, f_c, f_p, f_m, crb, sld block of qfi and sweep JSON; all None for a failed point."""
    if breakdown is None:
        return dict.fromkeys(RESULT_FIELDS + ("sld",))
    return {**dict(zip(RESULT_FIELDS, map(json_float, _result_values(breakdown)))),
            "sld": json_float(sld)}


@dataclass(frozen=True)
class SweepConfig:
    """One-dimensional sweep of the Fisher information.

    axis selects what varies: "time" sweeps t, the parameter axes sweep the
    named energy/rate at fixed evaluation time t. points is an int;
    axis_start, axis_end, t and fd_step are finite real numbers
    (model.check_field: bool and str are rejected). parallelism is None or
    an integer >= 1; it is validated and changes no result. How a result is
    written (sweep_to_csv, sweep_to_json) is the caller's choice.
    """

    params: SystemParams
    estimand: EstimandTag
    axis: str
    axis_start: float
    axis_end: float
    points: int
    t: float = 1.0
    fd_step: float = FD_STEP_DEFAULT
    parallelism: int | None = None

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        for name in ("axis_start", "axis_end", "t", "fd_step"):
            check_field(name, getattr(self, name))
        if not (self.axis_start < self.axis_end):
            raise ValueError(f"axis_start must be < axis_end, got [{self.axis_start}, {self.axis_end}]")
        if not math.isfinite(self.axis_end - self.axis_start):
            raise ValueError(f"axis_end - axis_start must be finite, got {self.axis_end - self.axis_start}")
        if isinstance(self.points, bool) or not isinstance(self.points, int):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        check_fd_step(self.fd_step)
        par = self.parallelism
        if par is not None and (isinstance(par, bool) or not isinstance(par, int) or par < 1):
            raise ValueError(f"parallelism must be an integer >= 1, got {par!r}")
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


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate the sweep; per-point failures become error rows, not crashes."""
    values = [float(v) for v in np.linspace(cfg.axis_start, cfg.axis_end, cfg.points)]
    # a parameter axis sets the fields its estimand moves; the derivative core checks each value
    fields = () if cfg.axis == "time" else EstimandTag(cfg.axis).fields
    point_rows = np.tile(param_rows([cfg.params]), (len(values), 1))
    point_rows[:, [PARAM_FIELDS.index(name) for name in fields]] = np.array(values)[:, np.newaxis]
    times = values if cfg.axis == "time" else [cfg.t] * len(values)
    results = _qfi_rows(point_rows, times, cfg.estimand, cfg.fd_step)
    rows, worst = [], 0.0
    for value, (breakdown, sld) in zip(values, results):
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
    """CSV with header CSV_HEADER (axis, then RESULT_FIELDS); error rows carry nan."""
    lines = [CSV_HEADER]
    error_values = (math.nan,) * len(RESULT_FIELDS)
    for row in result.rows:
        values = error_values if row.error is not None else _result_values(row.breakdown)
        lines.append(",".join(map(format_float, (row.axis_value, *values))))
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    cfg = result.config
    payload = {
        "config": {
            **model_json(cfg.params),
            "estimand": cfg.estimand.value, "axis": cfg.axis,
            "axis_start": cfg.axis_start, "axis_end": cfg.axis_end,
            "points": cfg.points, "t": cfg.t, "fd_step": cfg.fd_step,
        },
        "provenance": result.provenance,
        "rows": [{"axis": row.axis_value, **result_json(row.breakdown, row.sld), "error": row.error}
                 for row in result.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# bundled figure presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FigureSpec:
    """Preset family of time sweeps, keyed by its id in FIGURES: one curve per parameter set."""

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
    FIGURES[f"fig{_tag}a"] = FigureSpec(_eta, _curves_e(gamma=0.4))
    FIGURES[f"fig{_tag}b"] = FigureSpec(_eta, _curves_gamma(e=0.1))
for _tag, _eta in (("2", EstimandTag.GAMMA), ("4", EstimandTag.EJ), ("6", EstimandTag.EM)):
    FIGURES[f"fig{_tag}a"] = FigureSpec(_eta, _single(e=0.1, gamma=0.4))
    FIGURES[f"fig{_tag}b"] = FigureSpec(_eta, _single(e=0.2, gamma=0.4))


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
