"""Command-line interface.

Subcommands: evolve (state trajectory), qfi (single breakdown), sweep,
figure (bundled presets), audit (closed form vs propagator). Exit codes:
0 success, 1 usage error, 2 numerical-contract failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ContractViolationError
from .model import SystemParams, bell_state_psi_plus
from .dynamics import audit_analytic, propagate_checked
from .qfi import FD_STEP_DEFAULT, EstimandTag, qfi_points
from .sweeps import (
    FIGURE_MIN_POINTS,
    FIGURES,
    SweepConfig,
    figure_dataset,
    format_float,
    json_float,
    resolve_parallelism,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # numerical failures, so route usage problems through exit code 1.
    def error(self, message):
        raise _UsageError(message)


def _add_param_flags(sub):
    # None means "not given"; true defaults are filled in when params are built
    sub.add_argument("--gamma", type=float, default=None, help="dephasing rate (default 0.4)")
    sub.add_argument("--ej", type=float, default=None, help="Josephson energy of both qubits (default 0.1)")
    sub.add_argument("--em", type=float, default=None, help="mutual coupling energy (default 0.1)")
    sub.add_argument("--e", type=float, default=None,
                     help="shorthand setting ej = em = E (explicit --ej/--em win)")
    sub.add_argument("--ec1", type=float, default=None, help="charging energy, qubit 1 (default 1.0)")
    sub.add_argument("--ec2", type=float, default=None, help="charging energy, qubit 2 (default 1.0)")
    sub.add_argument("--ng1", type=float, default=None, help="gate charge, qubit 1 (default 0.5)")
    sub.add_argument("--ng2", type=float, default=None, help="gate charge, qubit 2 (default 0.5)")


PARAM_DEFAULTS = {"gamma": 0.4, "ej": 0.1, "em": 0.1, "ec1": 1.0, "ec2": 1.0,
                  "ng1": 0.5, "ng2": 0.5}


def _build_params(args, file_cfg: dict | None = None) -> SystemParams:
    cfg = file_cfg or {}

    def pick(name, default):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        if name in cfg:
            return cfg[name]
        return default

    e_short = args.e if args.e is not None else cfg.get("e")
    base = e_short if e_short is not None else PARAM_DEFAULTS["ej"]
    ej = pick("ej", base)
    em = pick("em", base)
    try:
        return SystemParams(e_c1=pick("ec1", 1.0), e_c2=pick("ec2", 1.0),
                            e_j1=ej, e_j2=ej, e_m=em,
                            n_g1=pick("ng1", 0.5), n_g2=pick("ng2", 0.5),
                            gamma=pick("gamma", 0.4))
    except ValueError as exc:
        raise _UsageError(str(exc))


def _build_parser() -> _Parser:
    parser = _Parser(prog="chargeqfi",
                     description="Fisher information of two dephasing charge qubits")
    subs = parser.add_subparsers(dest="command", required=True)

    evolve = subs.add_parser("evolve", help="propagate the Bell state and dump rho(t)")
    _add_param_flags(evolve)
    evolve.add_argument("--t-max", type=float, default=10.0)
    evolve.add_argument("--points", type=int, default=201)
    evolve.add_argument("--out", type=str, default=None, help="output file (default stdout)")

    qfi = subs.add_parser("qfi", help="Fisher-information breakdown at one point")
    _add_param_flags(qfi)
    qfi.add_argument("--param", choices=["gamma", "ej", "em"], required=True)
    qfi.add_argument("--t", type=float, default=1.0)
    qfi.add_argument("--fd-step", type=float, default=FD_STEP_DEFAULT)
    qfi.add_argument("--out", type=str, default=None)

    sweep = subs.add_parser("sweep", help="sweep the Fisher information along one axis")
    _add_param_flags(sweep)
    sweep.add_argument("--config", type=str, default=None, help="flat JSON config; flags override")
    sweep.add_argument("--param", choices=["gamma", "ej", "em"], default=None)
    sweep.add_argument("--axis", choices=["time", "gamma", "ej", "em"], default=None)
    sweep.add_argument("--axis-start", type=float, default=None)
    sweep.add_argument("--axis-end", type=float, default=None)
    sweep.add_argument("--points", type=int, default=None)
    sweep.add_argument("--t", type=float, default=None)
    sweep.add_argument("--fd-step", type=float, default=None)
    sweep.add_argument("--format", choices=["csv", "json"], default=None)
    sweep.add_argument("--parallelism", type=int, default=None)
    sweep.add_argument("--out", type=str, default=None)

    figure = subs.add_parser("figure", help="run a bundled figure preset")
    figure.add_argument("figure_id", choices=sorted(FIGURES))
    figure.add_argument("--points", type=int, default=201)
    figure.add_argument("--fd-step", type=float, default=FD_STEP_DEFAULT)
    figure.add_argument("--parallelism", type=int, default=None)
    figure.add_argument("--out", type=str, default=".", help="output directory")

    audit = subs.add_parser("audit", help="compare the closed-form rho(t) to the propagator")
    _add_param_flags(audit)
    audit.add_argument("--t-max", type=float, default=10.0)
    audit.add_argument("--points", type=int, default=21)
    audit.add_argument("--tol", type=float, default=1e-8)
    audit.add_argument("--out", type=str, default=None)
    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _cmd_evolve(args) -> int:
    p = _build_params(args)
    if args.points < 2 or args.t_max <= 0:
        raise _UsageError("evolve needs --points >= 2 and --t-max > 0")
    header = ["t"]
    for i in range(1, 5):
        for j in range(1, 5):
            header += [f"rho_re_{i}{j}", f"rho_im_{i}{j}"]
    lines = [",".join(header)]
    times = np.linspace(0.0, args.t_max, args.points)
    for t, mat in zip(times, propagate_checked(bell_state_psi_plus(), [p] * len(times), times)):
        fields = [format_float(float(t))]
        for i in range(4):
            for j in range(4):
                fields += [format_float(mat[i, j].real), format_float(mat[i, j].imag)]
        lines.append(",".join(fields))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_qfi(args) -> int:
    p = _build_params(args)
    if args.t < 0:
        raise _UsageError("--t must be >= 0")
    eta = EstimandTag(args.param)
    # the SLD value fails only where the breakdown fails, with the same error
    breakdown, sld = qfi_points([(p, args.t)], eta, args.fd_step)[0]
    if isinstance(breakdown, Exception):
        raise breakdown
    payload = {
        "params": {"gamma": p.gamma, "ej": p.e_j1, "em": p.e_m, "ec1": p.e_c1,
                   "ec2": p.e_c2, "ng1": p.n_g1, "ng2": p.n_g2},
        "estimand": eta.value,
        "t": args.t,
        "fd_step": breakdown.fd_step,
        "f_total": breakdown.f_total,
        "f_c": breakdown.f_c,
        "f_p": breakdown.f_p,
        "f_m": breakdown.f_m,
        "crb": json_float(breakdown.crb),
        "sld": sld,
        "n_clamped": breakdown.n_clamped,
        "gauge_residual": breakdown.gauge_residual,
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


_CONFIG_KEYS = {"gamma", "ej", "em", "e", "ec1", "ec2", "ng1", "ng2", "estimand",
                "axis", "axis_start", "axis_end", "points", "t", "fd_step",
                "output_format", "parallelism"}


def _sweep_config(args) -> SweepConfig:
    file_cfg = {}
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise _UsageError("config file must hold a flat JSON object")
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return default

    estimand = pick(args.param, "estimand", None)
    if estimand is None:
        raise _UsageError("an estimand is required (--param or config key 'estimand')")
    params = _build_params(args, file_cfg)
    try:
        return SweepConfig(
            params=params,
            estimand=EstimandTag(estimand),
            axis=pick(args.axis, "axis", "time"),
            axis_start=pick(args.axis_start, "axis_start", 0.0),
            axis_end=pick(args.axis_end, "axis_end", 10.0),
            points=pick(args.points, "points", 101),
            t=pick(args.t, "t", 1.0),
            fd_step=pick(args.fd_step, "fd_step", FD_STEP_DEFAULT),
            output_format=pick(args.format, "output_format", "csv"),
            parallelism=pick(args.parallelism, "parallelism", None),
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


def _cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    result = run_sweep(cfg)
    text = sweep_to_csv(result) if cfg.output_format == "csv" else sweep_to_json(result)
    _write_text(args.out, text)
    return 0


def _cmd_figure(args) -> int:
    if args.points < FIGURE_MIN_POINTS:
        raise _UsageError(f"--points must be >= {FIGURE_MIN_POINTS} for figure presets")
    try:
        parallelism = resolve_parallelism(args.parallelism)
    except ValueError as exc:
        raise _UsageError(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = figure_dataset(args.figure_id, points=args.points,
                             parallelism=parallelism, fd_step=args.fd_step)
    for label, result in dataset:
        path = out_dir / f"{args.figure_id}_{label}.csv"
        path.write_text(sweep_to_csv(result), encoding="utf-8", newline="\n")
    return 0


def _cmd_audit(args) -> int:
    p = _build_params(args)
    if args.points < 2 or args.t_max <= 0:
        raise _UsageError("audit needs --points >= 2 and --t-max > 0")
    grid = [float(t) for t in np.linspace(0.0, args.t_max, args.points)]
    report = audit_analytic(p, grid, tol=args.tol)
    _write_text(args.out, report.to_json() + "\n")
    return 0


_COMMANDS = {
    "evolve": _cmd_evolve,
    "qfi": _cmd_qfi,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "audit": _cmd_audit,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help; keep that code
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractViolationError as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # domain failures inside the computation (negative radicand, bad step)
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
