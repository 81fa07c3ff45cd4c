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
from .model import MODEL_NAMES, PARAM_FIELDS, SystemParams, bell_state_psi_plus, check_field
from .dynamics import audit_analytic, check_time, check_tol, propagate_checked
from .qfi import FD_STEP_DEFAULT, EstimandTag, check_fd_step, qfi_points
from .sweeps import (
    AXES,
    FIGURES,
    SweepConfig,
    figure_dataset,
    format_float,
    model_json,
    result_json,
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

    # argparse drops an OSError from its write, so a --help into a full stdout
    # would be lost silently
    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _write_text(None, message)
        else:
            super()._print_message(message, file)


# default and help text of each model flag, by its name in model.MODEL_NAMES
PARAM_FLAGS = {"gamma": (0.4, "dephasing rate"), "ej": (0.1, "Josephson energy of both qubits"),
               "em": (0.1, "mutual coupling energy"), "ec1": (1.0, "charging energy, qubit 1"),
               "ec2": (1.0, "charging energy, qubit 2"), "ng1": (0.5, "gate charge, qubit 1"),
               "ng2": (0.5, "gate charge, qubit 2")}
# sweep config key -> (its flag's destination, default)
SWEEP_SETTINGS = {"estimand": ("param", None), "axis": ("axis", "time"),
                  "axis_start": ("axis_start", 0.0), "axis_end": ("axis_end", 10.0),
                  "points": ("points", 101), "t": ("t", 1.0),
                  "fd_step": ("fd_step", FD_STEP_DEFAULT), "output_format": ("format", "csv")}
_CONFIG_KEYS = {*MODEL_NAMES, "e", *SWEEP_SETTINGS}
# each SystemParams field -> the model name that sets it
_FIELD_NAMES = {field: name for name, fields in MODEL_NAMES.items() for field in fields}
_ESTIMANDS = [eta.value for eta in EstimandTag]
_SWEEP_WRITERS = {"csv": sweep_to_csv, "json": sweep_to_json}


def _add_param_flags(sub):
    # None means "not given"; true defaults are filled in when params are built
    for name, (default, text) in PARAM_FLAGS.items():
        sub.add_argument(f"--{name}", type=float, default=None,
                         help=f"{text} (default {default})")
        if name == "em":
            sub.add_argument("--e", type=float, default=None,
                             help="shorthand setting ej = em = E (explicit --ej/--em win)")


def _resolve(args, file_cfg: dict, key: str, default, dest: str | None = None):
    """A setting's flag if given, else its config-file key if present, else default."""
    flag = getattr(args, dest or key)
    return flag if flag is not None else file_cfg.get(key, default)


def _build_params(args, file_cfg: dict) -> SystemParams:
    # the --e shorthand (flag, then file) stands in for the ej and em defaults
    e_short = _resolve(args, file_cfg, "e", None)
    fields = {}
    try:  # SystemParams' own check and field order, under the name the user gave
        for field in PARAM_FIELDS:
            name = _FIELD_NAMES[field]
            default = PARAM_FLAGS[name][0]
            if name in ("ej", "em") and e_short is not None:
                default = e_short
            fields[field] = _resolve(args, file_cfg, name, default)
            check_field(name, fields[field])
    except ValueError as exc:
        raise _UsageError(str(exc))
    return SystemParams(**fields)


def _check_option(flag: str, check, value) -> None:
    """Run a library validator on an option value; its ValueError is a usage error."""
    try:
        check(value)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}")


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
    qfi.add_argument("--param", choices=_ESTIMANDS, required=True)
    qfi.add_argument("--t", type=float, default=1.0)
    qfi.add_argument("--fd-step", type=float, default=FD_STEP_DEFAULT)
    qfi.add_argument("--out", type=str, default=None)

    sweep = subs.add_parser("sweep", help="sweep the Fisher information along one axis")
    _add_param_flags(sweep)
    sweep.add_argument("--config", type=str, default=None, help="flat JSON config; flags override")
    sweep.add_argument("--param", choices=_ESTIMANDS, default=None)
    sweep.add_argument("--axis", choices=AXES, default=None)
    sweep.add_argument("--axis-start", type=float, default=None)
    sweep.add_argument("--axis-end", type=float, default=None)
    sweep.add_argument("--points", type=int, default=None)
    sweep.add_argument("--t", type=float, default=None)
    sweep.add_argument("--fd-step", type=float, default=None)
    sweep.add_argument("--format", choices=list(_SWEEP_WRITERS), default=None)
    sweep.add_argument("--out", type=str, default=None)

    figure = subs.add_parser("figure", help="run a bundled figure preset")
    figure.add_argument("figure_id", choices=sorted(FIGURES))
    figure.add_argument("--points", type=int, default=201)
    figure.add_argument("--fd-step", type=float, default=FD_STEP_DEFAULT)
    figure.add_argument("--out", type=str, default=".", help="output directory")

    audit = subs.add_parser("audit", help="compare the closed-form rho(t) to the propagator")
    _add_param_flags(audit)
    audit.add_argument("--t-max", type=float, default=10.0)
    audit.add_argument("--points", type=int, default=21)
    audit.add_argument("--tol", type=float, default=1e-8)
    audit.add_argument("--out", type=str, default=None)
    return parser


def _write_text(path: str | Path | None, text: str) -> None:
    try:
        if path is None:
            # flushed here, so that a full stdout fails now and not at interpreter exit
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {'stdout' if path is None else path}: {exc}")


def _time_grid(args) -> np.ndarray:
    """The --t-max/--points grid of evolve and audit."""
    if args.points < 2 or args.t_max <= 0:
        raise _UsageError(f"{args.command} needs --points >= 2 and --t-max > 0")
    _check_option("--t-max", check_time, args.t_max)
    return np.linspace(0.0, args.t_max, args.points)


def _cmd_evolve(args) -> int:
    p = _build_params(args, {})
    times = _time_grid(args)
    header = ["t"]
    for i in range(1, 5):
        for j in range(1, 5):
            header += [f"rho_re_{i}{j}", f"rho_im_{i}{j}"]
    lines = [",".join(header)]
    for t, mat in zip(times, propagate_checked(bell_state_psi_plus(), [p] * len(times), times)):
        fields = [format_float(float(t))]
        for i in range(4):
            for j in range(4):
                fields += [format_float(mat[i, j].real), format_float(mat[i, j].imag)]
        lines.append(",".join(fields))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_qfi(args) -> int:
    p = _build_params(args, {})
    _check_option("--t", check_time, args.t)
    _check_option("--fd-step", check_fd_step, args.fd_step)
    eta = EstimandTag(args.param)
    # the SLD value fails only where the breakdown fails, with the same error
    breakdown, sld = qfi_points([(p, args.t)], eta, args.fd_step)[0]
    if isinstance(breakdown, Exception):
        raise breakdown
    payload = {
        "params": model_json(p),
        "estimand": eta.value,
        "t": args.t,
        "fd_step": breakdown.fd_step,
        **result_json(breakdown, sld),
        "n_clamped": breakdown.n_clamped,
        "gauge_residual": breakdown.gauge_residual,
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _sweep_config(args) -> tuple[SweepConfig, str]:
    """The sweep's SweepConfig and output format, each setting by flag > file > default."""
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
    settings = {key: _resolve(args, file_cfg, key, default, dest)
                for key, (dest, default) in SWEEP_SETTINGS.items()}
    estimand = settings.pop("estimand")
    output_format = settings.pop("output_format")
    if estimand is None:
        raise _UsageError("an estimand is required (--param or config key 'estimand')")
    params = _build_params(args, file_cfg)
    try:
        cfg = SweepConfig(params=params, estimand=EstimandTag(estimand), **settings)
    except ValueError as exc:
        raise _UsageError(str(exc))
    formats = tuple(_SWEEP_WRITERS)  # a tuple: a JSON list or object is no dict key
    if output_format not in formats:
        raise _UsageError(f"output_format must be one of {formats}, got {output_format!r}")
    return cfg, output_format


def _cmd_sweep(args) -> int:
    cfg, output_format = _sweep_config(args)
    _write_text(args.out, _SWEEP_WRITERS[output_format](run_sweep(cfg)))
    return 0


def _cmd_figure(args) -> int:
    # a sweep reports per-point failures as error rows, so a ValueError here
    # is a rejected option; nothing is written before the options pass
    try:
        dataset = figure_dataset(args.figure_id, points=args.points, fd_step=args.fd_step)
    except ValueError as exc:
        raise _UsageError(str(exc))
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot write {out_dir}: {exc}")
    for label, result in dataset:
        _write_text(out_dir / f"{args.figure_id}_{label}.csv", sweep_to_csv(result))
    return 0


def _cmd_audit(args) -> int:
    p = _build_params(args, {})
    grid = _time_grid(args)
    _check_option("--tol", check_tol, args.tol)
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
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        # argparse exits directly for --help; keep that code
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ContractViolationError, ValueError) as exc:
        # contract violations, and domain failures inside the computation
        # (negative radicand, bad step)
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
