"""One SHA-256 over the user-visible outputs of a checkout.

Run from the repository root:

    python3 scripts/output_digest.py [--checkout DIR] [--dump OUT]
    python3 scripts/output_digest.py --compare A B

DIR (default: the checkout holding this script) is a checkout of the
repository; its src/ is imported and its scripts/write_audit_artifact.py
rebuilds the audit artifact. Two checkouts print the same digest exactly
when every output below is byte-identical, so a change meant to keep the
numbers can be compared with its parent. --dump OUT writes each output, as
hashed, to OUT/<index>.out, or OUT/<index>.<function>.out for the d_rho and
spectral_derivative outputs, which share a first line; `diff -r` of two dumps
names the moved outputs and shows by how much in their CSV and JSON text.
The function's name is not hashed, so --dump does not change the digest.
--compare A B reads two such dumps instead of a checkout: for each output
whose bytes differ it prints the output's index, its function's name if it
has one, its first line and the largest relative change among the numbers it
holds, or the two counts where the outputs hold different numbers of
numbers, and it exits with 1 if any output differs. The numbers of an output
are the decimal numbers of its text and the values of its raw float64 and
complex128 arrays, each read after its `dtype shape` head (and the fault
list of the interleaved states).

The output set, at the default point (gamma 0.4, ej = em = 0.1) and off
degeneracy (ng 0.45/0.55, ej 0.2, em 0.15, gamma 0.3):
- the --help text of each subcommand, which shows the derived --param and
  --axis choices, and the usage errors of a non-finite --ej and --ng1;
- evolve CSV (default grid, and --points 300 off degeneracy), and the
  exit code and stderr of --t-max 1e300 at both points;
- audit JSON: default, strong coupling (ej 1, em 5, gamma 0, closed-form
  failures), e 0.2 gamma 0.5 at 50 points, off degeneracy, and --t-max 1000
  (the closed form overflows from t ~ 887.2);
- qfi JSON for 3 estimands x t in {0, 1e-6, 1, 2, 7.5, 1e300} at both points;
- all 12 figure presets at 201 points;
- gamma (from 0, with its error row, and from -0.3, with its rows of
  negative gamma), ej, em and time sweeps (the last also to 1e300) off
  degeneracy, CSV and JSON, for each estimand;
- one sweep from a --config JSON file (model parameters, an em axis and JSON
  output from the file, --points from a flag), and one precedence run: a
  file setting e, ej and JSON output, with --em and --format csv as flags;
- the library sweep_to_json of a time sweep off degeneracy with
  e_j1 = 0.2 != e_j2 = 0.25, whose config block echoes both fields;
- the rebuilt docs/closed_form_audit.json;
- d_rho and spectral_derivative (array bytes, dtypes, step,
  near_degenerate_pairs, or the exception class and text) for 3 estimands
  x t in {0, 1e-6, 1, 2, 7.5, -1, 1e300} x h in {1e-4, 1e-7, 1e-3} (the
  default step and the two ends of the accepted range) at both points.
- one library qfi_points batch at each point for the gamma estimand with
  h = 1e-3: valid times interleaved with t = -1, t = nan, gamma = 5e-4 < h
  (the three domain faults) and t = 1e300 (a state-contract fault); the
  breakdown fields and SLD value of each point as repr, or the exception
  class and text.
- the states of one propagate_checked call, and their state_faults texts,
  over EXPM_CHUNK + 37 parameter sets that interleave off-degenerate and
  degenerate ones, so that a set recurs within and across expm chunks
  (sweeps and presets only hold contiguous blocks of equal sets), and so
  that the diagonal generators of e_j1 = e_j2 = 0 sets fall between
  generic ones inside a chunk.
- spectral_decompose (eigenvalue, eigenvector and clamped bytes and
  n_clamped, or the exception class and text) of the Bell state, an evolved
  state, eye(4)/4, and of four matrices that are not states: a non-finite,
  a non-Hermitian, a negative-eigenvalue and a trace-2 one.
- the Runge-Kutta route: propagate_rk states on the acceptance-01 grid
  (gamma in {0.3, 0.4, 0.5} x ej = em in {0.05, 0.1, 0.2} at degeneracy,
  x t in {0.5, 1, 2, 5, 10}) and at the point off degeneracy at the same
  times, and lindblad_rhs of the 16 matrix units at both points.

Every CLI call records its argv, exit code, stdout and stderr, or the class
and text of an exception that escapes cli_main. Files go to a
temporary directory that is removed afterwards; no tracked file is written.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

DEFAULT_FLAGS = []
OFF_FLAGS = ["--ng1", "0.45", "--ng2", "0.55", "--ej", "0.2", "--em", "0.15", "--gamma", "0.3"]
ESTIMANDS = ("gamma", "ej", "em")
QFI_TIMES = ("0", "1e-6", "1", "2", "7.5", "1e300")
DERIVATIVE_TIMES = (0.0, 1e-6, 1.0, 2.0, 7.5, -1.0, 1e300)
DERIVATIVE_STEPS = (1e-4, 1e-7, 1e-3)
BREAKDOWN_FIELDS = ("f_total", "f_c", "f_p", "f_m", "crb", "fd_step", "n_clamped",
                    "gauge_residual")
# the head of a raw array in an output, and the text fault list that follows the
# head of the interleaved states
ARRAY_HEAD = re.compile(rb"(float64|complex128) \(([0-9, ]*)\)( \[[^\]]*\])?")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")
# the acceptance-01 grid of the Runge-Kutta cross-check
RK_GAMMAS = (0.3, 0.4, 0.5)
RK_COUPLINGS = (0.05, 0.1, 0.2)
RK_TIMES = (0.5, 1.0, 2.0, 5.0, 10.0)
SWEEP_AXES = (("gamma", "0", "0.6"), ("gamma", "-0.3", "0.6"), ("ej", "0.05", "0.3"),
              ("em", "0.05", "0.3"), ("time", "0", "10"), ("time", "1", "1e300"))


def import_checkout(checkout: Path):
    sys.path.insert(0, str(checkout / "src"))
    import chargeqfi
    from chargeqfi import cli, dynamics, model, qfi, spectral, sweeps

    if Path(chargeqfi.__file__).resolve().parents[2] != checkout:
        sys.exit(f"chargeqfi was imported from {chargeqfi.__file__}, not from {checkout}")
    return cli, dynamics, model, qfi, spectral, sweeps


def run_cli(cli, argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    # a fresh warning registry per call, as in a fresh process
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        try:
            code = cli.cli_main(argv)
        except Exception as exc:  # the class and text are the output
            code = f"uncaught {type(exc).__name__}: {exc}"
    return f"{argv}\n{code}\n{out.getvalue()}\n{err.getvalue()}".encode()


def library_point(model, flags):
    """The default point, or the point off degeneracy when flags are set."""
    return model.SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4) if not flags else \
        model.SystemParams(e_j1=0.2, e_j2=0.2, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=0.3)


def derivative_bytes(model, qfi, flags) -> list:
    p = library_point(model, flags)
    outputs = []
    for eta in qfi.EstimandTag:
        for t in DERIVATIVE_TIMES:
            for h in DERIVATIVE_STEPS:
                head = f"{p} {eta.value} t={t!r} h={h!r}\n".encode()
                for fn in (qfi.d_rho, qfi.spectral_derivative):
                    try:
                        value = fn(p, t, eta, h)
                    except Exception as exc:  # the class and text are the output
                        body = f"{fn.__name__} {type(exc).__name__}: {exc}".encode()
                    else:
                        arrays = ([value] if fn is qfi.d_rho else
                                  [value.d_eigenvalues, value.d_eigenvectors])
                        body = b"".join(f"{a.dtype} {a.shape}".encode() + a.tobytes()
                                        for a in arrays)
                        if fn is qfi.spectral_derivative:
                            body += f"{value.step!r} {value.near_degenerate_pairs}".encode()
                    outputs.append((fn.__name__, head + body))
    return outputs


def qfi_batch_bytes(model, qfi, flags) -> bytes:
    """One qfi_points batch whose valid points interleave with the three domain faults
    (t = -1, t = nan, gamma < h) and a state-contract fault (t = 1e300)."""
    p = library_point(model, flags)
    low = dataclasses.replace(p, gamma=5e-4)
    points = [(p, 0.0), (p, -1.0), (p, 1.0), (p, math.nan), (p, 2.0), (low, 1.0), (p, 1e300),
              (low, 7.5), (p, 7.5)]
    lines = [f"qfi_points {p} gamma h=0.001"]
    for (q, t), (breakdown, sld) in zip(points, qfi.qfi_points(points, qfi.EstimandTag.GAMMA,
                                                                1e-3)):
        if isinstance(breakdown, Exception):
            text = f"{type(breakdown).__name__}: {breakdown}"
        else:
            text = " ".join(repr(getattr(breakdown, name)) for name in BREAKDOWN_FIELDS)
        sld_text = f"{type(sld).__name__}: {sld}" if isinstance(sld, Exception) else repr(sld)
        lines.append(f"gamma={q.gamma!r} t={t!r} | {text} | {sld_text}")
    return "\n".join(lines).encode()


def interleaved_states(dynamics, model) -> bytes:
    """States of one propagate_checked call, and their state_faults, whose parameter
    sets cycle p, q, p, q with 5 off-degenerate and 4 degenerate sets (gamma 0 among
    them, and one e_j1 = e_j2 = 0 set in each cycle, whose generator is diagonal)."""
    off = [model.SystemParams(e_j1=0.2, e_j2=0.25, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=g)
           for g in (0.0, 0.1, 0.3, 0.5)]
    off.append(model.SystemParams(e_j1=0.0, e_j2=0.0, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=0.3))
    deg = [model.SystemParams.degenerate(e_j=e, e_m=e, gamma=0.4) for e in (0.05, 0.1, 0.2)]
    deg.append(model.SystemParams.degenerate(e_j=0.0, e_m=0.1, gamma=0.4))
    n = dynamics.EXPM_CHUNK + 37
    params = [off[k // 2 % len(off)] if k % 2 == 0 else deg[k // 2 % len(deg)]
              for k in range(n)]
    times = [0.037 * k for k in range(n)]
    mats = dynamics.propagate_checked(model.bell_state_psi_plus(), params, times)
    faults = model.state_faults(mats)
    return f"{mats.dtype} {mats.shape} {[str(f) for f in faults]}".encode() + mats.tobytes()


def decomposition_bytes(dynamics, model, spectral) -> list:
    """spectral_decompose of three states and of four matrices that are not states."""
    bell = model.as_matrix(model.bell_state_psi_plus())
    p = model.SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
    evolved = dynamics.propagate_expm(bell, p, 2.0)
    non_finite, non_hermitian = bell.copy(), bell.copy()
    non_finite[0, 0] = float("nan")
    non_hermitian[0, 1] = 0.1
    inputs = {"bell": bell, "evolved": evolved.mat, "mixed": np.eye(4) / 4,
              "non-finite": non_finite, "non-hermitian": non_hermitian,
              "negative": np.diag([0.6, 0.5, 0.0, -0.1]), "trace-2": 2.0 * bell}
    outputs = []
    for name, mat in inputs.items():
        try:
            dec = spectral.spectral_decompose(mat)
        except Exception as exc:  # the class and text are the output
            body = f"{type(exc).__name__}: {exc}".encode()
        else:
            body = b"".join(f"{a.dtype} {a.shape}".encode() + a.tobytes()
                            for a in (dec.eigenvalues, dec.eigenvectors, dec.clamped))
            body += f" {dec.n_clamped}".encode()
        outputs.append(f"spectral_decompose {name}\n".encode() + body)
    return outputs


def rk_bytes(dynamics, model) -> bytes:
    """propagate_rk on the acceptance-01 grid and off degeneracy, and lindblad_rhs
    of the matrix units at both library points."""
    bell = model.bell_state_psi_plus()
    grid = [model.SystemParams.degenerate(e_j=e, e_m=e, gamma=g)
            for g in RK_GAMMAS for e in RK_COUPLINGS] + [library_point(model, OFF_FLAGS)]
    states = np.array([dynamics.propagate_rk(bell, p, t).mat for p in grid for t in RK_TIMES])
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    rhs = np.array([dynamics.lindblad_rhs(unit, library_point(model, flags))
                    for flags in (DEFAULT_FLAGS, OFF_FLAGS) for unit in units])
    return b"".join(f"{a.dtype} {a.shape}".encode() + a.tobytes() for a in (states, rhs))


def collect(checkout: Path, tmp: Path) -> list:
    cli, dynamics, model, qfi, spectral, sweeps = import_checkout(checkout)
    outputs = [run_cli(cli, [command, "--help"])
               for command in ("evolve", "qfi", "sweep", "figure", "audit")]
    for flags in (["--ej", "nan"], ["--ng1", "inf"]):
        outputs.append(run_cli(cli, ["qfi", "--param", "gamma", *flags]))
    for flags in (DEFAULT_FLAGS, OFF_FLAGS):
        points = ["--points", "300"] if flags else []
        outputs.append(run_cli(cli, ["evolve", *flags, *points]))
        outputs.append(run_cli(cli, ["evolve", *flags, "--t-max", "1e300"]))
        for eta in ESTIMANDS:
            for t in QFI_TIMES:
                outputs.append(run_cli(cli, ["qfi", *flags, "--param", eta, "--t", t]))
        outputs.extend(derivative_bytes(model, qfi, flags))
        outputs.append(qfi_batch_bytes(model, qfi, flags))
    for flags in ([], ["--ej", "1", "--em", "5", "--gamma", "0"],
                  ["--e", "0.2", "--gamma", "0.5", "--points", "50"], OFF_FLAGS,
                  ["--t-max", "1000"]):
        outputs.append(run_cli(cli, ["audit", *flags]))
    for eta in ESTIMANDS:
        for axis, start, end in SWEEP_AXES:
            for fmt in ("csv", "json"):
                outputs.append(run_cli(cli, ["sweep", *OFF_FLAGS, "--param", eta, "--axis", axis,
                                             "--axis-start", start, "--axis-end", end,
                                             "--points", "21", "--format", fmt]))
    config = tmp / "sweep_config.json"
    config.write_text(json.dumps({"estimand": "ej", "axis": "em", "axis_start": 0.05,
                                  "axis_end": 0.3, "points": 5, "t": 2.5, "fd_step": 1e-4,
                                  "output_format": "json", "e": 0.2, "gamma": 0.3,
                                  "ng1": 0.45, "ng2": 0.55}), encoding="utf-8")
    outputs.append(run_cli(cli, ["sweep", "--config", str(config), "--points", "21"]))
    # flag > config file > the --e shorthand > default, and --format over the file
    config.write_text(json.dumps({"estimand": "em", "axis": "gamma", "axis_start": 0.1,
                                  "axis_end": 0.5, "points": 5, "e": 0.2, "ej": 0.3,
                                  "output_format": "json"}), encoding="utf-8")
    outputs.append(run_cli(cli, ["sweep", "--config", str(config), "--em", "0.15",
                                 "--format", "csv"]))
    unequal = model.SystemParams(e_j1=0.2, e_j2=0.25, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=0.3)
    outputs.append(sweeps.sweep_to_json(sweeps.run_sweep(sweeps.SweepConfig(
        params=unequal, estimand=qfi.EstimandTag.EJ, axis="time", axis_start=0.5,
        axis_end=5.0, points=7))).encode())
    for figure_id in sorted(sweeps.FIGURES):
        out_dir = tmp / figure_id
        outputs.append(run_cli(cli, ["figure", figure_id, "--points", "201",
                                     "--out", str(out_dir)]))
        for path in sorted(out_dir.iterdir()):
            outputs.append(path.name.encode() + b"\n" + path.read_bytes())
    artifact = tmp / "closed_form_audit.json"
    runpy.run_path(str(checkout / "scripts" / "write_audit_artifact.py"))["main"]([str(artifact)])
    outputs.append(artifact.read_bytes())
    outputs.append(interleaved_states(dynamics, model))
    outputs.extend(decomposition_bytes(dynamics, model, spectral))
    outputs.append(b"propagate_rk and lindblad_rhs\n" + rk_bytes(dynamics, model))
    return outputs


def label(output: bytes) -> str:
    return output.split(b"\n", 1)[0][:120].decode("ascii", "backslashreplace")


def numbers(output: bytes) -> np.ndarray:
    """The decimal numbers of an output's text and the values of its raw arrays,
    in order, a complex value as its real and imaginary parts."""
    values, pos = [], 0
    while (head := ARRAY_HEAD.search(output, pos)) is not None:
        values += [float(n) for n in NUMBER.findall(output[pos:head.end()])]
        dtype = np.dtype(head[1].decode())
        size = dtype.itemsize * math.prod(int(n) for n in head[2].split(b",") if n.strip())
        array = np.frombuffer(output, dtype, size // dtype.itemsize, head.end())
        values += array.view(float).tolist()
        pos = head.end() + size
    values += [float(n) for n in NUMBER.findall(output[pos:])]
    return np.array(values)


def change(a: bytes, b: bytes) -> str:
    """The largest relative change between the numbers of two outputs, or their counts."""
    x, y = numbers(a), numbers(b)
    if len(x) != len(y):
        return f"{len(x)} vs {len(y)} numbers"
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    # equal numbers (nan included) change by 0; an infinite or nan change is inf
    rel = np.where((x == y) | (np.isnan(x) & np.isnan(y)), 0.0, np.nan_to_num(rel, nan=np.inf))
    return f"max rel change {rel.max(initial=0.0):.3e}"


def stem(name: str) -> str:
    """A dump file's index and function name, as `<index> <function>`."""
    return name.removesuffix(".out").replace(".", " ")


def compare(dump_a: Path, dump_b: Path) -> int:
    """Print each output that differs between two --dump directories; 1 if any does."""
    names = sorted({path.name for path in (*dump_a.iterdir(), *dump_b.iterdir())})
    moved = 0
    for name in names:
        a, b = dump_a / name, dump_b / name
        if a.exists() and b.exists():
            a_bytes, b_bytes = a.read_bytes(), b.read_bytes()
            if a_bytes == b_bytes:
                continue
            print(f"{stem(name)} {label(a_bytes)} {change(a_bytes, b_bytes)}")
        else:
            print(f"{stem(name)} only in {a.parent if a.exists() else b.parent}")
        moved += 1
    print(f"{moved} of {len(names)} outputs differ")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--dump", type=Path, metavar="OUT",
                        help="write each output, as hashed, to OUT/<index>[.<function>].out")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="list the outputs that differ between two --dump directories")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = collect(args.checkout.resolve(), Path(tmp))
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for index, output in enumerate(outputs):
        # a (name, bytes) output carries its function's name into its dump file's name only
        name, output = output if isinstance(output, tuple) else (None, output)
        # the temporary directory's name differs from run to run
        output = output.replace(tmp.encode(), b"TMP")
        # length-prefixed, so that moving bytes between outputs changes the digest
        digest.update(len(output).to_bytes(8, "little") + output)
        if args.dump:
            file_name = f"{index:03d}.out" if name is None else f"{index:03d}.{name}.out"
            (args.dump / file_name).write_bytes(output)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
