"""The four benchmark workloads and the correctness gate they share.

Each workload is closed-loop: one client in this process issues a request,
waits for it, checks it, then issues the next. ``request(i)`` does and times
the work of request ``i``; the gate runs after the timer stops. A request
reports how many operations it attempted, how many missed the gate, and a
wall time per operation or per request for the latency figures.

Inputs come from ``--seed`` through ``random.Random``. ``figure_time`` keeps
the bundled presets; the other workloads draw off-degeneracy parameters and
times from the seed. The ranges were chosen so that no operation fails; the
one error row a gamma axis starting at 0 produces is the documented
behaviour of the sweep engine and is checked exactly, not excused.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from tracer import TRACE_MARKER

from chargeqfi import dynamics, model, qfi, sweeps

NPROC = len(os.sched_getaffinity(0))
HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference" / "figure_time.json"
REFERENCE_FIELDS = ["t", "f_total", "f_c", "f_p", "f_m", "sld"]

# Gate tolerances, the ones the test suite uses: golden values (test_qfi),
# breakdown versus SLD (acceptance 03) and expm versus RK (acceptance 01).
GOLDEN_REL = {"f_total": 1e-6, "f_c": 1e-6, "f_p": 1e-4, "f_m": 1e-3, "sld": 1e-6}
REL_FLOOR = 1e-6
ORACLE_REL = 1e-4
ROUTE_ATOL = 1e-7
STATE_ATOL = 1e-9

FIGURE_IDS = ("fig1a", "fig3a", "fig5a")
FIGURE_POINTS = 201
ACCEPTANCE_GAMMAS = (0.3, 0.4, 0.5)
ACCEPTANCE_COUPLINGS = (0.05, 0.1, 0.2)
ACCEPTANCE_TIMES = (0.5, 1.0, 2.0, 5.0, 10.0)


def rel_miss(value: float, ref: float, rel: float) -> bool:
    return not abs(value - ref) <= rel * max(abs(ref), REL_FLOOR)


def oracle_miss(f_total: float, sld: float) -> bool:
    return not abs(f_total - sld) / max(sld, REL_FLOOR) <= ORACLE_REL


def params_dict(p: model.SystemParams) -> dict:
    return {"e_c1": p.e_c1, "e_c2": p.e_c2, "e_j1": p.e_j1, "e_j2": p.e_j2,
            "e_m": p.e_m, "n_g1": p.n_g1, "n_g2": p.n_g2, "gamma": p.gamma}


def off_degenerate_params(rng: random.Random, e_j: float, e_m: float,
                          gamma: float) -> model.SystemParams:
    """Identical Josephson energies; distinct charging energies; distinct gate
    charges, each 0.02-0.08 away from 1/2."""
    ng1 = round(0.5 + rng.choice((-1, 1)) * rng.uniform(0.02, 0.08), 4)
    ng2 = round(0.5 + rng.choice((-1, 1)) * rng.uniform(0.02, 0.08), 4)
    if abs(ng2 - ng1) < 1e-3:
        ng2 = round(ng2 + 0.01, 4)
    ec1 = round(rng.uniform(0.8, 1.2), 4)
    ec2 = round(ec1 + rng.choice((-1, 1)) * rng.uniform(0.05, 0.2), 4)
    return model.SystemParams(e_c1=ec1, e_c2=ec2, e_j1=e_j, e_j2=e_j, e_m=e_m,
                              n_g1=ng1, n_g2=ng2, gamma=gamma)


def dealt(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n evenly spaced values in [lo, hi], in seeded order."""
    values = [round(lo + (hi - lo) * k / (n - 1), 4) for k in range(n)]
    rng.shuffle(values)
    return values


@dataclass
class Request:
    ops: int                      # operations attempted (QFI points, comparisons, invocations)
    seconds: float                # timed wall time of the request
    latencies: list               # seconds per latency sample
    failed: int = 0               # operations that missed the gate
    misses: list = field(default_factory=list)
    expected_errors: int = 0
    rss_mb: list = field(default_factory=list)
    trace: dict | None = None     # per-layer stats gathered in a child process


class Workload:
    name = ""
    unit = "op"
    # requests in one full cycle of distinct inputs; a run ends on a cycle boundary
    cycle = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        """Untimed: build references for the gate."""

    def first_op(self) -> None:
        """The first evaluated operation, as the set-up probe runs it."""
        raise NotImplementedError

    def request(self, i: int, traced: bool = False) -> Request:
        raise NotImplementedError


def audit_reference(p: model.SystemParams, grid) -> tuple[float, int]:
    """What audit_analytic should report: the closed form's largest entrywise
    deviation from the reference propagator, and how many grid points it
    cannot evaluate."""
    worst, failures = 0.0, 0
    for t in grid:
        try:
            closed = dynamics.analytic_state_matrix(p, t)
        except ValueError:
            failures += 1
            continue
        worst = max(worst, float(np.max(np.abs(closed - reference.state(params_dict(p), t)))))
    return worst, failures


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src on the path."""
    return dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------

class FigureTime(Workload):
    """fig1a, fig3a, fig5a presets at parallelism 1; a request is one curve.

    Each request runs one preset curve through ``run_sweep`` with the
    configuration ``figure_dataset`` builds for it. A curve rather than a
    whole figure per request gives a run enough requests for a median.
    """

    name = "figure_time"
    unit = "QFI point"

    def __init__(self, seed):
        super().__init__(seed)
        self.curves = []
        for fig in FIGURE_IDS:
            spec = sweeps.FIGURES[fig]
            for label, params in spec.curves:
                cfg = sweeps.SweepConfig(params=params, estimand=spec.estimand, axis="time",
                                         axis_start=sweeps.FIGURE_T_START,
                                         axis_end=sweeps.FIGURE_T_END,
                                         points=FIGURE_POINTS, parallelism=1)
                self.curves.append((fig, label, cfg))
        self.cycle = len(self.curves)

    def prepare(self):
        stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        fields = stored["fields"]
        self.ref = {(fig, label): [dict(zip(fields, row)) for row in rows]
                    for fig, curves in stored["figures"].items()
                    for label, rows in curves.items()}
        # reference curves the presets no longer produce fail once per cycle
        produced = {(fig, label) for fig, label, _ in self.curves}
        self.unproduced = {key: len(rows) for key, rows in self.ref.items() if key not in produced}

    def first_op(self):
        cfg = self.curves[0][2]
        qfi.qfi_components(cfg.params, sweeps.FIGURE_T_START, cfg.estimand)
        qfi.qfi_sld(cfg.params, sweeps.FIGURE_T_START, cfg.estimand)

    def request(self, i, traced=False):
        fig, label, cfg = self.curves[i % self.cycle]
        result, dt = _timed(sweeps.run_sweep, cfg)
        req = Request(ops=len(result.rows), seconds=dt, latencies=[dt])
        ref_rows = self.ref.get((fig, label), [])
        for k, row in enumerate(result.rows):
            why = self._check_row(row, ref_rows[k]) if k < len(ref_rows) else "no reference row"
            if why:
                req.failed += 1
                req.misses.append(f"{fig}/{label} t={row.axis_value!r}: {why}")
        missing = len(ref_rows) - len(result.rows)
        if missing > 0:
            req.ops += missing
            req.failed += missing
            req.misses.append(f"{fig}/{label}: {missing} reference points not produced")
        if i % self.cycle == 0:
            for (ref_fig, ref_label), n in self.unproduced.items():
                req.ops += n
                req.failed += n
                req.misses.append(f"{ref_fig}/{ref_label}: reference curve not produced")
        return req

    @staticmethod
    def _check_row(row, ref):
        if row.axis_value != ref["t"]:
            return f"axis value {row.axis_value!r} != {ref['t']!r}"
        if row.error is not None:
            return f"error row: {row.error}"
        b = row.breakdown
        got = {"f_total": b.f_total, "f_c": b.f_c, "f_p": b.f_p, "f_m": b.f_m, "sld": row.sld}
        for key, rel in GOLDEN_REL.items():
            if rel_miss(got[key], ref[key], rel):
                return f"{key} {got[key]!r} vs reference {ref[key]!r}"
        if oracle_miss(b.f_total, row.sld):
            return f"breakdown {b.f_total!r} vs SLD {row.sld!r}"
        return None


# ---------------------------------------------------------------------------

class ParamAxis(Workload):
    """gamma (from 0), ej and em axes at fixed t, off degeneracy, thread pool."""

    name = "param_axis"
    unit = "QFI point"
    cycle = 3
    points = 201
    spot_checks = 8

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        base = off_degenerate_params(rng, e_j=round(rng.uniform(0.05, 0.2), 4),
                                     e_m=round(rng.uniform(0.05, 0.2), 4),
                                     gamma=round(rng.uniform(0.2, 0.5), 4))
        t = round(rng.uniform(1.0, 3.0), 4)
        axes = (("gamma", qfi.EstimandTag.GAMMA, 0.0, round(rng.uniform(0.6, 1.0), 4)),
                ("ej", qfi.EstimandTag.EJ, 0.02, round(rng.uniform(0.25, 0.35), 4)),
                ("em", qfi.EstimandTag.EM, 0.02, round(rng.uniform(0.25, 0.35), 4)))
        self.configs = [
            sweeps.SweepConfig(params=base, estimand=eta, axis=axis, axis_start=lo,
                               axis_end=hi, points=self.points, t=t, parallelism=NPROC)
            for axis, eta, lo, hi in axes]

    @staticmethod
    def expected_error(cfg, value) -> bool:
        return (cfg.axis == "gamma" and cfg.estimand is qfi.EstimandTag.GAMMA
                and value < cfg.fd_step)

    def prepare(self):
        self.serial_csv = []
        self.spots = []
        for cfg in self.configs:
            serial = sweeps.run_sweep(dataclasses.replace(cfg, parallelism=1))
            self.serial_csv.append(sweeps.sweep_to_csv(serial).splitlines())
            valid = [k for k, row in enumerate(serial.rows)
                     if not self.expected_error(cfg, row.axis_value)]
            picks = sorted(self.rng.sample(valid, self.spot_checks))
            spots = {}
            for k in picks:
                p, t = axis_inputs(cfg, serial.rows[k].axis_value)
                spots[k] = reference.sld_qfi(params_dict(p), t, cfg.estimand.value, cfg.fd_step)
            self.spots.append(spots)

    def first_op(self):
        cfg = self.configs[0]
        p, t = axis_inputs(cfg, float(np.linspace(cfg.axis_start, cfg.axis_end, cfg.points)[1]))
        qfi.qfi_components(p, t, cfg.estimand, cfg.fd_step)
        qfi.qfi_sld(p, t, cfg.estimand, cfg.fd_step)

    def request(self, i, traced=False):
        k_cfg = i % len(self.configs)
        cfg = self.configs[k_cfg]
        t0 = time.perf_counter()
        result = sweeps.run_sweep(cfg)
        csv = sweeps.sweep_to_csv(result)
        dt = time.perf_counter() - t0
        req = Request(ops=len(result.rows), seconds=dt, latencies=[dt])
        lines = csv.splitlines()
        serial = self.serial_csv[k_cfg]
        if len(lines) != len(serial) or lines[0] != serial[0]:
            req.failed = max(len(result.rows), 1)
            req.misses.append(f"{cfg.axis}: CSV shape differs from the parallelism-1 run")
            return req
        spots = self.spots[k_cfg]
        for k, row in enumerate(result.rows):
            why = None
            if lines[k + 1] != serial[k + 1]:
                why = f"CSV line differs from parallelism 1: {lines[k + 1]!r}"
            elif self.expected_error(cfg, row.axis_value) and row.error is not None:
                req.expected_errors += 1
            elif row.error is not None:
                why = f"error row: {row.error}"
            elif oracle_miss(row.breakdown.f_total, row.sld):
                why = f"breakdown {row.breakdown.f_total!r} vs SLD {row.sld!r}"
            elif k in spots and rel_miss(row.sld, spots[k], GOLDEN_REL["sld"]):
                why = f"SLD {row.sld!r} vs reference {spots[k]!r}"
            if why:
                req.failed += 1
                req.misses.append(f"{cfg.axis}={row.axis_value!r}: {why}")
        return req


def axis_inputs(cfg, value):
    """Parameters and time at one point of a parameter-axis sweep."""
    if cfg.axis == "gamma":
        return dataclasses.replace(cfg.params, gamma=value), cfg.t
    if cfg.axis == "ej":
        return dataclasses.replace(cfg.params, e_j1=value, e_j2=value), cfg.t
    return dataclasses.replace(cfg.params, e_m=value), cfg.t


# ---------------------------------------------------------------------------

class Crosscheck(Workload):
    """propagate_rk against propagate_expm on the acceptance-01 grid, plus one audit."""

    name = "crosscheck"
    unit = "comparison"

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.times = [round(t * rng.uniform(0.97, 1.03), 4) for t in ACCEPTANCE_TIMES]
        # The seed deals each grid cell its own detuning from a fixed, evenly
        # spaced set, so RK step counts (and the run's cost) differ little
        # between seeds while every cell still gets new parameters.
        n = len(ACCEPTANCE_GAMMAS) * len(ACCEPTANCE_COUPLINGS)
        dev1, dev2 = dealt(rng, 0.02, 0.08, n), dealt(rng, 0.0233, 0.0833, n)
        ec1, ec2 = dealt(rng, 0.8, 0.98, n), dealt(rng, 1.02, 1.2, n)
        ej_ratio = dealt(rng, 0.85, 1.15, n)
        self.cells = []
        for k, (g, e) in enumerate((g, e) for g in ACCEPTANCE_GAMMAS for e in ACCEPTANCE_COUPLINGS):
            self.cells.append(model.SystemParams(
                e_c1=ec1[k], e_c2=ec2[k], e_j1=e, e_j2=round(e * ej_ratio[k], 4), e_m=e,
                n_g1=round(0.5 + rng.choice((-1, 1)) * dev1[k], 4),
                n_g2=round(0.5 + rng.choice((-1, 1)) * dev2[k], 4), gamma=g))
        # the closed form only exists for identical qubits at degeneracy
        self.audit_params = model.SystemParams.degenerate(
            e_j=rng.choice(ACCEPTANCE_COUPLINGS), e_m=rng.choice(ACCEPTANCE_COUPLINGS),
            gamma=rng.choice(ACCEPTANCE_GAMMAS))
        self.audit_grid = [0.0] + self.times

    def prepare(self):
        self.ref_states = [[reference.state(params_dict(p), t) for t in self.times]
                           for p in self.cells]
        self.audit_ref = audit_reference(self.audit_params, self.audit_grid)

    def first_op(self):
        rho0 = model.bell_state_psi_plus()
        dynamics.propagate_expm(rho0, self.cells[0], self.times[0])
        dynamics.propagate_rk(rho0, self.cells[0], self.times[0])

    def request(self, i, traced=False):
        rho0 = model.bell_state_psi_plus()
        req = Request(ops=0, seconds=0.0, latencies=[])
        for c, p in enumerate(self.cells):
            for k, t in enumerate(self.times):
                req.ops += 1
                t0 = time.perf_counter()
                try:
                    a = dynamics.propagate_expm(rho0, p, t)
                    b = dynamics.propagate_rk(rho0, p, t)
                except Exception as exc:  # a raising route is a failed comparison
                    req.seconds += time.perf_counter() - t0
                    req.failed += 1
                    req.misses.append(f"cell {c} t={t}: {exc.__class__.__name__}: {exc}")
                    continue
                dt = time.perf_counter() - t0
                req.seconds += dt
                req.latencies.append(dt)
                route = model.max_abs_diff(a.mat, b.mat)
                golden = model.max_abs_diff(a.mat, self.ref_states[c][k])
                if route > ROUTE_ATOL or golden > STATE_ATOL:
                    req.failed += 1
                    req.misses.append(f"cell {c} t={t}: route {route:.2e}, expm vs reference {golden:.2e}")
        t0 = time.perf_counter()
        try:
            report = dynamics.audit_analytic(self.audit_params, self.audit_grid)
        except Exception as exc:  # a raising audit is a failed request
            req.failed += 1
            req.misses.append(f"audit: {exc.__class__.__name__}: {exc}")
            return req
        finally:
            req.seconds += time.perf_counter() - t0
        worst, failures = self.audit_ref
        if abs(report.max_abs_deviation - worst) > STATE_ATOL or len(report.failures) != failures:
            req.failed += 1
            req.misses.append(f"audit max deviation {report.max_abs_deviation:.6e} "
                              f"({len(report.failures)} failures) vs reference {worst:.6e} ({failures})")
        return req


# ---------------------------------------------------------------------------

class CliOneshot(Workload):
    """Fresh-interpreter CLI runs: qfi (each estimand), evolve and audit."""

    name = "cli_oneshot"
    unit = "invocation"
    cycle = 5
    evolve_points = 51

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        e = round(rng.uniform(0.05, 0.2), 4)
        p = self.qfi_params = off_degenerate_params(rng, e_j=e, e_m=e,
                                                    gamma=round(rng.uniform(0.2, 0.5), 4))
        flags = ["--gamma", repr(p.gamma), "--e", repr(e), "--ec1", repr(p.e_c1),
                 "--ec2", repr(p.e_c2), "--ng1", repr(p.n_g1), "--ng2", repr(p.n_g2)]
        self.qfi_t = round(rng.uniform(0.5, 4.0), 4)
        self.evolve_t_max = round(rng.uniform(2.0, 10.0), 4)
        self.audit = model.SystemParams.degenerate(
            e_j=round(rng.uniform(0.05, 0.2), 4), e_m=round(rng.uniform(0.05, 0.2), 4),
            gamma=round(rng.uniform(0.2, 0.5), 4))
        self.audit_t_max = round(rng.uniform(2.0, 10.0), 4)
        self.commands = [
            ["qfi", "--param", "gamma", "--t", repr(self.qfi_t)] + flags,
            ["qfi", "--param", "ej", "--t", repr(self.qfi_t)] + flags,
            ["qfi", "--param", "em", "--t", repr(self.qfi_t)] + flags,
            ["evolve", "--t-max", repr(self.evolve_t_max), "--points", str(self.evolve_points)] + flags,
            ["audit", "--t-max", repr(self.audit_t_max), "--points", "21",
             "--gamma", repr(self.audit.gamma), "--ej", repr(self.audit.e_j1),
             "--em", repr(self.audit.e_m)],
        ]
        self.env = child_env()

    def prepare(self):
        p = params_dict(self.qfi_params)
        self.ref_sld = {eta: reference.sld_qfi(p, self.qfi_t, eta) for eta in ("gamma", "ej", "em")}
        self.ref_evolve = [reference.state(p, float(t))
                           for t in np.linspace(0.0, self.evolve_t_max, self.evolve_points)]
        self.ref_audit = audit_reference(
            self.audit, [float(t) for t in np.linspace(0.0, self.audit_t_max, 21)])

    def first_op(self):
        from chargeqfi.cli import cli_main
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(self.commands[0])

    def request(self, i, traced=False):
        argv = self.commands[i % len(self.commands)]
        if traced:
            cmd = [sys.executable, str(HERE / "probe.py"), "cli"] + argv
        else:
            cmd = [sys.executable, "-m", "chargeqfi.cli"] + argv
        out, code, dt, rss = run_child(cmd, self.env)
        req = Request(ops=1, seconds=dt, latencies=[dt], rss_mb=[rss])
        if traced and TRACE_MARKER in out:
            out, _, stats = out.rpartition(TRACE_MARKER)
            req.trace = json.loads(stats)
        why = f"exit code {code}: {out[-300:]!r}" if code != 0 else self._check(argv[0], argv, out)
        if why:
            req.failed = 1
            req.misses.append(f"{' '.join(argv[:3])}: {why}")
        return req

    def _check(self, command, argv, out):
        try:
            if command == "qfi":
                got = json.loads(out)
                eta = argv[2]
                if rel_miss(got["sld"], self.ref_sld[eta], GOLDEN_REL["sld"]):
                    return f"sld {got['sld']!r} vs reference {self.ref_sld[eta]!r}"
                if oracle_miss(got["f_total"], got["sld"]):
                    return f"breakdown {got['f_total']!r} vs SLD {got['sld']!r}"
                return None
            if command == "evolve":
                rows = out.strip().splitlines()[1:]
                if len(rows) != self.evolve_points:
                    return f"{len(rows)} rows, expected {self.evolve_points}"
                for row, ref in zip(rows, self.ref_evolve):
                    vals = [float(x) for x in row.split(",")[1:]]
                    mat = (np.array(vals[0::2]) + 1j * np.array(vals[1::2])).reshape(4, 4)
                    dev = float(np.max(np.abs(mat - ref)))
                    if dev > STATE_ATOL:
                        return f"rho(t={row.split(',')[0]}) off the reference by {dev:.2e}"
                return None
            got = json.loads(out)
            worst, failures = self.ref_audit
            if abs(got["max_abs_deviation"] - worst) > STATE_ATOL or len(got["failures"]) != failures:
                return (f"audit max deviation {got['max_abs_deviation']!r} "
                        f"vs reference {worst!r}")
            return None
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output ({exc.__class__.__name__}: {exc})"


def run_child(cmd, env):
    """Run one child to completion; return (output, exit code, wall seconds, max RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return out.decode("utf-8", "replace"), proc.returncode, dt, usage.ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (FigureTime, ParamAxis, Crosscheck, CliOneshot)}
