"""Dephasing dynamics: master-equation right-hand side, two independent
propagators, and an audited closed-form solution.

The right-hand side is -i[H, rho] + (gamma/8) sum_j (2 Zj rho Zj - Zj Zj rho
- rho Zj Zj). Z1 and Z2 are diagonal, so the dephasing sum is applied
entrywise: rho times a constant 4x4 mask with entries 0, -4 and -8.

The authoritative propagator is the matrix exponential of the Liouvillian
(scaling-and-squaring). One batch core, _propagate_rows, builds every
generator and exponentiates each chunk with one public scipy.linalg.expm call
in expm_states, each state bit-identical to expm of its generator alone:
propagate_expm is a one-point call of the core and propagate_checked a batch
call. The Liouvillian is linear in its coefficients (kappa1, kappa2, e_j1,
e_j2, e_m, gamma), a product with six constant generators, so this route
builds no Hamiltonian. An adaptive Runge-Kutta integration of the right-hand
side is an independent cross-check; it builds H once per integration and
never touches the 16x16 generator. The two routes share only
model.kappa_coefficients. Both check each time once (check_time) and each
state once against the single state contract (model.state_faults, which
DensityMatrix applies); the core returns bare states, so each of its callers
applies the contract. The closed-form rho(t) at the degeneracy point is kept
exactly as derived even though its lambda3 radicand is dimensionally suspect;
audit_analytic measures its deviation from propagate_checked.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from .errors import IntegrationError
from .model import (
    PARAM_FIELDS,
    X1,
    X2,
    Z1,
    Z2,
    ZZ,
    DensityMatrix,
    SystemParams,
    as_matrix,
    bell_state_psi_plus,
    build_hamiltonian,
    kappa_coefficients,
    param_rows,
    _readonly,
    state_faults,
)

# generators exponentiated per expm call in _propagate_rows
EXPM_CHUNK = 128

# sum_j (2 z_a z_b - z_a^2 - z_b^2) over the diagonals z of Z1 and Z2; rho times it,
# entrywise, is sum_j (2 Zj rho Zj - Zj Zj rho - rho Zj Zj)
_RHS_DEPHASING_MASK = sum(2.0 * np.outer(z, z) - z[:, np.newaxis] ** 2 - z[np.newaxis, :] ** 2
                          for z in (np.diag(Z1).real, np.diag(Z2).real))


def _commutator(a: np.ndarray) -> np.ndarray:
    """-1j (I (x) A - A^T (x) I), the action of -i[A, rho] on column-stacked rho."""
    return -1j * (np.kron(np.eye(4), a) - np.kron(a.T, np.eye(4)))


# flattened generators G_k of L = sum_k c_k G_k for the coefficients c = (kappa1, kappa2,
# e_j1, e_j2, e_m, gamma): the commutators of the terms -Z1/2, -Z2/2, -X1/2, -X2/2 and ZZ
# of build_hamiltonian, and the vectorized dephasing term
# sum_j (2 Zj^T (x) Zj - I (x) Zj^2 - (Zj^2)^T (x) I) / 8
_GENERATORS = np.array(
    [_commutator(-0.5 * Z1), _commutator(-0.5 * Z2), _commutator(-0.5 * X1),
     _commutator(-0.5 * X2), _commutator(ZZ),
     sum(2.0 * np.kron(sz.T, sz) - np.kron(np.eye(4), sz @ sz) - np.kron((sz @ sz).T, np.eye(4))
         for sz in (Z1, Z2)) / 8.0]).reshape(6, 256)


def check_time(t: float) -> None:
    """Evolution runs forward over a finite time: ValueError for t < 0, nan or inf."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")


def check_tol(tol: float) -> None:
    """ValueError unless the audit tolerance is a finite number > 0."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def lindblad_rhs(rho, p: SystemParams) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + (gamma/8) sum_j (2 Zj rho Zj - Zj Zj rho - rho Zj Zj).

    Zj is diagonal, so the dephasing sum is applied entrywise, as rho times a
    constant mask.
    """
    return _rhs(as_matrix(rho), *_rhs_constants(p))


def _rhs_constants(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """H and the entrywise dephasing factors (gamma/8) * mask of lindblad_rhs."""
    return build_hamiltonian(p), (p.gamma / 8.0) * _RHS_DEPHASING_MASK


def _rhs(r: np.ndarray, h: np.ndarray, damping: np.ndarray) -> np.ndarray:
    return -1j * (h @ r - r @ h) + damping * r


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """16x16 generator acting on column-stacked density matrices."""

    matrix: np.ndarray


def liouvillian_stack(rows: np.ndarray) -> np.ndarray:
    """(n, 16, 16) generators of (n, 8) model.param_rows, as one product of their
    coefficients (kappa1, kappa2, e_j1, e_j2, e_m, gamma) with _GENERATORS; each
    slice is bit-identical to the generator of its row built alone."""
    p = SimpleNamespace(**dict(zip(PARAM_FIELDS, rows.T)))
    coefficients = np.stack([*kappa_coefficients(p), p.e_j1, p.e_j2, p.e_m, p.gamma], axis=-1)
    return (coefficients @ _GENERATORS).reshape(-1, 16, 16)


def build_liouvillian(p: SystemParams) -> Liouvillian:
    """Generator L with unvec(L vec(rho)) = lindblad_rhs(rho); no propagator calls it."""
    generator = liouvillian_stack(param_rows([p]))[0]
    return Liouvillian(matrix=_readonly(generator))


def expm_states(rho0, generators: np.ndarray) -> np.ndarray:
    """unvec(expm(G) vec(rho0)) for each G of an (n, 16, 16) stack, as (n, 4, 4), by one
    scipy.linalg.expm call; each state is bit-identical to expm of its G alone."""
    vecs = expm(generators) @ as_matrix(rho0).reshape(16, order="F")
    return vecs.reshape(-1, 4, 4).transpose(0, 2, 1)


def _propagate_rows(rho0, rows: np.ndarray, times) -> np.ndarray:
    """unvec(expm(L(p) t) vec(rho0)) per param_rows row p of a valid SystemParams
    and paired time t, as an (n, 4, 4) stack; neither times nor states are checked.

    Per EXPM_CHUNK states, one liouvillian_stack and one expm_states call, written
    into one preallocated stack; each state is bit-identical whatever the chunking.
    """
    times = np.asarray(times, dtype=float)[:, np.newaxis, np.newaxis]
    states = np.empty((len(rows), 4, 4), dtype=complex)
    # in chunks, so that the generator stacks held at once do not grow with len(rows)
    for s in range(0, len(rows), EXPM_CHUNK):
        # a huge field overflows here; the state contract reports the state it gives
        with np.errstate(over="ignore", invalid="ignore"):
            generators = liouvillian_stack(rows[s:s + EXPM_CHUNK]) * times[s:s + EXPM_CHUNK]
        states[s:s + EXPM_CHUNK] = expm_states(rho0, generators)
    return states


def propagate_checked(rho0, params, times) -> np.ndarray:
    """rho0 propagated to paired SystemParams and times >= 0, as an (n, 4, 4) stack.

    ValueError on unequal lengths, then every time is checked before any state;
    raises the first state's ContractViolationError.
    """
    if len(params) != len(times):
        raise ValueError(f"{len(params)} parameter sets but {len(times)} times")
    for t in times:
        check_time(t)
    mats = _propagate_rows(rho0, param_rows(params), times)
    for fault in state_faults(mats):
        if fault is not None:
            raise fault
    return mats


def propagate_expm(rho0, p: SystemParams, t: float) -> DensityMatrix:
    """Propagate rho0 to time t via expm(L t) acting on vec(rho0), as a one-point
    _propagate_rows call; exact up to the matrix-exponential kernel."""
    check_time(t)
    return DensityMatrix(_propagate_rows(rho0, param_rows([p]), [t])[0])


def propagate_rk(rho0, p: SystemParams, t: float) -> DensityMatrix:
    """Propagate rho0 to time t by adaptive Runge-Kutta on lindblad_rhs.

    Independent of the exponential route: integrates the right-hand side
    directly, never touching the 16x16 generator. H and the dephasing
    factors are built once per integration, not once per right-hand-side
    call. The relative tolerance is 1e-9 and the absolute floor 1e-12.

    The step count, and so the cost, grows about linearly with t at large t:
    at ng 0.45/0.55, ej 0.2/0.3, em 0.15, gamma 0.3 one call takes 16-29 ms at
    t = 100, 38-64 ms at t = 1e3 and 0.35-0.41 s at t = 1e4 (2-core Xeon, BLAS
    1 thread). t is bounded only by check_time, so a call at t = 1e300 never
    returns; propagate_expm answers any finite t at once.
    """
    check_time(t)
    r0 = as_matrix(rho0)
    if t == 0.0:
        return DensityMatrix(r0)
    # imported here: scipy.integrate dominates the package's import time and
    # only this route needs it
    from scipy.integrate import solve_ivp

    h, damping = _rhs_constants(p)

    def rhs(_t, y):
        return _rhs(y.reshape((4, 4)), h, damping).reshape(16)

    # no t_eval: the last step ends at t, and dense output would cost 3 more calls
    sol = solve_ivp(rhs, (0.0, t), r0.reshape(16), method="DOP853",
                    rtol=1e-9, atol=1e-12)
    if not sol.success:
        raise IntegrationError(f"adaptive integration failed: {sol.message}")
    return DensityMatrix(sol.y[:, -1].reshape((4, 4)))


# ---------------------------------------------------------------------------
# closed-form solution at the degeneracy point (kept verbatim, audited)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticCoefficients:
    """Coefficients of the closed-form rho(t) for identical qubits at degeneracy.

    mu_plus/mu_minus here are the solution-level constants lambda3 +/- (gamma^2
    + E_m^2 - E_j^2); the eigensystem layer defines a different mu pair and the
    two are never interchanged.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    mu_plus: float
    mu_minus: float
    r1_plus: float
    r1_minus: float
    r2_plus: float
    r2_minus: float
    upsilon1: float
    upsilon2: float


def analytic_coefficients(p: SystemParams, t: float) -> AnalyticCoefficients:
    """Evaluate the closed-form coefficient set at time t.

    Raises ValueError on a negative radicand; nothing is clamped or
    corrected. The lambda3 radicand contains the term 2 E_m (E_j^2 +
    gamma^2)^2, which mixes energy powers; it is evaluated exactly as
    written.
    """
    if not p.degenerate_identical():
        raise ValueError("closed form requires identical qubits at the degeneracy point")
    ej, em, g = p.e_j1, p.e_m, p.gamma
    rad3 = em ** 4 + (ej ** 2 - g ** 2) ** 2 + 2.0 * em * (ej ** 2 + g ** 2) ** 2
    if rad3 < 0.0:
        raise ValueError(f"lambda3 radicand is negative ({rad3:.6e})")
    lam3 = math.sqrt(rad3)
    a = em ** 2 + ej ** 2 - g ** 2
    rad1 = lam3 + a
    rad2 = lam3 - a
    if rad1 < 0.0 or rad2 < 0.0:
        raise ValueError(f"lambda1/lambda2 radicand is negative ({rad1:.6e}, {rad2:.6e})")
    lam1 = math.sqrt(rad1)
    lam2 = math.sqrt(rad2)
    lam123 = lam1 * lam2 * lam3
    if lam123 == 0.0 or lam3 == 0.0:
        raise ValueError("degenerate closed-form coefficients: lambda1*lambda2*lambda3 = 0")
    b = g ** 2 + em ** 2 - ej ** 2
    s2 = math.sqrt(2.0)
    sin1, cos1 = math.sin(s2 * lam1 * t), math.cos(s2 * lam1 * t)
    sinh2, cosh2 = math.sinh(s2 * lam2 * t), math.cosh(s2 * lam2 * t)
    return AnalyticCoefficients(
        lambda1=lam1, lambda2=lam2, lambda3=lam3,
        mu_plus=lam3 + b, mu_minus=lam3 - b,
        r1_plus=s2 * g * sin1 + lam2 * cos1,
        r1_minus=s2 * g * sin1 - lam2 * cos1,
        r2_plus=s2 * g * sinh2 + lam2 * cosh2,
        r2_minus=s2 * g * sinh2 - lam2 * cosh2,
        upsilon1=math.exp(-2.0 * g * t) / (8.0 * lam123),
        upsilon2=ej * math.exp(-2.0 * g * t) / (8.0 * lam3),
    )


def analytic_state_matrix(p: SystemParams, t: float) -> np.ndarray:
    """Closed-form rho(t) evaluated verbatim; may violate positivity (audited)."""
    check_time(t)
    c = analytic_coefficients(p, t)
    ej, em, g = p.e_j1, p.e_m, p.gamma
    lam123 = c.lambda1 * c.lambda2 * c.lambda3
    grow = 2.0 * lam123 * math.exp(2.0 * g * t)
    decay = 2.0 * lam123 * math.exp(-2.0 * g * t)
    sym = c.lambda2 * c.mu_minus * c.r1_plus + c.lambda1 * c.mu_plus * c.r2_plus
    asym = c.lambda2 * c.mu_minus * c.r1_minus + c.lambda1 * c.mu_plus * c.r2_minus
    s2 = math.sqrt(2.0)
    sin1, cos1 = math.sin(s2 * c.lambda1 * t), math.cos(s2 * c.lambda1 * t)
    sinh2, cosh2 = math.sinh(s2 * c.lambda2 * t), math.cosh(s2 * c.lambda2 * t)

    r11 = c.upsilon1 * (grow - sym)
    r22 = c.upsilon1 * (grow + sym)
    r14 = c.upsilon1 * (decay + asym)
    r23 = c.upsilon1 * (decay - asym)
    r12 = c.upsilon2 * (2.0 * em * (cosh2 - cos1)
                        + 1j * s2 * (c.lambda2 * sinh2 + c.lambda1 * sin1))

    mat = np.empty((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = r11
    mat[1, 1] = mat[2, 2] = r22
    mat[0, 3] = mat[3, 0] = r14
    mat[1, 2] = mat[2, 1] = r23
    mat[0, 1] = mat[0, 2] = mat[3, 1] = mat[3, 2] = r12
    mat[1, 0] = mat[2, 0] = mat[1, 3] = mat[2, 3] = np.conj(r12)
    return mat


@dataclass(frozen=True)
class AuditReport:
    """Entrywise comparison of the closed form against the exponential propagator."""

    params: SystemParams
    tolerance: float
    grid: tuple
    max_abs_deviation: float
    deviating_entries: tuple  # (t, row, col, analytic, oracle, abs_dev), 1-based indices
    failures: tuple           # (t, message) for grid points where the closed form errored
    verdict: str              # "consistent" | "inconsistent"

    def to_dict(self) -> dict:
        return {
            "params": dataclasses.asdict(self.params),
            "tolerance": self.tolerance,
            "grid": list(self.grid),
            "max_abs_deviation": self.max_abs_deviation,
            "deviating_entries": [
                {"t": t, "row": r, "col": col,
                 "analytic": [val.real, val.imag],
                 "oracle": [ora.real, ora.imag],
                 "abs_dev": dev}
                for (t, r, col, val, ora, dev) in self.deviating_entries
            ],
            "failures": [{"t": t, "message": m} for (t, m) in self.failures],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def audit_analytic(p: SystemParams, t_grid, tol: float = 1e-8) -> AuditReport:
    """Compare analytic_state_matrix against propagate_checked on a time grid.

    Every time is checked before any state is propagated. Domain errors and
    overflows in the closed form become audit entries, never exceptions.
    Verdict is "consistent" iff the largest entrywise deviation over the grid
    stays within tol.
    """
    check_tol(tol)
    grid = tuple(float(t) for t in t_grid)
    max_dev = 0.0
    deviating = []
    failures = []
    for t, oracle in zip(grid, propagate_checked(bell_state_psi_plus(), [p] * len(grid), grid)):
        try:
            candidate = analytic_state_matrix(p, t)
        except (ValueError, OverflowError) as exc:
            failures.append((t, str(exc)))
            continue
        dev = np.abs(candidate - oracle)
        max_dev = max(max_dev, float(dev.max()))
        for i in range(4):
            for j in range(4):
                if dev[i, j] > tol:
                    deviating.append((t, i + 1, j + 1,
                                      complex(candidate[i, j]), complex(oracle[i, j]),
                                      float(dev[i, j])))
    verdict = "consistent" if (max_dev <= tol and not failures) else "inconsistent"
    return AuditReport(params=p, tolerance=tol, grid=grid,
                       max_abs_deviation=max_dev, deviating_entries=tuple(deviating),
                       failures=tuple(failures), verdict=verdict)
