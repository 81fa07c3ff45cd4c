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
side is an independent cross-check: the package's own DOP853 loop (_dop853,
Hairer's tableau and step control at the fixed tolerances RK_RTOL and
RK_ATOL, at most RK_MAX_STEPS steps) on the 4x4 state. It builds H once per
integration, as the operand stack [-iH, rho, iH], so that each right-hand-side
evaluation (_rhs, which lindblad_rhs also calls) forms the commutator with one
stacked matmul; it never touches the 16x16 generator and uses no scipy. The two
routes share only model.kappa_coefficients. Both check each time once
(check_time) and each state once against the single state contract
(model.state_faults, which DensityMatrix applies); the core returns bare
states, so each of its callers applies the contract. The printed closed form
at the degeneracy point, rho(t) and its eigensystem, is kept verbatim even
though its lambda3 radicand is dimensionally suspect; _closed_form evaluates it once per (p, t) for both,
after analytic_coefficients checks t, and audit_analytic measures rho(t)
against propagate_checked at AUDIT_TOL.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import ClassVar

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
# the closed form's largest accepted deviation, in audit_analytic, audit and the artifact
AUDIT_TOL = 1e-8

# the adaptive integration in propagate_rk: relative and absolute tolerance, and the
# most steps, accepted or rejected, one integration may take
RK_RTOL = 1e-9
RK_ATOL = 1e-12
RK_MAX_STEPS = 100_000

# DOP853 of Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980), with the coefficients
# of Hairer's dop853.f (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., 1993): the
# 12-stage tableau a_ij of the autonomous step, the 8th-order weights b_i, the 5th-order
# error weights er_i, and the 3rd-order error weights b_i - bhh_i. The last stage's
# right-hand side, the next step's first, has weight 0 in both error estimates.
_DOP853_A = np.zeros((12, 12))
_DOP853_A[1, 0] = 5.26001519587677318785587544488e-2
_DOP853_A[2, :2] = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
_DOP853_A[3, [0, 2]] = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
_DOP853_A[4, [0, 2, 3]] = (2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                           9.24834003261792003115737966543e-1)
_DOP853_A[5, [0, 3, 4]] = (3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                           1.25467687566822425016691814123e-1)
_DOP853_A[6, [0, 3, 4, 5]] = (3.7109375e-2, 1.70252211019544039314978060272e-1,
                              6.02165389804559606850219397283e-2, -1.7578125e-2)
_DOP853_A[7, [0, 3, 4, 5, 6]] = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
_DOP853_A[8, [0, 3, 4, 5, 6, 7]] = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
_DOP853_A[9, [0, 3, 4, 5, 6, 7, 8]] = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
_DOP853_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
_DOP853_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
_DOP853_B = np.zeros(12)
_DOP853_B[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
_DOP853_E5 = np.zeros(12)
_DOP853_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_DOP853_E3 = _DOP853_B.copy()
_DOP853_E3[[0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                           0.220588235294117647058823529412e-1)

# sum_j (2 z_a z_b - z_a^2 - z_b^2) over the diagonals z of Z1 and Z2; rho times it,
# entrywise, is sum_j (2 Zj rho Zj - Zj Zj rho - rho Zj Zj). Complex, so that the product
# with a complex rho casts nothing per call; the values, and so the bits, are those of
# the real mask.
_RHS_DEPHASING_MASK = sum(2.0 * np.outer(z, z) - z[:, np.newaxis] ** 2 - z[np.newaxis, :] ** 2
                          for z in (np.diag(Z1).real, np.diag(Z2).real)).astype(complex)


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


def lindblad_rhs(rho, p: SystemParams) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + (gamma/8) sum_j (2 Zj rho Zj - Zj Zj rho - rho Zj Zj).

    Zj is diagonal, so the dephasing sum is applied entrywise, as rho times a
    constant mask; the commutator is _rhs's one stacked matmul. A field that
    overflows H gives inf and nan entries, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ops, damping = _rhs_constants(p)
        ops[1] = as_matrix(rho)
        return _rhs(ops, damping)


def _rhs_constants(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """The operand stack [a, r, -a] of _rhs, a = -iH, with H built once and the slot r
    for the caller to fill, and the entrywise dephasing factors (gamma/8) * mask."""
    a = -1j * build_hamiltonian(p)
    return np.array([a, a, -a]), (p.gamma / 8.0) * _RHS_DEPHASING_MASK


def _rhs(ops: np.ndarray, damping: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """lindblad_rhs of the r in ops[1], into out if given, by one stacked matmul:
    ops[:2] @ ops[1:] is [a r, r (-a)], whose sum is -i[H, r].

    -1j * h only moves and negates parts, and negation commutes with rounding, so
    each value is the operator form's -1j * (h @ r - r @ h) + damping * r bit for
    bit; an entry that cancels to zero in both terms may carry the other sign of
    zero.
    """
    products = np.matmul(ops[:2], ops[1:])
    out = np.add(products[0], products[1], out=out)
    out += damping * ops[1]
    return out


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

    Independent of the exponential route: an in-package DOP853 loop
    (_dop853) integrates the right-hand side directly, never touching the
    16x16 generator, and uses no scipy. H, in the operand stack of _rhs, and
    the dephasing factors are built once per integration, and each
    right-hand-side call is one stacked matmul. The relative tolerance is 1e-9
    and the absolute floor 1e-12.

    The step count, and so the cost, grows about linearly with t at large t
    (README has the measured times). An integration that would take more than
    RK_MAX_STEPS steps raises IntegrationError, as does a non-finite error
    estimate or a step below 10 ulp of the current time; propagate_expm
    answers any finite t at once.
    """
    check_time(t)
    r0 = as_matrix(rho0)
    if t == 0.0:
        return DensityMatrix(r0)
    # an overflow, in H or in a step, reaches the caller as _dop853's IntegrationError
    with np.errstate(all="ignore"):
        return DensityMatrix(_dop853(r0, t, *_rhs_constants(p)))


def _dop853(r0: np.ndarray, t: float, ops: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """r0 carried from 0 to t > 0 by DOP853 on _rhs(ops, damping), with ops and
    damping from _rhs_constants.

    Hairer's step control: the first step from his initial-step rule, then
    factors 0.9 err^(-1/8) clipped to [0.2, 10], and not above 1 right after
    a rejection. err is the 5th/3rd-order combined estimate, RMS over the 16
    entries scaled by RK_ATOL + RK_RTOL max(|r|, |r_new|). The right-hand side
    at an accepted step's end is the next step's first stage (FSAL). Raises
    IntegrationError on a non-finite estimate, a step below 10 ulp of the time
    reached, or more than RK_MAX_STEPS steps, accepted or rejected. Non-finite
    arithmetic ends in the first of these, so callers run it under np.errstate.

    Each right-hand side, the initial-step rule's two, every stage and the FSAL,
    is one _rhs call. Each stage sum is written straight into _rhs's input slot
    ops[1], and each stage into its row of k, through views built once per
    integration.
    """
    # rows: r, then the stages k_1 = f, ..., k_12, each flattened, so that every
    # stage sum is one dot of a row of weights with the leading rows; row s - 1 of
    # weights gives the input of stage s, row 12 the step's result
    k = np.empty((13, 16), dtype=complex)
    stages = k.reshape(13, 4, 4)
    weights = np.ones((13, 13), dtype=complex)  # column 0 weighs r
    # per stage s = 2..12: its row of weights, the rows it weighs and its own row
    stage_views = [(weights[s - 1, :s], k[:s], stages[s]) for s in range(2, 13)]
    x = ops[1].reshape(16)  # _rhs's input slot, flat
    r, f = stages[0], stages[1]

    r[...] = ops[1] = r0
    _rhs(ops, damping, f)
    scale = RK_ATOL + np.abs(r) * RK_RTOL
    d0, d1 = _rms(r / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t)
    ops[1] = r + h0 * f
    d2 = _rms((_rhs(ops, damping) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    step = min(100.0 * h0, h1, t)

    abs_r = np.abs(r)
    now, steps = 0.0, 0
    while now < t:
        min_step = 10.0 * math.ulp(now)
        step = max(step, min_step)
        rejected = False
        while True:
            steps += 1
            if steps > RK_MAX_STEPS:
                raise IntegrationError(
                    f"adaptive integration failed: more than {RK_MAX_STEPS} steps to reach "
                    f"t = {t}; propagate_expm answers any finite t")
            if step < min_step:
                raise IntegrationError(f"adaptive integration failed: step {step:.6e} "
                                       f"below 10 ulp of t = {now}")
            new = min(now + step, t)
            dt = new - now
            weights[:12, 1:] = dt * _DOP853_A
            weights[12, 1:] = dt * _DOP853_B
            for row, leading, stage in stage_views:
                np.dot(row, leading, out=x)
                _rhs(ops, damping, stage)
            np.dot(weights[12], k, out=x)  # the step's result, in the slot the FSAL reads
            abs_new = np.abs(ops[1])
            scale = RK_ATOL + np.maximum(abs_r, abs_new) * RK_RTOL
            err5 = _DOP853_E5.dot(k[1:]).reshape(4, 4) / scale
            err3 = _DOP853_E3.dot(k[1:]).reshape(4, 4) / scale
            err5, err3 = np.vdot(err5, err5).real, np.vdot(err3, err3).real
            err = 0.0 if err5 == 0.0 and err3 == 0.0 else (
                dt * err5 / math.sqrt((err5 + 0.01 * err3) * 16))
            if not math.isfinite(err):
                raise IntegrationError(f"adaptive integration failed: error estimate {err} "
                                       f"at t = {now}")
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** (-1 / 8))
                step = dt * (min(1.0, factor) if rejected else factor)
                break
            step = dt * max(0.2, 0.9 * err ** (-1 / 8))
            rejected = True
        now, abs_r = new, abs_new
        r[...] = ops[1]
        _rhs(ops, damping, f)
    return r.copy()


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / math.sqrt(x.size)


# ---------------------------------------------------------------------------
# closed-form solution at the degeneracy point (kept verbatim, audited)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticCoefficients:
    """Coefficients of the closed-form rho(t) for identical qubits at degeneracy.

    mu_plus/mu_minus here are the solution-level constants lambda3 +/- (gamma^2
    + E_m^2 - E_j^2); the eigensystem layer defines a different mu pair and the
    two are never interchanged. sin1, cos1, sinh2, cosh2 are sin/cos(sqrt2
    lambda1 t) and sinh/cosh(sqrt2 lambda2 t), which rho(t) reads too.
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
    sin1: float
    cos1: float
    sinh2: float
    cosh2: float


def analytic_coefficients(p: SystemParams, t: float) -> AnalyticCoefficients:
    """Evaluate the closed-form coefficient set at time t.

    Raises check_time's ValueError, then ValueError off the degeneracy point,
    then on a negative radicand, then on vanishing coefficients, then
    OverflowError at large t; nothing is clamped or corrected. The lambda3
    radicand contains the term 2 E_m (E_j^2 + gamma^2)^2, which mixes energy
    powers; it is evaluated exactly as written.
    """
    check_time(t)
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
    if lam123 == 0.0:
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
        sin1=sin1, cos1=cos1, sinh2=sinh2, cosh2=cosh2,
    )


def _closed_form(p: SystemParams, t: float) -> tuple[AnalyticCoefficients, np.ndarray]:
    """The printed coefficients and rho(t) at (p, t), each evaluated once; raises
    analytic_coefficients' errors, then exp's overflow at large t."""
    c = analytic_coefficients(p, t)
    em, g = p.e_m, p.gamma
    lam123 = c.lambda1 * c.lambda2 * c.lambda3
    grow = 2.0 * lam123 * math.exp(2.0 * g * t)
    decay = 2.0 * lam123 * math.exp(-2.0 * g * t)
    sym = c.lambda2 * c.mu_minus * c.r1_plus + c.lambda1 * c.mu_plus * c.r2_plus
    asym = c.lambda2 * c.mu_minus * c.r1_minus + c.lambda1 * c.mu_plus * c.r2_minus
    s2 = math.sqrt(2.0)

    r11 = c.upsilon1 * (grow - sym)
    r22 = c.upsilon1 * (grow + sym)
    r14 = c.upsilon1 * (decay + asym)
    r23 = c.upsilon1 * (decay - asym)
    r12 = c.upsilon2 * (2.0 * em * (c.cosh2 - c.cos1)
                        + 1j * s2 * (c.lambda2 * c.sinh2 + c.lambda1 * c.sin1))

    mat = np.empty((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = r11
    mat[1, 1] = mat[2, 2] = r22
    mat[0, 3] = mat[3, 0] = r14
    mat[1, 2] = mat[2, 1] = r23
    mat[0, 1] = mat[0, 2] = mat[3, 1] = mat[3, 2] = r12
    mat[1, 0] = mat[2, 0] = mat[1, 3] = mat[2, 3] = np.conj(r12)
    return c, mat


def analytic_state_matrix(p: SystemParams, t: float) -> np.ndarray:
    """Closed-form rho(t) evaluated verbatim, with _closed_form's errors; may violate
    positivity (audited)."""
    return _closed_form(p, t)[1]


@dataclass(frozen=True)
class EigStructureParams:
    """Angle and weights of the closed-form eigenvectors.

    theta is atan2(beta, alpha), which agrees with arctan(beta/alpha) on
    the alpha > 0 branch; for alpha <= 0 the atan2 branch is used as is.
    mu_plus/mu_minus are the eigensystem-level weights; they are distinct
    from the like-named solution constants in AnalyticCoefficients.
    """

    alpha: float
    beta: float
    theta: float
    mu_plus: float
    mu_minus: float


@dataclass(frozen=True, eq=False)
class AnalyticEigensystem:
    """Closed-form eigenvalues/eigenvectors; orthogonality and trace are
    measured by the audit, never assumed."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns
    structure: EigStructureParams


def analytic_eigensystem(p: SystemParams, t: float) -> AnalyticEigensystem:
    """Evaluate the closed-form eigensystem exactly as written.

    eps1 = r11 - r14, eps2 = r22 - r23, eps3/eps4 = -2 sqrt(a^2+b^2) mu_+/-,
    with the eigenvector weights mu_+/- and angle theta taken from the
    printed expressions. Raises _closed_form's errors (the time's first),
    then ValueError at alpha = beta = 0, where theta is undefined (t = 0 in
    particular), then OverflowError where a norm sqrt(2 (1 + mu^2))
    overflows as t -> 0.
    """
    c, rho = _closed_form(p, t)
    ej, em, g = p.e_j1, p.e_m, p.gamma
    s2 = math.sqrt(2.0)
    alpha = ej * em * math.exp(-2.0 * g * t) / (4.0 * c.lambda3) * (c.cosh2 - c.cos1)
    beta = s2 * ej * math.exp(-2.0 * g * t) / (8.0 * c.lambda3) * (
        c.lambda2 * c.sinh2 + c.lambda1 * c.sin1)
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("theta undefined at alpha = beta = 0 (t = 0 included)")
    theta = math.atan2(beta, alpha)
    r = math.hypot(alpha, beta)

    (r11, _, _, r14), (_, r22, r23, _) = rho.real.tolist()[:2]
    rad = (r11 + r14 + r22 + r23) ** 2 + 16.0 * (rho[0, 1] * rho[1, 0]).real
    # rad = s^2 + 16 |r12|^2 >= 0 for the Hermitian closed form
    root = math.sqrt(rad)
    prefix = -r11 - r14 + r22 + r23
    mu_p = (prefix + root) / (4.0 * r)
    mu_m = (prefix - root) / (4.0 * r)
    # the weights grow like 1/t as r -> 0; as Python floats they overflow without a warning
    if not max(abs(mu_p), abs(mu_m)) <= math.sqrt(sys.float_info.max / 2.0):
        raise OverflowError(f"weights {mu_p:.6e}, {mu_m:.6e} overflow sqrt(2 (1 + mu^2))")

    eps = np.array([r11 - r14, r22 - r23, -2.0 * r * mu_p, -2.0 * r * mu_m])

    v1 = np.array([-1.0, 0.0, 0.0, 1.0], dtype=complex) / s2
    v2 = np.array([0.0, -1.0, 1.0, 0.0], dtype=complex) / s2
    ph = np.exp(-1j * theta)
    v3 = np.array([1.0, mu_m * ph, mu_m * ph, 1.0], dtype=complex) / math.sqrt(2.0 * (1.0 + mu_m ** 2))
    v4 = np.array([1.0, mu_p * ph, mu_p * ph, 1.0], dtype=complex) / math.sqrt(2.0 * (1.0 + mu_p ** 2))
    vecs = np.column_stack([v1, v2, v3, v4])

    structure = EigStructureParams(alpha=alpha, beta=beta, theta=theta,
                                   mu_plus=mu_p, mu_minus=mu_m)
    return AnalyticEigensystem(eigenvalues=_readonly(eps).real,
                               eigenvectors=_readonly(vecs),
                               structure=structure)


@dataclass(frozen=True)
class AuditReport:
    """Entrywise comparison of the closed form against the exponential propagator.

    verdict is "consistent" iff the closed form holds at every time and its
    largest entrywise deviation stays within tolerance, AUDIT_TOL.
    """

    tolerance: ClassVar[float] = AUDIT_TOL
    params: SystemParams
    grid: tuple
    max_abs_deviation: float
    deviating_entries: tuple  # (t, row, col, analytic, oracle, abs_dev), 1-based indices
    failures: tuple           # (t, message) for grid points where the closed form errored

    @property
    def verdict(self) -> str:
        ok = not self.failures and self.max_abs_deviation <= self.tolerance
        return "consistent" if ok else "inconsistent"

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


def audit_analytic(p: SystemParams, t_grid) -> AuditReport:
    """Compare analytic_state_matrix against propagate_checked on a time grid.

    Every time is checked before any state is propagated. Domain errors and
    overflows in the closed form become audit entries, never exceptions;
    entries deviating by more than AUDIT_TOL, the report's one tolerance,
    are listed.
    """
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
        # row-major, as plain ints, so that the JSON serializes
        deviating.extend((t, i + 1, j + 1, complex(candidate[i, j]), complex(oracle[i, j]),
                          float(dev[i, j])) for i, j in np.argwhere(dev > AUDIT_TOL).tolist())
    return AuditReport(params=p, grid=grid, max_abs_deviation=max_dev,
                       deviating_entries=tuple(deviating), failures=tuple(failures))
