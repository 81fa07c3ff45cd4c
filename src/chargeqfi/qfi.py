"""Quantum Fisher information of the dephased two-qubit state.

Two independent routes are kept side by side. The breakdown assembles
F = F_C + F_P - F_M from central-difference derivatives of the eigenvalues
and eigenvectors (classical, pure and mixed contributions). The SLD value
evaluates the symmetric-logarithmic-derivative expression directly from
d(rho)/d(eta) and never sees the eigenvector derivatives, so agreement
between the two is a real cross-check, not bookkeeping. The routes share
the propagated states, the base eigensystem and the difference formula,
never a derivative: the SLD differences rho itself.

One row core, _derivative_rows, shifts the estimand by +h and -h, reads the
state contract and eigensystems of all three states from one
spectral.decompose_many call and takes the central difference of rho and of
the matched eigensystems; a point out of domain stays in its batch,
propagated at t = 0 as a stand-in. qfi_points reads both routes from it over
a batch of points, d_rho and spectral_derivative over one; qfi_components
and qfi_sld are one-point qfi_points calls. A point reports its first
failure in the order: domain (gamma < 0, then t, then the step) -> state
contract of the base, +h and -h states (its last check is the eigen
residual) -> branch matching -> breakdown floors. d_rho and the SLD value
stop after the second and spectral_derivative after the third.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateDerivativeError
from .model import (MODEL_NAMES, PARAM_FIELDS, SystemParams, bell_state_psi_plus, check_field,
                    param_rows, _readonly)
from .dynamics import check_time, _propagate_rows
from .spectral import EIGENVALUE_CLAMP, decompose_many

FD_STEP_MIN = 1e-7
FD_STEP_MAX = 1e-3
FD_STEP_DEFAULT = 1e-4
# two candidate branch overlaps closer than this are ambiguous
MATCH_AMBIGUITY = 1e-3
NEAR_DEGENERATE_GAP = 1e-6
CRB_FLOOR = 1e-12
QFI_NEGATIVE_FLOOR = -1e-8
COMPONENT_FLOOR = -1e-10


class EstimandTag(enum.Enum):
    """Parameter the Fisher information is taken with respect to.

    EJ moves e_j1 and e_j2 together; GAMMA and EM move the single
    corresponding field.
    """

    GAMMA = "gamma"
    EJ = "ej"
    EM = "em"

    @property
    def fields(self) -> tuple:
        """The SystemParams fields the estimand moves, all by the same delta."""
        return MODEL_NAMES[self.value]


def check_fd_step(h: float) -> None:
    """ValueError unless the finite-difference step lies in [1e-7, 1e-3]."""
    if not (FD_STEP_MIN <= h <= FD_STEP_MAX):
        raise ValueError(f"fd step must lie in [{FD_STEP_MIN:g}, {FD_STEP_MAX:g}], got {h}")


def check_step(gamma: float, eta: EstimandTag, h: float) -> None:
    """ValueError unless both shifted points of a set with this gamma exist (gamma - h >= 0)."""
    check_fd_step(h)
    if eta is EstimandTag.GAMMA and gamma - h < 0.0:
        raise ValueError(
            f"gamma - h = {gamma - h:.3e} < 0; shrink the step or move gamma away from 0")


@dataclass(frozen=True, eq=False)
class SpectralDerivative:
    """Central-difference derivatives of the matched eigensystem.

    d_eigenvectors column i differentiates the branch of base eigenvector i
    in the parallel-transport gauge (overlap with the base vector rotated to
    be real positive on both sides).
    """

    d_eigenvalues: np.ndarray
    d_eigenvectors: np.ndarray
    step: float
    near_degenerate_pairs: tuple


def _match_branches(base_vecs: np.ndarray, side_vals: np.ndarray,
                    side_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Permute and re-phase shifted eigensystems onto the base branches.

    Stacked over points: base_vecs and side_vecs are (n, 4, 4), side_vals is
    (n, 4). Base branch i, in order, takes the free shifted branch of largest
    overlap. Returns the matched (vals, vecs) and per point the
    DegenerateDerivativeError for the first ambiguous branch (top two free
    overlaps within MATCH_AMBIGUITY), or None.
    """
    overlaps = base_vecs.conj().swapaxes(-1, -2) @ side_vecs  # [k, i, j] = <b_i|s_j>
    mags = np.abs(overlaps)
    points = np.arange(len(mags))
    free = np.ones(side_vals.shape, dtype=bool)
    pick = np.empty(side_vals.shape, dtype=np.intp)
    faults = [None] * len(mags)
    for i in range(4):
        cand = np.where(free, mags[:, i, :], -np.inf)
        best = np.argmax(cand, axis=1)
        top = cand[points, best]
        cand[points, best] = -np.inf
        runner_up = cand.max(axis=1)  # -inf once a single branch is left
        for k in np.flatnonzero(top - runner_up < MATCH_AMBIGUITY):
            if faults[k] is None:
                faults[k] = DegenerateDerivativeError(
                    f"branch matching ambiguous for eigenvector {i}: overlaps "
                    f"{top[k]:.6f} vs {runner_up[k]:.6f} within {MATCH_AMBIGUITY:g}")
        free[points, best] = False
        pick[:, i] = best
    picked = np.take_along_axis(overlaps, pick[:, :, np.newaxis], axis=2)[:, :, 0]
    phase = np.conj(picked) / np.abs(picked)
    vals = np.take_along_axis(side_vals, pick, axis=1)
    vecs = np.take_along_axis(side_vecs, pick[:, np.newaxis, :], axis=2) * phase[:, np.newaxis, :]
    return vals, vecs, faults


def _checked(result):
    """result, raised if it is an exception: a value, or a point's fault (None if it has none)."""
    if isinstance(result, Exception):
        raise result
    return result


def _derivative_rows(rows: np.ndarray, times, eta: EstimandTag, h: float) -> tuple:
    """Central differences at param_rows rows of finite fields and paired times.

    Its domain pass is the one place that checks a point's gamma, t and step.
    Returns (contract, matched, base, derivatives) over all points: contract[k]
    is point k's first fault (or None) up to the state contract, its domain
    fault, then that of its base, +h and -h states; matched[k] then adds branch
    matching. base is (eigenvalues, eigenvectors, clamped, n_clamped) of the
    base states, derivatives (d_eigenvalues, d_eigenvectors, d_rho), a faulted
    point's those of its stand-in. One _propagate_rows call, one decompose_many
    call over its stack (the state contract and its one batched eigh) and one
    matching call serve all points and sides.
    """
    domain = []
    for gamma, t in zip(rows[:, PARAM_FIELDS.index("gamma")].tolist(), times):
        try:
            check_field("gamma", gamma)
            check_time(t)
            check_step(gamma, eta, h)
            domain.append(None)
        except ValueError as exc:
            domain.append(exc)
    # A point out of domain keeps its rows and is propagated at t = 0, where every
    # generator is multiplied by 0, so its stand-in is rho0 or a non-finite state; the
    # contract stands eye(4)/4 in for that and any faulty state, which keeps it out of
    # the sums' warnings. The +h and -h rows move only the estimand's columns (a -0.0
    # elsewhere stays -0.0); in domain, gamma - h >= 0 and every field stays finite.
    times = [0.0 if fault else t for fault, t in zip(domain, times)]
    n, cols = len(rows), [PARAM_FIELDS.index(name) for name in eta.fields]
    rows = np.tile(rows, (3, 1))
    rows[n:2 * n, cols] += h
    rows[2 * n:, cols] -= h
    state_faults, states, vals, vecs, clamped, n_clamped = decompose_many(
        _propagate_rows(bell_state_psi_plus(), rows, times * 3))
    side_vals, side_vecs, match_faults = _match_branches(np.tile(vecs[:n], (2, 1, 1)),
                                                         vals[n:], vecs[n:])
    # The one central difference, of the matched eigensystems and of rho. It stays
    # (plus - minus) / (2.0 * h), not a weighted sum of the sides: on numpy 2.4.6 a weight
    # 1 * z turns a complex -0.0 - 1j into 0.0 - 1j, and Python's sum(...) from 0 turns
    # -0.0 into 0.0; either moves output bytes. h = 0 fails every point's domain pass.
    with np.errstate(divide="ignore", invalid="ignore"):
        d_vals, d_vecs, drho = ((side[:n] - side[n:]) / (2.0 * h)
                                for side in (side_vals, side_vecs, states[n:]))
    # exceptions are truthy, so an `or` chain of faults is the first of them
    contract = [domain[k] or state_faults[k] or state_faults[n + k] or state_faults[2 * n + k]
                for k in range(n)]
    matched = [fault or match_faults[k] or match_faults[n + k] for k, fault in enumerate(contract)]
    return contract, matched, (vals[:n], vecs[:n], clamped[:n], n_clamped[:n]), \
        (d_vals, d_vecs, drho)


def d_rho(p: SystemParams, t: float, eta: EstimandTag, h: float = FD_STEP_DEFAULT) -> np.ndarray:
    """Central-difference derivative of rho(t) with respect to the estimand."""
    (fault,), _, _, (_, _, drho) = _derivative_rows(param_rows([p]), [t], eta, h)
    _checked(fault)
    return drho[0]


def spectral_derivative(p: SystemParams, t: float, eta: EstimandTag,
                        h: float = FD_STEP_DEFAULT) -> SpectralDerivative:
    """Differentiate eigenvalues and eigenvectors by central differences.

    The shifted decompositions are matched branch-by-branch to the base via
    maximal overlap; ambiguous matches (top two overlaps within 1e-3) raise
    DegenerateDerivativeError rather than silently mixing branches. A
    one-point call of the derivative core, so the base, +h and -h states all
    pass their contract before any eigensystem is read.
    """
    _, (fault,), (vals, *_), (d_vals, d_vecs, _) = _derivative_rows(param_rows([p]), [t], eta, h)
    _checked(fault)
    flagged = tuple((i, j) for i in range(4) for j in range(i + 1, 4)
                    if abs(vals[0, i] - vals[0, j]) < NEAR_DEGENERATE_GAP)
    return SpectralDerivative(
        d_eigenvalues=_readonly(d_vals[0]).real,
        d_eigenvectors=_readonly(d_vecs[0]),
        step=h,
        near_degenerate_pairs=flagged,
    )


@dataclass(frozen=True)
class QfiBreakdown:
    """Fisher information split into classical, pure and mixed parts.

    f_total = f_c + f_p - f_m and crb = cramer_rao(f_total); construction checks
    f_total's floor, then each part's. Diagnostics: fd_step, n_clamped eigenvalues,
    and the worst residual Berry connection |<V_i|dV_i>| after gauge matching.
    """

    f_c: float
    f_p: float
    f_m: float
    fd_step: float
    n_clamped: int
    gauge_residual: float

    def __post_init__(self):
        cramer_rao(self.f_total)
        for name in ("f_c", "f_p", "f_m"):
            val = getattr(self, name)
            if val < COMPONENT_FLOOR:
                raise ContractViolationError(f"{name} = {val:.3e} is negative beyond roundoff")

    @property
    def f_total(self) -> float:
        return self.f_c + self.f_p - self.f_m

    @property
    def crb(self) -> float:
        return cramer_rao(self.f_total)


def cramer_rao(f: float) -> float:
    """Single-shot Cramer-Rao bound 1/f, +inf once f drops below 1e-12."""
    if f < QFI_NEGATIVE_FLOOR:
        raise ContractViolationError(f"Fisher information {f:.3e} negative beyond the floor")
    if f > CRB_FLOOR:
        return 1.0 / f
    return math.inf


def _breakdown_sums(eps: np.ndarray, vecs: np.ndarray, d_vals: np.ndarray,
                    d_vecs: np.ndarray) -> tuple:
    """F_C, F_P, F_M and the gauge residual (worst |<V_i|dV_i>|), stacked over
    points: eps are the clamped eigenvalues (n, 4); vecs and d_vecs are
    (n, 4, 4) with one eigenvector per column."""
    live = eps > 0.0
    f_c = np.sum(np.divide(d_vals ** 2, eps, out=np.zeros_like(eps), where=live), axis=-1)
    overlaps = vecs.conj().swapaxes(-1, -2) @ d_vecs  # [k, i, j] = <V_i|dV_j>
    berry = np.abs(np.diagonal(overlaps, axis1=-2, axis2=-1))
    norms = np.sum((d_vecs.conj() * d_vecs).real, axis=-2)
    f_p = 4.0 * np.sum(np.where(live, eps * (norms - berry ** 2), 0.0), axis=-1)
    pair_sum = eps[..., :, np.newaxis] + eps[..., np.newaxis, :]
    pairs = (pair_sum > EIGENVALUE_CLAMP) & ~np.eye(4, dtype=bool)
    weight = np.divide(eps[..., :, np.newaxis] * eps[..., np.newaxis, :], pair_sum,
                       out=np.zeros_like(pair_sum), where=pairs)
    f_m = 8.0 * np.sum(weight * np.abs(overlaps) ** 2, axis=(-2, -1))
    return f_c, f_p, f_m, berry.max(axis=-1)


def _sld_sums(eps: np.ndarray, vecs: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """The SLD sum of qfi_sld, stacked over points."""
    mixed = vecs.conj().swapaxes(-1, -2) @ drho @ vecs
    pair_sum = eps[..., :, np.newaxis] + eps[..., np.newaxis, :]
    return np.sum(np.divide(2.0 * np.abs(mixed) ** 2, pair_sum, out=np.zeros_like(pair_sum),
                            where=pair_sum > EIGENVALUE_CLAMP), axis=(-2, -1))


def qfi_points(points, eta: EstimandTag, h: float = FD_STEP_DEFAULT) -> list:
    """Breakdown and SLD value at each (SystemParams, t) of points, as one batch.

    Entry k is (breakdown, sld) for points[k]; each is the value or the
    exception that qfi_components / qfi_sld raise there, the first failure
    in the order the module docstring gives. Both sums run over the stack
    of the derivative core.
    """
    return _qfi_rows(param_rows([p for p, _ in points]), [t for _, t in points], eta, h)


def _qfi_rows(rows: np.ndarray, times, eta: EstimandTag, h: float) -> list:
    """qfi_points over param_rows rows of finite fields and paired times."""
    contract, matched, (_, vecs, clamped, n_clamped), (d_vals, d_vecs, drho) = \
        _derivative_rows(rows, times, eta, h)
    f_c, f_p, f_m, gauge = _breakdown_sums(clamped, vecs, d_vals, d_vecs)
    sld = _sld_sums(clamped, vecs, drho)
    out = []
    for k, (sld_fault, breakdown) in enumerate(zip(contract, matched)):
        if breakdown is None:
            try:
                breakdown = QfiBreakdown(
                    f_c=float(f_c[k]), f_p=float(f_p[k]), f_m=float(f_m[k]), fd_step=h,
                    n_clamped=int(n_clamped[k]), gauge_residual=float(gauge[k]))
            except ContractViolationError as exc:
                breakdown = exc
        out.append((breakdown, sld_fault or float(sld[k])))  # the SLD stops at the contract
    return out


def qfi_components(p: SystemParams, t: float, eta: EstimandTag,
                   h: float = FD_STEP_DEFAULT) -> QfiBreakdown:
    """Assemble F_C + F_P - F_M from matched eigensystem derivatives.

    F_C sums (d eps_i)^2 / eps_i over unclamped eigenvalues; F_P is
    4 sum_i eps_i (<dV_i|dV_i> - |<V_i|dV_i>|^2); F_M is
    8 sum_{i != j} eps_i eps_j / (eps_i + eps_j) |<V_i|dV_j>|^2 over pairs
    with eps_i + eps_j above the clamp. A one-point qfi_points call.
    """
    return _checked(qfi_points([(p, t)], eta, h)[0][0])


def qfi_sld(p: SystemParams, t: float, eta: EstimandTag,
            h: float = FD_STEP_DEFAULT) -> float:
    """Symmetric-logarithmic-derivative oracle.

    F = sum_{i,j} 2 |<V_i| d_rho |V_j>|^2 / (eps_i + eps_j) over pairs with
    eps_i + eps_j above the clamp; gauge-free because only d(rho) enters.
    A one-point qfi_points call.
    """
    return _checked(qfi_points([(p, t)], eta, h)[0][1])
