"""Quantum Fisher information of the dephased two-qubit state.

Two independent routes are kept side by side. The breakdown assembles
F = F_C + F_P - F_M from central-difference derivatives of the eigenvalues
and eigenvectors (classical, pure and mixed contributions). The SLD value
evaluates the symmetric-logarithmic-derivative expression directly from
d(rho)/d(eta) and never sees the eigenvector derivatives, so agreement
between the two is a real cross-check, not bookkeeping. The routes share
the propagated states and the base eigensystem, never derivative arithmetic.

qfi_points evaluates both routes over a batch of points; qfi_components and
qfi_sld are one-point calls of it. A point reports its first failure in the
order: domain (t, then the step) -> state contract of the base, +h and -h
states -> base eigensystem -> shifted eigensystems -> branch matching ->
breakdown floors. The SLD value fails only on the first three.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateDerivativeError
from .model import SystemParams, bell_state_psi_plus, _readonly
from .dynamics import check_time, propagate_checked, propagate_many
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

    def shifted(self, p: SystemParams, delta: float) -> SystemParams:
        if self is EstimandTag.GAMMA:
            return dataclasses.replace(p, gamma=p.gamma + delta)
        if self is EstimandTag.EJ:
            return dataclasses.replace(p, e_j1=p.e_j1 + delta, e_j2=p.e_j2 + delta)
        return dataclasses.replace(p, e_m=p.e_m + delta)


def check_fd_step(h: float) -> None:
    """ValueError unless the finite-difference step lies in [1e-7, 1e-3]."""
    if not (FD_STEP_MIN <= h <= FD_STEP_MAX):
        raise ValueError(f"fd step must lie in [{FD_STEP_MIN:g}, {FD_STEP_MAX:g}], got {h}")


def check_step(p: SystemParams, eta: EstimandTag, h: float) -> None:
    """ValueError unless both shifted points p +/- h exist (gamma - h >= 0)."""
    check_fd_step(h)
    if eta is EstimandTag.GAMMA and p.gamma - h < 0.0:
        raise ValueError(
            f"gamma - h = {p.gamma - h:.3e} < 0; shrink the step or move gamma away from 0")


def _central_difference(plus, minus, h: float):
    return (plus - minus) / (2.0 * h)


def d_rho(p: SystemParams, t: float, eta: EstimandTag, h: float = FD_STEP_DEFAULT) -> np.ndarray:
    """Central-difference derivative of rho(t) with respect to the estimand."""
    check_step(p, eta, h)
    plus, minus = propagate_checked(bell_state_psi_plus(),
                                    [eta.shifted(p, +h), eta.shifted(p, -h)], [t, t])
    return _central_difference(plus, minus, h)


@dataclass(frozen=True, eq=False)
class SpectralDerivative:
    """Central-difference derivatives of the matched eigensystem.

    d_eigenvectors column i differentiates the branch of base eigenvector i
    in the parallel-transport gauge (overlap with the base vector rotated to
    be real positive on both sides).
    """

    d_eigenvalues: np.ndarray
    d_eigenvectors: np.ndarray
    method: str
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


def _central_differences(base_vecs, plus, minus, h: float) -> tuple[np.ndarray, np.ndarray, list]:
    """Matched eigenvalue and eigenvector derivatives over a stack of points.

    plus and minus are (eigenvalues, eigenvectors) stacks of the shifted
    states. The fault of a point is its plus-side fault, else its minus-side one.
    """
    vals_p, vecs_p, faults_p = _match_branches(base_vecs, *plus)
    vals_m, vecs_m, faults_m = _match_branches(base_vecs, *minus)
    faults = [fp if fp is not None else fm for fp, fm in zip(faults_p, faults_m)]
    return (_central_difference(vals_p, vals_m, h), _central_difference(vecs_p, vecs_m, h),
            faults)


def spectral_derivative(p: SystemParams, t: float, eta: EstimandTag,
                        h: float = FD_STEP_DEFAULT) -> SpectralDerivative:
    """Differentiate eigenvalues and eigenvectors by central differences.

    The shifted decompositions are matched branch-by-branch to the base via
    maximal overlap; ambiguous matches (top two overlaps within 1e-3) raise
    DegenerateDerivativeError rather than silently mixing branches. One
    propagate_checked call and one decompose_many call serve the base, +h
    and -h states, so all three pass their contract before any eigensystem.
    """
    check_step(p, eta, h)
    states = propagate_checked(bell_state_psi_plus(),
                               [p, eta.shifted(p, +h), eta.shifted(p, -h)], [t] * 3)
    vals, vecs, _, _, eig_faults = decompose_many(states)
    d_vals, d_vecs, match_faults = _central_differences(
        vecs[:1], (vals[1:2], vecs[1:2]), (vals[2:], vecs[2:]), h)
    fault = _first_fault(*eig_faults, *match_faults)
    if fault is not None:
        raise fault
    flagged = tuple((i, j) for i in range(4) for j in range(i + 1, 4)
                    if abs(vals[0, i] - vals[0, j]) < NEAR_DEGENERATE_GAP)
    return SpectralDerivative(
        d_eigenvalues=_readonly(d_vals[0]).real,
        d_eigenvectors=_readonly(d_vecs[0]),
        method="central-difference",
        step=h,
        near_degenerate_pairs=flagged,
    )


@dataclass(frozen=True)
class QfiBreakdown:
    """Fisher information split into classical, pure and mixed parts.

    f_total = f_c + f_p - f_m by construction; crb = 1/f_total (inf below
    the 1e-12 floor). Diagnostics: fd_step, n_clamped eigenvalues, and the
    worst residual Berry connection |<V_i|dV_i>| after gauge matching.
    """

    f_total: float
    f_c: float
    f_p: float
    f_m: float
    crb: float
    fd_step: float
    n_clamped: int
    gauge_residual: float

    def __post_init__(self):
        for name in ("f_c", "f_p", "f_m"):
            val = getattr(self, name)
            if val < COMPONENT_FLOOR:
                raise ContractViolationError(f"{name} = {val:.3e} is negative beyond roundoff")
        if self.f_total < QFI_NEGATIVE_FLOOR:
            raise ContractViolationError(
                f"f_total = {self.f_total:.3e} below the {QFI_NEGATIVE_FLOOR:.0e} floor")


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


def _first_fault(*faults):
    return next((fault for fault in faults if fault is not None), None)


def qfi_points(points, eta: EstimandTag, h: float = FD_STEP_DEFAULT) -> list:
    """Breakdown and SLD value at each (SystemParams, t) of points, as one batch.

    Entry k is (breakdown, sld) for points[k]; each is the value or the
    exception that qfi_components / qfi_sld raise there, the first failure
    in the order the module docstring gives. The base, +h and -h states of
    all points come from one propagate_many call and are decomposed in one
    batched eigh; branch matching and both sums run over the stack.
    """
    out = [None] * len(points)
    live = []  # (k, t, (p, p + h, p - h)) of the points in domain
    for k, (p, t) in enumerate(points):
        try:
            check_time(t)
            check_step(p, eta, h)
            live.append((k, t, (p, eta.shifted(p, +h), eta.shifted(p, -h))))
        except ValueError as exc:
            out[k] = (exc, exc)
    if not live:
        return out
    n = len(live)
    ks, times, shifts = zip(*live)
    states, faults = propagate_many(bell_state_psi_plus(),
                                    [q for group in zip(*shifts) for q in group], times * 3)
    # faults[j::n] are the base, +h and -h state faults of point j
    state_fault = [_first_fault(*faults[j::n]) for j in range(n)]
    # such a point fails before any eigen result of it is read; the stand-in
    # states keep a faulty one (non-finite, or finite but huge) out of the
    # sums, where it would raise overflow and invalid-value warnings
    states[np.array([fault is not None for fault in state_fault] * 3)] = np.eye(4) / 4
    base, plus, minus = states.reshape(3, n, 4, 4)
    vals, vecs, clamped, n_clamped, eig_faults = decompose_many(states)
    sides = [(vals[s], vecs[s]) for s in (slice(n, 2 * n), slice(2 * n, None))]
    d_vals, d_vecs, match_faults = _central_differences(vecs[:n], *sides, h)
    f_c, f_p, f_m, gauge = _breakdown_sums(clamped[:n], vecs[:n], d_vals, d_vecs)
    f_total = f_c + f_p - f_m
    sld = _sld_sums(clamped[:n], vecs[:n], _central_difference(plus, minus, h))
    for j, k in enumerate(ks):
        fault = _first_fault(state_fault[j], eig_faults[j])
        if fault is not None:
            out[k] = (fault, fault)
            continue
        breakdown = _first_fault(eig_faults[n + j], eig_faults[2 * n + j], match_faults[j])
        if breakdown is None:
            try:
                breakdown = QfiBreakdown(
                    f_total=float(f_total[j]), f_c=float(f_c[j]), f_p=float(f_p[j]),
                    f_m=float(f_m[j]), crb=cramer_rao(float(f_total[j])), fd_step=h,
                    n_clamped=int(n_clamped[j]), gauge_residual=float(gauge[j]))
            except ContractViolationError as exc:
                breakdown = exc
        out[k] = (breakdown, float(sld[j]))
    return out


def _value(result):
    if isinstance(result, Exception):
        raise result
    return result


def qfi_components(p: SystemParams, t: float, eta: EstimandTag,
                   h: float = FD_STEP_DEFAULT) -> QfiBreakdown:
    """Assemble F_C + F_P - F_M from matched eigensystem derivatives.

    F_C sums (d eps_i)^2 / eps_i over unclamped eigenvalues; F_P is
    4 sum_i eps_i (<dV_i|dV_i> - |<V_i|dV_i>|^2); F_M is
    8 sum_{i != j} eps_i eps_j / (eps_i + eps_j) |<V_i|dV_j>|^2 over pairs
    with eps_i + eps_j above the clamp. A one-point qfi_points call.
    """
    return _value(qfi_points([(p, t)], eta, h)[0][0])


def qfi_sld(p: SystemParams, t: float, eta: EstimandTag,
            h: float = FD_STEP_DEFAULT) -> float:
    """Symmetric-logarithmic-derivative oracle.

    F = sum_{i,j} 2 |<V_i| d_rho |V_j>|^2 / (eps_i + eps_j) over pairs with
    eps_i + eps_j above the clamp; gauge-free because only d(rho) enters.
    A one-point qfi_points call.
    """
    return _value(qfi_points([(p, t)], eta, h)[0][1])
