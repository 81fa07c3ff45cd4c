"""Deterministic spectral decomposition of states, plus the closed-form
eigensystem kept for auditing.

Gauge convention: eigenvalues sorted descending; each eigenvector is scaled
by a unit phase so that its largest-magnitude entry is real and
non-negative (bit-exact magnitude ties resolved toward the lowest index).
Identical input bits therefore produce identical output bits.
The eigensystem is the state contract's one eigh (model._state_contract),
whose eigen residual the contract checks: each state is eigen-solved and
checked once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams, as_matrix, _readonly, _state_contract
from .dynamics import analytic_coefficients, analytic_state_matrix

# eigenvalues below this floor count as exactly zero in Fisher-information sums
EIGENVALUE_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a state: descending eigenvalues, gauge-fixed eigenvectors.

    eigenvalues : raw eigh output, descending
    eigenvectors: column i pairs with eigenvalues[i]
    clamped     : eigenvalues with entries below 1e-12 zeroed for later sums
    n_clamped   : how many entries were zeroed
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clamped: np.ndarray
    n_clamped: int


def _fix_gauge(vecs: np.ndarray) -> np.ndarray:
    """Scale each column of an (n, 4, 4) stack so its largest-magnitude entry
    is real and non-negative; np.argmax makes the first index win bit-exact ties."""
    points = np.arange(len(vecs))[:, np.newaxis]
    cols = np.arange(vecs.shape[-1])
    pivot_row = np.argmax(np.abs(vecs), axis=-2)
    pivot = vecs[points, pivot_row, cols]
    magnitude = np.abs(pivot)
    out = vecs * (np.conj(pivot) / magnitude)[:, np.newaxis, :]
    # keep the pivot exactly real
    out[points, pivot_row, cols] = magnitude
    return out


def decompose_many(vals: np.ndarray, vecs: np.ndarray) -> tuple:
    """spectral_decompose over the eigh (vals, vecs) of model._state_contract.

    Orders descending, fixes the gauge and clamps. Returns the stacked
    (eigenvalues, eigenvectors, clamped, n_clamped).
    """
    vals = vals[..., ::-1]
    below = vals < EIGENVALUE_CLAMP
    return vals, _fix_gauge(vecs[..., ::-1]), np.where(below, 0.0, vals), below.sum(axis=-1)


def spectral_decompose(rho) -> SpectralDecomposition:
    """Descending, gauge-fixed eigensystem of a state; a matrix that is not a
    state raises the state contract's ContractViolationError (state_faults)."""
    (fault,), _, vals, vecs = _state_contract(as_matrix(rho)[np.newaxis])
    if fault:
        raise fault
    vals, vecs, clamped, n_clamped = decompose_many(vals, vecs)
    return SpectralDecomposition(eigenvalues=_readonly(vals[0]).real,
                                 eigenvectors=_readonly(vecs[0]),
                                 clamped=_readonly(clamped[0]).real,
                                 n_clamped=int(n_clamped[0]))


# ---------------------------------------------------------------------------
# closed-form eigensystem (audit only; printed forms evaluated verbatim)
# ---------------------------------------------------------------------------

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
    printed expressions. Raises ValueError at alpha = beta = 0, where theta
    is undefined (t = 0 in particular).
    """
    c = analytic_coefficients(p, t)
    rho = analytic_state_matrix(p, t)
    ej, em, g = p.e_j1, p.e_m, p.gamma
    s2 = math.sqrt(2.0)
    sin1, cos1 = math.sin(s2 * c.lambda1 * t), math.cos(s2 * c.lambda1 * t)
    sinh2, cosh2 = math.sinh(s2 * c.lambda2 * t), math.cosh(s2 * c.lambda2 * t)
    alpha = ej * em * math.exp(-2.0 * g * t) / (4.0 * c.lambda3) * (cosh2 - cos1)
    beta = s2 * ej * math.exp(-2.0 * g * t) / (8.0 * c.lambda3) * (
        c.lambda2 * sinh2 + c.lambda1 * sin1)
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("theta undefined at alpha = beta = 0 (t = 0 included)")
    theta = math.atan2(beta, alpha)
    r = math.hypot(alpha, beta)

    r11, r22 = rho[0, 0].real, rho[1, 1].real
    r14, r23 = rho[0, 3].real, rho[1, 2].real
    rad = (r11 + r14 + r22 + r23) ** 2 + 16.0 * (rho[0, 1] * rho[1, 0]).real
    # rad = s^2 + 16 |r12|^2 >= 0 for the Hermitian closed form
    root = math.sqrt(rad)
    prefix = -r11 - r14 + r22 + r23
    mu_p = (prefix + root) / (4.0 * r)
    mu_m = (prefix - root) / (4.0 * r)

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
