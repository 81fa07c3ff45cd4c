"""Deterministic spectral decomposition of states. The printed closed-form
eigensystem lives with the printed rho(t), in dynamics.

Gauge convention: eigenvalues sorted descending; each eigenvector is scaled
by a unit phase so that its largest-magnitude entry is real and
non-negative (bit-exact magnitude ties resolved toward the lowest index).
Identical input bits therefore produce identical output bits.
The eigensystem is the state contract's one eigh (model._state_contract),
whose eigen residual the contract checks: each state is eigen-solved and
checked once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import as_matrix, _readonly, _state_contract

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

