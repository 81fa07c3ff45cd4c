"""Deterministic spectral decomposition of states. The printed closed-form
eigensystem lives with the printed rho(t), in dynamics.

Gauge convention: eigenvalues sorted descending; each eigenvector is scaled
by a unit phase so that its largest-magnitude entry is real and
non-negative (bit-exact magnitude ties resolved toward the lowest index).
Identical input bits therefore produce identical output bits.
decompose_many is the one call from a stack of states to its checked
eigensystem, the state contract (model._state_contract) and its one eigh:
each state is eigen-solved and checked once.
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


def decompose_many(mats: np.ndarray) -> tuple:
    """The state contract and eigensystem of an (n, 4, 4) stack: (faults, solved,
    eigenvalues, eigenvectors, clamped, n_clamped), the contract's faults and stand-in
    stack, then its one eigh ordered descending, gauge-fixed and clamped."""
    faults, solved, vals, vecs = _state_contract(mats)
    vals = vals[..., ::-1]
    below = vals < EIGENVALUE_CLAMP
    return (faults, solved, vals, _fix_gauge(vecs[..., ::-1]), np.where(below, 0.0, vals),
            below.sum(axis=-1))


def spectral_decompose(rho) -> SpectralDecomposition:
    """Descending, gauge-fixed eigensystem of a state; a matrix that is not a
    state raises the state contract's ContractViolationError (state_faults)."""
    (fault,), _, vals, vecs, clamped, n_clamped = decompose_many(as_matrix(rho)[np.newaxis])
    if fault:
        raise fault
    return SpectralDecomposition(eigenvalues=_readonly(vals[0]).real,
                                 eigenvectors=_readonly(vecs[0]),
                                 clamped=_readonly(clamped[0]).real,
                                 n_clamped=int(n_clamped[0]))
