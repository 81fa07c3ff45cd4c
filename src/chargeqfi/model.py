"""Model parameters, Hamiltonian and initial state for two coupled charge qubits.

Basis convention throughout the package: product basis |00>, |01>, |10>, |11>
with sigma_z|0> = +|0>. Energies are dimensionless (hbar = 1), so time carries
inverse-energy units.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import ContractViolationError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
# two-qubit Pauli products, built once
Z1 = np.kron(SIGMA_Z, ID2)
Z2 = np.kron(ID2, SIGMA_Z)
X1 = np.kron(SIGMA_X, ID2)
X2 = np.kron(ID2, SIGMA_X)
ZZ = np.kron(SIGMA_Z, SIGMA_Z)

# numerical contract for density matrices
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-9
EIGENVALUE_FLOOR = -1e-9


def _readonly(mat: np.ndarray) -> np.ndarray:
    arr = np.array(mat, dtype=complex)
    arr.setflags(write=False)
    return arr


def max_abs_diff(a, b) -> float:
    """Largest entrywise |a - b|; all matrix comparisons go through an explicit tolerance."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the coupled-qubit model plus the dephasing rate gamma.

    e_c1, e_c2 : charging energies
    e_j1, e_j2 : Josephson energies
    e_m        : mutual (coupling) energy
    n_g1, n_g2 : dimensionless gate charges
    gamma      : dephasing rate, >= 0
    """

    e_c1: float = 1.0
    e_c2: float = 1.0
    e_j1: float = 0.1
    e_j2: float = 0.1
    e_m: float = 0.1
    n_g1: float = 0.5
    n_g2: float = 0.5
    gamma: float = 0.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            check_field(f.name, getattr(self, f.name))

    @classmethod
    def degenerate(cls, e_j: float, e_m: float, gamma: float) -> "SystemParams":
        """Identical qubits parked at the charge degeneracy point n_g = 1/2 (E_c drops out)."""
        return cls(e_j1=e_j, e_j2=e_j, e_m=e_m, n_g1=0.5, n_g2=0.5, gamma=gamma)

    def degenerate_identical(self) -> bool:
        """True iff n_g1 = n_g2 = 1/2 and both Josephson energies coincide."""
        return self.n_g1 == 0.5 and self.n_g2 == 0.5 and self.e_j1 == self.e_j2


def check_field(name: str, value) -> None:
    """ValueError unless value may be SystemParams field name: finite, real, not bool; gamma >= 0.

    The CLI applies it under the names of MODEL_NAMES; SweepConfig applies the
    finite-real-number rule to its axis bounds, t and fd_step."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if name == "gamma" and value < 0.0:
        raise ValueError(f"gamma must be >= 0, got {value}")


PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))
# external model name (flag, config key, JSON field, estimand) -> the SystemParams fields it sets
MODEL_NAMES = {"gamma": ("gamma",), "ej": ("e_j1", "e_j2"), "em": ("e_m",),
               "ec1": ("e_c1",), "ec2": ("e_c2",), "ng1": ("n_g1",), "ng2": ("n_g2",)}


def param_rows(params) -> np.ndarray:
    """(n, 8) float rows of a sequence of SystemParams, columns in PARAM_FIELDS order."""
    return np.array([attrgetter(*PARAM_FIELDS)(p) for p in params], dtype=float).reshape(-1, 8)


def kappa_coefficients(p: SystemParams) -> tuple[float, float]:
    """Effective charge-sector coefficients (kappa1, kappa2) of the Hamiltonian.

    kappa1 = 2 E_c1 (1 - 2 n_g1) + E_m (1 - 2 n_g2), and symmetrically for
    kappa2, of scalar fields or of broadcastable arrays (dynamics.liouvillian_stack).
    Both vanish exactly at n_g1 = n_g2 = 1/2.
    """
    k1 = 2.0 * p.e_c1 * (1.0 - 2.0 * p.n_g1) + p.e_m * (1.0 - 2.0 * p.n_g2)
    k2 = 2.0 * p.e_c2 * (1.0 - 2.0 * p.n_g2) + p.e_m * (1.0 - 2.0 * p.n_g1)
    return k1, k2


def build_hamiltonian(p: SystemParams) -> np.ndarray:
    """4x4 Hamiltonian -1/2 {k1 Z1 + k2 Z2 + EJ1 X1 + EJ2 X2 - 2 Em Z1 Z2}."""
    k1, k2 = kappa_coefficients(p)
    return _readonly(-0.5 * (k1 * Z1 + k2 * Z2 + p.e_j1 * X1 + p.e_j2 * X2 - 2.0 * p.e_m * ZZ))


def state_faults(mats: np.ndarray) -> list:
    """The density-matrix contract over an (n, 4, 4) stack; the only place
    that decides whether a matrix is a valid state. Entry k is the
    ContractViolationError that DensityMatrix(mats[k]) raises, or None."""
    return _state_contract(mats)[0]


def _state_contract(mats: np.ndarray) -> tuple:
    """state_faults, and the one eigh of the stack, which the decomposition reads too.

    Checks run in the order finiteness, Hermiticity (1e-10), trace (1e-9),
    positivity (-1e-9). Returns (faults, (solved, vals, vecs)): solved is mats
    with each matrix that fails one of the first three replaced by eye(4)/4,
    and vals (ascending), vecs are np.linalg.eigh of solved.
    """
    finite = np.isfinite(mats).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
        herm = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        tr_dev = np.abs(mats.diagonal(axis1=-2, axis2=-1).sum(axis=-1) - 1.0)
    checked = finite & (herm <= HERMITICITY_ATOL) & (tr_dev <= TRACE_ATOL)
    solved = np.where(checked[:, np.newaxis, np.newaxis], mats, np.eye(4) / 4)
    vals, vecs = np.linalg.eigh(solved)
    lowest = vals[:, 0]
    faults = [None] * len(mats)
    for k in np.flatnonzero(~checked | (lowest < EIGENVALUE_FLOOR)):
        if not finite[k]:
            msg = "state has non-finite entries"
        elif herm[k] > HERMITICITY_ATOL:
            msg = f"Hermiticity deviation {herm[k]:.3e} exceeds {HERMITICITY_ATOL:.0e}"
        elif tr_dev[k] > TRACE_ATOL:
            msg = f"trace deviation {tr_dev[k]:.3e} exceeds {TRACE_ATOL:.0e}"
        else:
            msg = f"negative eigenvalue {lowest[k]:.3e} below floor {EIGENVALUE_FLOOR:.0e}"
        faults[k] = ContractViolationError(msg)
    return faults, (solved, vals, vecs)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, positive-semidefinite state.

    Construction validates the numerical contract (state_faults): finite
    entries, Hermiticity deviation <= 1e-10, |trace - 1| <= 1e-9,
    eigenvalues >= -1e-9.
    """

    mat: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.mat)
        if arr.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {arr.shape}")
        fault = state_faults(arr[np.newaxis])[0]
        if fault is not None:
            raise fault
        object.__setattr__(self, "mat", arr)


def as_matrix(rho) -> np.ndarray:
    """Accept a DensityMatrix or a plain array and return the 4x4 ndarray."""
    if isinstance(rho, DensityMatrix):
        return rho.mat
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
    return arr


# built and validated once: a DensityMatrix is frozen and its matrix read-only
_BELL_PSI_PLUS = DensityMatrix(0.5 * np.outer([0, 1, 1, 0], [0, 1, 1, 0]))


def bell_state_psi_plus() -> DensityMatrix:
    """Projector onto (|01> + |10>)/sqrt(2), the initial state used throughout."""
    return _BELL_PSI_PLUS
