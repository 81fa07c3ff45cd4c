"""Reference values for the correctness gate, derived without the package.

A small re-derivation of the model: Hamiltonian, column-stacked Lindblad
generator, ``expm`` propagation of the Bell state and the SLD form of the
quantum Fisher information with a central-difference d(rho). It follows the
same equations as the seed numerics but shares no code with them, so an
output of the package that drifts from these values beyond the golden
tolerances counts as a failed operation.

Parameters are plain dicts with the ``SystemParams`` field names.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
Z1, Z2 = np.kron(SZ, I2), np.kron(I2, SZ)
X1, X2 = np.kron(SX, I2), np.kron(I2, SX)
ZZ = np.kron(SZ, SZ)

RHO0 = np.zeros((4, 4), dtype=complex)
RHO0[1, 1] = RHO0[2, 2] = RHO0[1, 2] = RHO0[2, 1] = 0.5

FD_STEP = 1e-4
EIGENVALUE_CLAMP = 1e-12


def hamiltonian(p: dict) -> np.ndarray:
    k1 = 2.0 * p["e_c1"] * (1.0 - 2.0 * p["n_g1"]) + p["e_m"] * (1.0 - 2.0 * p["n_g2"])
    k2 = 2.0 * p["e_c2"] * (1.0 - 2.0 * p["n_g2"]) + p["e_m"] * (1.0 - 2.0 * p["n_g1"])
    return -0.5 * (k1 * Z1 + k2 * Z2 + p["e_j1"] * X1 + p["e_j2"] * X2 - 2.0 * p["e_m"] * ZZ)


def generator(p: dict) -> np.ndarray:
    h = hamiltonian(p)
    gen = -1j * (np.kron(I4, h) - np.kron(h.T, I4))
    for z in (Z1, Z2):
        # Z @ Z = 1, so the anticommutator part of each dephasing term is -2 * identity
        gen = gen + (p["gamma"] / 8.0) * (2.0 * np.kron(z.T, z) - 2.0 * np.eye(16))
    return gen


def state(p: dict, t: float) -> np.ndarray:
    vec = expm(generator(p) * t) @ RHO0.reshape(16, order="F")
    return vec.reshape((4, 4), order="F")


def shifted(p: dict, estimand: str, delta: float) -> dict:
    q = dict(p)
    if estimand == "gamma":
        q["gamma"] += delta
    elif estimand == "ej":
        q["e_j1"] += delta
        q["e_j2"] += delta
    else:
        q["e_m"] += delta
    return q


def sld_qfi(p: dict, t: float, estimand: str, h: float = FD_STEP) -> float:
    """F = sum_ij 2 |<i| d_rho |j>|^2 / (eps_i + eps_j) over pairs above the clamp."""
    drho = (state(shifted(p, estimand, h), t) - state(shifted(p, estimand, -h), t)) / (2.0 * h)
    vals, vecs = np.linalg.eigh(state(p, t))
    eps = np.where(vals < EIGENVALUE_CLAMP, 0.0, vals)
    mixed = np.abs(vecs.conj().T @ drho @ vecs) ** 2
    sums = eps[:, None] + eps[None, :]
    keep = sums > EIGENVALUE_CLAMP
    return float(np.sum(2.0 * mixed[keep] / sums[keep]))
