"""Eigendecomposition, gauge fixing, and the printed eigensystem."""

import warnings

import numpy as np
import pytest

from chargeqfi.dynamics import analytic_eigensystem, analytic_state_matrix, propagate_expm
from chargeqfi.model import (
    SystemParams,
    as_matrix,
    bell_state_psi_plus,
    max_abs_diff,
)
from chargeqfi.errors import ContractViolationError
from chargeqfi.spectral import EIGENVALUE_CLAMP, decompose_many, spectral_decompose

P_REF = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
BELL = bell_state_psi_plus()

V1_CONST = np.array([-1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
V2_CONST = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2.0)


def evolved(t, p=P_REF):
    return propagate_expm(BELL, p, t)


def charpoly_eigenvalues(rho):
    """Eigenvalues via Newton's identities and the companion matrix.

    Power sums p_k = tr(rho^k) give elementary symmetric polynomials, hence
    the characteristic polynomial, without touching the eigensolver.
    """
    m = as_matrix(rho)
    pw = [0.0]
    acc = np.eye(4, dtype=complex)
    for _ in range(4):
        acc = acc @ m
        pw.append(acc.trace().real)
    e = [1.0]
    for k in range(1, 5):
        s = sum((-1) ** (i - 1) * e[k - i] * pw[i] for i in range(1, k + 1))
        e.append(s / k)
    coeffs = [(-1) ** k * e[k] for k in range(5)]
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def test_bell_state_decomposition():
    dec = spectral_decompose(BELL)
    assert np.allclose(dec.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert dec.n_clamped == 3
    assert np.count_nonzero(dec.clamped) == 1
    lead = dec.eigenvectors[:, 0]
    expected = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0)
    assert max_abs_diff(lead, expected) < 1e-12


def test_projector_recovers_vector_up_to_gauge():
    psi = np.array([0.5, 0.1 + 0.3j, -0.2j, 0.7])
    psi /= np.linalg.norm(psi)
    dec = spectral_decompose(np.outer(psi, psi.conj()))
    lead = dec.eigenvectors[:, 0]
    # same ray; gauge makes the largest-magnitude entry real positive
    overlap = np.vdot(psi, lead)
    assert abs(abs(overlap) - 1.0) < 1e-12
    pivot = lead[np.argmax(np.abs(lead))]
    assert pivot.imag == 0.0 and pivot.real > 0.0


def test_maximally_mixed_state():
    dec = spectral_decompose(np.eye(4, dtype=complex) / 4.0)
    assert np.allclose(dec.eigenvalues, 0.25, atol=1e-14)
    assert dec.n_clamped == 0


def test_decomposition_invariants_on_evolved_states():
    for t in (0.5, 2.0, 10.0):
        dec = spectral_decompose(evolved(t))
        v = dec.eigenvectors
        assert np.all(np.diff(dec.eigenvalues) <= 0.0)
        assert abs(dec.eigenvalues.sum() - 1.0) < 1e-9
        assert max_abs_diff(v.conj().T @ v, np.eye(4)) < 1e-10
        recon = (v * dec.eigenvalues) @ v.conj().T
        assert max_abs_diff(recon, as_matrix(evolved(t))) < 1e-9
        assert np.all(dec.clamped >= 0.0)
        assert np.all((dec.clamped == 0.0) | (dec.clamped > EIGENVALUE_CLAMP))


def test_eigenvalues_match_charpoly_oracle():
    for t in (0.5, 1.0, 2.0, 5.0):
        dec = spectral_decompose(evolved(t))
        ref = charpoly_eigenvalues(evolved(t))
        assert np.max(np.abs(dec.eigenvalues - ref)) < 1e-9


def test_decompose_is_deterministic():
    rho = evolved(2.0)
    a = spectral_decompose(rho)
    b = spectral_decompose(rho)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_gauge_stable_under_perturbation():
    # stability holds when the pivot entry is well separated in magnitude;
    # a generic positive matrix satisfies that, the model's own states do
    # not (their eigenvectors carry exactly tied entry magnitudes)
    rng = np.random.default_rng(42)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    m /= m.trace()
    d = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    d = (d + d.conj().T) / 2.0
    d *= 1e-10 / np.max(np.abs(d))
    base = spectral_decompose(m)
    side = spectral_decompose(m + d)
    assert max_abs_diff(base.eigenvectors, side.eigenvectors) < 1e-6


def test_constant_invariant_plane():
    # two eigenvectors of the evolved state stay pinned to the fixed vectors
    # (-1,0,0,1)/sqrt2 and (0,-1,1,0)/sqrt2 at all times
    for t in (0.5, 2.0, 7.0):
        vecs = spectral_decompose(evolved(t)).eigenvectors
        o1 = np.abs(V1_CONST.conj() @ vecs)
        o2 = np.abs(V2_CONST.conj() @ vecs)
        assert np.sum(o1 > 1.0 - 1e-8) == 1
        assert np.sum(o2 > 1.0 - 1e-8) == 1


def test_decompose_rejects_non_hermitian():
    # a non-state fails the state contract before any eigensystem is read
    bad = as_matrix(BELL).copy()
    bad[0, 1] = 0.1
    with pytest.raises(ContractViolationError,
                       match="^Hermiticity deviation 1.000e-01 exceeds 1e-10$"):
        spectral_decompose(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_decompose_rejects_non_finite(value):
    bad = as_matrix(BELL).copy()
    bad[0, 0] = value
    with pytest.raises(ContractViolationError, match="^state has non-finite entries$"):
        spectral_decompose(bad)


def test_decompose_many_reports_non_finite_matrices_per_point():
    # decompose_many runs the state contract over the stack: each point's fault,
    # and the eigensystem of its one eigh, a non-finite matrix solved as the
    # eye(4)/4 stand-in
    nan_entry = as_matrix(BELL).copy()
    nan_entry[0, 0] = np.nan
    inf_entry = as_matrix(BELL).copy()
    inf_entry[1, 2] = np.inf
    stack = np.stack([as_matrix(BELL), nan_entry, evolved(2.0).mat, inf_entry,
                      np.full((4, 4), np.nan), evolved(0.5).mat])
    before = stack.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state_faults, solved, vals, vecs, clamped, n_clamped = decompose_many(stack)
    assert np.array_equal(stack, before, equal_nan=True)
    assert [fault is None for fault in state_faults] == [True, False, True, False, False, True]
    for k in (1, 3, 4):
        assert isinstance(state_faults[k], ContractViolationError)
        assert str(state_faults[k]) == "state has non-finite entries"
        assert np.array_equal(solved[k], np.eye(4) / 4)
    for k in (0, 2, 5):
        single = spectral_decompose(stack[k])
        assert np.array_equal(vals[k], single.eigenvalues)
        assert np.array_equal(vecs[k], single.eigenvectors)
        assert np.array_equal(clamped[k], single.clamped)
        assert n_clamped[k] == single.n_clamped


def test_analytic_eigensystem_reference_point():
    eig = analytic_eigensystem(P_REF, 2.0)
    eps = eig.eigenvalues
    assert np.allclose(
        eps,
        [0.005207113528165348, 0.4744117844826515,
         -0.5210055629705193, 0.012261755213580305],
        atol=1e-12,
    )
    # the printed set does not resolve the identity
    assert abs(eps.sum() - 1.0 - (-1.0291249097461221)) < 1e-9
    assert abs(eig.structure.theta - 1.403279331195883) < 1e-9
    v = eig.eigenvectors
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)
    assert max_abs_diff(v[:, 0], V1_CONST) < 1e-12
    assert max_abs_diff(v[:, 1], V2_CONST) < 1e-12
    # the two mu branches are not orthogonal as printed
    ov = np.vdot(v[:, 2], v[:, 3])
    assert abs(ov.real - (-0.09592399632023951)) < 1e-9
    assert abs(ov.imag) < 1e-12


def test_analytic_eigensystem_partial_agreement():
    # the first two printed eigenvalues are exact eigenvalues of the printed
    # state matrix (population differences of symmetry sectors); the mu
    # branches are not
    eig = analytic_eigensystem(P_REF, 2.0)
    spec = np.linalg.eigvalsh(analytic_state_matrix(P_REF, 2.0))
    assert np.min(np.abs(spec - eig.eigenvalues[0])) < 1e-9
    assert np.min(np.abs(spec - eig.eigenvalues[1])) < 1e-9
    assert np.min(np.abs(spec - eig.eigenvalues[2])) > 1e-3
    assert np.min(np.abs(spec - eig.eigenvalues[3])) > 1e-3


def test_analytic_eigensystem_undefined_at_t0():
    with pytest.raises(ValueError):
        analytic_eigensystem(P_REF, 0.0)
