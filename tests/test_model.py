"""Hamiltonian construction and state container checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeqfi.errors import ContractViolationError
from chargeqfi.model import (
    PARAM_FIELDS,
    DensityMatrix,
    SystemParams,
    as_matrix,
    bell_state_psi_plus,
    build_hamiltonian,
    kappa_coefficients,
    max_abs_diff,
    param_rows,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def hamiltonian_by_matrix_elements(p):
    """Independent construction: scalar rules per basis-state pair.

    Basis index b in {0..3} encodes (q1, q2) bits, bit value 0 meaning the
    sigma_z eigenvalue +1.  Diagonal: -(k1 z1 + k2 z2 - 2 em z1 z2)/2.
    Off-diagonal: -ej/2 for a single bit flip, 0 for a double flip.
    """
    k1, k2 = kappa_coefficients(p)
    ej = {0: p.e_j1, 1: p.e_j2}
    h = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        za = [1 - 2 * ((a >> 1) & 1), 1 - 2 * (a & 1)]
        for b in range(4):
            zb = [1 - 2 * ((b >> 1) & 1), 1 - 2 * (b & 1)]
            if a == b:
                h[a, b] = -0.5 * (k1 * za[0] + k2 * za[1] - 2.0 * p.e_m * za[0] * za[1])
            else:
                flips = [j for j in range(2) if za[j] != zb[j]]
                if len(flips) == 1:
                    h[a, b] = -0.5 * ej[flips[0]]
    return h


def test_kappa_hand_example():
    # k1 = 2*1.0*(1-0.8) + 0.3*(1-1.2) = 0.34, k2 = 2*0.5*(1-1.2) + 0.3*(1-0.8)
    p = SystemParams(e_c1=1.0, e_c2=0.5, e_j1=0.1, e_j2=0.1, e_m=0.3,
                     n_g1=0.4, n_g2=0.6, gamma=0.0)
    k1, k2 = kappa_coefficients(p)
    assert abs(k1 - 0.34) < 1e-12
    assert abs(k2 - (-0.14)) < 1e-12


def test_kappa_two_level_point():
    p = SystemParams(e_c1=1.0, e_c2=1.0, e_j1=0.1, e_j2=0.1, e_m=0.3,
                     n_g1=0.3, n_g2=0.7, gamma=0.0)
    k1, k2 = kappa_coefficients(p)
    # 2*1.0*0.4 + 0.3*(-0.4) and 2*1.0*(-0.4) + 0.3*0.4
    assert abs(k1 - 0.68) < 1e-12
    assert abs(k2 - (-0.68)) < 1e-12


def test_kappa_vanishes_at_degeneracy():
    p = SystemParams.degenerate(e_j=0.1, e_m=0.3, gamma=0.2)
    assert kappa_coefficients(p) == (0.0, 0.0)


def test_hamiltonian_degenerate_example():
    p = SystemParams.degenerate(e_j=0.1, e_m=0.2, gamma=0.0)
    h = build_hamiltonian(p)
    # kappas vanish, so the diagonal is the em ZZ term alone: +em * z1 * z2
    assert np.allclose(np.diag(h), [0.2, -0.2, -0.2, 0.2], atol=1e-12)
    # single-flip entries are -ej/2, double flips vanish
    assert abs(h[0, 1] - (-0.05)) < 1e-12
    assert abs(h[0, 2] - (-0.05)) < 1e-12
    assert abs(h[1, 3] - (-0.05)) < 1e-12
    assert abs(h[2, 3] - (-0.05)) < 1e-12
    assert h[0, 3] == 0.0
    assert h[1, 2] == 0.0


def test_hamiltonian_matches_matrix_element_rules():
    p = SystemParams(e_c1=0.9, e_c2=1.3, e_j1=0.17, e_j2=0.23, e_m=0.31,
                     n_g1=0.42, n_g2=0.61, gamma=0.0)
    h = build_hamiltonian(p)
    assert max_abs_diff(h, hamiltonian_by_matrix_elements(p)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(ec1=finite, ec2=finite, ej1=finite, ej2=finite, em=finite,
       ng1=finite, ng2=finite)
def test_hamiltonian_hermitian_real(ec1, ec2, ej1, ej2, em, ng1, ng2):
    p = SystemParams(e_c1=ec1, e_c2=ec2, e_j1=ej1, e_j2=ej2, e_m=em,
                     n_g1=ng1, n_g2=ng2, gamma=0.0)
    h = build_hamiltonian(p)
    assert max_abs_diff(h, h.conj().T) == 0.0
    assert np.all(h.imag == 0.0)


def test_charging_energy_irrelevant_at_degeneracy():
    a = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
    b = dataclasses.replace(a, e_c1=7.0, e_c2=0.2)
    assert np.array_equal(build_hamiltonian(a), build_hamiltonian(b))


def test_param_rows_are_float_fields_in_order():
    params = [SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4),
              SystemParams(e_c1=-1.5, e_j1=-0.2, e_j2=-0.3, e_m=-0.15, n_g1=-0.45, n_g2=1.55),
              # signed zeros, which a value comparison would not tell apart
              SystemParams(e_c1=-0.0, e_j1=-0.0, e_j2=0.0, e_m=-0.0, n_g2=-0.0, gamma=-0.0),
              SystemParams(e_c1=2, e_c2=0, e_j1=1, n_g1=0, n_g2=1)]  # int fields
    rows = param_rows(params)
    assert rows.shape == (len(params), 8) and rows.dtype == np.float64
    expected = np.array([[float(getattr(p, name)) for name in PARAM_FIELDS] for p in params])
    assert rows.tobytes() == expected.tobytes()
    assert param_rows([]).shape == (0, 8)


def test_degenerate_identical_predicate():
    assert SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.0).degenerate_identical()
    off = SystemParams(e_j1=0.1, e_j2=0.1000001, n_g1=0.5, n_g2=0.5)
    assert not off.degenerate_identical()
    assert not SystemParams(n_g1=0.49).degenerate_identical()


def test_bell_state_entries():
    rho = bell_state_psi_plus()
    m = as_matrix(rho)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
    assert max_abs_diff(m, expected) == 0.0
    # pure state
    assert abs(np.trace(m @ m) - 1.0) < 1e-14


def test_density_matrix_is_read_only():
    rho = bell_state_psi_plus()
    with pytest.raises(ValueError):
        as_matrix(rho)[0, 0] = 99.0
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 99.0
    assert as_matrix(rho)[0, 0] == 0.0


def test_as_matrix_rejects_a_non_4x4_array():
    with pytest.raises(ValueError, match=r"^expected a 4x4 matrix, got shape \(2, 2\)$"):
        as_matrix(np.eye(2))


def test_density_matrix_rejects_bad_inputs():
    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    DensityMatrix(good)
    bad_trace = good * 1.01
    with pytest.raises(ContractViolationError):
        DensityMatrix(bad_trace)
    bad_herm = good.copy()
    bad_herm[0, 1] = 1e-3
    with pytest.raises(ContractViolationError):
        DensityMatrix(bad_herm)
    bad_eig = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ContractViolationError):
        DensityMatrix(bad_eig)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3, dtype=complex) / 3.0)


def test_density_matrix_tolerates_roundoff():
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m[0, 1] = 1e-12          # below the hermiticity gate
    m[1, 0] = 0.0
    m[3, 3] += -2e-10        # trace off by well under 1e-9
    DensityMatrix(m)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_matrices(value):
    full = np.full((4, 4), value, dtype=complex)
    # one non-finite diagonal entry leaves every other check blind
    one_entry = np.diag([value, 0.5, 0.5, 0.0]).astype(complex)
    for mat in (full, one_entry):
        with pytest.raises(ContractViolationError, match="^state has non-finite entries$"):
            DensityMatrix(mat)


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(gamma=-0.1)
    with pytest.raises(ValueError):
        SystemParams(e_j1=float("nan"))
    with pytest.raises(ValueError):
        SystemParams(e_m=float("inf"))
    # bool is an int subclass, not a real-valued field
    for name in ("gamma", "e_j1", "n_g2"):
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
                SystemParams(**{name: flag})
