"""Lindblad generator, propagators, and the closed-form audit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chargeqfi
from chargeqfi.dynamics import (
    Liouvillian,
    analytic_coefficients,
    analytic_state,
    analytic_state_matrix,
    audit_analytic,
    EXPM_CHUNK,
    build_liouvillian,
    lindblad_rhs,
    propagate_expm,
    propagate_many,
    propagate_rk,
)
from chargeqfi.errors import ContractViolationError
from chargeqfi.model import (
    SystemParams,
    as_matrix,
    bell_state_psi_plus,
    build_hamiltonian,
    max_abs_diff,
)

P_REF = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
BELL = bell_state_psi_plus()


def matrix_unit(a, b):
    m = np.zeros((4, 4), dtype=complex)
    m[a, b] = 1.0
    return m


def test_rhs_pure_dephasing_bell_entry():
    # with ej = em = 0 the Hamiltonian vanishes at the degeneracy point and
    # the |01><10| coherence differs on both qubits, so it decays at rate
    # gamma: rhs entry = -0.4 * 0.5 = -0.2
    p = SystemParams.degenerate(e_j=0.0, e_m=0.0, gamma=0.4)
    r = lindblad_rhs(BELL, p)
    assert abs(r[1, 2] - (-0.2)) < 1e-14
    assert abs(r[2, 1] - (-0.2)) < 1e-14
    # populations are untouched by pure dephasing
    assert np.allclose(np.diag(r), 0.0, atol=1e-14)


def test_rhs_dephasing_selection_rules():
    # coherence (a, b) decays at gamma/2 per qubit index where a and b differ
    p = SystemParams.degenerate(e_j=0.0, e_m=0.0, gamma=1.0)
    for a in range(4):
        for b in range(4):
            r = lindblad_rhs(matrix_unit(a, b), p)
            ndiff = ((a >> 1) != (b >> 1)) + ((a & 1) != (b & 1))
            expected = matrix_unit(a, b) * (-0.5 * ndiff)
            assert max_abs_diff(r, expected) < 1e-14


def test_rhs_unitary_limit_is_commutator():
    p = SystemParams(e_c1=0.9, e_c2=1.1, e_j1=0.2, e_j2=0.3, e_m=0.15,
                     n_g1=0.45, n_g2=0.55, gamma=0.0)
    rho = as_matrix(BELL)
    h = build_hamiltonian(p)
    assert max_abs_diff(lindblad_rhs(rho, p), -1j * (h @ rho - rho @ h)) < 1e-14


def test_rhs_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= rho.trace()
    r = lindblad_rhs(rho, P_REF)
    assert abs(r.trace()) < 1e-14
    assert max_abs_diff(r, r.conj().T) < 1e-14


def test_liouvillian_matches_rhs_on_matrix_units():
    lio = build_liouvillian(P_REF)
    for a in range(4):
        for b in range(4):
            u = matrix_unit(a, b)
            via_l = (lio.matrix @ u.flatten(order="F")).reshape((4, 4), order="F")
            assert max_abs_diff(via_l, lindblad_rhs(u, P_REF)) < 1e-13


def test_liouvillian_preserves_trace():
    # trace functional: row vector of vec(I) annihilates the generator
    lio = build_liouvillian(P_REF)
    tr_vec = np.eye(4, dtype=complex).flatten(order="F")
    assert np.max(np.abs(tr_vec @ lio.matrix)) < 1e-12


def test_liouvillian_pure_dephasing_is_diagonal():
    p = SystemParams.degenerate(e_j=0.0, e_m=0.0, gamma=0.4)
    lio = build_liouvillian(p).matrix
    assert max_abs_diff(lio, np.diag(np.diag(lio))) < 1e-14
    # diagonal entries: -(gamma/2) * (number of differing qubit indices)
    expected = []
    for b in range(4):       # column-stacked vec: column index varies slower
        for a in range(4):
            ndiff = ((a >> 1) != (b >> 1)) + ((a & 1) != (b & 1))
            expected.append(-0.2 * ndiff)
    assert np.allclose(np.diag(lio), expected, atol=1e-14)


def test_propagate_expm_identity_at_t0():
    out = propagate_expm(BELL, P_REF, 0.0)
    assert max_abs_diff(as_matrix(out), as_matrix(BELL)) < 1e-13


def test_propagate_expm_pure_dephasing_decay():
    p = SystemParams.degenerate(e_j=0.0, e_m=0.0, gamma=0.4)
    out = as_matrix(propagate_expm(BELL, p, 1.0))
    assert abs(out[1, 2] - 0.5 * np.exp(-0.4)) < 1e-12
    assert abs(out[1, 1] - 0.5) < 1e-12


def test_propagate_expm_unitary_keeps_purity():
    p = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.0)
    out = as_matrix(propagate_expm(BELL, p, 3.0))
    assert abs(np.trace(out @ out) - 1.0) < 1e-10


def test_propagate_semigroup_property():
    a = as_matrix(propagate_expm(propagate_expm(BELL, P_REF, 0.7), P_REF, 1.3))
    b = as_matrix(propagate_expm(BELL, P_REF, 2.0))
    assert max_abs_diff(a, b) < 1e-9


def test_propagate_rk_matches_expm():
    for t in (0.5, 2.0, 10.0):
        a = as_matrix(propagate_expm(BELL, P_REF, t))
        b = as_matrix(propagate_rk(BELL, P_REF, t))
        assert max_abs_diff(a, b) < 1e-8


def test_propagate_rk_loose_tolerance():
    a = as_matrix(propagate_expm(BELL, P_REF, 2.0))
    b = as_matrix(propagate_rk(BELL, P_REF, 2.0, rel_tol=1e-5))
    assert max_abs_diff(a, b) < 1e-4


def test_propagate_rk_t0_short_circuits():
    out = propagate_rk(BELL, P_REF, 0.0)
    assert max_abs_diff(as_matrix(out), as_matrix(BELL)) == 0.0


def test_propagate_argument_validation():
    with pytest.raises(ValueError):
        propagate_expm(BELL, P_REF, -0.1)
    with pytest.raises(ValueError):
        propagate_rk(BELL, P_REF, 1.0, rel_tol=1e-13)
    with pytest.raises(ValueError):
        propagate_rk(BELL, P_REF, 1.0, rel_tol=1e-3)


def test_propagate_many_equals_propagate_expm_across_chunks():
    # more states than one expm chunk holds, with mixed parameter sets; one
    # time overflows the exponential and must fail alone
    p_off = SystemParams(e_j1=0.2, e_j2=0.3, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=0.3)
    params = [(P_REF, p_off)[k % 2] for k in range(EXPM_CHUNK + 37)]
    times = [0.05 * k for k in range(len(params))]
    bad = EXPM_CHUNK + 3
    times[bad] = 1e300
    mats, faults = propagate_many(BELL, params, times)
    assert mats.shape == (len(params), 4, 4)
    for k, (p, t) in enumerate(zip(params, times)):
        if k == bad:
            with pytest.raises(ContractViolationError) as single:
                propagate_expm(BELL, p, t)
            assert isinstance(faults[k], ContractViolationError)
            assert str(faults[k]) == str(single.value) == "propagator output is not finite"
        else:
            assert faults[k] is None
            assert np.array_equal(mats[k], propagate_expm(BELL, p, t).mat)


def test_propagate_many_empty_batch():
    mats, faults = propagate_many(BELL, [], [])
    assert mats.shape == (0, 4, 4)
    assert faults == []


def test_analytic_state_matrix_structure():
    m = analytic_state_matrix(P_REF, 2.0)
    assert abs(m.trace() - 1.0) < 1e-14
    assert max_abs_diff(m, m.conj().T) < 1e-14
    # the closed form keeps the two swap-symmetric pairs identified
    assert m[0, 0] == m[3, 3]
    assert m[1, 1] == m[2, 2]
    assert m[0, 1] == m[0, 2]


def test_analytic_state_matrix_t0_offset():
    # the printed solution does not reduce to the initial Bell state at t=0;
    # the deviation is a fixed offset of the closed form as published
    dev = max_abs_diff(analytic_state_matrix(P_REF, 0.0), as_matrix(BELL))
    assert abs(dev - 0.014393667603608164) < 1e-9


def test_analytic_state_rejects_indefinite_matrix():
    # the t=0 offset makes one eigenvalue clearly negative, so the validating
    # wrapper must refuse it
    with pytest.raises(ContractViolationError):
        analytic_state(P_REF, 0.0)


def test_analytic_requires_degenerate_identical_qubits():
    p = SystemParams(e_j1=0.1, e_j2=0.1, e_m=0.1, gamma=0.4, n_g1=0.4, n_g2=0.5)
    with pytest.raises(ValueError):
        analytic_state_matrix(p, 1.0)


def test_analytic_coefficient_domain_errors():
    # strong coupling flips the lambda1/lambda2 radicand sign
    with pytest.raises(ValueError):
        analytic_coefficients(SystemParams.degenerate(e_j=1.0, e_m=5.0, gamma=0.0), 1.0)
    # negative coupling can flip the lambda3 radicand sign
    with pytest.raises(ValueError):
        analytic_coefficients(SystemParams.degenerate(e_j=1.0, e_m=-0.2, gamma=1.0), 1.0)


def test_audit_reports_known_deviation():
    rep = audit_analytic(P_REF, (0.5, 1.0, 2.0))
    assert rep.verdict == "inconsistent"
    assert abs(rep.max_abs_deviation - 0.2259102007328559) < 1e-6
    assert len(rep.deviating_entries) == 48
    assert rep.failures == ()
    # entries are (t, row, col, analytic, oracle, abs deviation), 1-based
    t, row, col, _, _, dev = rep.deviating_entries[0]
    assert t in (0.5, 1.0, 2.0)
    assert 1 <= row <= 4 and 1 <= col <= 4
    assert dev > rep.tolerance
    parsed = json.loads(rep.to_json())
    assert parsed["verdict"] == "inconsistent"
    assert parsed["max_abs_deviation"] == rep.max_abs_deviation


def test_audit_verdict_with_loose_tolerance():
    rep = audit_analytic(P_REF, (0.5, 1.0), tol=1.0)
    assert rep.verdict == "consistent"
    assert rep.deviating_entries == ()


def test_audit_grid_may_be_a_generator():
    # the grid is read once, so a one-shot iterable reports the same grid
    from_tuple = audit_analytic(P_REF, (0.5, 1.0, 2.0)).to_dict()
    from_generator = audit_analytic(P_REF, (t for t in (0.5, 1.0, 2.0))).to_dict()
    assert from_generator == from_tuple
    assert from_generator["grid"] == [0.5, 1.0, 2.0]


def test_audit_of_an_empty_grid_is_consistent():
    rep = audit_analytic(P_REF, [])
    assert rep.verdict == "consistent"
    assert rep.grid == () and rep.max_abs_deviation == 0.0
    assert rep.deviating_entries == () and rep.failures == ()


def test_audit_collects_domain_failures():
    rep = audit_analytic(SystemParams.degenerate(e_j=1.0, e_m=5.0, gamma=0.0), (1.0,))
    assert rep.verdict == "inconsistent"
    assert len(rep.failures) == 1


def test_import_leaves_the_integrator_unloaded():
    # scipy.integrate is most of the package's import time and only
    # propagate_rk needs it
    src = str(Path(chargeqfi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = "import sys, chargeqfi; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
