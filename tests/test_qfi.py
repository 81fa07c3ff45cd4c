"""Fisher information breakdown against the symmetric-derivative oracle."""

import numpy as np
import pytest

from chargeqfi.dynamics import propagate_expm
from chargeqfi.errors import ContractViolationError, DegenerateDerivativeError
from chargeqfi.model import SystemParams, bell_state_psi_plus, max_abs_diff
from chargeqfi.qfi import (
    FD_STEP_DEFAULT,
    EstimandTag,
    QfiBreakdown,
    _central_differences,
    cramer_rao,
    d_rho,
    qfi_components,
    qfi_points,
    qfi_sld,
    spectral_derivative,
)
from chargeqfi.spectral import spectral_decompose

P_REF = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
ALL_TAGS = (EstimandTag.GAMMA, EstimandTag.EJ, EstimandTag.EM)

# correct to 1e-6 relative; regenerate with scripts/regen_goldens.py
SLD_GOLDENS = {
    (0.05, 1.0): {"gamma": 0.8166374508608047, "ej": 3.5129168871997405, "em": 0.008062042327984988},
    (0.1, 5.0): {"gamma": 0.9429954714061974, "ej": 49.715119409281456, "em": 5.6889669339826305},
    (0.2, 1.0): {"gamma": 0.8264154053029582, "ej": 3.464998853022894, "em": 0.12478791850455047},
}


def test_estimand_shift_semantics():
    p = P_REF
    assert EstimandTag.GAMMA.shifted(p, 0.01).gamma == p.gamma + 0.01
    q = EstimandTag.EJ.shifted(p, 0.01)
    # the Josephson estimand moves both qubits together
    assert q.e_j1 == p.e_j1 + 0.01 and q.e_j2 == p.e_j2 + 0.01
    assert q.e_m == p.e_m
    r = EstimandTag.EM.shifted(p, -0.02)
    assert r.e_m == p.e_m - 0.02 and r.e_j1 == p.e_j1


def test_d_rho_vanishes_at_t0():
    for tag in ALL_TAGS:
        assert np.max(np.abs(d_rho(P_REF, 0.0, tag))) < 1e-12


def test_d_rho_hermitian_traceless():
    for tag in ALL_TAGS:
        d = d_rho(P_REF, 2.0, tag)
        assert max_abs_diff(d, d.conj().T) < 1e-12
        # trace roundoff is amplified by 1/(2h)
        assert abs(d.trace()) < 1e-11


def test_d_rho_step_halving_agreement():
    for tag in ALL_TAGS:
        a = d_rho(P_REF, 2.0, tag, h=1e-4)
        b = d_rho(P_REF, 2.0, tag, h=5e-5)
        assert max_abs_diff(a, b) < 1e-7


def test_d_rho_step_validation():
    with pytest.raises(ValueError):
        d_rho(P_REF, 1.0, EstimandTag.GAMMA, h=1e-8)
    with pytest.raises(ValueError):
        d_rho(P_REF, 1.0, EstimandTag.GAMMA, h=1e-2)
    # gamma - h must stay non-negative for the downshifted evaluation
    p_small = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=5e-5)
    with pytest.raises(ValueError):
        d_rho(p_small, 1.0, EstimandTag.GAMMA, h=1e-4)
    # other estimands are unaffected by a small gamma
    d_rho(p_small, 1.0, EstimandTag.EJ, h=1e-4)


def test_spectral_derivative_basics():
    sd = spectral_derivative(P_REF, 2.0, EstimandTag.GAMMA)
    assert sd.method == "central-difference"
    assert sd.step == FD_STEP_DEFAULT
    assert sd.near_degenerate_pairs == ()
    # trace conservation: eigenvalue derivatives sum to zero
    assert abs(sd.d_eigenvalues.sum()) < 5.0 * sd.step**2


def test_spectral_derivative_constant_branches():
    # the branches pinned to the constant eigenvectors must not move
    sd = spectral_derivative(P_REF, 2.0, EstimandTag.GAMMA)
    vecs = spectral_decompose(propagate_expm(bell_state_psi_plus(), P_REF, 2.0)).eigenvectors
    v1 = np.array([-1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
    v2 = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2.0)
    for fixed in (v1, v2):
        (idx,) = np.where(np.abs(fixed.conj() @ vecs) > 1.0 - 1e-8)
        assert np.linalg.norm(sd.d_eigenvectors[:, idx[0]]) < 1e-6


def test_spectral_derivative_flags_near_degenerate_base():
    # at very small t three eigenvalues sit within 1e-6 of each other
    sd = spectral_derivative(P_REF, 1e-6, EstimandTag.GAMMA)
    assert len(sd.near_degenerate_pairs) > 0


def _eigensystems_at_t2(h=FD_STEP_DEFAULT):
    """Base eigensystem and the (eigenvalues, eigenvectors) stacks of the
    +h and -h states at P_REF, t = 2, gamma estimand."""
    base, plus, minus = (
        spectral_decompose(propagate_expm(bell_state_psi_plus(), q, 2.0))
        for q in (P_REF, EstimandTag.GAMMA.shifted(P_REF, +h), EstimandTag.GAMMA.shifted(P_REF, -h)))
    return base, [(s.eigenvalues[np.newaxis], s.eigenvectors[np.newaxis]) for s in (plus, minus)]


def test_matching_ambiguity_raises():
    base, sides = _eigensystems_at_t2()
    v = base.eigenvectors
    c = 1.0 / np.sqrt(2.0)
    scrambled = np.column_stack([v[:, 0], v[:, 1],
                                 c * (v[:, 2] + v[:, 3]), c * (v[:, 2] - v[:, 3])])
    *_, faults = _central_differences(v[np.newaxis], *sides, FD_STEP_DEFAULT)
    assert faults == [None]
    *_, faults = _central_differences(scrambled[np.newaxis], *sides, FD_STEP_DEFAULT)
    assert isinstance(faults[0], DegenerateDerivativeError)
    assert "branch matching ambiguous" in str(faults[0])


def test_derivative_gauge_insensitive():
    base, sides = _eigensystems_at_t2()
    phases = np.exp(1j * np.array([0.3, -1.2, 2.5, 0.9]))
    a_vals, a_vecs, a_faults = _central_differences(
        base.eigenvectors[np.newaxis], *sides, FD_STEP_DEFAULT)
    b_vals, b_vecs, b_faults = _central_differences(
        (base.eigenvectors * phases)[np.newaxis], *sides, FD_STEP_DEFAULT)
    assert a_faults == b_faults == [None]
    # the unrotated base reproduces the public derivative bit for bit
    sd = spectral_derivative(P_REF, 2.0, EstimandTag.GAMMA)
    assert np.array_equal(a_vals[0], sd.d_eigenvalues)
    assert np.array_equal(a_vecs[0], sd.d_eigenvectors)
    assert np.max(np.abs(a_vals - b_vals)) < 1e-10
    # eigenvector derivatives transform with the same phases
    assert max_abs_diff(a_vecs[0] * phases, b_vecs[0]) < 1e-10


def test_breakdown_reference_point():
    b = qfi_components(P_REF, 2.0, EstimandTag.GAMMA)
    assert abs(b.f_total - 1.0447001399185192) / 1.0447001399185192 < 1e-6
    assert abs(b.f_c - 1.0386742737721035) / 1.0386742737721035 < 1e-6
    assert abs(b.f_p - 0.006070794957910913) / 0.006070794957910913 < 1e-4
    assert abs(b.f_m - 4.492881149511843e-05) / 4.492881149511843e-05 < 1e-3
    assert abs(b.crb - 0.9572124687166161) / 0.9572124687166161 < 1e-6
    assert b.fd_step == FD_STEP_DEFAULT
    assert b.n_clamped == 0
    assert b.gauge_residual < 1e-8


def test_breakdown_identity_and_signs():
    for tag in ALL_TAGS:
        b = qfi_components(P_REF, 1.5, tag)
        assert abs(b.f_total - (b.f_c + b.f_p - b.f_m)) < 1e-12
        assert b.f_c >= 0.0 and b.f_p >= 0.0 and b.f_m >= 0.0
        assert b.f_total >= -1e-8
        assert b.crb == cramer_rao(b.f_total)


def test_components_match_sld_oracle():
    for tag in ALL_TAGS:
        for t in (1.0, 5.0):
            b = qfi_components(P_REF, t, tag)
            s = qfi_sld(P_REF, t, tag)
            assert abs(b.f_total - s) / max(s, 1e-6) < 1e-4


def test_sld_golden_values():
    for (e, t), vals in SLD_GOLDENS.items():
        p = SystemParams.degenerate(e_j=e, e_m=e, gamma=0.4)
        for tag in ALL_TAGS:
            s = qfi_sld(p, t, tag)
            ref = vals[tag.value]
            assert abs(s - ref) / ref < 1e-6, (e, t, tag)


def test_zero_information_at_t0():
    for tag in ALL_TAGS:
        b = qfi_components(P_REF, 0.0, tag)
        assert abs(b.f_total) < 1e-6
        assert b.crb == float("inf")


def test_step_robustness():
    for tag in ALL_TAGS:
        a = qfi_components(P_REF, 2.0, tag, h=1e-4).f_total
        b = qfi_components(P_REF, 2.0, tag, h=5e-5).f_total
        assert abs(a - b) / abs(a) < 1e-5


def test_unitary_evolution_gives_pure_state_formula():
    # with gamma = 0 the state stays pure: the classical and mixed parts
    # vanish and the total reduces to the pure-state expression
    p = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.0)
    b = qfi_components(p, 2.0, EstimandTag.EJ)
    assert b.f_c < 1e-6
    assert b.f_m < 1e-6
    assert abs(b.f_total - b.f_p) < 1e-6
    s = qfi_sld(p, 2.0, EstimandTag.EJ)
    assert abs(b.f_total - s) / s < 1e-4


def test_cramer_rao_mapping():
    assert cramer_rao(2.0) == 0.5
    assert cramer_rao(0.0) == float("inf")
    assert cramer_rao(5e-13) == float("inf")
    assert cramer_rao(-1e-9) == float("inf")
    with pytest.raises(ContractViolationError):
        cramer_rao(-1e-7)


def test_breakdown_floor_enforcement():
    with pytest.raises(ContractViolationError):
        QfiBreakdown(f_total=-1e-6, f_c=0.0, f_p=0.0, f_m=1e-6, crb=float("inf"),
                     fd_step=1e-4, n_clamped=0, gauge_residual=0.0)
    with pytest.raises(ContractViolationError):
        QfiBreakdown(f_total=1.0, f_c=-1e-9, f_p=1.0, f_m=0.0, crb=1.0,
                     fd_step=1e-4, n_clamped=0, gauge_residual=0.0)


def test_qfi_points_reports_non_finite_times():
    results = qfi_points([(P_REF, float("nan")), (P_REF, 1.0), (P_REF, float("inf"))],
                         EstimandTag.GAMMA)
    for (breakdown, sld), t in zip(results[::2], ("nan", "inf")):
        assert isinstance(breakdown, ValueError) and sld is breakdown
        assert str(breakdown) == f"t must be finite, got {t}"
    assert results[1][0] == qfi_components(P_REF, 1.0, EstimandTag.GAMMA)
