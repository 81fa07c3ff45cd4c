"""Fisher information breakdown against the symmetric-derivative oracle."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeqfi import qfi
from chargeqfi.dynamics import propagate_checked, propagate_expm
from chargeqfi.errors import ContractViolationError, DegenerateDerivativeError
from chargeqfi.model import (
    PARAM_FIELDS,
    ZZ,
    DensityMatrix,
    SystemParams,
    bell_state_psi_plus,
    max_abs_diff,
    param_rows,
)
from chargeqfi.qfi import (
    FD_STEP_DEFAULT,
    EstimandTag,
    QfiBreakdown,
    _match_branches,
    cramer_rao,
    d_rho,
    qfi_components,
    qfi_points,
    qfi_sld,
    spectral_derivative,
)
from chargeqfi.spectral import spectral_decompose
from chargeqfi.sweeps import SweepConfig, run_sweep

P_REF = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
ALL_TAGS = (EstimandTag.GAMMA, EstimandTag.EJ, EstimandTag.EM)
# the fields each estimand moves; the Josephson estimand moves both qubits together
MOVED_FIELDS = {EstimandTag.GAMMA: ("gamma",), EstimandTag.EJ: ("e_j1", "e_j2"),
                EstimandTag.EM: ("e_m",)}

# correct to 1e-6 relative; regenerate with scripts/regen_goldens.py
SLD_GOLDENS = {
    (0.05, 1.0): {"gamma": 0.8166374508608047, "ej": 3.5129168871997405, "em": 0.008062042327984988},
    (0.1, 5.0): {"gamma": 0.9429954714061974, "ej": 49.715119409281456, "em": 5.6889669339826305},
    (0.2, 1.0): {"gamma": 0.8264154053029582, "ej": 3.464998853022894, "em": 0.12478791850455047},
}


def _shifted(p, tag, delta):
    return dataclasses.replace(p, **{name: getattr(p, name) + delta for name in MOVED_FIELDS[tag]})


def test_estimand_shift_semantics(monkeypatch):
    calls = []

    def recording(rho0, rows, times):
        calls.append(rows.copy())
        return real(rho0, rows, times)

    real = qfi._propagate_rows
    monkeypatch.setattr(qfi, "_propagate_rows", recording)
    p, h = P_REF, 1e-3

    def sides(tag):
        calls.clear()
        d_rho(p, 1.0, tag, h)
        (rows,) = calls
        return [SystemParams(**dict(zip(PARAM_FIELDS, row.tolist()))) for row in rows[1:]]

    up, down = sides(EstimandTag.GAMMA)
    assert up.gamma == p.gamma + h and down.gamma == p.gamma - h
    assert (up.e_j1, up.e_m) == (p.e_j1, p.e_m)
    q, _ = sides(EstimandTag.EJ)
    # the Josephson estimand moves both qubits together
    assert q.e_j1 == p.e_j1 + h and q.e_j2 == p.e_j2 + h
    assert q.e_m == p.e_m and q.gamma == p.gamma
    _, r = sides(EstimandTag.EM)
    assert r.e_m == p.e_m - h and r.e_j1 == p.e_j1 and r.gamma == p.gamma


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_qfi_points_shift_rows_are_the_shifted_params(monkeypatch, tag):
    calls = []

    def recording(rho0, rows, times):
        calls.append(rows.copy())
        return real(rho0, rows, times)

    real = qfi._propagate_rows
    monkeypatch.setattr(qfi, "_propagate_rows", recording)
    # signed zeros off the estimand's columns must keep their sign
    params = [P_REF, SystemParams(e_c1=-0.0, e_j1=0.2, e_j2=-0.0, e_m=-0.0, n_g1=0.45,
                                  n_g2=-0.0, gamma=0.3)]
    h = 1e-3
    qfi_points([(p, 1.0) for p in params], tag, h)
    expected = param_rows(params + [_shifted(p, tag, +h) for p in params]
                          + [_shifted(p, tag, -h) for p in params])
    assert len(calls) == 1 and calls[0].tobytes() == expected.tobytes()


def test_qfi_points_eigen_solves_each_state_once(monkeypatch):
    # the state contract's eigh is the decomposition's: one batched solve over
    # the base, +h and -h states of 5 points, and no eigvalsh at all (the Bell
    # state is validated once, at import)
    eigh_shapes, eigvalsh_shapes = [], []
    real_eigh, real_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting_eigh(a, *args, **kwargs):
        eigh_shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        eigvalsh_shapes.append(np.shape(a))
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    out = qfi_points([(P_REF, t) for t in (0.5, 1.0, 2.0, 3.5, 5.0)], EstimandTag.GAMMA)
    assert not any(isinstance(value, Exception) for pair in out for value in pair)
    assert eigvalsh_shapes == []
    assert eigh_shapes == [(15, 4, 4)]


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
    """Base eigensystem, and the eigenvalues (2, 4) and eigenvectors (2, 4, 4)
    of the +h and -h states at P_REF, t = 2, gamma estimand."""
    base, plus, minus = (
        spectral_decompose(propagate_expm(bell_state_psi_plus(), q, 2.0))
        for q in (P_REF, _shifted(P_REF, EstimandTag.GAMMA, +h),
                  _shifted(P_REF, EstimandTag.GAMMA, -h)))
    return base, (np.stack([plus.eigenvalues, minus.eigenvalues]),
                  np.stack([plus.eigenvectors, minus.eigenvectors]))


def _matched_differences(base_vecs, sides, h=FD_STEP_DEFAULT):
    """Central differences of the +h and -h sides matched onto base_vecs in
    one _match_branches call, and the per-side matching faults."""
    vals, vecs, faults = _match_branches(np.stack([base_vecs] * 2), *sides)
    return (vals[0] - vals[1]) / (2.0 * h), (vecs[0] - vecs[1]) / (2.0 * h), faults


def test_matching_ambiguity_raises():
    base, sides = _eigensystems_at_t2()
    v = base.eigenvectors
    c = 1.0 / np.sqrt(2.0)
    scrambled = np.column_stack([v[:, 0], v[:, 1],
                                 c * (v[:, 2] + v[:, 3]), c * (v[:, 2] - v[:, 3])])
    *_, faults = _matched_differences(v, sides)
    assert faults == [None, None]
    *_, faults = _matched_differences(scrambled, sides)
    for fault in faults:
        assert isinstance(fault, DegenerateDerivativeError)
        assert "branch matching ambiguous" in str(fault)


def test_derivative_gauge_insensitive():
    base, sides = _eigensystems_at_t2()
    phases = np.exp(1j * np.array([0.3, -1.2, 2.5, 0.9]))
    a_vals, a_vecs, a_faults = _matched_differences(base.eigenvectors, sides)
    b_vals, b_vecs, b_faults = _matched_differences(base.eigenvectors * phases, sides)
    assert a_faults == b_faults == [None, None]
    # the unrotated base reproduces the public derivative bit for bit
    sd = spectral_derivative(P_REF, 2.0, EstimandTag.GAMMA)
    assert np.array_equal(a_vals, sd.d_eigenvalues)
    assert np.array_equal(a_vecs, sd.d_eigenvectors)
    assert np.max(np.abs(a_vals - b_vals)) < 1e-10
    # eigenvector derivatives transform with the same phases
    assert max_abs_diff(a_vecs * phases, b_vecs) < 1e-10


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
        QfiBreakdown(f_c=0.0, f_p=0.0, f_m=1e-6, fd_step=1e-4, n_clamped=0, gauge_residual=0.0)
    with pytest.raises(ContractViolationError):
        QfiBreakdown(f_c=-1e-9, f_p=1.0, f_m=0.0, fd_step=1e-4, n_clamped=0, gauge_residual=0.0)


def _bits(*values) -> tuple:
    return tuple(np.float64(v).tobytes() for v in values)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_breakdown_derives_f_total_and_crb_bit_for_bit(tag):
    # t = 0 gives f_total = 0 and so an infinite bound
    for t in (0.0, 0.5, 2.0, 7.5):
        b = qfi_components(P_REF, t, tag)
        total = np.float64(b.f_c) + np.float64(b.f_p) - np.float64(b.f_m)
        assert _bits(b.f_total, b.crb) == _bits(total, cramer_rao(float(total)))


def test_qfi_points_reports_non_finite_times():
    results = qfi_points([(P_REF, float("nan")), (P_REF, 1.0), (P_REF, float("inf"))],
                         EstimandTag.GAMMA)
    for (breakdown, sld), t in zip(results[::2], ("nan", "inf")):
        assert isinstance(breakdown, ValueError) and sld is breakdown
        assert str(breakdown) == f"t must be finite, got {t}"
    assert results[1][0] == qfi_components(P_REF, 1.0, EstimandTag.GAMMA)


def test_qfi_points_keeps_domain_faults_in_the_one_batch(monkeypatch):
    calls = []

    def recording(rho0, rows, times):
        calls.append((rows.copy(), list(times)))
        return real(rho0, rows, times)

    real = qfi._propagate_rows
    monkeypatch.setattr(qfi, "_propagate_rows", recording)
    h = 1e-3
    off = SystemParams(e_j1=0.2, e_j2=0.25, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=0.3)
    low = dataclasses.replace(P_REF, gamma=5e-4)  # gamma - h < 0
    points = [(P_REF, 0.5), (P_REF, -1.0), (off, 1.0), (P_REF, float("nan")), (P_REF, 2.0),
              (low, 1.0), (off, 3.0)]
    faulted = {1: "t must be >= 0, got -1.0", 3: "t must be finite, got nan",
               5: "gamma - h = -5.000e-04 < 0"}
    out = qfi_points(points, EstimandTag.GAMMA, h)
    # one propagation over the base, +h and -h rows of every point; a faulted
    # point is propagated at t = 0
    ((rows, times),) = calls
    n = len(points)
    assert len(rows) == 3 * n
    assert [times[k + side * n] for side in range(3) for k in faulted] == [0.0] * 3 * len(faulted)
    monkeypatch.undo()
    for k, ((p, t), (breakdown, sld)) in enumerate(zip(points, out)):
        if k in faulted:
            for route in (qfi_components, qfi_sld):
                with pytest.raises(ValueError) as exc:
                    route(p, t, EstimandTag.GAMMA, h)
                assert str(exc.value).startswith(faulted[k])
                assert type(breakdown) is ValueError and str(breakdown) == str(exc.value)
            assert sld is breakdown
            continue
        one = qfi_components(p, t, EstimandTag.GAMMA, h)
        fields = ("f_c", "f_p", "f_m", "f_total", "crb", "fd_step", "gauge_residual")
        assert _bits(*(getattr(breakdown, f) for f in fields)) == \
            _bits(*(getattr(one, f) for f in fields))
        assert breakdown.n_clamped == one.n_clamped
        assert _bits(sld) == _bits(qfi_sld(p, t, EstimandTag.GAMMA, h))


@pytest.mark.parametrize("h", [0.0, float("nan"), float("inf"), 1.0])
def test_a_step_out_of_range_fails_every_point_without_warnings(h):
    # every point, its stand-in included, stays in the batch, and a zero step's
    # 0 / 0 in the central difference is never read
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = qfi_points([(P_REF, 1.0), (P_REF, 2.0)], EstimandTag.EJ, h)
        for route in (d_rho, spectral_derivative):
            with pytest.raises(ValueError, match="^fd step must lie in"):
                route(P_REF, 1.0, EstimandTag.EJ, h)
    for breakdown, sld in out:
        assert str(breakdown) == f"fd step must lie in [1e-07, 0.001], got {h}"
        assert sld is breakdown


@pytest.mark.parametrize("p,t,h,message", [
    (P_REF, -1.0, 1e-8, "t must be >= 0, got -1.0"),
    (SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=5e-5), 1.0, 1e-4,
     "gamma - h = -5.000e-05 < 0"),
    (P_REF, 1e300, FD_STEP_DEFAULT, "state has non-finite entries"),
], ids=["negative_t_and_step", "gamma_below_step", "overflowing_t"])
def test_one_point_entries_fail_in_one_order(p, t, h, message):
    """Domain (t, then the step), then the state contract: d_rho fails as
    qfi_sld does and spectral_derivative as qfi_components does."""
    for derivative, entry in ((d_rho, qfi_sld), (spectral_derivative, qfi_components)):
        with pytest.raises(Exception) as expected:
            entry(p, t, EstimandTag.GAMMA, h)
        with pytest.raises(Exception) as got:
            derivative(p, t, EstimandTag.GAMMA, h)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(message)


def test_a_corrupted_eigensolve_fails_every_route_at_the_state_contract(monkeypatch):
    """The eigen residual is the state contract's last check: with eigh's vectors
    shifted by 1e-6 every route that reads the state of (P_REF, 2.0) stops there,
    with one message, before any eigensystem or derivative is returned."""
    rho = propagate_expm(bell_state_psi_plus(), P_REF, 2.0).mat
    real_eigh = np.linalg.eigh

    def corrupted_eigh(a, *args, **kwargs):
        vals, vecs = real_eigh(a, *args, **kwargs)
        return vals, vecs + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", corrupted_eigh)
    entries = [lambda: DensityMatrix(rho), lambda: spectral_decompose(rho),
               lambda: propagate_checked(bell_state_psi_plus(), [P_REF], [2.0])]
    entries += [lambda fn=fn: fn(P_REF, 2.0, EstimandTag.GAMMA)
                for fn in (d_rho, qfi_sld, qfi_components, spectral_derivative)]
    messages = []
    for entry in entries:
        with pytest.raises(ContractViolationError) as exc:
            entry()
        messages.append(str(exc.value))
    row = run_sweep(SweepConfig(params=P_REF, estimand=EstimandTag.GAMMA, axis="time",
                                axis_start=2.0, axis_end=3.0, points=2)).rows[0]
    assert row.axis_value == 2.0 and row.breakdown is None
    messages.append(row.error)
    assert re.fullmatch(r"eigen residual \d\.\d{3}e-0[5-7] exceeds 1e-08", messages[0])
    assert messages == [messages[0]] * len(messages)


# Exact symmetries of the model, off the degeneracy point. The flips and the
# doubling are exact in floating point, so states and Fisher information must
# agree bit for bit (conjugated states by value: the signs of zeros may differ).
_energy = st.floats(0.05, 0.3)
_gate = st.floats(0.4, 0.6).filter(lambda n_g: n_g != 0.5)
OFF_DEGENERATE = st.builds(SystemParams, e_c1=st.floats(0.8, 1.2), e_c2=st.floats(0.8, 1.2),
                           e_j1=_energy, e_j2=_energy, e_m=_energy, n_g1=_gate, n_g2=_gate,
                           gamma=st.floats(0.1, 0.6))
SYMMETRY_TIMES = st.floats(0.1, 8.0)
symmetry_settings = settings(max_examples=30, deadline=None, derandomize=True)


def qfi_values(p, t, h=FD_STEP_DEFAULT):
    """(3, 5) f_total, f_c, f_p, f_m and sld at (p, t) with step h, a row per estimand."""
    rows = []
    for eta in ALL_TAGS:
        [(breakdown, sld)] = qfi_points([(p, t)], eta, h)
        rows.append([breakdown.f_total, breakdown.f_c, breakdown.f_p, breakdown.f_m, sld])
    return np.array(rows)


def scaled(p, factor, names):
    return dataclasses.replace(p, **{name: factor * getattr(p, name) for name in names})


@symmetry_settings
@given(p=OFF_DEGENERATE, t=SYMMETRY_TIMES)
def test_josephson_sign_flip_is_conjugation_by_z1z2(p, t):
    flipped = scaled(p, -1.0, ("e_j1", "e_j2"))
    rho, rho_flipped = propagate_checked(bell_state_psi_plus(), [p, flipped], [t, t])
    signs = np.diag(ZZ).real
    assert rho_flipped.tobytes() == (rho * np.outer(signs, signs)).tobytes()
    assert qfi_values(flipped, t).tobytes() == qfi_values(p, t).tobytes()


@symmetry_settings
@given(p=OFF_DEGENERATE, t=SYMMETRY_TIMES)
def test_energy_sign_flip_is_complex_conjugation(p, t):
    flipped = scaled(p, -1.0, ("e_c1", "e_c2", "e_j1", "e_j2", "e_m"))
    rho, rho_flipped = propagate_checked(bell_state_psi_plus(), [p, flipped], [t, t])
    assert (rho_flipped == rho.conj()).all()
    assert qfi_values(flipped, t).tobytes() == qfi_values(p, t).tobytes()


@symmetry_settings
@given(p=OFF_DEGENERATE, t=SYMMETRY_TIMES)
def test_doubling_energies_and_gamma_halves_time(p, t):
    """rho(2p, t) = rho(p, 2t), so 4 F(2p, t; h) = F(p, 2t; h/2)."""
    doubled = scaled(p, 2.0, ("e_c1", "e_c2", "e_j1", "e_j2", "e_m", "gamma"))
    rho_doubled, rho = propagate_checked(bell_state_psi_plus(), [doubled, p], [t, 2.0 * t])
    assert rho_doubled.tobytes() == rho.tobytes()
    slow, fast = qfi_values(doubled, t, 1e-4), qfi_values(p, 2.0 * t, 5e-5)
    assert (4.0 * slow).tobytes() == fast.tobytes()
