"""Lindblad generator, propagators, and the closed-form audit."""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg._matfuncs_expm import pick_pade_structure

import chargeqfi
from chargeqfi.dynamics import (
    Liouvillian,
    analytic_coefficients,
    analytic_state_matrix,
    audit_analytic,
    EXPM_CHUNK,
    build_liouvillian,
    check_time,
    lindblad_rhs,
    liouvillian_stack,
    propagate_checked,
    propagate_expm,
    propagate_rk,
    _propagate_rows,
)
from chargeqfi import dynamics, model
from chargeqfi.errors import ContractViolationError
from chargeqfi.qfi import FD_STEP_DEFAULT, EstimandTag
from chargeqfi.sweeps import FIGURES, SweepConfig, run_sweep, sweep_to_csv
from chargeqfi.model import (
    PARAM_FIELDS,
    DensityMatrix,
    SystemParams,
    as_matrix,
    bell_state_psi_plus,
    build_hamiltonian,
    max_abs_diff,
    param_rows,
    state_faults,
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


def test_propagate_rk_t0_short_circuits():
    out = propagate_rk(BELL, P_REF, 0.0)
    assert max_abs_diff(as_matrix(out), as_matrix(BELL)) == 0.0


def test_propagate_argument_validation():
    with pytest.raises(ValueError):
        propagate_expm(BELL, P_REF, -0.1)
    # rejected before either kernel runs: the integrator does not return on nan or inf
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^t must be finite"):
            propagate_expm(BELL, P_REF, t)
        with pytest.raises(ValueError, match="^t must be finite"):
            propagate_rk(BELL, P_REF, t)


def test_check_time_rejects_non_finite_times():
    check_time(0.0)
    check_time(1e300)
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            check_time(t)
    # negative times keep their message, -inf included
    for t in (-1.0, float("-inf")):
        with pytest.raises(ValueError, match=f"^t must be >= 0, got {t}$"):
            check_time(t)


@pytest.mark.parametrize("entry,dev,fault", [
    # on both sides of 1e-8, where a second, looser propagator check would change the message
    ((0, 1), 1e-9, "Hermiticity deviation"), ((0, 1), 1e-7, "Hermiticity deviation"),
    ((3, 3), 5e-9, "trace deviation"), ((3, 3), 1e-7, "trace deviation"),
    # below the contract's thresholds
    ((0, 1), 5e-11, None), ((3, 3), 5e-10, None),
])
def test_propagated_states_meet_the_state_contract_alone(entry, dev, fault):
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho0[entry] += dev
    _assert_contract_alone(rho0, fault)


@pytest.mark.parametrize("lowest,offset,fault", [
    # unit-trace diagonal states on both sides of the -1e-9 floor; positivity reads the raw
    # eigh, which sees the lower-triangle offset, so a 5e-11 Hermiticity offset must not move
    # the verdict
    (-1.1e-9, 0.0, "negative eigenvalue -1.100e-09 below floor -1e-09"), (-0.9e-9, 0.0, None),
    (-1.1e-9, 5e-11, "negative eigenvalue -1.100e-09 below floor -1e-09"), (-0.9e-9, 5e-11, None),
])
def test_propagated_states_meet_the_positivity_floor_alone(lowest, offset, fault):
    rho0 = np.diag([0.4, 0.3, 0.3 - lowest, lowest]).astype(complex)
    rho0[3, 0] += offset
    _assert_contract_alone(rho0, fault)
    if fault is None:
        DensityMatrix(rho0)
    else:
        with pytest.raises(ContractViolationError, match=f"^{re.escape(fault)}$"):
            DensityMatrix(rho0)


def _assert_contract_alone(rho0, fault):
    # expm(L 0) is exactly the identity, so rho0 comes back unchanged
    mats = _propagate_rows(rho0, param_rows([P_REF]), [0.0])
    faults = state_faults(mats)
    assert np.array_equal(mats[0], rho0)
    expected = state_faults(rho0[np.newaxis])[0]
    if fault is None:
        assert faults == [None] and expected is None
        assert np.array_equal(propagate_expm(rho0, P_REF, 0.0).mat, rho0)
        assert np.array_equal(propagate_checked(rho0, [P_REF], [0.0])[0], rho0)
        return
    assert str(expected).startswith(fault)
    assert str(faults[0]) == str(expected)
    for propagate in (lambda: propagate_expm(rho0, P_REF, 0.0),
                      lambda: propagate_checked(rho0, [P_REF], [0.0])):
        with pytest.raises(ContractViolationError) as single:
            propagate()
        assert str(single.value) == str(expected)


@pytest.mark.parametrize("propagate", [propagate_expm, propagate_rk])
def test_propagators_report_the_state_contract(propagate):
    # both routes preserve the trace, so twice the Bell state stays at trace 2
    with pytest.raises(ContractViolationError, match="^trace deviation 1.000e\\+00 exceeds 1e-09$"):
        propagate(2.0 * as_matrix(BELL), P_REF, 1.0)


@pytest.mark.parametrize("propagate", [propagate_expm, propagate_rk])
def test_each_propagator_call_checks_its_state_once(monkeypatch, propagate):
    calls = []

    def counting_state_faults(mats):
        calls.append(len(mats))
        return real_state_faults(mats)

    real_state_faults = model.state_faults
    monkeypatch.setattr(model, "state_faults", counting_state_faults)
    propagate(BELL, P_REF, 1.0)
    assert calls == [1]


def test_propagate_rows_equals_propagate_expm_across_chunks():
    # more states than one expm chunk holds, with mixed parameter sets; one
    # time overflows the exponential and must fail alone
    p_off = SystemParams(e_j1=0.2, e_j2=0.3, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=0.3)
    params = [(P_REF, p_off)[k % 2] for k in range(EXPM_CHUNK + 37)]
    times = [0.05 * k for k in range(len(params))]
    bad = EXPM_CHUNK + 3
    times[bad] = 1e300
    mats = _propagate_rows(BELL, param_rows(params), times)
    faults = state_faults(mats)
    assert mats.shape == (len(params), 4, 4)
    for k, (p, t) in enumerate(zip(params, times)):
        if k == bad:
            with pytest.raises(ContractViolationError) as single:
                propagate_expm(BELL, p, t)
            assert isinstance(faults[k], ContractViolationError)
            assert str(faults[k]) == str(single.value) == "state has non-finite entries"
        else:
            assert faults[k] is None
            assert np.array_equal(mats[k], propagate_expm(BELL, p, t).mat)
    with pytest.raises(ContractViolationError, match="^state has non-finite entries$"):
        propagate_checked(BELL, params, times)
    good = [k for k in range(len(params)) if k != bad]
    checked = propagate_checked(BELL, [params[k] for k in good], [times[k] for k in good])
    assert checked.tobytes() == mats[good].tobytes()


def test_propagate_rows_empty_batch():
    mats = _propagate_rows(BELL, param_rows([]), [])
    assert mats.shape == (0, 4, 4)
    assert state_faults(mats) == []
    assert propagate_checked(BELL, [], []).shape == (0, 4, 4)


@pytest.mark.parametrize("n_params,n_times", [(1, 2), (130, 129), (2, 3), (1, 0)])
def test_propagate_checked_rejects_unequal_lengths(monkeypatch, n_params, n_times):
    def no_propagation(*args):
        raise AssertionError("a state was propagated")

    monkeypatch.setattr(dynamics, "_propagate_rows", no_propagation)
    # the lengths are checked before any time, so an invalid time does not speak first
    times = [-1.0] * n_times
    with pytest.raises(ValueError, match=f"^{n_params} parameter sets but {n_times} times$"):
        propagate_checked(BELL, [P_REF] * n_params, times)


def test_expm_states_is_scipy_expm_byte_for_byte():
    p_off = SystemParams(e_j1=0.2, e_j2=0.3, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=0.3)
    generic = [build_liouvillian(p).matrix * t for p in (P_REF, p_off)
               for t in (1e-6, 0.1, 0.3, 1.0, 2.0, 10.0, 50.0, 1e4)]
    rng = np.random.default_rng(7)
    upper = np.triu(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    diagonal = build_liouvillian(SystemParams(e_j1=0.0, e_j2=0.0, gamma=0.3)).matrix
    nan_entry = build_liouvillian(P_REF).matrix.copy()
    nan_entry[3, 5] = np.nan
    nan_below = diagonal * 50.0  # a nan is a nonzero entry: lower triangular
    nan_below[5, 3] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        overflowing = build_liouvillian(SystemParams(e_m=1e308)).matrix
    special = [0.0 * diagonal, diagonal * 2.0, upper * 0.1, upper * 50.0, upper.T * 50.0,
               nan_entry, nan_below, np.full((16, 16), np.inf + 0j), overflowing]
    stack = np.array(generic + special)
    # the generic slices cover every Pade order, with and without scaling
    work = np.empty((5, 16, 16), dtype=complex)
    structures = set()
    for g in generic:
        work[0] = g
        structures.add(pick_pade_structure(work))
    assert {m for m, _ in structures} == {3, 5, 7, 9, 13}
    assert max(s for _, s in structures) >= 10
    assert not np.isfinite(stack[-3:]).all(axis=(1, 2)).any()
    # generic and special slices interleaved, so that the branch changes from slice to slice
    mixed = np.array([m for pair in zip(generic, special) for m in pair])
    mixed_alone = np.array([expm(g) for g in mixed])
    # each matrix unit as rho0 picks one column of every exponential
    for k in range(16):
        unit = np.zeros(16, dtype=complex)
        unit[k] = 1.0
        rho0 = unit.reshape(4, 4, order="F")
        expected = (expm(stack) @ unit).reshape(-1, 4, 4).transpose(0, 2, 1)
        assert dynamics.expm_states(rho0, stack).tobytes() == expected.tobytes()
        for g, state in zip(stack, expected):  # and of each slice alone
            assert dynamics.expm_states(rho0, g[np.newaxis]).tobytes() == state.tobytes()
        expected = (mixed_alone @ unit).reshape(-1, 4, 4).transpose(0, 2, 1)
        assert dynamics.expm_states(rho0, mixed).tobytes() == expected.tobytes()


def kron_liouvillian(p):
    """The generator written out per parameter set with np.kron."""
    h = build_hamiltonian(p)
    mat = -1j * (np.kron(np.eye(4), h) - np.kron(h.T, np.eye(4)))
    for sz in (model.Z1, model.Z2):
        dephasing = (2.0 * np.kron(sz.T, sz) - np.kron(np.eye(4), sz @ sz)
                     - np.kron((sz @ sz).T, np.eye(4)))
        mat = mat + (p.gamma / 8.0) * dephasing
    return mat


P_OFF = SystemParams(e_j1=0.2, e_j2=0.3, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=0.3)
# degenerate, off-degenerate and gamma = 0 sets with duplicates, then
# p, q, p, q interleaved across the first chunk boundary
MIXED_PARAMS = ([P_REF, P_OFF, SystemParams(gamma=0.0), P_REF, SystemParams(gamma=0.0)]
                + [(P_OFF, P_REF)[k % 2] for k in range(EXPM_CHUNK + 37)])


# negative and signed-zero fields, where array_equal would hide a flipped zero
EDGE_PARAMS = [SystemParams(e_j1=-0.2, e_j2=-0.0, e_m=-0.15, n_g1=0.55, n_g2=-0.0, gamma=0.0),
               SystemParams(e_c1=-0.0, e_c2=2, e_j1=0.0, e_j2=-0.1, e_m=-0.0, gamma=-0.0)]


def params_of_row(row):
    return SystemParams(**dict(zip(PARAM_FIELDS, row.tolist())))


def derivative_rows(params, h=FD_STEP_DEFAULT):
    """Each set's row and its +h and -h rows for every estimand, as the derivative core shifts them."""
    rows = [param_rows([p])[0] for p in params]
    for p in params:
        for eta in EstimandTag:
            cols = [PARAM_FIELDS.index(name) for name in eta.fields]
            for step in (h, -h):
                row = param_rows([p])[0]
                row[cols] += step
                rows.append(row)
    return np.array(rows)


def test_liouvillian_stack_is_the_kron_formula_bit_for_bit_at_degeneracy():
    # every entry of a degenerate generator is one exact product in both formulas
    presets = [p for spec in FIGURES.values() for _, p in spec.curves]
    assert len(presets) == 24
    rng = np.random.default_rng(22)
    seeded = [SystemParams.degenerate(e_j, e_m, gamma)
              for e_j, e_m, gamma in rng.uniform([0.0, 0.0, 2 * FD_STEP_DEFAULT], 1.0, (64, 3))]
    rows = derivative_rows(presets + seeded)
    stack = liouvillian_stack(rows)
    for row, mat in zip(rows, stack):
        p = params_of_row(row)
        assert p.degenerate_identical()
        assert mat.tobytes() == kron_liouvillian(p).tobytes()


def test_liouvillian_stack_is_the_kron_formula_bit_for_bit_on_dyadic_sets():
    # off degeneracy the formulas sum in different orders; with dyadic fields
    # every product and sum is exact, so the order cannot show
    rng = np.random.default_rng(23)
    params = [SystemParams(*(rng.integers(-16, 17, 7) / 16), gamma=rng.integers(0, 17) / 16)
              for _ in range(64)]
    params += [SystemParams(e_c1=1.5, e_c2=0.75, e_j1=0.25, e_j2=0.375, e_m=0.125,
                            n_g1=0.25, n_g2=0.625, gamma=0.5)]
    assert sum(not p.degenerate_identical() for p in params) >= 60
    for p, mat in zip(params, liouvillian_stack(param_rows(params))):
        assert mat.tobytes() == kron_liouvillian(p).tobytes()


def exact_liouvillian(p):
    """(real, imaginary) parts of the generator in fractions.Fraction, from the
    exact binary values of the fields."""
    f = {name: Fraction(getattr(p, name)) for name in PARAM_FIELDS}
    k1 = 2 * f["e_c1"] * (1 - 2 * f["n_g1"]) + f["e_m"] * (1 - 2 * f["n_g2"])
    k2 = 2 * f["e_c2"] * (1 - 2 * f["n_g2"]) + f["e_m"] * (1 - 2 * f["n_g1"])
    z1, z2, x1, x2, zz = (m.real.astype(int).astype(object)
                          for m in (model.Z1, model.Z2, model.X1, model.X2, model.ZZ))
    h = Fraction(-1, 2) * (k1 * z1 + k2 * z2 + f["e_j1"] * x1 + f["e_j2"] * x2 - 2 * f["e_m"] * zz)
    eye = np.eye(4, dtype=int).astype(object)
    dephasing = sum(2 * np.kron(sz, sz) - 2 * np.kron(eye, eye) for sz in (z1, z2))  # Zj^2 = I
    return f["gamma"] / 8 * dephasing, -(np.kron(eye, h) - np.kron(h.T, eye))


def test_liouvillian_stack_is_within_2_ulp_of_the_exact_generator():
    params = list(dict.fromkeys(MIXED_PARAMS + EDGE_PARAMS))
    for p, mat in zip(params, liouvillian_stack(param_rows(params))):
        bound = 2 * np.spacing(np.abs(mat).max())
        for part, exact in zip((mat.real, mat.imag), exact_liouvillian(p)):
            err = max(abs(Fraction(float(x)) - e) for x, e in zip(part.ravel(), exact.ravel()))
            assert err <= bound


def test_liouvillian_stack_slices_are_the_generators_built_alone():
    # the stack is one BLAS product, whose kernels may depend on the stack size
    rng = np.random.default_rng(24)
    for n in [*range(1, 131), 603]:
        rows = rng.uniform(-1.0, 1.0, (n, 8))
        rows[:, PARAM_FIELDS.index("gamma")] **= 2
        stack = liouvillian_stack(rows)
        assert stack.shape == (n, 16, 16)
        for row, mat in zip(rows, stack):
            assert mat.tobytes() == liouvillian_stack(row[np.newaxis])[0].tobytes()
    p = params_of_row(rows[0])
    assert build_liouvillian(p).matrix.tobytes() == stack[0].tobytes()


def test_propagate_rows_builds_each_chunk_from_its_rows_as_given(monkeypatch):
    builds, generators = [], []

    def counting_stack(rows):
        builds.append(rows.copy())
        return real_stack(rows)

    def recording_expm_states(rho0, stack):
        generators.extend(stack)
        return real_expm_states(rho0, stack)

    real_stack, real_expm_states = dynamics.liouvillian_stack, dynamics.expm_states
    monkeypatch.setattr(dynamics, "liouvillian_stack", counting_stack)
    monkeypatch.setattr(dynamics, "expm_states", recording_expm_states)
    # at t = 1 each generator reaches expm unscaled
    propagate_checked(BELL, MIXED_PARAMS, [1.0] * len(MIXED_PARAMS))
    chunks = [MIXED_PARAMS[s:s + EXPM_CHUNK] for s in range(0, len(MIXED_PARAMS), EXPM_CHUNK)]
    # one build per chunk, over its rows in order, duplicates included
    assert [rows.tobytes() for rows in builds] == [param_rows(chunk).tobytes() for chunk in chunks]
    assert [len(rows) for rows in builds] == [EXPM_CHUNK, len(MIXED_PARAMS) - EXPM_CHUNK]
    assert len(generators) == len(MIXED_PARAMS)
    for p, generator in zip(MIXED_PARAMS, generators):
        assert generator.tobytes() == build_liouvillian(p).matrix.tobytes()


def test_signed_zero_twins_give_identical_states_and_sweeps():
    # each row builds its own generator, so a field of -0.0 instead of 0.0,
    # which SystemParams calls equal, must not show in any output byte
    for base in (P_REF, P_OFF):
        for fields in (("e_m",), ("e_j1", "e_j2"), ("gamma",)):
            twins = [dataclasses.replace(base, **dict.fromkeys(fields, zero)) for zero in (0.0, -0.0)]
            assert twins[0] == twins[1]
            for t in (0.0, 1.0, 3.7):
                plus, minus = (propagate_checked(BELL, [p], [t]) for p in twins)
                assert plus.tobytes() == minus.tobytes()
            for eta in EstimandTag:
                plus, minus = (sweep_to_csv(run_sweep(SweepConfig(
                    params=p, estimand=eta, axis="time", axis_start=0.0, axis_end=3.7, points=5)))
                    for p in twins)
                assert plus == minus


def test_rk_route_never_builds_the_generator(monkeypatch):
    def no_generator(*args):
        raise AssertionError("the generator was built")

    oracle = propagate_expm(BELL, P_OFF, 1.0).mat
    for name in ("liouvillian_stack", "expm_states", "expm"):  # the whole exponential route
        monkeypatch.setattr(dynamics, name, no_generator)
    with pytest.raises(AssertionError, match="generator was built"):
        propagate_expm(BELL, P_OFF, 1.0)
    assert lindblad_rhs(BELL, P_OFF).shape == (4, 4)
    assert max_abs_diff(propagate_rk(BELL, P_OFF, 1.0).mat, oracle) < 1e-7


def test_exponential_route_never_builds_the_hamiltonian(monkeypatch):
    def no_hamiltonian(*args):
        raise AssertionError("the Hamiltonian was built")

    cfg = SweepConfig(params=P_OFF, estimand=EstimandTag.EM, axis="time",
                      axis_start=0.5, axis_end=2.0, points=5)
    expected = propagate_expm(BELL, P_OFF, 1.0).mat, sweep_to_csv(run_sweep(cfg))
    for module in (model, dynamics):
        monkeypatch.setattr(module, "build_hamiltonian", no_hamiltonian)
    with pytest.raises(AssertionError, match="Hamiltonian was built"):
        propagate_rk(BELL, P_OFF, 1.0)
    assert propagate_expm(BELL, P_OFF, 1.0).mat.tobytes() == expected[0].tobytes()
    assert sweep_to_csv(run_sweep(cfg)) == expected[1]


def test_exponential_route_never_builds_a_single_generator(monkeypatch):
    def no_single_generator(*args):
        raise AssertionError("build_liouvillian was called")

    cfg = SweepConfig(params=P_OFF, estimand=EstimandTag.EM, axis="time",
                      axis_start=0.5, axis_end=2.0, points=5)
    grid = (0.5, 1.0, 2.0)

    def outputs():
        return (propagate_expm(BELL, P_OFF, 1.0).mat.tobytes(),
                propagate_checked(BELL, [P_OFF] * 3, grid).tobytes(),
                audit_analytic(P_REF, grid).to_json(), sweep_to_csv(run_sweep(cfg)))

    expected = outputs()
    monkeypatch.setattr(dynamics, "build_liouvillian", no_single_generator)
    assert outputs() == expected


def test_each_exponential_propagation_eigen_solves_each_state_once(monkeypatch):
    # the state contract's eigh is the only one, and it runs once over the stack
    shapes = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    propagate_expm(BELL, P_OFF, 1.0)
    assert shapes == [(1, 4, 4)]
    for n in (1, 7, EXPM_CHUNK + 5):
        shapes.clear()
        propagate_checked(BELL, [P_OFF] * n, [0.1 * k for k in range(n)])
        assert shapes == [(n, 4, 4)]
        shapes.clear()
        audit_analytic(P_REF, [0.1 * k for k in range(n)])
        assert shapes == [(n, 4, 4)]


def test_rhs_dephasing_is_the_operator_form():
    # the dissipator written out with the Zj as operators, as in the module docstring
    h = build_hamiltonian(P_OFF)
    rng = np.random.default_rng(18)
    for _ in range(5):
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        operator_form = sum((P_OFF.gamma / 8.0) * (2.0 * sz @ rho @ sz - sz @ sz @ rho - rho @ sz @ sz)
                            for sz in (model.Z1, model.Z2))
        dephasing = lindblad_rhs(rho, P_OFF) - (-1j * (h @ rho - rho @ h))
        assert max_abs_diff(dephasing, operator_form) < 1e-14


def test_rk_builds_the_hamiltonian_once_per_integration(monkeypatch):
    builds = []

    def counting(p):
        builds.append(p)
        return build_hamiltonian(p)

    monkeypatch.setattr(dynamics, "build_hamiltonian", counting)
    for t in (0.5, 2.0):
        builds.clear()
        propagate_rk(BELL, P_OFF, t)
        assert builds == [P_OFF]


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
    # the t=0 offset makes one eigenvalue clearly negative, so the state
    # contract must refuse it
    with pytest.raises(ContractViolationError):
        DensityMatrix(analytic_state_matrix(P_REF, 0.0))


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


def test_audit_tolerance_validation():
    for tol in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^tol must be finite and > 0"):
            audit_analytic(P_REF, (1.0,), tol=tol)


def test_audit_collects_domain_failures():
    rep = audit_analytic(SystemParams.degenerate(e_j=1.0, e_m=5.0, gamma=0.0), (1.0,))
    assert rep.verdict == "inconsistent"
    assert len(rep.failures) == 1


def test_audit_collects_closed_form_overflow():
    # exp(2 gamma t) in the closed form overflows a float from t ~ 887.2 at P_REF
    rep = audit_analytic(P_REF, [1.0, 900.0])
    assert rep.verdict == "inconsistent"
    assert rep.failures == ((900.0, "math range error"),)
    assert {entry[0] for entry in rep.deviating_entries} == {1.0}


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


def scipy_import_paths(tree):
    """The dotted scipy names each import of a module's syntax tree binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "scipy":
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_package_imports_no_private_scipy_module():
    # private scipy modules change their signatures between releases without notice
    package = Path(chargeqfi.__file__).resolve().parent
    private = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = [name for name in scipy_import_paths(tree)
                 if any(part.startswith("_") for part in name.split("."))]
        if names:
            private[path.name] = names
    assert private == {}
