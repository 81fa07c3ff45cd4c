"""Lindblad generator, propagators, and the closed-form audit."""

import ast
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg._matfuncs_expm import pick_pade_structure

import chargeqfi
from chargeqfi.dynamics import (
    AnalyticCoefficients,
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
from chargeqfi.errors import ContractViolationError, IntegrationError
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


def test_propagate_rk_reports_a_failed_integration():
    # the overflow, in the steps or already in H, is the error and nothing else
    for params in (SystemParams.degenerate(e_j=1e300, e_m=0.1, gamma=0.4),
                   SystemParams(e_m=1e308, gamma=1e308)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError,
                               match="^adaptive integration failed: error estimate nan at t = 0.0$"):
                propagate_rk(BELL, params, 1.0)


def test_propagate_rk_stops_below_ten_ulp_of_the_time(monkeypatch):
    # the true right-hand side for 200 calls, then one whose error estimate stays
    # above 1 at every step size, so the step shrinks until it is lost in the time
    real, calls = dynamics._rhs, []

    def erratic(r, h, damping):
        calls.append(None)
        if len(calls) <= 200:
            return real(r, h, damping)
        return (-1) ** len(calls) * 1e100 * np.ones((4, 4))

    monkeypatch.setattr(dynamics, "_rhs", erratic)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError,
                           match=r"^adaptive integration failed: step \S+ below 10 ulp of t = "):
            propagate_rk(BELL, P_REF, 100.0)


def test_propagate_rk_has_a_step_budget(monkeypatch):
    # t = 1e300 would otherwise step for ever; the budget's 1e5 steps take some
    # seconds, so the test lowers it
    monkeypatch.setattr(dynamics, "RK_MAX_STEPS", 50)
    with pytest.raises(IntegrationError, match=re.escape(
            "adaptive integration failed: more than 50 steps to reach t = 1e+300; "
            "propagate_expm answers any finite t")):
        propagate_rk(BELL, P_REF, 1e300)
    # 50 steps still reach t = 200 at P_REF
    propagate_rk(BELL, P_REF, 200.0)


# the nodes c_i of Hairer's dop853.f, in order
DOP853_NODES = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
                0.118350341907227396726757197510, 0.281649658092772603273242802490, 1.0 / 3.0,
                0.25, 4.0 / 13.0, 127.0 / 195.0, 0.6, 6.0 / 7.0, 1.0)


def test_dop853_tableau_is_consistent():
    a, b = dynamics._DOP853_A, dynamics._DOP853_B
    c = np.array(DOP853_NODES)
    assert np.all(np.triu(a) == 0.0)
    assert np.abs(a.sum(axis=1) - c).max() < 2e-15
    # the quadrature conditions of order 8
    for k in range(8):
        assert abs(b @ c ** k - 1.0 / (k + 1)) < 1e-15
    assert abs(b @ c ** 8 - 1.0 / 9) > 1e-6
    for weights in (dynamics._DOP853_E3, dynamics._DOP853_E5):
        assert abs(weights.sum()) < 1e-15


def test_dop853_loop_matches_solve_ivp_on_the_acceptance_grid(monkeypatch):
    # scipy's DOP853 at the same tolerances is the reference; the package never imports it
    from scipy.integrate import solve_ivp

    real, calls = dynamics._rhs, []

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(dynamics, "_rhs", counting)
    nfev = 0
    for gamma in (0.3, 0.4, 0.5):
        for e in (0.05, 0.1, 0.2):
            p = SystemParams.degenerate(e_j=e, e_m=e, gamma=gamma)
            h, damping = dynamics._rhs_constants(p)
            for t in (0.5, 1.0, 2.0, 5.0, 10.0):
                sol = solve_ivp(lambda _t, y: real(y.reshape(4, 4), h, damping).reshape(16),
                                (0.0, t), as_matrix(BELL).reshape(16), method="DOP853",
                                rtol=dynamics.RK_RTOL, atol=dynamics.RK_ATOL)
                assert sol.success
                nfev += sol.nfev
                got = propagate_rk(BELL, p, t).mat
                assert max_abs_diff(got, sol.y[:, -1].reshape(4, 4)) < 1e-12
    assert abs(len(calls) - nfev) <= 0.05 * nfev


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


# columns v1 = (-|00> + |11>)/sqrt2, v2 = (-|01> + |10>)/sqrt2, w1 = (|00> + |11>)/sqrt2 and
# w2 = (|01> + |10>)/sqrt2; at degeneracy a state is diag(eps1, eps2) on v1, v2 plus a 2x2
# block on w1, w2
BLOCK_BASIS = np.array([[-1, 0, 1, 0], [0, -1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0]]) / np.sqrt(2.0)
OUTSIDE_BLOCKS = ~np.eye(4, dtype=bool)
OUTSIDE_BLOCKS[2:, 2:] = False


def outside_blocks(params, times) -> float:
    """Largest |entry| outside the 2+2 structure over the propagate_checked states of
    every set in params at every time."""
    mats = propagate_checked(BELL, [p for p in params for _ in times], list(times) * len(params))
    return float(np.abs((BLOCK_BASIS.T @ mats @ BLOCK_BASIS)[:, OUTSIDE_BLOCKS]).max())


def test_degenerate_states_hold_the_two_plus_two_block():
    times = np.linspace(0.0, 10.0, 101).tolist()
    curves = [p for spec in FIGURES.values() for _, p in spec.curves]
    presets = list(dict.fromkeys(curves))
    assert (len(curves), len(presets)) == (24, 5)
    rng = np.random.default_rng(12)
    seeded = [SystemParams.degenerate(e_j=e_j, e_m=e_m, gamma=gamma)
              for e_j, e_m, gamma in rng.uniform(0.0, 1.0, (20, 3)).tolist()]
    # measured: 1.7e-16 at the presets and 4.1e-16 at the seeded sets
    assert outside_blocks(presets, times) <= 1e-14
    assert outside_blocks(seeded, times) <= 1e-14
    # the structure is a property of the degeneracy point: off it, it breaks (0.19)
    off = SystemParams(e_j1=0.2, e_j2=0.25, e_m=0.15, n_g1=0.45, n_g2=0.55, gamma=0.3)
    assert outside_blocks([off], times) > 0.1


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


P_NEGATIVE_RADICAND = SystemParams.degenerate(e_j=1.0, e_m=5.0, gamma=0.0)
# e_j = gamma and e_m = 0 zero all three radicands, so lambda1 = lambda2 = lambda3 = 0
P_VANISHING = SystemParams.degenerate(e_j=0.3, e_m=0.0, gamma=0.3)


def closed_form_outcome(entry, p, t) -> str:
    """The SHA-256 of a closed-form entry's result bytes, or its exception's class and text."""
    try:
        value = entry(p, t)
    except Exception as exc:  # the class and text are the outcome
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, np.ndarray):
        arrays = [value]
    elif isinstance(value, AnalyticCoefficients):
        arrays = [np.array(dataclasses.astuple(value))]
    else:
        arrays = [value.eigenvalues, value.eigenvectors,
                  np.array(dataclasses.astuple(value.structure))]
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


CLOSED_FORM_ENTRIES = (analytic_coefficients, analytic_state_matrix, chargeqfi.analytic_eigensystem)
NOT_DEGENERATE = "ValueError: closed form requires identical qubits at the degeneracy point"
NEGATIVE_RADICAND = "ValueError: lambda1/lambda2 radicand is negative (5.121904e+01, -7.809596e-01)"
VANISHING = "degenerate closed-form coefficients: lambda1*lambda2*lambda3 = 0"
RANGE_ERROR = "OverflowError: math range error"
BAD_TIMES = [(-1.0, "ValueError: t must be >= 0, got -1.0"),
             (-1e300, "ValueError: t must be >= 0, got -1e+300"),
             (float("nan"), "ValueError: t must be finite, got nan"),
             (float("inf"), "ValueError: t must be finite, got inf")]


# (set name, p, t, error): every closed-form entry fails with one error, in one order: the
# time, then the degeneracy point, then the radicands, then vanishing coefficients, then
# overflow at large t
ONE_ORDER = [
    *((name, p, t, error) for name, p in (("reference", P_REF), ("off-degenerate", P_OFF),
                                          ("negative-radicand", P_NEGATIVE_RADICAND),
                                          ("vanishing", P_VANISHING))
      for t, error in BAD_TIMES),
    ("off-degenerate", P_OFF, 2.0, NOT_DEGENERATE),
    ("negative-radicand", P_NEGATIVE_RADICAND, 2.0, NEGATIVE_RADICAND),
    ("vanishing", P_VANISHING, 1.0, f"ValueError: {VANISHING}"),
    ("reference", P_REF, 1e3, RANGE_ERROR),
]


@pytest.mark.parametrize("p,t,error", [pytest.param(p, t, error, id=f"{name}-{t!r}")
                                       for name, p, t, error in ONE_ORDER])
def test_closed_form_entries_fail_in_one_order(p, t, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in CLOSED_FORM_ENTRIES:
            assert closed_form_outcome(entry, p, t) == error


# (entry, t, outcome) at P_REF: result bytes (x86-64, glibc), or the eigensystem's own later
# failure at t = 0. The eigensystem at t = 1e-300 is
# test_analytic_eigensystem_overflows_typed_as_t_vanishes.
PINNED_RESULTS = [
    (analytic_coefficients, 0.0,
     "665efad48f137f814e79c93ffee8340cac42524d383f5de20a45a3c2ac9e2b82"),
    (analytic_state_matrix, 0.0,
     "413ffdcff5b663043c0a2c592912a88c5f4c320b726aaf54e9fc4c3f00839d1c"),
    (chargeqfi.analytic_eigensystem, 0.0,
     "ValueError: theta undefined at alpha = beta = 0 (t = 0 included)"),
    (analytic_coefficients, 2.0,
     "b5ca90207c105bf5699b226230c2621c348963e96d788861d2d0407e3a8283de"),
    (analytic_state_matrix, 2.0,
     "fc77b45e74b604b7f07ad8aa9d85a83aef978ef0402e0ba2c387b9a35da5f17e"),
    (chargeqfi.analytic_eigensystem, 2.0,
     "02a10314cf45689b4fdfad6353fc59eafa7389b41f5e6cf616a616b8d64a8ee9"),
    (analytic_coefficients, 1e-300,
     "441d267b0063e16123c1489f1060fbb28f716dac10b1e59f9bb6ba12b7926c26"),
    (analytic_state_matrix, 1e-300,
     "9fdd394800adef0fc6f71a020bac92ca31548c6d4072ec8250f0edede08ff6f9"),
]


@pytest.mark.parametrize("entry,t,outcome", [
    pytest.param(entry, t, outcome, id=f"{entry.__name__}-{t!r}")
    for entry, t, outcome in PINNED_RESULTS])
def test_closed_form_results_are_pinned(entry, t, outcome):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert closed_form_outcome(entry, P_REF, t) == outcome


def test_each_closed_form_entry_checks_the_time_once_and_first(monkeypatch):
    # check_time and every math-module call of the dynamics module, in call order
    calls = []

    def logged(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(dynamics, "check_time", logged("check_time", check_time))
    monkeypatch.setattr(dynamics, "math", SimpleNamespace(**{
        name: logged("math", value) if callable(value) else value
        for name, value in vars(math).items() if not name.startswith("_")}))
    for entry in CLOSED_FORM_ENTRIES:
        calls.clear()
        entry(P_REF, 2.0)
        assert calls[0] == "check_time" and calls.count("check_time") == 1
        assert "math" in calls


def test_each_closed_form_entry_evaluates_the_coefficients_once(monkeypatch):
    # each analytic_coefficients evaluation, under whichever module's name it is
    # called, builds one AnalyticCoefficients
    built = []

    def counting(**fields):
        built.append(fields)
        return AnalyticCoefficients(**fields)

    monkeypatch.setattr(dynamics, "AnalyticCoefficients", counting)
    for entry in (chargeqfi.analytic_state_matrix, chargeqfi.analytic_eigensystem):
        built.clear()
        entry(P_REF, 2.0)
        assert len(built) == 1


@pytest.mark.parametrize("t", [1e-154, 1e-300, 1e-310])
def test_analytic_eigensystem_overflows_typed_as_t_vanishes(t):
    # alpha and beta vanish with t, so the printed weights mu grow like 1/t; their
    # norms sqrt(2 (1 + mu^2)) overflow from t ~ 1e-154 and the weights from t ~ 1e-309,
    # which once returned zero columns 3 and 4 with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vecs = chargeqfi.analytic_eigensystem(P_REF, 1e-150).eigenvectors
        assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0.0, atol=1e-12)
        with pytest.raises(OverflowError, match=r"overflow sqrt\(2 \(1 \+ mu\^2\)\)$"):
            chargeqfi.analytic_eigensystem(P_REF, t)


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


def test_audit_deviation_table_is_the_entrywise_comparison():
    # every entry over the tolerance (all 80), row-major per time, with plain int indices
    grid = (0.5, 1.0, 2.0, 5.0, 10.0)
    rep = audit_analytic(P_REF, grid)
    assert rep.tolerance == dynamics.AUDIT_TOL
    expected = []
    for t, oracle in zip(grid, propagate_checked(BELL, [P_REF] * len(grid), grid)):
        candidate = analytic_state_matrix(P_REF, t)
        dev = np.abs(candidate - oracle)
        for i in range(4):
            for j in range(4):
                if dev[i, j] > rep.tolerance:
                    expected.append((t, i + 1, j + 1, complex(candidate[i, j]),
                                     complex(oracle[i, j]), float(dev[i, j])))
    assert len(expected) == 80
    assert rep.deviating_entries == tuple(expected)
    for entry in rep.deviating_entries:
        assert [type(value) for value in entry] == [float, int, int, complex, complex, float]
    parsed = json.loads(rep.to_json())["deviating_entries"]
    assert [(e["t"], e["row"], e["col"], complex(*e["analytic"]), complex(*e["oracle"]),
             e["abs_dev"]) for e in parsed] == expected


@pytest.mark.parametrize("offset,verdict,n_entries", [(0.5, "consistent", 0),
                                                       (2.0, "inconsistent", 32)])
def test_audit_judges_at_the_audit_tolerance(monkeypatch, offset, verdict, n_entries):
    # a closed form that is the propagated state, every entry moved by offset * AUDIT_TOL
    def shifted(p, t):
        return propagate_checked(BELL, [p], [t])[0] + offset * dynamics.AUDIT_TOL

    monkeypatch.setattr(dynamics, "analytic_state_matrix", shifted)
    rep = audit_analytic(P_REF, (0.5, 1.0))
    assert rep.tolerance == dynamics.AUDIT_TOL
    assert rep.verdict == verdict
    assert len(rep.deviating_entries) == n_entries and rep.failures == ()


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
    grid = (0.0, 0.5, 1.0, 2.0)
    rep = audit_analytic(P_VANISHING, grid)
    assert rep.failures == tuple((t, VANISHING) for t in grid)
    assert rep.verdict == "inconsistent"


def test_audit_collects_closed_form_overflow():
    # exp(2 gamma t) in the closed form overflows a float from t ~ 887.2 at P_REF
    rep = audit_analytic(P_REF, [1.0, 900.0])
    assert rep.verdict == "inconsistent"
    assert rep.failures == ((900.0, "math range error"),)
    assert {entry[0] for entry in rep.deviating_entries} == {1.0}


def test_import_leaves_the_integrator_unloaded():
    # propagate_rk runs its own DOP853 loop, so neither importing the package
    # nor integrating loads scipy.integrate
    src = str(Path(chargeqfi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import sys, chargeqfi as c; "
             "c.propagate_rk(c.bell_state_psi_plus(), c.SystemParams(gamma=0.3), 2.0); "
             "print('scipy.integrate' in sys.modules)")
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
    # private scipy modules change their signatures between releases without notice,
    # and scipy.integrate is the import time that propagate_rk's own loop saves
    package = Path(chargeqfi.__file__).resolve().parent
    private = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = [name for name in scipy_import_paths(tree)
                 if any(part.startswith("_") for part in name.split("."))
                 or name.split(".")[:2] == ["scipy", "integrate"]]
        if names:
            private[path.name] = names
    assert private == {}
