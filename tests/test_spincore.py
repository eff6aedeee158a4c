"""Level structure, matrix elements, and field sensitivity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donorsim import spincore
from donorsim.spincore import (
    GAMMA_I_MHZ_PER_MT,
    GAMMA_S_MHZ_PER_MT,
    HYPERFINE_A_MHZ,
    PHOSPHORUS,
    FieldVector,
    SpinSystem,
    breit_rabi_levels,
    build_hamiltonian,
    clock_sensitivity,
    eigensystem,
    estimate_field_from_splitting,
    rf_matrix_element,
    transition_frequency,
    transition_table,
)

A = HYPERFINE_A_MHZ
GS = GAMMA_S_MHZ_PER_MT
GI = GAMMA_I_MHZ_PER_MT


def eig_for(field_ut: FieldVector, system: SpinSystem = PHOSPHORUS):
    return eigensystem(system, field_ut)


# --- Hamiltonian basics ------------------------------------------------------

def test_hamiltonian_is_hermitian_and_traceless_at_zero_field():
    h = build_hamiltonian(PHOSPHORUS, FieldVector(0.0, 0.0, 0.0))
    assert np.allclose(h, h.conj().T)
    assert abs(np.trace(h)) < 1e-12


def test_spin_operator_algebra():
    # commutation [Sx, Sy] = i Sz on the electron factor, and S.I is scalar
    comm = spincore.SX @ spincore.SY - spincore.SY @ spincore.SX
    assert np.allclose(comm, 1j * spincore.SZ, atol=1e-15)
    s_dot_i = spincore.SX @ spincore.IX + spincore.SY @ spincore.IY + spincore.SZ @ spincore.IZ
    # eigenvalues of S.I for two spin-1/2: 1/4 (triplet, x3) and -3/4 (singlet)
    vals = np.sort(np.linalg.eigvalsh(s_dot_i))
    assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)


def test_zero_field_structure():
    levels = eig_for(FieldVector(0.0, 0.0, 0.0))
    energies = np.array([levels.energy(lbl) for lbl in spincore.LABELS])
    assert abs(energies[0] - (-0.75 * A)) / A < 1e-12
    assert np.allclose(energies[1:], 0.25 * A, rtol=1e-12)
    # splitting equals the hyperfine constant exactly
    split = energies[1] - energies[0]
    assert abs(split - A) / A < 1e-12


# --- closed form vs diagonalization (dual route) -----------------------------

def test_closed_form_matches_diagonalization_across_operating_range():
    b_ut = np.linspace(0.0, 5000.0, 301)
    closed = breit_rabi_levels(PHOSPHORUS, b_ut)
    for b, i in zip(b_ut, range(b_ut.size)):
        eig = eig_for(FieldVector(0.0, 0.0, b))
        for label in spincore.LABELS:
            reference = closed[label][i]
            scale = max(abs(reference), 1.0)
            assert abs(eig.energy(label) - reference) / scale < 1e-9


def test_closed_form_explicit_values_at_5mt():
    levels = breit_rabi_levels(PHOSPHORUS, 5000.0)
    x = (GS + GI) * 5.0 / A
    assert math.isclose(levels["T+"], A / 4 + (GS - GI) * 5.0 / 2, rel_tol=1e-14)
    assert math.isclose(levels["T-"], A / 4 - (GS - GI) * 5.0 / 2, rel_tol=1e-14)
    assert math.isclose(levels["T0"], -A / 4 + (A / 2) * math.sqrt(1 + x * x), rel_tol=1e-14)
    assert math.isclose(levels["S"], -A / 4 - (A / 2) * math.sqrt(1 + x * x), rel_tol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    b=st.floats(0.01, 5000.0),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2.0 * math.pi),
)
def test_spectrum_depends_only_on_field_magnitude(b, theta, phi):
    tilted = FieldVector(
        b * math.sin(theta) * math.cos(phi),
        b * math.sin(theta) * math.sin(phi),
        b * math.cos(theta),
    )
    h = build_hamiltonian(PHOSPHORUS, tilted)
    assert np.array_equal(h, h.conj().T)
    eig = eig_for(tilted)
    closed = breit_rabi_levels(PHOSPHORUS, b)
    for label in spincore.LABELS:
        scale = max(abs(closed[label]), 1.0)
        assert abs(eig.energy(label) - closed[label]) / scale < 1e-9


def test_level_ordering_is_s_tminus_t0_tplus():
    for b in (0.5, 4.0, 100.0, 5000.0):
        eig = eig_for(FieldVector(0.0, 0.0, b))
        e = [eig.energy(lbl) for lbl in ("S", "T-", "T0", "T+")]
        assert e[0] < e[1] < e[2] < e[3]


def test_eigensystem_arrays_are_in_label_order():
    eig = eig_for(FieldVector(1.0, -2.0, 23.0))
    assert eig.energies.shape == (4,) and eig.vectors.shape == (4, 4)
    assert np.all(np.diff(eig.energies) > 0)
    for k, label in enumerate(spincore.LABELS):
        assert np.array_equal(eig.vector(label), eig.vectors[:, k])
        assert eig.energy(label) == eig.energies[k]
    with pytest.raises(KeyError, match="unknown level label"):
        eig.vector("T1")
    with pytest.raises(KeyError):
        eig.energy("s")


def test_breit_rabi_rejects_bad_input():
    with pytest.raises(ValueError):
        breit_rabi_levels(PHOSPHORUS, -1.0)
    with pytest.raises(ValueError):
        breit_rabi_levels(PHOSPHORUS, float("nan"))


def test_spin_system_validation():
    with pytest.raises(ValueError):
        SpinSystem(hyperfine_a=-1.0)
    with pytest.raises(ValueError):
        SpinSystem(gamma_s=0.0)
    with pytest.raises(ValueError):
        SpinSystem(gamma_i=50.0)  # would exceed gamma_s


# --- transitions and selection rules -----------------------------------------

def test_transition_frequencies_at_4ut():
    b = 4.0
    nu_plus = transition_frequency(PHOSPHORUS, "T+", b)
    nu_minus = transition_frequency(PHOSPHORUS, "T-", b)
    # the outer-line splitting is (gamma_s - gamma_i) * B exactly
    split_khz = (nu_plus - nu_minus) * 1e3
    assert math.isclose(split_khz, (GS - GI) * (b / 1000.0) * 1e6 * 1e-3, rel_tol=1e-12)


def test_selection_rules_parallel_vs_perpendicular():
    field = FieldVector(0.0, 0.0, 23.0)
    eig = eig_for(field)
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    par_t0 = rf_matrix_element(eig, PHOSPHORUS, z, "T0")
    par_tp = rf_matrix_element(eig, PHOSPHORUS, z, "T+")
    par_tm = rf_matrix_element(eig, PHOSPHORUS, z, "T-")
    perp_t0 = rf_matrix_element(eig, PHOSPHORUS, x, "T0")
    perp_tp = rf_matrix_element(eig, PHOSPHORUS, x, "T+")
    # allowed elements sit near their B->0 limits; at 23 µT the Zeeman
    # admixture x = (gs+gi)B/A ~ 5.5e-3 shifts them at the per-mille level
    assert math.isclose(par_t0, (GS + GI) / 2.0, rel_tol=5e-3)
    assert math.isclose(perp_tp, (GS + GI) / (2.0 * math.sqrt(2.0)), rel_tol=5e-3)
    # forbidden combinations are numerically null
    assert par_tp < 1e-12 * par_t0
    assert par_tm < 1e-12 * par_t0
    assert perp_t0 < 1e-12 * perp_tp


def test_matrix_elements_reach_closed_form_limits_at_vanishing_field():
    field = FieldVector(0.0, 0.0, 0.001)  # 1 nT: essentially zero-field mixing
    eig = eig_for(field)
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    assert math.isclose(rf_matrix_element(eig, PHOSPHORUS, z, "T0"),
                        (GS + GI) / 2.0, rel_tol=1e-6)
    assert math.isclose(rf_matrix_element(eig, PHOSPHORUS, x, "T+"),
                        (GS + GI) / (2.0 * math.sqrt(2.0)), rel_tol=1e-6)
    assert math.isclose(rf_matrix_element(eig, PHOSPHORUS, x, "T-"),
                        (GS + GI) / (2.0 * math.sqrt(2.0)), rel_tol=1e-6)


def test_transition_table_lists_all_three_lines():
    table = transition_table(PHOSPHORUS, FieldVector(0.0, 0.0, 4.0))
    labels = [line.to_label for line in table]
    assert labels == ["T-", "T0", "T+"]
    for line in table:
        assert line.frequency_mhz > 0
        assert line.element_parallel_mhz_per_mt >= 0
        assert line.element_perpendicular_mhz_per_mt >= 0


_COMPONENT_UT = st.sampled_from([0.0, 5e-7, -3.0]) | st.floats(-50.0, 50.0)


@settings(max_examples=80, deadline=None)
@given(
    fields=st.lists(st.builds(FieldVector, _COMPONENT_UT, _COMPONENT_UT, _COMPONENT_UT),
                    min_size=1, max_size=8),
    drive=st.tuples(_COMPONENT_UT, _COMPONENT_UT, _COMPONENT_UT).filter(
        lambda d: max(map(abs, d)) > 1e-6),
)
def test_singlet_triplet_lines_equal_the_per_label_elements(fields, drive):
    # the stacked line pass equals the per-field elements and energy
    # differences bit for bit; np.abs in place of np.hypot fails here
    direction = np.array(drive)
    energies, vectors = spincore.eigensystems(PHOSPHORUS, np.array([f.as_array() for f in fields]))
    frequencies, elements = spincore.singlet_triplet_lines(
        energies, vectors, spincore.drive_operator(PHOSPHORUS, direction))
    assert frequencies.shape == elements.shape == (len(fields), 3)
    for k, field in enumerate(fields):
        eig = eig_for(field)
        assert frequencies[k].tolist() == [
            eig.energy(label) - eig.energy("S") for label in spincore.TRIPLET_LABELS]
        assert elements[k].tolist() == [
            rf_matrix_element(eig, PHOSPHORUS, direction, label)
            for label in spincore.TRIPLET_LABELS]
    eig = eig_for(fields[0])
    par, perp = spincore._drive_directions(fields[0])
    assert [(line.frequency_mhz, line.element_parallel_mhz_per_mt,
             line.element_perpendicular_mhz_per_mt)
            for line in transition_table(PHOSPHORUS, fields[0])] == [
        (eig.energy(label) - eig.energy("S"), rf_matrix_element(eig, PHOSPHORUS, par, label),
         rf_matrix_element(eig, PHOSPHORUS, perp, label))
        for label in spincore.TRIPLET_LABELS
    ]


@pytest.mark.parametrize("direction", [(0.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (math.inf, 0, 0)])
def test_drive_operator_rejects_a_bad_direction(direction):
    with pytest.raises(ValueError, match="finite nonzero"):
        spincore.drive_operator(PHOSPHORUS, direction)
    with pytest.raises(ValueError, match="finite nonzero"):
        rf_matrix_element(eig_for(FieldVector(0.0, 0.0, 4.0)), PHOSPHORUS, direction, "T0")


def test_degenerate_field_uses_reference_quantization_axis():
    # vectors at B=0 come from an infinitesimal z field, so the selection
    # rules stay sharp instead of arbitrary
    eig = eig_for(FieldVector(0.0, 0.0, 0.0))
    z = np.array([0.0, 0.0, 1.0])
    val = rf_matrix_element(eig, PHOSPHORUS, z, "T0")
    assert math.isclose(val, (GS + GI) / 2.0, rel_tol=1e-6)


# --- clock behaviour ----------------------------------------------------------

def test_clock_point_first_derivative_vanishes():
    slope, curvature = clock_sensitivity(PHOSPHORUS, "T0", 0.0)
    assert abs(slope) < 1e-6  # kHz/µT
    analytic = (GS + GI) ** 2 / A * 1e-3  # kHz/µT²
    assert abs(curvature - analytic) / analytic < 0.01


def test_field_sensitive_lines_have_linear_slope():
    for label, sign in (("T+", 1.0), ("T-", -1.0)):
        slope, _ = clock_sensitivity(PHOSPHORUS, label, 0.0)
        expected = sign * (GS - GI) / 2.0  # MHz/mT == kHz/µT
        assert abs(slope - expected) / abs(expected) < 1e-4


def test_clock_sensitivity_away_from_zero_field():
    # at finite field the T0 line picks up linear sensitivity ~ curvature * B
    slope4, _ = clock_sensitivity(PHOSPHORUS, "T0", 4.0)
    analytic = (GS + GI) ** 2 / A * 1e-3 * 4.0
    assert abs(slope4 - analytic) / analytic < 0.01


# --- field estimation ---------------------------------------------------------

def test_estimate_field_from_splitting_is_exact_inverse():
    for b in (0.5, 4.0, 23.0):
        split_khz = (transition_frequency(PHOSPHORUS, "T+", b)
                     - transition_frequency(PHOSPHORUS, "T-", b)) * 1e3
        assert math.isclose(estimate_field_from_splitting(split_khz, PHOSPHORUS), b,
                            rel_tol=1e-12)


def test_estimate_field_documented_value():
    assert math.isclose(estimate_field_from_splitting(111.819, PHOSPHORUS), 4.0,
                        rel_tol=1e-4)


def test_estimate_field_rejects_negative():
    with pytest.raises(ValueError):
        estimate_field_from_splitting(-1.0, PHOSPHORUS)


# --- eigenvector continuity ----------------------------------------------------

def test_labels_connect_adiabatically_through_small_fields():
    # walking the field down from 23 µT to 0, each labelled vector changes
    # slowly (no sudden swaps), confirming labels track adiabatic branches
    previous = None
    for b in np.linspace(23.0, 0.001, 47):
        eig = eig_for(FieldVector(0.0, 0.0, b))
        vectors = np.column_stack([eig.vector(lbl) for lbl in spincore.LABELS])
        if previous is not None:
            overlaps = np.abs(np.sum(previous.conj() * vectors, axis=0))
            assert np.all(overlaps > 0.999)
        previous = vectors
