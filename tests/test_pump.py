"""Optical pumping rate model: steady states, the re-pump transient, spectra."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
import scalar_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from donorsim import pump
from donorsim.pump import (
    DegenerateLinesWarning,
    NoUniqueSteadyStateError,
    PopulationState,
    PumpConfig,
    lorentzian_response,
    optical_spectrum,
    rate_matrix,
    steady_state,
    transient_area,
)

EQUILIBRIUM = PopulationState(n_s=0.25, n_t=0.75, n_x=0.0)


def test_rate_matrix_columns_sum_to_zero():
    cfg = PumpConfig(pump_rate_s=2e3, pump_rate_t=1e3, auger_rate=1e6,
                     branch_to_s=0.25, randomization_rate=50.0)
    m = rate_matrix(cfg)
    assert m.shape == (3, 3)
    assert np.allclose(m.sum(axis=0), 0.0, atol=1e-9)
    # off-diagonal rates are non-negative
    off = m - np.diag(np.diag(m))
    assert np.all(off >= 0)


def test_population_state_validation():
    with pytest.raises(ValueError):
        PopulationState(n_s=0.5, n_t=0.6, n_x=0.0)  # sums to 1.1
    with pytest.raises(ValueError):
        PopulationState(n_s=-0.2, n_t=1.2, n_x=0.0)


def test_randomization_fixed_point_is_statistical_weights():
    # randomization alone drives populations to 1/4 singlet, 3/4 triplet
    cfg = PumpConfig(randomization_rate=100.0, auger_rate=1e3)
    fixed = steady_state(cfg)
    assert math.isclose(fixed.n_s, 0.25, abs_tol=1e-10)
    assert math.isclose(fixed.n_t, 0.75, abs_tol=1e-10)


def test_steady_state_agrees_with_matrix_exponential_limit():
    cfg = PumpConfig(pump_rate_s=2e4, pump_rate_t=3e3, branch_to_s=0.25,
                     randomization_rate=20.0)
    fixed = steady_state(cfg)
    m = rate_matrix(cfg)
    limit = expm(m * 2.0) @ np.array([0.25, 0.75, 0.0])
    assert math.isclose(fixed.n_s, limit[0], abs_tol=1e-9)
    assert math.isclose(fixed.n_t, limit[1], abs_tol=1e-9)
    assert math.isclose(fixed.n_x, limit[2], abs_tol=1e-9)
    # the steady state is genuinely stationary under the generator
    residual = m @ np.array([fixed.n_s, fixed.n_t, fixed.n_x])
    assert np.max(np.abs(residual)) / np.max(np.abs(m)) < 1e-10


def test_pumping_the_singlet_empties_it():
    # pumping S funnels population into T through the Auger branch ratio
    cfg = PumpConfig(pump_rate_s=2e4, branch_to_s=0.25)
    fixed = steady_state(cfg)
    assert fixed.n_s < 0.01
    assert fixed.n_t > 0.95


# --- the re-pump transient in closed form -------------------------------------------

def van_loan_area(initial, cfg):
    """gain * r . integral of exp(M t) d over [0, T], T = 60 slowest decay times.

    The top-right block of expm([[M, d], [0, 0]] T) is that integral (Van Loan,
    IEEE Trans. Autom. Control 23, 395 (1978)); by T every mode but the steady
    state has decayed by e^-60.
    """
    m = rate_matrix(cfg)
    d = initial.as_array() - steady_state(cfg).as_array()
    rates = -np.linalg.eigvals(m).real
    slowest = rates[rates > 1e-9 * np.abs(m).max()].min()
    block = np.zeros((4, 4))
    block[:3, :3], block[:3, 3] = m, d
    y = expm(block * (60.0 / slowest))[:3, 3]
    return cfg.gain * (cfg.pump_rate_s * y[0] + cfg.pump_rate_t * y[1])


@pytest.mark.parametrize("initial, cfg", [
    (EQUILIBRIUM, PumpConfig(pump_rate_s=2e4)),
    (EQUILIBRIUM, PumpConfig(pump_rate_s=2e4, pump_rate_t=3e3, randomization_rate=30.0)),
    (PopulationState(0.1, 0.5, 0.4),
     PumpConfig(pump_rate_s=5e3, pump_rate_t=1e4, branch_to_s=0.7, randomization_rate=10.0,
                gain=2.0)),
    (PopulationState(0.9, 0.1, 0.0), PumpConfig(pump_rate_t=1e4, randomization_rate=100.0)),
    (PopulationState(1.0, 0.0, 0.0), PumpConfig(pump_rate_t=1e4, randomization_rate=10.0)),
    (PopulationState(0.0, 0.2, 0.8),
     PumpConfig(pump_rate_s=1e4, pump_rate_t=1e4, branch_to_s=0.7, gain=-0.5)),
])
def test_transient_area_matches_the_van_loan_oracle(initial, cfg):
    assert transient_area(initial, cfg) == pytest.approx(van_loan_area(initial, cfg), rel=1e-9)


def test_transient_area_counts_the_extra_singlet_excitations():
    # pumping S only: each singlet donor is excited 4/3 times on average (it
    # returns to S with probability 1/4) before it lands in T, where it stays
    area = transient_area(EQUILIBRIUM, PumpConfig(pump_rate_s=2e4))
    assert area == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)


def test_transient_area_is_linear_in_the_start_and_zero_at_the_steady_state():
    cfg = PumpConfig(pump_rate_t=1e4, branch_to_s=0.7, randomization_rate=10.0, gain=2.0)
    a, b = PopulationState(1.0, 0.0, 0.0), PopulationState(0.0, 0.6, 0.4)
    mixed = PopulationState(*(0.3 * a.as_array() + 0.7 * b.as_array()))
    assert transient_area(mixed, cfg) == pytest.approx(
        0.3 * transient_area(a, cfg) + 0.7 * transient_area(b, cfg), rel=1e-12)
    # signed: the all-S start signals less than the steady state all the way
    assert transient_area(a, cfg) < 0 < transient_area(b, cfg)
    assert transient_area(steady_state(cfg), cfg) == 0.0


def test_transient_area_raises_what_steady_state_raises():
    with pytest.raises(NoUniqueSteadyStateError, match="^null space dimension 2, expected 1$"):
        transient_area(EQUILIBRIUM, PumpConfig())


def test_lorentzian_response_unit_peak_and_fwhm():
    fwhm = 0.001
    assert lorentzian_response(0.0, fwhm) == pytest.approx(1.0)
    assert lorentzian_response(fwhm / 2.0, fwhm) == pytest.approx(0.5)
    assert lorentzian_response(-fwhm / 2.0, fwhm) == pytest.approx(0.5)


def _spectrum(pump_setting, **kwargs):
    grid = np.linspace(-0.002, 0.006, 161)
    cfg = PumpConfig(auger_rate=1e6, branch_to_s=0.25, randomization_rate=5.0)
    line_t = 0.0
    line_s = 117.53 / pump.MHZ_PER_INV_CM  # hyperfine splitting above the T line
    trace = optical_spectrum(grid, line_s_inv_cm=line_s, line_t_inv_cm=line_t,
                             cfg=cfg, pump_setting=pump_setting, **kwargs)
    idx_t = int(np.argmin(np.abs(grid - line_t)))
    idx_s = int(np.argmin(np.abs(grid - line_s)))
    return trace, idx_t, idx_s


def test_hyperpolarization_ordering_in_optical_spectra():
    off, idx_t, idx_s = _spectrum("off")
    on_t, _, _ = _spectrum("on_T")
    on_s, _, _ = _spectrum("on_S")
    # pumping the triplet line depletes T (weaker T response) and stacks
    # population in S (stronger S response); pump-on-S mirrors it
    assert on_t.values[idx_t] < off.values[idx_t]
    assert on_t.values[idx_s] > off.values[idx_s]
    assert on_s.values[idx_s] < off.values[idx_s]
    assert on_s.values[idx_t] > off.values[idx_t]


def test_optical_spectrum_doublet_option():
    grid = np.linspace(-0.002, 0.006, 321)
    cfg = PumpConfig(randomization_rate=5.0)
    split = 0.0008  # a fine-structure doublet resolvable in high-resolution scans, cm^-1
    trace = optical_spectrum(grid, line_s_inv_cm=117.53 / pump.MHZ_PER_INV_CM,
                             line_t_inv_cm=0.0, cfg=cfg, pump_setting="off",
                             doublet_split_inv_cm=split)
    # the T feature splits: local minimum at the nominal center, maxima at +-split/2
    idx_c = int(np.argmin(np.abs(grid)))
    idx_hi = int(np.argmin(np.abs(grid - split / 2)))
    assert trace.values[idx_hi] > trace.values[idx_c]


def test_degenerate_lines_warn():
    grid = np.linspace(-0.002, 0.002, 41)
    cfg = PumpConfig()
    with pytest.warns(DegenerateLinesWarning):
        optical_spectrum(grid, line_s_inv_cm=1e-6, line_t_inv_cm=0.0,
                         cfg=cfg, pump_setting="off")


def test_separated_lines_do_not_warn():
    grid = np.linspace(-0.002, 0.006, 41)
    cfg = PumpConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateLinesWarning)
        optical_spectrum(grid, line_s_inv_cm=0.00392, line_t_inv_cm=0.0,
                         cfg=cfg, pump_setting="off")


@pytest.mark.parametrize("probe, pump_rate", [
    (math.nan, 2e4), (math.inf, 2e4), (0.0, 2e4), (1e3, math.nan), (1e3, math.inf), (1e3, -1.0),
])
def test_optical_spectrum_rejects_bad_peak_rates(probe, pump_rate):
    with pytest.raises(ValueError, match="probe_peak_rate must be finite and > 0"):
        optical_spectrum(np.linspace(-0.002, 0.006, 3), line_s_inv_cm=0.00392,
                         line_t_inv_cm=0.0, cfg=PumpConfig(), pump_setting="off",
                         probe_peak_rate=probe, pump_peak_rate=pump_rate)


@pytest.mark.parametrize("lines, split, message", [
    ((math.nan, 0.0), 0.0, "line positions must be finite"),
    ((0.00392, math.inf), 0.0, "line positions must be finite"),
    ((0.00392, 0.0), math.nan, "doublet_split_inv_cm must be finite and >= 0"),
    ((0.00392, 0.0), -0.001, "doublet_split_inv_cm must be finite and >= 0"),
])
def test_optical_spectrum_rejects_bad_lines_and_split(lines, split, message):
    with pytest.raises(ValueError, match=message):
        optical_spectrum(np.linspace(-0.002, 0.006, 3), line_s_inv_cm=lines[0],
                         line_t_inv_cm=lines[1], cfg=PumpConfig(), pump_setting="off",
                         doublet_split_inv_cm=split)


@pytest.mark.parametrize("grid, message", [
    ([0.001, math.nan, 0.003], "scan_grid_inv_cm must be finite"),
    ([[0.001, 0.002]], "scan_grid_inv_cm must be a 1-d array"),
    ([0.003, 0.002, 0.001], "scan_grid_inv_cm must be strictly increasing"),
], ids=["nan", "2-d", "decreasing"])
def test_optical_spectrum_checks_its_grid_before_any_steady_state(monkeypatch, grid, message):
    def solve(*args):
        raise AssertionError("a steady state was solved before the grid was checked")

    monkeypatch.setattr(pump, "_steady_states", solve)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        optical_spectrum(np.array(grid), 0.004, 0.0, PumpConfig(), "off")


# --- stacked steady states against the per-point oracle ----------------------------

def assert_same_outcome(got_fn, oracle_fn, *args):
    """Check that both raise alike; else return (our result, the oracle's)."""
    try:
        expected = oracle_fn(*args)
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            got_fn(*args)
        return None
    got = got_fn(*args)
    return got, expected


_RATE = st.floats(0.0, 1e7)


@settings(max_examples=80, deadline=None)
@given(pump_rate_s=_RATE, pump_rate_t=_RATE, auger_rate=st.floats(0.0, 1e7, exclude_min=True),
       branch_to_s=st.floats(0.0, 1.0), randomization_rate=_RATE)
def test_steady_state_equals_oracle_bit_for_bit(pump_rate_s, pump_rate_t, auger_rate,
                                                branch_to_s, randomization_rate):
    cfg = PumpConfig(pump_rate_s=pump_rate_s, pump_rate_t=pump_rate_t, auger_rate=auger_rate,
                     branch_to_s=branch_to_s, randomization_rate=randomization_rate)
    outcome = assert_same_outcome(steady_state, scalar_oracle.steady_state, cfg)
    if outcome is not None:
        got, expected = outcome
        assert got.as_array().tobytes() == expected.as_array().tobytes()


@settings(max_examples=60, deadline=None)
@given(
    pump_setting=st.sampled_from(pump.PUMP_SETTINGS),
    doublet_split=st.one_of(st.just(0.0), st.floats(1e-5, 0.002)),
    points=st.integers(1, 80),
    line_s=st.floats(0.002, 0.006),
    probe_peak_rate=st.floats(1.0, 1e5),
    pump_peak_rate=st.floats(0.0, 1e6),
    branch_to_s=st.floats(0.0, 1.0),
    randomization_rate=st.floats(0.0, 1e3),
    linewidth_mhz=st.floats(1.0, 100.0),
    gain=st.floats(-10.0, 10.0),
)
def test_optical_spectrum_equals_per_point_oracle_bit_for_bit(
        pump_setting, doublet_split, points, line_s, probe_peak_rate, pump_peak_rate,
        branch_to_s, randomization_rate, linewidth_mhz, gain):
    cfg = PumpConfig(branch_to_s=branch_to_s, randomization_rate=randomization_rate,
                     gain=gain, optical_linewidth_mhz=linewidth_mhz)
    args = (np.linspace(-0.002, 0.008, points), line_s, 0.0, cfg, pump_setting,
            probe_peak_rate, pump_peak_rate, doublet_split)
    outcome = assert_same_outcome(optical_spectrum, scalar_oracle.optical_spectrum, *args)
    if outcome is not None:
        got, expected = outcome
        assert got.values.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("auger_rate, message", [
    (1e6, "null space dimension 2, expected 1"),
])
def test_no_unique_steady_state_anywhere_raises_the_oracle_error(auger_rate, message):
    # a 1e-300 MHz line underflows every probe overlap to 0
    cfg = PumpConfig(optical_linewidth_mhz=1e-300, auger_rate=auger_rate)
    args = (np.linspace(1.0, 2.0, 3), 0.00392, 0.0, cfg, "off")
    for spectrum in (optical_spectrum, scalar_oracle.optical_spectrum):
        with pytest.raises(NoUniqueSteadyStateError, match=f"^{message}$"):
            spectrum(*args)


@pytest.mark.parametrize("points", [3, 801])
def test_optical_spectrum_makes_one_svd_call(monkeypatch, points):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    optical_spectrum(np.linspace(-0.002, 0.006, points), line_s_inv_cm=0.00392,
                     line_t_inv_cm=0.0, cfg=PumpConfig(), pump_setting="on_T")
    assert calls == [(points, 3, 3)]
