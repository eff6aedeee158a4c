"""Optical pumping rate model: integrator, steady states, spectra."""

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
    StepSizeError,
    evolve_populations,
    lorentzian_response,
    optical_spectrum,
    photoconductive_signal,
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


@pytest.mark.parametrize("cfg", [
    PumpConfig(pump_rate_s=0.0, pump_rate_t=0.0),
    PumpConfig(pump_rate_s=2e4, pump_rate_t=0.0),
    PumpConfig(pump_rate_s=0.0, pump_rate_t=2e4, randomization_rate=100.0),
    PumpConfig(pump_rate_s=5e3, pump_rate_t=1e4, branch_to_s=0.7,
               randomization_rate=10.0),
])
def test_trajectory_matches_matrix_exponential_oracle(cfg):
    duration = 2e-3
    trajectory = evolve_populations(EQUILIBRIUM, cfg, duration_s=duration, dt_s=1e-7)
    m = rate_matrix(cfg)
    start = np.array([0.25, 0.75, 0.0])
    for i in (0, len(trajectory.times_s) // 2, len(trajectory.times_s) - 1):
        t = trajectory.times_s[i]
        oracle = expm(m * t) @ start
        assert np.allclose(trajectory.populations[i], oracle, atol=1e-6)


def test_trajectory_conserves_population():
    cfg = PumpConfig(pump_rate_s=2e4, randomization_rate=30.0)
    trajectory = evolve_populations(EQUILIBRIUM, cfg, duration_s=5e-3, dt_s=1e-7)
    totals = trajectory.populations.sum(axis=1)
    assert np.max(np.abs(totals - 1.0)) < 1e-9
    assert np.min(trajectory.populations) > -1e-9


def test_coarse_step_is_rejected():
    cfg = PumpConfig(pump_rate_s=2e4, auger_rate=1e6)
    with pytest.raises(StepSizeError):
        evolve_populations(EQUILIBRIUM, cfg, duration_s=1e-3, dt_s=2e-5)


def test_randomization_fixed_point_is_statistical_weights():
    # randomization alone drives populations to 1/4 singlet, 3/4 triplet
    # (slow Auger keeps the generator norm small so a coarse step is legal)
    cfg = PumpConfig(randomization_rate=100.0, auger_rate=1e3)
    skewed = PopulationState(n_s=0.9, n_t=0.1, n_x=0.0)
    final = evolve_populations(skewed, cfg, duration_s=0.2, dt_s=1e-4).final_state()
    assert math.isclose(final.n_s, 0.25, abs_tol=1e-6)
    assert math.isclose(final.n_t, 0.75, abs_tol=1e-6)
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


def test_photoconductive_signal_tracks_excited_state():
    cfg = PumpConfig(pump_rate_s=2e4, gain=2.0)
    trajectory = evolve_populations(EQUILIBRIUM, cfg, duration_s=2e-3, dt_s=1e-7)
    signal = photoconductive_signal(trajectory, cfg)
    # signal = gain * (rate_S * n_S + rate_T * n_T): positive while S still
    # populated, decaying toward the tiny steady leak
    assert signal.values[0] == pytest.approx(2.0 * 2e4 * 0.25)
    assert signal.values[-1] < signal.values[0] * 0.05


def test_transient_area_is_finite_and_settled():
    cfg = PumpConfig(pump_rate_s=2e4)
    trajectory = evolve_populations(EQUILIBRIUM, cfg, duration_s=5e-3, dt_s=1e-7)
    area = transient_area(photoconductive_signal(trajectory, cfg), cfg)
    assert area > 0
    # truncating the trajectory before it settles is reported
    short = evolve_populations(EQUILIBRIUM, cfg, duration_s=2e-5, dt_s=1e-7)
    with pytest.raises(pump.ConvergenceError):
        transient_area(photoconductive_signal(short, cfg), cfg)


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
    split = pump.DOUBLET_SPLITTING_INV_CM
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
@given(pump_rate_s=_RATE, pump_rate_t=_RATE, auger_rate=_RATE,
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
    (0.0, "all rates are zero"),
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
