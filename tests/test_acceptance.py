"""Acceptance gate: eleven end-to-end checks, one printed verdict line each.

Each test prints ``ACCEPTANCE  k/11 PASS|FAIL  <label>`` on the real stdout
(bypassing capture) so a plain ``pytest tests/test_acceptance.py`` run shows
the scorecard inline.  Stated runtime budgets are asserted, not advisory.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from donorsim.cli import main
from donorsim.config import DRIVE_DIRECTIONS
from donorsim.fitkit import fit_peaks, fit_stretched_exp
from donorsim.noise import EnsembleSpec, NoiseModel
from donorsim.program import Delay, Pulse, PulseProgram
from donorsim.pulse import (
    hahn_experiment,
    max_magnitude_estimate,
    rf_spectrum,
    simulate_4level,
)
from donorsim.pump import (
    MHZ_PER_INV_CM,
    PopulationState,
    PumpConfig,
    optical_spectrum,
    rate_matrix,
    steady_state,
    transient_area,
)
from donorsim.seqdsl import (
    HAHN_TEXT,
    CycleStmt,
    DelayStmt,
    PulseStmt,
    SequenceAst,
    TimeLiteral,
    compile as compile_seq,
    parse,
    pretty_print,
)
from donorsim.spincore import (
    PHOSPHORUS,
    FieldVector,
    breit_rabi_levels,
    TRIPLET_LABELS,
    clock_sensitivity,
    drive_operator,
    eigensystems,
    estimate_field_from_splitting,
    singlet_triplet_lines,
    transition_frequency,
    transition_table,
)

A = PHOSPHORUS.hyperfine_a
GAMMA_SUM = PHOSPHORUS.gamma_s + PHOSPHORUS.gamma_i
GAMMA_DIFF = PHOSPHORUS.gamma_s - PHOSPHORUS.gamma_i


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True, scope="module")
def _find_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE_MANAGER = None


def _emit(line: str) -> None:
    # suspend pytest's capture so the scorecard reaches the real terminal
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def verdict(index: int, label: str):
    """Print one scorecard line per criterion, pass or fail."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _emit(f"ACCEPTANCE {index:2d}/11 FAIL  {label}")
                raise
            _emit(f"ACCEPTANCE {index:2d}/11 PASS  {label}")
        return wrapper

    return decorate


# -- 1 ------------------------------------------------------------------------

@verdict(1, "closed-form levels match diagonalization (1e-9, 1000 fields, <1 s)")
def test_01_closed_form_vs_diagonalization():
    start = time.perf_counter()
    fields_ut = np.linspace(0.0, 5000.0, 1000)
    levels = breit_rabi_levels(PHOSPHORUS, fields_ut)
    closed = np.column_stack([levels[k] for k in ("S", "T-", "T0", "T+")])
    worst = 0.0
    for i, b_ut in enumerate(fields_ut):
        field = FieldVector.along_z(b_ut)
        energies, _ = eigensystems(PHOSPHORUS, field.as_array()[None])
        numeric = np.sort(energies[0])
        scale = np.max(np.abs(numeric))
        worst = max(worst, np.max(np.abs(np.sort(closed[i]) - numeric)) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst relative disagreement {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


# -- 2 ------------------------------------------------------------------------

@verdict(2, "zero-field splitting equals the hyperfine constant; triplet degenerate")
def test_02_zero_field_structure():
    field = FieldVector.along_z(0.0)
    energies, _ = eigensystems(PHOSPHORUS, field.as_array()[None])
    triplet = energies[0, 1:]  # T-, T0, T+
    splitting = float(np.mean(triplet)) - float(energies[0, 0])
    assert abs(splitting - A) <= 1e-12 * A
    assert np.ptp(triplet) <= 1e-12 * A


# -- 3 ------------------------------------------------------------------------

@verdict(3, "clock point: flat slope, quadratic curvature, linear outer slopes")
def test_03_clock_transition():
    slope0, curvature = clock_sensitivity(PHOSPHORUS, "T0", 0.0)
    assert abs(slope0) < 1e-6  # kHz/uT
    curvature_oracle = (GAMMA_SUM ** 2 / A) * 1e-3  # kHz/uT^2
    assert abs(curvature - curvature_oracle) <= 0.01 * curvature_oracle
    slope_plus, _ = clock_sensitivity(PHOSPHORUS, "T+", 0.0)
    slope_minus, _ = clock_sensitivity(PHOSPHORUS, "T-", 0.0)
    assert abs(slope_plus - GAMMA_DIFF / 2.0) <= 1e-4 * GAMMA_DIFF / 2.0
    assert abs(slope_minus + GAMMA_DIFF / 2.0) <= 1e-4 * GAMMA_DIFF / 2.0


# -- 4 ------------------------------------------------------------------------

@verdict(4, "two-peak spectrum at 4 uT fits and inverts to 4.000 uT (<5 s)")
def test_04_field_calibration_pipeline():
    start = time.perf_counter()
    offsets = np.linspace(-150.0, 150.0, 601)
    spec = EnsembleSpec(
        n_members=1, seed=0, noise=NoiseModel(), transition="T0",
        b0_magnitude_ut=4.0, b0_orientation="perpendicular", b1_amplitude_mt=1e-3,
    )
    curve = rf_spectrum(spec, PHOSPHORUS, offsets, kernel_fwhm_khz=2.0)
    fit = fit_peaks(offsets, curve.values, 2,
                    initial=[(-50.0, 2.0, 0.5), (50.0, 2.0, 0.5)])
    assert fit.converged
    splitting_khz = fit["center_2"] - fit["center_1"]
    field_ut = estimate_field_from_splitting(splitting_khz, PHOSPHORUS)
    elapsed = time.perf_counter() - start
    assert abs(field_ut - 4.0) <= 0.005 * 4.0, f"estimated {field_ut:.4f} uT"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


# -- 5 ------------------------------------------------------------------------

@verdict(5, "selection-rule nulls and the two-geometry spectrum with fixed sidebands")
def test_05_selection_rules_and_spectrum_structure():
    # exact nulls for both drive orientations, at zero and finite field
    for b_ut in (0.0, 23.0):
        lines = {t.to_label: t for t in
                 transition_table(PHOSPHORUS, FieldVector.along_z(b_ut))}
        _, elements = singlet_triplet_lines(
            *eigensystems(PHOSPHORUS, np.array([[0.0, 0.0, b_ut]])),
            drive_operator(PHOSPHORUS, DRIVE_DIRECTIONS["perpendicular"]))
        perp = dict(zip(TRIPLET_LABELS, elements[0].tolist()))
        allowed_par = lines["T0"].element_parallel_mhz_per_mt
        allowed_perp = min(perp["T+"], perp["T-"])
        assert lines["T+"].element_parallel_mhz_per_mt < 1e-12 * allowed_par
        assert lines["T-"].element_parallel_mhz_per_mt < 1e-12 * allowed_par
        assert perp["T0"] < 1e-12 * allowed_perp

    # geometry selects which lines appear in the driven spectrum
    offsets = np.linspace(-120.0, 120.0, 241)

    def spectrum(orientation, b0_ut, noise=NoiseModel(), members=1, seed=0):
        spec = EnsembleSpec(
            n_members=members, seed=seed, noise=noise, transition="T0",
            b0_magnitude_ut=b0_ut, b0_orientation=orientation,
            b1_amplitude_mt=1e-3,
        )
        return rf_spectrum(spec, PHOSPHORUS, offsets, kernel_fwhm_khz=6.0).values

    center = np.argmin(np.abs(offsets))
    outer = np.argmin(np.abs(offsets - GAMMA_DIFF / 2.0 * 4.0))
    par = spectrum("parallel", 4.0)
    perp = spectrum("perpendicular", 4.0)
    assert par[center] > 10 * par[outer]          # S->T0 dominates parallel
    assert perp[outer] > 10 * perp[center]        # S->T+- dominate perpendicular

    # a frozen-field subpopulation adds sidebands that do not track B0
    noise = NoiseModel(internal_fraction=0.4, internal_field_ut=6.0)
    window = (offsets > 60) & (offsets < 110)

    def band_centroid(values):
        return np.sum(offsets[window] * values[window]) / np.sum(values[window])

    lo = spectrum("parallel", 1.0, noise, members=300, seed=7)
    hi = spectrum("parallel", 2.0, noise, members=300, seed=7)
    sideband_khz = GAMMA_DIFF / 2.0 * 6.0
    assert abs(band_centroid(lo) - sideband_khz) < 8.0
    assert abs(band_centroid(hi) - sideband_khz) < 8.0
    assert abs(band_centroid(lo) - band_centroid(hi)) < 3.0


# -- 6 ------------------------------------------------------------------------

@verdict(6, "optical pumping inverts line strengths; re-pump transient matches the oracle")
def test_06_hyperpolarization_and_rate_oracle():
    grid = np.linspace(-0.002, 0.006, 161)
    cfg = PumpConfig(auger_rate=1e6, branch_to_s=0.25, randomization_rate=5.0)
    line_t, line_s = 0.0, A / MHZ_PER_INV_CM

    def scan(setting):
        trace = optical_spectrum(grid, line_s_inv_cm=line_s, line_t_inv_cm=line_t,
                                 cfg=cfg, pump_setting=setting)
        idx_t = int(np.argmin(np.abs(grid - line_t)))
        idx_s = int(np.argmin(np.abs(grid - line_s)))
        return trace.values[idx_t], trace.values[idx_s]

    off_t, off_s = scan("off")
    ont_t, ont_s = scan("on_T")
    ons_t, ons_s = scan("on_S")
    assert ont_t < off_t and ont_s > off_s       # pump on T drains T, fills S
    assert ons_s < off_s and ons_t > off_t       # pump on S mirrors it

    # re-pump transient: the closed-form area against the Van Loan block exponential
    dyn_cfg = PumpConfig(pump_rate_s=2e4, pump_rate_t=3e3,
                         randomization_rate=30.0)
    start_state = PopulationState(n_s=0.25, n_t=0.75, n_x=0.0)
    block = np.zeros((4, 4))
    block[:3, :3] = rate_matrix(dyn_cfg)
    block[:3, 3] = start_state.as_array() - steady_state(dyn_cfg).as_array()
    y = expm(block * 2.0)[:3, 3]  # 2 s is some 30 000 of the slowest decay times
    oracle = dyn_cfg.pump_rate_s * y[0] + dyn_cfg.pump_rate_t * y[1]
    assert transient_area(start_state, dyn_cfg) == pytest.approx(oracle, rel=1e-9)


# -- 7 ------------------------------------------------------------------------

def _echo_series(transition, orientation, taus, noise, members, seed=31):
    spec = EnsembleSpec(
        n_members=members, seed=seed, noise=noise, transition=transition,
        b0_magnitude_ut=4.0, b0_orientation=orientation, b1_amplitude_mt=1e-3,
    )
    return hahn_experiment(spec, PHOSPHORUS, taus)


def _t2_from_crossing(taus, values):
    """2*tau where the echo first crosses 1/e; inf when it never does."""
    below = np.nonzero(values <= 1.0 / math.e)[0]
    if below.size == 0:
        return math.inf
    j = int(below[0])
    if j == 0:
        return 2.0 * float(taus[0])
    x0, x1 = taus[j - 1], taus[j]
    y0, y1 = values[j - 1], values[j]
    return 2.0 * float(x0 + (y0 - 1.0 / math.e) / (y0 - y1) * (x1 - x0))


@verdict(7, "echo: exact refocusing, exact stretched law, OU decay ordering (<2 min)")
def test_07_echo_physics():
    start = time.perf_counter()

    # (a) static disorder refocuses exactly
    static = _echo_series("T0", "parallel", np.array([1e-3, 0.03, 0.12]),
                          NoiseModel(static_detuning_khz=25.0), members=200)
    assert np.allclose(static.values, 1.0, atol=1e-9)

    # (b) phenomenological mode is the exact stretched law and fits back
    taus_b = np.linspace(0.5, 12.0, 20)
    pheno = _echo_series("T0", "parallel", taus_b,
                         NoiseModel(phenomenological_t2_s=10.0, stretching_n=1.8),
                         members=3)
    assert np.allclose(pheno.values, np.exp(-((2 * taus_b / 10.0) ** 1.8)),
                       rtol=1e-12, atol=1e-12)
    fit_b = fit_stretched_exp(taus_b, pheno.values)
    assert fit_b.converged
    assert abs(fit_b["t2_s"] - 10.0) <= 1e-6 * 10.0
    assert abs(fit_b["n"] - 1.8) <= 1e-6 * 1.8

    # (c) OU Monte Carlo: stretched (n > 1) decay, and the line that is
    # first-order field-sensitive dies much faster than the clock line
    taus_c = np.linspace(0.0015, 0.0232, 20)
    ou = NoiseModel(ou_sigma_khz=0.05, ou_tau_c_s=0.2)
    outer = _echo_series("T+", "perpendicular", taus_c, ou, members=10_000)
    clock = _echo_series("T0", "parallel", taus_c, ou, members=10_000)
    fit_c = fit_stretched_exp(taus_c, outer.values)
    assert fit_c.converged
    assert fit_c["n"] > 1.0, f"fitted n = {fit_c['n']:.3f}"
    t2_outer = _t2_from_crossing(taus_c, outer.values)
    t2_clock = _t2_from_crossing(taus_c, clock.values)
    assert t2_outer < t2_clock, (t2_outer, t2_clock)
    assert np.min(clock.values) > 0.99

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f} s"


# -- 8 ------------------------------------------------------------------------

@verdict(8, "nominal pi pulse leaks into the outer lines as the field collapses (<1 min)")
def test_08_addressability():
    start = time.perf_counter()
    coupling = GAMMA_SUM / 2.0
    gap_mhz = (transition_frequency(PHOSPHORUS, "T+", 23.0)
               - transition_frequency(PHOSPHORUS, "T0", 23.0))
    b1_mt = (gap_mhz / 10.0) / coupling       # drive 10x below the Zeeman gap
    duration_s = 0.5 / (coupling * b1_mt) * 1e-6
    program = PulseProgram(name="pi", events=(
        Pulse(angle_rad=math.pi, phase_rad=0.0, duration_s=duration_s),
    ))

    leaks = []
    for bz_ut in (23.0, 8.0, 2.0, 0.0):
        # a fixed transverse remnant makes the outer lines reachable at all
        field = FieldVector(0.4, 0.0, bz_ut)
        pops = simulate_4level(
            program, PHOSPHORUS, field, b1_mt,
            b1_direction=np.array([0.0, 0.0, 1.0]),
            rf_frequency_mhz=transition_frequency(PHOSPHORUS, "T0",
                                                  field.magnitude()),
        )
        leaks.append(pops["T+"] + pops["T-"])
    elapsed = time.perf_counter() - start

    assert all(a < b for a, b in zip(leaks, leaks[1:])), leaks
    assert leaks[0] < 0.01, f"leak at 23 uT = {leaks[0]:.4f}"
    assert leaks[-1] > 0.05, f"leak in the degenerate limit = {leaks[-1]:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


# -- 9 ------------------------------------------------------------------------

@verdict(9, "max-magnitude over 100 random-phase shots lands within 0.3% in >=99% of trials")
def test_09_max_magnitude_estimator():
    magnitude = 0.83
    rng = np.random.default_rng(0)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(1000, 100))
    estimates = max_magnitude_estimate(magnitude * np.cos(phases))
    assert np.all(estimates <= magnitude + 1e-12)  # never overestimates
    successes = int(np.sum(np.abs(estimates - magnitude) <= 0.003 * magnitude))
    assert successes >= 990, f"{successes}/1000 trials within 0.3%"


# -- 10 -----------------------------------------------------------------------

def _random_number(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return float(rng.integers(-360, 361))
    if kind == 1:
        return float(np.round(rng.normal(scale=100.0), int(rng.integers(1, 6))))
    if kind == 2:
        return float(rng.normal(scale=1e-5))
    return float(rng.normal(scale=1e7))


def _random_ident(rng):
    first = "abcdefghijklmnopqrstuvwxyz_"
    rest = first + "0123456789ABCXYZ"
    length = int(rng.integers(1, 9))
    return rng.choice(list(first)) + "".join(
        rng.choice(list(rest)) for _ in range(length - 1)
    )


def _random_program(rng):
    statements = []
    for _ in range(int(rng.integers(0, 7))):
        kind = rng.integers(0, 4)
        if kind == 0:
            statements.append(CycleStmt(
                label=_random_ident(rng),
                phases_deg=tuple(_random_number(rng)
                                 for _ in range(int(rng.integers(1, 5)))),
            ))
        elif kind == 1:
            label = _random_ident(rng)
            statements.append(PulseStmt(
                label=None if label == "angle" or rng.random() < 0.4 else label,
                angle_deg=_random_number(rng),
                phase_deg=_random_number(rng),
                duration=None if rng.random() < 0.5 else TimeLiteral(
                    abs(_random_number(rng)), rng.choice(["ns", "us", "ms", "s"])),
            ))
        elif kind == 2:
            statements.append(DelayStmt(duration=TimeLiteral(
                abs(_random_number(rng)), rng.choice(["ns", "us", "ms", "s"]))))
        else:
            statements.append(DelayStmt(symbol=_random_ident(rng)))
    return SequenceAst(name=_random_ident(rng), statements=tuple(statements))


@verdict(10, "sequence text round-trips over 1000 programs; the echo text lowers exactly")
def test_10_dsl_roundtrip_and_hahn_lowering():
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        ast = _random_program(rng)
        assert parse(pretty_print(ast)) == ast

    shots = compile_seq(parse(HAHN_TEXT), bindings={"tau": 1e-3}).shots()
    assert len(shots) == 2
    half = math.pi / 2.0
    for shot, first_phase in zip(shots, (0.0, math.pi)):
        p1, d1, p2, d2, p3 = shot.events
        assert (p1.angle_rad, p1.phase_rad) == (half, first_phase)
        assert d1 == Delay(duration_s=1e-3) == d2
        assert (p2.angle_rad, p2.phase_rad) == (math.pi, 0.0)
        assert (p3.angle_rad, p3.phase_rad) == (half, 0.0)


# -- 11 -----------------------------------------------------------------------

@verdict(11, "same seed gives byte-identical CSV for any worker count")
def test_11_deterministic_output(tmp_path):
    argv = [
        "hahn", "--members", "40", "--points", "5",
        "--tau-min-s", "0.002", "--tau-max-s", "0.02",
        "--ou-sigma-khz", "0.05", "--ou-tau-c-s", "0.2",
        "--transition", "T+", "--orientation", "perpendicular",
        "--seed", "7",
    ]
    outputs = []
    for name, extra in (("a", []), ("b", []), ("w4", ["--workers", "4"]),
                        ("w13", ["--workers", "13"])):
        path = tmp_path / f"{name}.csv"
        assert main(argv + extra + ["--output", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

    # a different seed actually changes the bytes (the check has teeth)
    other = tmp_path / "other.csv"
    assert main(argv[:-1] + ["8", "--output", str(other)]) == 0
    assert other.read_bytes() != outputs[0]
