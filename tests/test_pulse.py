"""Two-level pulse engine, ensemble experiments, and the 4-level check."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
import scalar_oracle
from scalar_oracle import propagate_pulse

from donorsim import noise, pulse, seqdsl, spincore
from donorsim.csvio import Series
from donorsim.noise import EnsembleSpec, MemberEnvironment, NoiseModel, member_rng
from donorsim.program import Delay, PhaseCycle, Pulse, PulseProgram
from donorsim.pulse import (
    TwoLevelParams,
    hahn_experiment,
    max_magnitude_estimate,
    rabi_experiment,
    ramsey_experiment,
    rf_spectrum,
    run_sequence,
    simulate_4level,
    two_level_params_for,
)
from donorsim.spincore import (
    PHOSPHORUS,
    FieldVector,
    transition_frequency,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

GROUND = np.array([1.0 + 0.0j, 0.0j])


def params_for(coupling=10.0, b1=1e-3):
    return TwoLevelParams(rabi_coupling_mhz_per_mt=coupling, b1_amplitude_mt=b1)


def detuned(detuning_khz):
    """A member with this frozen detuning and no noise."""
    return MemberEnvironment(rng=None, static_detuning_khz=detuning_khz, ou_sigma_khz=0.0,
                             ou_tau_c_s=1.0)


# --- single pulses against the matrix-exponential oracle ----------------------

@pytest.mark.parametrize("case", range(12))
def test_propagate_pulse_matches_expm_oracle(case):
    rng = np.random.default_rng(100 + case)
    coupling = rng.uniform(1.0, 30.0)
    b1 = rng.uniform(1e-4, 5e-3)
    detuning_khz = rng.uniform(-50.0, 50.0)
    phase = rng.uniform(0.0, 2 * math.pi)
    duration = rng.uniform(1e-6, 2e-4)
    params = params_for(coupling, b1)
    pulse = Pulse(angle_rad=1.0, phase_rad=phase, duration_s=duration)

    state = propagate_pulse(GROUND, pulse, params, detuning_khz)

    omega = params.omega_rad_per_s
    delta = 2.0 * math.pi * detuning_khz * 1e3
    h = 0.5 * (omega * math.cos(phase) * SX + omega * math.sin(phase) * SY + delta * SZ)
    oracle = expm(-1j * h * duration) @ GROUND
    # global phase is physical-free; compare via overlap
    overlap = abs(np.vdot(oracle, state))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_resonant_pi_pulse_inverts():
    params = params_for(coupling=10.0, b1=1e-3)  # Omega/2pi = 10 kHz
    t_pi = 0.5 / (10.0 * 1e-3 * 1e6)  # half a Rabi period, seconds
    state = propagate_pulse(GROUND, Pulse(angle_rad=math.pi, phase_rad=0.0,
                                          duration_s=t_pi), params)
    assert abs(state[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_nominal_angle_used_when_no_duration():
    # a pulse without a duration is a hard rotation by its angle, in the engine and the oracle
    program = PulseProgram(name="hard", events=(Pulse(angle_rad=math.pi / 2, phase_rad=0.0),))
    for run in (run_sequence, scalar_oracle.run_sequence):
        assert run(program, params_for(), detuned(7.0))[1] == pytest.approx(0.5, abs=1e-12)


def test_propagate_pulse_rejects_bad_state():
    params = params_for()
    with pytest.raises(ValueError):
        propagate_pulse(np.array([1.0, 1.0], dtype=complex),
                        Pulse(angle_rad=1.0, phase_rad=0.0), params)
    with pytest.raises(ValueError, match="pulse without duration is hard"):
        propagate_pulse(GROUND, Pulse(angle_rad=1.0, phase_rad=0.0),
                        params_for(coupling=0.0))


def test_generalized_rabi_formula_reproduced():
    # detuned drive: transfer follows (Omega^2/Omega_eff^2) sin^2(Omega_eff t/2)
    params = params_for(coupling=10.0, b1=1e-3)
    omega = params.omega_rad_per_s
    delta = 2.0 * math.pi * 7.0 * 1e3
    n_eff = math.hypot(omega, delta)
    for t in (1e-5, 5e-5, 2e-4):
        state = propagate_pulse(GROUND, Pulse(angle_rad=1.0, phase_rad=0.0,
                                              duration_s=t), params, 7.0)
        expected = (omega / n_eff) ** 2 * math.sin(n_eff * t / 2.0) ** 2
        assert abs(state[1]) ** 2 == pytest.approx(expected, abs=1e-12)


# --- sequences -----------------------------------------------------------------

HAHN = seqdsl.compile(seqdsl.parse(seqdsl.HAHN_TEXT))


def bound_hahn(tau):
    return [p.bind({"tau": tau}) for p in HAHN.shots()]


def test_run_sequence_rejects_cycles_and_symbols():
    with pytest.raises(ValueError):
        run_sequence(HAHN, params_for())
    symbolic = HAHN.shots()[0]
    with pytest.raises(Exception):
        run_sequence(symbolic, params_for())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_sequence_reports_a_lost_norm_on_overflow():
    # 1e300 kHz over 1e10 s overflows the delay phase; its NaN must fail the norm check
    half = Pulse(angle_rad=math.pi / 2, phase_rad=0.0)
    program = PulseProgram(name="overflow", events=(half, Delay(duration_s=1e10), half))
    with pytest.raises(RuntimeError, match="propagation lost norm: nan"):
        run_sequence(program, params_for(), detuned(1e300))


def test_hahn_refocuses_static_detuning_exactly():
    # the pi pulse cancels any static detuning accumulated in the delays
    params = params_for()
    for detuning in (0.0, 3.7, -12.0):
        env = MemberEnvironment(rng=member_rng(0, 0), static_detuning_khz=detuning,
                                ou_sigma_khz=0.0, ou_tau_c_s=1.0)
        plus, minus = bound_hahn(0.01)
        _, p_plus = run_sequence(plus, params, env)
        _, p_minus = run_sequence(minus, params, env)
        assert p_plus - p_minus == pytest.approx(-1.0, abs=1e-12)


def test_ramsey_fringe_oscillates_with_static_detuning():
    params = params_for()
    program = PulseProgram(
        name="fringe",
        events=(
            Pulse(angle_rad=math.pi / 2, phase_rad=0.0),
            Delay(duration_s=0.0),
            Pulse(angle_rad=math.pi / 2, phase_rad=0.0),
        ),
    )
    values = []
    for tau in (0.0, 25e-6, 50e-6, 100e-6):
        prog = PulseProgram(name="fringe", events=(
            program.events[0], Delay(duration_s=tau), program.events[2]))
        _, p_t = run_sequence(prog, params, detuned(10.0))  # 10 kHz: period 100 µs
        values.append(p_t)
    assert values[0] == pytest.approx(1.0, abs=1e-12)   # 2 * pi/2 = pi
    assert values[1] == pytest.approx(0.5, abs=1e-12)   # quarter fringe
    assert values[2] == pytest.approx(0.0, abs=1e-12)   # anti-fringe
    assert values[3] == pytest.approx(1.0, abs=1e-12)   # full period


def test_shot_phase_rotation_modulates_cycled_signal():
    # inserting a common-mode z phase psi before the final pulse scales the
    # cycled echo by cos(psi)
    params = params_for()
    for psi in (0.0, math.pi / 3, math.pi / 2, 2.2):
        env = MemberEnvironment(rng=member_rng(0, 0), static_detuning_khz=0.0,
                                ou_sigma_khz=0.0, ou_tau_c_s=1.0,
                                shot_phase_rad=psi)
        plus, minus = bound_hahn(0.001)
        _, p_plus = run_sequence(plus, params, env)
        _, p_minus = run_sequence(minus, params, env)
        assert p_plus - p_minus == pytest.approx(-math.cos(psi), abs=1e-12)


# --- ensemble experiments --------------------------------------------------------

def clean_spec(n=1, seed=0, **noise_kwargs):
    return EnsembleSpec(
        n_members=n, seed=seed, noise=NoiseModel(**noise_kwargs),
        transition="T0", b0_magnitude_ut=4.0, b0_orientation="parallel",
        b1_amplitude_mt=1e-3,
    )


def test_two_level_params_from_geometry():
    par = two_level_params_for(clean_spec(), PHOSPHORUS)
    assert par.rabi_coupling_mhz_per_mt == pytest.approx(
        (PHOSPHORUS.gamma_s + PHOSPHORUS.gamma_i) / 2.0, rel=1e-6)
    perp_spec = EnsembleSpec(n_members=1, seed=0, noise=NoiseModel(),
                             transition="T+", b0_magnitude_ut=4.0,
                             b0_orientation="perpendicular", b1_amplitude_mt=1e-3)
    perp = two_level_params_for(perp_spec, PHOSPHORUS)
    # 1e-3 headroom: at 4 µT the Zeeman admixture shifts the element by ~5e-4
    assert perp.rabi_coupling_mhz_per_mt == pytest.approx(
        (PHOSPHORUS.gamma_s + PHOSPHORUS.gamma_i) / (2 * math.sqrt(2)), rel=1e-3)


def test_forbidden_geometry_is_rejected():
    bad = EnsembleSpec(n_members=1, seed=0, noise=NoiseModel(), transition="T+",
                       b0_magnitude_ut=4.0, b0_orientation="parallel",
                       b1_amplitude_mt=1e-3)
    with pytest.raises(ValueError):
        rabi_experiment(bad, PHOSPHORUS, np.array([0.0, 1e-5]))


@pytest.mark.parametrize("experiment", [ramsey_experiment, hahn_experiment])
@pytest.mark.parametrize("transition, orientation", [("T+", "parallel"),
                                                     ("T0", "perpendicular")])
def test_forbidden_geometry_is_rejected_by_the_pulsed_experiments(
        experiment, transition, orientation):
    # hard pulses rotate by their nominal angle, so an undriven line would read a clean 1.0
    bad = EnsembleSpec(n_members=2, seed=0, noise=NoiseModel(), transition=transition,
                       b0_magnitude_ut=4.0, b0_orientation=orientation,
                       b1_amplitude_mt=1e-3)
    message = f"S -> {transition} is not driven in the {orientation} geometry"
    with pytest.raises(ValueError, match=re.escape(message)):
        experiment(bad, PHOSPHORUS, np.array([1e-3, 2e-3]))


def test_rabi_oscillation_matches_formula():
    spec = clean_spec()
    params = two_level_params_for(spec, PHOSPHORUS)
    f_rabi = params.omega_rad_per_s / (2 * math.pi)  # ~14 kHz
    lengths = np.linspace(0.0, 2.0 / f_rabi, 41)
    curve = rabi_experiment(spec, PHOSPHORUS, lengths)
    expected = np.sin(math.pi * f_rabi * lengths) ** 2
    assert np.allclose(curve.values, expected, atol=1e-12)


def test_rabi_damps_under_static_disorder():
    # disorder comparable to the Rabi frequency washes out later oscillations
    spec = clean_spec(n=400, seed=5, static_detuning_khz=10.0)
    params = two_level_params_for(spec, PHOSPHORUS)
    f_rabi = params.omega_rad_per_s / (2 * math.pi)
    lengths = np.linspace(0.0, 3.0 / f_rabi, 31)
    curve = rabi_experiment(spec, PHOSPHORUS, lengths)
    first_peak = curve.values[np.argmin(np.abs(lengths - 0.5 / f_rabi))]
    late_peak = curve.values[np.argmin(np.abs(lengths - 2.5 / f_rabi))]
    assert first_peak > 0.6
    assert late_peak < first_peak - 0.1


def test_hahn_static_disorder_only_echo_is_unity():
    spec = clean_spec(n=100, seed=3, static_detuning_khz=25.0)
    taus = np.array([1e-3, 0.03, 0.12])
    series = hahn_experiment(spec, PHOSPHORUS, taus)
    assert isinstance(series, Series)
    assert np.allclose(series.values, 1.0, atol=1e-10)


@pytest.mark.parametrize("experiment, name, line, edited, want", [
    # a pi pulse about y turns the echo over: the cycled signal reads -1
    (hahn_experiment, "HAHN_TEXT", "pulse angle=180 phase=0;", "pulse angle=180 phase=90;",
     -1.0),
    # a last pi/2 pulse about -x undoes the first: no transfer at zero detuning
    (ramsey_experiment, "RAMSEY_TEXT", "pulse angle=90 phase=0;\n}",
     "pulse angle=90 phase=180;\n}", 0.0),
], ids=["hahn", "ramsey"])
def test_the_experiments_run_their_sequence_texts(monkeypatch, experiment, name, line, edited,
                                                   want):
    spec, taus = clean_spec(n=2), np.array([1e-3, 2e-3])
    text = getattr(seqdsl, name)
    assert text.count(line) == 1
    before = experiment(spec, PHOSPHORUS, taus).values
    monkeypatch.setattr(seqdsl, name, text.replace(line, edited))
    after = experiment(spec, PHOSPHORUS, taus).values
    assert not np.array_equal(after, before)
    assert np.allclose(after, want, atol=1e-12)


def test_hahn_phenomenological_envelope_exact():
    spec = clean_spec(n=3, seed=1, phenomenological_t2_s=10.0, stretching_n=1.8)
    taus = np.linspace(0.5, 12.0, 9)
    series = hahn_experiment(spec, PHOSPHORUS, taus)
    expected = np.exp(-((2 * taus / 10.0) ** 1.8))
    assert np.allclose(series.values, expected, rtol=1e-12, atol=1e-12)


def test_hahn_ou_decay_matches_analytic_envelope():
    # Monte-Carlo vs the closed-form filtered OU phase variance:
    #   Var = 2 sigma_ang^2 tau_c [2 tau - tau_c (1-mu)(3-mu)], mu = exp(-tau/tau_c)
    sigma_khz, tau_c = 0.05, 0.2
    spec = EnsembleSpec(
        n_members=1500, seed=13,
        noise=NoiseModel(ou_sigma_khz=sigma_khz, ou_tau_c_s=tau_c),
        transition="T+", b0_magnitude_ut=4.0, b0_orientation="perpendicular",
        b1_amplitude_mt=1e-3,
    )
    taus = np.array([0.01, 0.05, 0.1, 0.2, 0.35])
    series = hahn_experiment(spec, PHOSPHORUS, taus)
    sigma_ang = 2 * math.pi * 1e3 * sigma_khz  # factor ~1 line sensitivity
    mu = np.exp(-taus / tau_c)
    var = 2 * sigma_ang**2 * tau_c * (2 * taus - tau_c * (1 - mu) * (3 - mu))
    expected = np.exp(-var / 2)
    assert np.all(np.abs(series.values - expected) < 0.05)
    # decay is real: last point clearly below the first
    assert series.values[-1] < 0.5 < series.values[0]


# --- detection --------------------------------------------------------------------

def test_max_magnitude_estimate_shapes_and_errors():
    assert max_magnitude_estimate(np.array([0.1, -0.9, 0.5])) == 0.9
    out = max_magnitude_estimate(np.array([[0.1, -0.9], [0.2, 0.3]]))
    assert np.array_equal(out, [0.9, 0.3])
    with pytest.raises(ValueError):
        max_magnitude_estimate(np.array([]))
    with pytest.raises(ValueError):
        max_magnitude_estimate(np.array([np.nan]))


def test_max_magnitude_underestimates_but_converges():
    rng = np.random.default_rng(0)
    magnitude = 0.83
    estimates = []
    for _ in range(50):
        phases = rng.uniform(0, 2 * math.pi, 100)
        estimates.append(max_magnitude_estimate(magnitude * np.cos(phases)))
    estimates = np.asarray(estimates)
    assert np.all(estimates <= magnitude + 1e-12)
    assert np.all(estimates > magnitude * 0.99)


def test_hahn_max_detection_recovers_unity_noiseless():
    spec = clean_spec(n=20, seed=2, static_detuning_khz=10.0)
    taus = np.array([0.01, 0.05])
    series = hahn_experiment(spec, PHOSPHORUS, taus, detection="max",
                             shots_per_point=100)
    assert series.shots == 100
    assert np.all(series.values <= 1.0 + 1e-12)
    assert np.all(series.values > 0.998)


def test_hahn_mean_detection_rejects_a_shot_count():
    # mean detection runs one shot pair per tau, so a shot count there is an error
    with pytest.raises(ValueError, match="shots_per_point applies only to detection='max'"):
        hahn_experiment(clean_spec(n=3), PHOSPHORUS, [1e-3], detection="mean",
                        shots_per_point=7)


@pytest.fixture
def no_member_drawn(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a member was drawn before the inputs were checked")

    monkeypatch.setattr(noise, "_restart", draw)  # every ensemble member's stream starts here


@pytest.mark.parametrize("taus, shots, message", [
    ([1e-3], 2.5, "shots_per_point must be an int, got 2.5"),
    ([1e-3], True, "shots_per_point must be an int, got True"),
    ([1e-3, math.inf], 5, "taus_s must be finite and > 0"),
    ([math.nan], 5, "taus_s must be finite and > 0"),
    ([0.0, 1e-3], 5, "taus_s must be finite and > 0"),
])
def test_hahn_names_a_bad_argument_before_any_member_is_drawn(no_member_drawn, taus, shots,
                                                               message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hahn_experiment(clean_spec(n=500), PHOSPHORUS, taus, detection="max",
                        shots_per_point=shots)


@pytest.mark.parametrize("shots, want", [(None, 100), (7, 7)])
def test_hahn_max_detection_of_an_empty_sweep_is_an_empty_series(shots, want):
    series = hahn_experiment(clean_spec(n=3), PHOSPHORUS, [], detection="max",
                             shots_per_point=shots)
    assert (series.x.size, series.values.size, series.shots) == (0, 0, want)


@pytest.mark.parametrize("run", [
    lambda spec: ramsey_experiment(spec, PHOSPHORUS, [2e-3, 1e-3]),
    lambda spec: rabi_experiment(spec, PHOSPHORUS, [2e-6, 1e-6]),
    lambda spec: hahn_experiment(spec, PHOSPHORUS, [2e-3, 1e-3]),
    lambda spec: hahn_experiment(spec, PHOSPHORUS, [2e-3, 1e-3], detection="max"),
    lambda spec: rf_spectrum(spec, PHOSPHORUS, [5.0, -5.0]),
], ids=["ramsey", "rabi", "hahn-mean", "hahn-max", "rf-spectrum"])
def test_an_unsorted_sweep_fails_before_any_member_is_drawn(no_member_drawn, run):
    with pytest.raises(ValueError, match="^x must be strictly increasing$"):
        run(clean_spec(n=500))


@pytest.mark.parametrize("run", [
    lambda spec: ramsey_experiment(spec, PHOSPHORUS, []),
    lambda spec: rabi_experiment(spec, PHOSPHORUS, []),
    lambda spec: hahn_experiment(spec, PHOSPHORUS, []),
    lambda spec: hahn_experiment(spec, PHOSPHORUS, [], detection="max"),
    lambda spec: rf_spectrum(spec, PHOSPHORUS, []),
], ids=["ramsey", "rabi", "hahn-mean", "hahn-max", "rf-spectrum"])
def test_an_empty_sweep_is_an_empty_series_with_no_member_drawn(no_member_drawn, run):
    series = run(clean_spec(n=500))
    assert (series.x.size, series.values.size) == (0, 0)


# --- 4-level honesty check ----------------------------------------------------------

def pi_pulse_program(duration_us):
    return PulseProgram(name="pi", events=(
        Pulse(angle_rad=math.pi, phase_rad=0.0, duration_s=duration_us * 1e-6),
    ))


def test_4level_matches_two_level_when_well_separated():
    # at 23 µT with the drive 10x below the Zeeman splitting the nominal
    # S->T0 pi pulse must transfer within 1% of the two-level prediction
    b0 = FieldVector(0.4, 0.0, 23.0)
    coupling = (PHOSPHORUS.gamma_s + PHOSPHORUS.gamma_i) / 2.0
    splitting_mhz = (
        transition_frequency(PHOSPHORUS, "T+", b0.magnitude())
        - transition_frequency(PHOSPHORUS, "T0", b0.magnitude())
    )
    b1 = splitting_mhz / 10.0 / coupling
    duration_us = 0.5 / (coupling * b1)
    pops = simulate_4level(
        pi_pulse_program(duration_us), PHOSPHORUS, b0, b1,
        b1_direction=np.array([0.0, 0.0, 1.0]),
        rf_frequency_mhz=transition_frequency(PHOSPHORUS, "T0", b0.magnitude()),
    )
    assert pops["T0"] == pytest.approx(1.0, abs=0.01)
    assert pops["T+"] + pops["T-"] < 1e-3
    assert abs(sum(pops.values()) - 1.0) < 1e-9


_FIELD_COMPONENTS = st.one_of(st.just(0.0), st.floats(-30.0, 30.0))


@st.composite
def _driven_pulse_delay_pulse(draw):
    """A pulse-delay-pulse program and the field, b1, direction and frequency that drive it."""
    field = draw(st.one_of(st.just((0.0, 0.0, 0.0)),
                           st.tuples(_FIELD_COMPONENTS, _FIELD_COMPONENTS, _FIELD_COMPONENTS)))
    phases = draw(st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)))
    steps = draw(st.tuples(st.integers(1, 40), st.integers(1, 40)))
    delay_us = draw(st.floats(0.0, 0.05))
    b1_mt = draw(st.floats(0.01, 1.0))
    direction = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.1, 1.0)))
    rf_offset_mhz = draw(st.floats(-0.5, 0.5))
    program = PulseProgram(name="p_delay_p", events=(
        Pulse(angle_rad=0.0, phase_rad=phases[0], duration_s=steps[0] * DT_S),
        Delay(duration_s=delay_us * 1e-6),
        Pulse(angle_rad=0.0, phase_rad=phases[1], duration_s=steps[1] * DT_S),
    ))
    return program, (FieldVector(*field), b1_mt, direction,
                     PHOSPHORUS.hyperfine_a + rf_offset_mhz)


@settings(max_examples=60, deadline=None)
@given(_driven_pulse_delay_pulse())
def test_4level_populations_sum_to_one(case):
    program, args = case
    pops = simulate_4level(program, PHOSPHORUS, *args)
    assert abs(sum(pops.values()) - 1.0) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(_driven_pulse_delay_pulse())
def test_4level_matches_the_scalar_oracle_bit_for_bit(case):
    # blocks of 3 steps, so most pulses span several blocks and end in a partial one
    program, args = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulse, "_CF4_BLOCK_STEPS", 3)
        pops = simulate_4level(program, PHOSPHORUS, *args)
    assert pops == oracle_4level(program, *args)


def test_4level_rejects_unbound_programs():
    b0 = FieldVector(0.0, 0.0, 23.0)
    symbolic = PulseProgram(name="s", events=(Delay(symbol="tau"),))
    with pytest.raises(Exception):
        simulate_4level(symbolic, PHOSPHORUS, b0, 1e-3,
                        np.array([0.0, 0.0, 1.0]), 117.53)
    cycled = PulseProgram(name="c", events=(Pulse(angle_rad=1.0, phase_rad=0.0,
                                                  duration_s=1e-6, label="p"),),
                          cycles=(PhaseCycle("p", (0.0, math.pi)),))
    with pytest.raises(ValueError):
        simulate_4level(cycled, PHOSPHORUS, b0, 1e-3,
                        np.array([0.0, 0.0, 1.0]), 117.53)


# --- 4-level block stepper against the scalar CF4 oracle ---------------------------------

DT_S = 1e-6 / (50.0 * PHOSPHORUS.hyperfine_a)  # the default step, in seconds

# 11, 8, 301 and 105 steps, with delays and nonzero phases
MULTI_EVENT = PulseProgram(name="multi", events=(
    Pulse(angle_rad=math.pi / 2, phase_rad=0.0, duration_s=10.5 * DT_S),
    Delay(duration_s=2e-8),
    Pulse(angle_rad=math.pi, phase_rad=math.pi / 2, duration_s=7.2 * DT_S),
    Pulse(angle_rad=math.pi, phase_rad=2.5, duration_s=300.7 * DT_S),
    Delay(duration_s=1.3e-9),
    Pulse(angle_rad=math.pi / 4, phase_rad=1.1, duration_s=104.6 * DT_S),
))


def _cf4_step(psi, t_us, dt_us, w_mhz, gaps_mhz, freq_mhz, phase_rad):
    """One commutator-free 4th-order Magnus step in the interaction frame."""
    c1 = 0.5 - math.sqrt(3.0) / 6.0
    c2 = 0.5 + math.sqrt(3.0) / 6.0
    alpha1 = 0.25 + math.sqrt(3.0) / 6.0
    alpha2 = 0.25 - math.sqrt(3.0) / 6.0
    two_pi = 2.0 * math.pi

    def coupling(t):
        drive = math.cos(two_pi * freq_mhz * t + phase_rad)
        return drive * np.exp(1j * two_pi * gaps_mhz * t) * w_mhz

    m1 = coupling(t_us + c1 * dt_us)
    m2 = coupling(t_us + c2 * dt_us)
    for mat in ((alpha1 * m1 + alpha2 * m2), (alpha2 * m1 + alpha1 * m2)):
        x = -1j * two_pi * dt_us * mat
        x2 = x @ x
        u = np.eye(4) + x + x2 / 2.0 + (x2 @ x) / 6.0 + (x2 @ x2) / 24.0
        psi = u @ psi
    return psi


def oracle_4level(program, b0, b1, direction, freq_mhz, dt_us=DT_S * 1e6):
    """``simulate_4level`` one scalar CF4 step at a time, each pulse in the
    fewest equal steps of at most ``dt_us`` (by default ``simulate_4level``'s)."""
    energies, vectors = spincore.eigensystems(PHOSPHORUS, b0.as_array()[None])
    energies, vectors = energies[0], vectors[0]
    gaps = energies[:, None] - energies[None, :]
    direction = np.asarray(direction, dtype=float)
    op = spincore.zeeman_operator(PHOSPHORUS, direction / np.linalg.norm(direction))
    w = b1 * (vectors.conj().T @ op @ vectors)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    t_us = 0.0
    for event in program.events:
        duration_us = event.duration_s * 1e6
        if isinstance(event, Delay):
            t_us += duration_us
            continue
        n_steps = max(1, int(math.ceil(duration_us / dt_us - 1e-12)))
        step = duration_us / n_steps
        for _ in range(n_steps):
            psi = _cf4_step(psi, t_us, step, w, gaps, freq_mhz, event.phase_rad)
            t_us += step
    return {lbl: float(abs(psi[k]) ** 2) for k, lbl in enumerate(spincore.LABELS)}


@pytest.mark.parametrize("b", [(0.4, 0.0, 23.0), (0.4, 0.0, 0.0)])
def test_4level_step_error_is_below_1e_10_against_half_the_step(b):
    # the drive-4level drive (b1 a tenth of the T+/T0 gap at 23 µT) for 2000 steps
    coupling = (PHOSPHORUS.gamma_s + PHOSPHORUS.gamma_i) / 2.0
    gap_mhz = (transition_frequency(PHOSPHORUS, "T+", 23.0)
               - transition_frequency(PHOSPHORUS, "T0", 23.0))
    b0 = FieldVector(*b)
    args = (b0, gap_mhz / 10.0 / coupling, [0.0, 0.0, 1.0],
            transition_frequency(PHOSPHORUS, "T0", b0.magnitude()))
    program = pi_pulse_program(2000 * DT_S * 1e6)
    pops = simulate_4level(program, PHOSPHORUS, *args)
    halved = oracle_4level(program, *args, dt_us=DT_S * 1e6 / 2.0)
    assert max(abs(pops[k] - halved[k]) for k in pops) < 1e-10


# 256 is the block of earlier versions, larger than the default: one block may cover a pulse
@pytest.mark.parametrize("block", [1, 3, pulse._CF4_BLOCK_STEPS, 256])
@pytest.mark.parametrize("b", [(0.4, 0.0, 0.0), (0.4, 0.0, 2.0)])
def test_4level_blocks_match_the_scalar_oracle_exactly(monkeypatch, block, b):
    b0 = FieldVector(*b)
    args = (b0, 0.5, [1.0, 0.3, 1.0], transition_frequency(PHOSPHORUS, "T0", b0.magnitude()))
    monkeypatch.setattr(pulse, "_CF4_BLOCK_STEPS", block)
    pops = simulate_4level(MULTI_EVENT, PHOSPHORUS, *args)
    assert pops == oracle_4level(MULTI_EVENT, *args)
    assert 0.01 < pops["T0"] < 0.99 and pops["T+"] > 0.01  # the drive really moved it


@pytest.mark.parametrize("change, message", [
    ({"rf_frequency_mhz": math.nan}, "rf_frequency_mhz must be finite"),
    ({"rf_frequency_mhz": math.inf}, "rf_frequency_mhz must be finite"),
    ({"b1_direction": [math.nan, 0.0, 1.0]}, "drive direction must be a finite nonzero"),
    ({"b1_direction": [math.inf, 0.0, 1.0]}, "drive direction must be a finite nonzero"),
    ({"b1_direction": [0.0, 0.0, 0.0]}, "drive direction must be a finite nonzero"),
    ({"b1_direction": [0.0, 1.0]}, "drive direction must be a finite nonzero"),
    ({"program": PulseProgram(name="cycled", events=(
        Pulse(angle_rad=1.0, phase_rad=0.0, duration_s=DT_S, label="p"),),
        cycles=(PhaseCycle("p", (0.0, math.pi)),))}, "program still has phase cycles"),
    ({"program": PulseProgram(name="hard", events=(Pulse(angle_rad=math.pi, phase_rad=0.0),))},
     "pulse without duration needs a duration_s: simulate_4level has no hard pulses"),
    ({"program": PulseProgram(name="hard_last", events=(
        *MULTI_EVENT.events[:-1], Pulse(angle_rad=math.pi / 4, phase_rad=1.1)))},
     "pulse without duration needs a duration_s: simulate_4level has no hard pulses"),
    ({"program": PulseProgram(name="long", events=(
        Pulse(angle_rad=math.pi, phase_rad=0.0, duration_s=1e303),))},
     "event durations must be finite in microseconds"),
    ({"program": PulseProgram(name="late", events=(
        Pulse(angle_rad=math.pi, phase_rad=0.0, duration_s=DT_S), Delay(duration_s=1e303)))},
     "event durations must be finite in microseconds"),
    ({"b1_amplitude_mt": -0.5}, "b1_amplitude_mt must be finite and >= 0"),
    ({"b1_amplitude_mt": math.nan}, "b1_amplitude_mt must be finite and >= 0"),
])
def test_4level_rejects_bad_inputs_before_integrating(monkeypatch, change, message):
    def no_steps(*args, **kwargs):
        raise AssertionError("integration started before the inputs were checked")

    monkeypatch.setattr(pulse, "_cf4_propagators", no_steps)
    kwargs = dict(program=MULTI_EVENT, system=PHOSPHORUS, b0=FieldVector(0.4, 0.0, 2.0),
                  b1_amplitude_mt=0.5, b1_direction=[1.0, 0.0, 1.0], rf_frequency_mhz=117.5)
    kwargs.update(change)
    with pytest.raises(ValueError, match=message):
        simulate_4level(**kwargs)


def test_4level_norm_check_catches_nan():
    # a drive far too strong for the step overflows the propagators to NaN
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="lost norm: nan"):
        simulate_4level(pi_pulse_program(DT_S * 1e6), PHOSPHORUS, FieldVector(0.4, 0.0, 2.0),
                        1e300, [0.0, 0.0, 1.0], 117.5)


def test_4level_memory_follows_the_block_not_the_pulse():
    def peak_bytes(n_steps):
        program = pi_pulse_program(n_steps * DT_S * 1e6)
        tracemalloc.start()
        try:
            simulate_4level(program, PHOSPHORUS, FieldVector(0.4, 0.0, 2.0), 0.5,
                            [1.0, 0.0, 1.0], 117.5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 16 vs 64 blocks of 128 steps; 8192 step times held as Python floats would add ~260 KB
    assert peak_bytes(4 * 2048) < 1.05 * peak_bytes(2048)


# --- RF spectrum ----------------------------------------------------------------------

def test_rf_spectrum_selection_structure():
    offsets = np.linspace(-120.0, 120.0, 121)
    par = EnsembleSpec(n_members=1, seed=0, noise=NoiseModel(), transition="T0",
                       b0_magnitude_ut=4.0, b0_orientation="parallel",
                       b1_amplitude_mt=1e-3)
    perp = EnsembleSpec(n_members=1, seed=0, noise=NoiseModel(), transition="T0",
                        b0_magnitude_ut=4.0, b0_orientation="perpendicular",
                        b1_amplitude_mt=1e-3)
    spec_par = rf_spectrum(par, PHOSPHORUS, offsets).values
    spec_perp = rf_spectrum(perp, PHOSPHORUS, offsets).values
    center = np.argmin(np.abs(offsets))
    side_plus = np.argmin(np.abs(offsets - 55.9))
    # parallel drive lights up the central S->T0 line only
    assert spec_par[center] > 10 * spec_par[side_plus]
    # perpendicular drive lights up the Zeeman-split S->T+- doublet instead
    assert spec_perp[side_plus] > 10 * spec_perp[center]


def test_rf_spectrum_internal_subpopulation_adds_fixed_sidebands():
    offsets = np.linspace(-120.0, 120.0, 241)
    def spectrum(b0):
        spec = EnsembleSpec(
            n_members=300, seed=7,
            noise=NoiseModel(internal_fraction=0.4, internal_field_ut=6.0),
            transition="T0", b0_magnitude_ut=b0, b0_orientation="parallel",
            b1_amplitude_mt=1e-3,
        )
        return rf_spectrum(spec, PHOSPHORUS, offsets, kernel_fwhm_khz=6.0).values

    lo, hi = spectrum(1.0), spectrum(2.0)
    sideband = (PHOSPHORUS.gamma_s - PHOSPHORUS.gamma_i) / 2 * 6.0  # ~83.9 kHz
    window = (offsets > 60) & (offsets < 110)

    def band_centroid(values):
        return np.sum(offsets[window] * values[window]) / np.sum(values[window])

    for spec_vals in (lo, hi):
        assert abs(band_centroid(spec_vals) - sideband) < 8.0
    # position barely moves while the applied field doubles
    assert abs(band_centroid(lo) - band_centroid(hi)) < 3.0


def test_rf_spectrum_memory_follows_the_block_not_the_ensemble(monkeypatch):
    def peak_bytes(members):
        spec = EnsembleSpec(n_members=members, seed=4, noise=NoiseModel(internal_fraction=0.4),
                            transition="T0", b0_magnitude_ut=4.0,
                            b0_orientation="perpendicular")
        tracemalloc.start()
        try:
            rf_spectrum(spec, PHOSPHORUS, np.linspace(-150.0, 150.0, 601))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # default sizes: one block of 200 members against 8 blocks of up to 256,
    # near 490 and 570 KB; one block of all 2000 would peak near 1.9 MB
    assert peak_bytes(2000) < peak_bytes(200) + 128 * 1024
    monkeypatch.setattr(pulse, "_RF_BLOCK_MEMBERS", 32)
    # 1 vs 10 blocks of 32 members, both near 375 KB; one block of all 320
    # would peak near 620 KB
    assert peak_bytes(320) < 1.5 * peak_bytes(32)
