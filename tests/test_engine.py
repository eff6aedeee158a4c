"""The block-vectorised ensemble engine against its scalar oracle and closed forms.

``scalar_oracle.run_sequence`` is the single-run reference: looping it over
members, sweep points, shots and cycle programs must give the engine's
per-member p_T bit for bit, and the public ``pulse.run_sequence`` must give
its (p_S, p_T) and leave the member stream where it does.
``scalar_oracle.rf_spectrum`` is the reference of the stacked RF spectrum,
one member and one line at a time.
"""

from __future__ import annotations

import importlib.util
import math
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracle
from donorsim import csvio, pulse, seqdsl
from donorsim.noise import (
    EnsembleSpec,
    MemberEnvironment,
    NoiseModel,
    draw_member_environment,
    member_rng,
)
from donorsim.program import Delay, PhaseCycle, Pulse, PulseProgram
from donorsim.pulse import (
    TwoLevelParams,
    hahn_experiment,
    rabi_experiment,
    ramsey_experiment,
    rf_spectrum,
    two_level_params_for,
)
from donorsim.spincore import PHOSPHORUS, FieldVector

GOLDEN = pathlib.Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def engine_p_t(spec, programs, **kwargs) -> np.ndarray:
    params = two_level_params_for(spec, PHOSPHORUS)
    blocks = pulse._ensemble_blocks(spec, PHOSPHORUS, params, programs, **kwargs)
    # blocks are (K, C, members, shots); the reference is (members, K, shots, C)
    return np.concatenate(list(blocks), axis=2).transpose(2, 0, 3, 1)


def looped_p_t(spec, programs, shot_phases=None, detuning_during_pulses=False) -> np.ndarray:
    """The scalar reference: one oracle run per member, point, shot and cycle."""
    params = two_level_params_for(spec, PHOSPHORUS)
    n_shots = 1 if shot_phases is None else shot_phases.shape[1]
    out = np.zeros((spec.n_members, len(programs), n_shots, len(programs[0])))
    for i in range(spec.n_members):
        env = draw_member_environment(spec, PHOSPHORUS, i)
        for k, row in enumerate(programs):
            for j in range(n_shots):
                env.shot_phase_rad = 0.0 if shot_phases is None else float(shot_phases[k, j])
                for c, program in enumerate(row):
                    _, out[i, k, j, c] = scalar_oracle.run_sequence(
                        program, params, env, detuning_during_pulses=detuning_during_pulses)
    return out


# --- engine == run_sequence, bit for bit ------------------------------------------

_ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
_PHASES = st.floats(0.0, 2 * math.pi, allow_nan=False, exclude_max=True)
_DELAYS = st.one_of(st.just(0.0), st.floats(1e-5, 0.02))


@st.composite
def _sweeps(draw):
    """Random hard- or finite-pulse program, swept over tau and phase-cycle entries."""
    kinds = draw(st.permutations(
        ["pulse"] * draw(st.integers(1, 4)) + ["delay"] * draw(st.integers(0, 3))))
    finite = draw(st.booleans())
    events = []
    for kind in kinds:
        if kind == "pulse":
            duration = draw(st.one_of(st.none(), st.floats(1e-6, 1e-4))) if finite else None
            label = None if any(isinstance(ev, Pulse) for ev in events) else "p1"
            events.append(Pulse(angle_rad=draw(_ANGLES), phase_rad=draw(_PHASES),
                                duration_s=duration, label=label))
        elif draw(st.booleans()):
            events.append(Delay(symbol="tau"))
        else:
            events.append(Delay(duration_s=draw(_DELAYS)))
    cycles = (PhaseCycle("p1", (0.0, draw(_PHASES))),) if draw(st.booleans()) else ()
    program = PulseProgram(name="random", events=tuple(events), cycles=cycles)
    taus = draw(st.lists(_DELAYS, min_size=1, max_size=3))
    programs = [program.bind({"tau": tau}).shots() for tau in taus]
    shot_phases = None
    if draw(st.booleans()):
        n_shots = draw(st.integers(1, 3))
        shot_phases = np.array(draw(st.lists(
            _PHASES, min_size=len(taus) * n_shots, max_size=len(taus) * n_shots,
        ))).reshape(len(taus), n_shots)
    spec = EnsembleSpec(
        n_members=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32)),
        noise=NoiseModel(
            static_detuning_khz=draw(st.sampled_from([0.0, 2.0])),
            ou_sigma_khz=draw(st.sampled_from([0.0, 0.3])), ou_tau_c_s=0.01,
            internal_fraction=draw(st.sampled_from([0.0, 0.5])),
        ),
        transition="T+", b0_magnitude_ut=4.0, b0_orientation="perpendicular",
    )
    return spec, programs, shot_phases, finite


def _pinned_sweep(events, *, finite, taus=(0.0,), shot_phases=None, **noise):
    """A fixed sweep of one program over ``taus`` for the examples below."""
    program = PulseProgram(name="pinned", events=events)
    spec = EnsembleSpec(
        n_members=3, seed=5, noise=NoiseModel(ou_tau_c_s=0.01, **noise),
        transition="T+", b0_magnitude_ut=4.0, b0_orientation="perpendicular",
    )
    return spec, [program.bind({"tau": tau}).shots() for tau in taus], shot_phases, finite


# The cases the engine's short cuts from |S> must get right: a shot phase
# before a program's only pulse (so that pulse does not act on |S>), a delay
# before the first pulse, and hard pulses that never widen the state to the
# members.
_ONE_PULSE = (Pulse(angle_rad=1.1, phase_rad=0.4, duration_s=3e-5),)
_DELAY_FIRST = (Delay(symbol="tau"), Pulse(angle_rad=1.3, phase_rad=0.2),
                Delay(duration_s=2e-3), Pulse(angle_rad=0.9, phase_rad=1.0))
_HARD_PULSES = (Pulse(angle_rad=math.pi / 2, phase_rad=0.0),
                Pulse(angle_rad=math.pi, phase_rad=1.2))


@settings(max_examples=150, deadline=None)
@given(_sweeps(), st.sampled_from([1, 3, 8192]))
@example(_pinned_sweep(_ONE_PULSE, finite=False, shot_phases=np.array([[0.7, 2.9]]),
                       static_detuning_khz=2.0), 8192)
@example(_pinned_sweep(_ONE_PULSE, finite=True, shot_phases=np.array([[0.7, 2.9]]),
                       static_detuning_khz=2.0), 3)
@example(_pinned_sweep(_DELAY_FIRST, finite=True, taus=(0.0, 1e-3), static_detuning_khz=2.0,
                       ou_sigma_khz=0.3), 8192)
@example(_pinned_sweep(_HARD_PULSES, finite=False, taus=(0.0, 1e-3)), 8192)
def test_engine_matches_run_sequence_bit_for_bit(sweep, block_elements):
    spec, programs, shot_phases, finite = sweep
    saved = pulse._BLOCK_ELEMENTS
    pulse._BLOCK_ELEMENTS = block_elements
    try:
        got = engine_p_t(spec, programs, shot_phases=shot_phases,
                         detuning_during_pulses=finite)
    finally:
        pulse._BLOCK_ELEMENTS = saved
    want = looped_p_t(spec, programs, shot_phases, finite)
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("finite, members, n_shots, block_members", [
    pytest.param(False, 200, 3, None, id="False"),
    pytest.param(True, 200, 3, None, id="True"),
    # echo-max's shape: OU noise, two cycles, many shots, three members a block
    # and a last block of one
    pytest.param(False, 61, 24, 3, id="echo-max-shape"),
])
def test_engine_matches_run_sequence_on_a_larger_ensemble(
        monkeypatch, finite, members, n_shots, block_members):
    # 6000 runs or more: enough that a last-bit slip (say x*x for libm's x**2,
    # which differ on about 0.1 % of inputs) shows somewhere
    spec = EnsembleSpec(
        n_members=members, seed=31,
        noise=NoiseModel(static_detuning_khz=3.0, ou_sigma_khz=0.3, ou_tau_c_s=0.01,
                         internal_fraction=0.3),
        transition="T+", b0_magnitude_ut=4.0, b0_orientation="perpendicular",
    )
    shots = seqdsl.compile(seqdsl.parse(regen.CPMG2_TEXT)).shots()
    taus = (0.0, 2e-4, 1e-3, 3e-3, 1e-2)
    programs = [[p.bind({"tau": tau}) for p in shots] for tau in taus]
    shot_phases = np.random.default_rng(0).uniform(0.0, 2 * math.pi, (len(taus), n_shots))
    if block_members is not None:
        monkeypatch.setattr(pulse, "_BLOCK_ELEMENTS", block_members * len(taus) * n_shots * 2)
    got = engine_p_t(spec, programs, shot_phases=shot_phases, detuning_during_pulses=finite)
    want = looped_p_t(spec, programs, shot_phases, finite)
    assert got.tolist() == want.tolist()


@st.composite
def _single_runs(draw):
    """A random bound program and whether its pulses are finite."""
    finite = draw(st.booleans())
    events = []
    for kind in draw(st.lists(st.sampled_from(["pulse", "delay"]), max_size=6)):
        if kind == "pulse":
            duration = draw(st.one_of(st.none(), st.floats(1e-6, 1e-4))) if finite else None
            events.append(Pulse(angle_rad=draw(_ANGLES), phase_rad=draw(_PHASES),
                                duration_s=duration))
        else:
            events.append(Delay(duration_s=draw(_DELAYS)))
    return PulseProgram(name="random", events=tuple(events)), finite


def _program(events) -> PulseProgram:
    return PulseProgram(name="pinned", events=events)


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(_single_runs(), min_size=2, max_size=2),
    coupling=st.floats(1.0, 30.0), b1=st.floats(1e-4, 5e-3),
    offset_khz=st.floats(-50.0, 50.0), seed=st.integers(0, 2**32),
    member=st.one_of(st.none(), st.tuples(
        st.floats(-5.0, 5.0), st.sampled_from([0.0, 0.3]),
        st.one_of(st.just(0.0), _PHASES))),
)
@example(runs=[(_program(_ONE_PULSE), False), (_program(_ONE_PULSE), True)], coupling=10.0,
         b1=1e-3, offset_khz=3.0, seed=7, member=(1.5, 0.0, 0.7))
# a zero shot phase passes no shot-phase table, so the one pulse is a first column
@example(runs=[(_program(_ONE_PULSE), False), (_program(_ONE_PULSE), True)], coupling=10.0,
         b1=1e-3, offset_khz=3.0, seed=7, member=(1.5, 0.3, 0.0))
@example(runs=[(_program(_DELAY_FIRST).bind({"tau": 1e-3}), False),
               (_program(_DELAY_FIRST).bind({"tau": 1e-3}), True)],
         coupling=10.0, b1=1e-3, offset_khz=3.0, seed=7, member=(-2.0, 0.3, 0.0))
@example(runs=[(_program(_HARD_PULSES), False), (_program(_HARD_PULSES[:1]), False)],
         coupling=10.0, b1=1e-3, offset_khz=0.0, seed=7, member=None)
def test_run_sequence_matches_the_scalar_oracle_bit_for_bit(
        runs, coupling, b1, offset_khz, seed, member):
    params = TwoLevelParams(transition_frequency_mhz=117.53, rabi_coupling_mhz_per_mt=coupling,
                            b1_amplitude_mt=b1, detuning_offset_khz=offset_khz)

    def environment():
        if member is None:
            return None
        static_khz, sigma_khz, shot_phase = member
        return MemberEnvironment(rng=member_rng(seed, 0), static_detuning_khz=static_khz,
                                 ou_sigma_khz=sigma_khz, ou_tau_c_s=0.01,
                                 field=FieldVector.along_z(0.0), shot_phase_rad=shot_phase)

    # two consecutive calls on one environment: the second continues its stream
    got_env, want_env = environment(), environment()
    for program, finite in runs:
        got = pulse.run_sequence(program, params, got_env, detuning_during_pulses=finite)
        want = scalar_oracle.run_sequence(program, params, want_env,
                                          detuning_during_pulses=finite)
        assert got == want
        assert abs(got[0] + got[1] - 1.0) <= 1e-10
    if member is not None:  # and both streams go on from the same place
        assert got_env.rng.standard_normal(3).tolist() == want_env.rng.standard_normal(3).tolist()


@pytest.mark.parametrize("shot_phase, first_columns", [(0.0, 1), (-0.0, 1), (0.7, 0)])
def test_run_sequence_applies_a_shot_phase_only_when_nonzero(shot_phase, first_columns):
    # as scalar_oracle.run_sequence: no z rotation at phase 0, so one pulse
    # from |S> is its rotation's first column
    params = TwoLevelParams(transition_frequency_mhz=117.53, rabi_coupling_mhz_per_mt=10.0,
                            b1_amplitude_mt=1e-3)
    env = MemberEnvironment(rng=member_rng(7, 0), static_detuning_khz=1.5, ou_sigma_khz=0.0,
                            ou_tau_c_s=1.0, field=FieldVector.along_z(0.0),
                            shot_phase_rad=shot_phase)
    with mock.patch.object(pulse, "_first_column", wraps=pulse._first_column) as first:
        pulse.run_sequence(_program(_ONE_PULSE), params, env)
    assert first.call_count == first_columns


def _exact_norm_rule(ar, ai, p_t, shape):
    """The message of the unscreened norm check on p_S + p_T, or None when it passes."""
    total = np.broadcast_to(np.float_power(np.hypot(ar, ai), 2.0) + p_t, shape)
    lost = ~(np.abs(total - 1.0) <= 1e-10)
    if not np.any(lost):
        return None
    in_run_order = (2, 0, 3, 1)
    first = total.transpose(in_run_order)[lost.transpose(in_run_order)][0]
    return f"propagation lost norm: {float(first)!r}"


def _screened_norm_check(ar, ai, p_t, shape):
    try:
        pulse._check_norm(ar, ai, p_t, shape)
    except RuntimeError as exc:
        return str(exc)
    return None


def test_norm_screen_decides_and_reports_as_the_exact_rule():
    # totals a few ulp either side of 1 +- 1e-10, from several |S> amplitudes
    cases = []
    for edge in (1.0 + 1e-10, 1.0 - 1e-10):
        total = edge
        for _ in range(4):
            total = np.nextafter(total, -np.inf)
        for _ in range(9):
            for ar, ai in [(0.0, 0.0), (1.0, 0.0), (0.6, -0.3), (-0.25, 0.5)]:
                cases.append((ar, ai, total - float(np.float_power(math.hypot(ar, ai), 2.0))))
            total = np.nextafter(total, np.inf)
    nan, inf = float("nan"), float("inf")
    cases += [(nan, 0.0, 0.5), (0.0, nan, 1.0), (0.0, 0.0, nan), (inf, 0.0, 0.0),
              (0.0, -inf, 0.5), (0.0, 0.0, inf), (0.0, 0.0, -inf), (0.6, 0.3, -inf)]
    messages = []
    for ar, ai, p_t in cases:
        want = _exact_norm_rule(ar, ai, p_t, (1, 1, 1, 1))
        assert _screened_norm_check(ar, ai, np.float64(p_t), (1, 1, 1, 1)) == want
        messages.append(want)
    assert None in messages  # both decisions occur at the boundary
    assert "propagation lost norm: 1.0000000001000002" in messages
    for text in ("nan", "inf", "-inf"):
        assert f"propagation lost norm: {text}" in messages


def test_norm_screen_names_the_first_lost_run_in_run_order():
    shape = (2, 2, 3, 2)  # (K, C, members, shots)
    ar, ai, br, bi = np.random.default_rng(3).standard_normal((4, *shape))
    norm = np.sqrt(ar * ar + ai * ai + br * br + bi * bi)
    ar, ai, br, bi = ar / norm, ai / norm, br / norm, bi / norm
    p_t = np.float_power(np.hypot(br, bi), 2.0)
    assert _screened_norm_check(ar, ai, p_t, shape) is None
    p_t[1, 0, 0, 1] += 3e-10  # later in run order than the entry below
    want = _exact_norm_rule(ar, ai, p_t, shape)
    assert want is not None
    assert _screened_norm_check(ar, ai, p_t, shape) == want
    ar[0, 1, 0, 1] = np.nan
    want = _exact_norm_rule(ar, ai, p_t, shape)
    assert want == "propagation lost norm: nan"
    assert _screened_norm_check(ar, ai, p_t, shape) == want
    # a state that stayed (K, C, 1, 1) is checked as the runs it stands for
    small = ar[:, :, :1, 1:], ai[:, :, :1, 1:], p_t[:, :, :1, 1:]
    assert _screened_norm_check(*small, shape) == _exact_norm_rule(*small, shape) == want


def test_engine_rejects_what_run_sequence_rejects():
    spec = EnsembleSpec(n_members=1, seed=0)
    half = Pulse(angle_rad=math.pi / 2, phase_rad=0.0)
    symbolic = PulseProgram(name="s", events=(half, Delay(symbol="tau"), half))
    with pytest.raises(pulse.UnboundSymbolError):
        engine_p_t(spec, [[symbolic]])
    cycled = PulseProgram(name="c", events=(Pulse(math.pi, 0.0, label="p"),),
                          cycles=(PhaseCycle("p", (0.0, math.pi)),))
    with pytest.raises(ValueError, match="phase cycles"):
        engine_p_t(spec, [[cycled]])
    other = PulseProgram(name="o", events=(half, half))
    with pytest.raises(ValueError, match="skeleton"):
        engine_p_t(spec, [[symbolic.bind({"tau": 1e-3})], [other]])


def test_cpmg2_golden_through_the_engine():
    # the golden was written by looping the scalar oracle member by member
    spec = regen.cpmg2_spec()
    shots = seqdsl.compile(seqdsl.parse(regen.CPMG2_TEXT)).shots()
    programs = [[p.bind({"tau": tau}) for p in shots] for tau in regen.CPMG2_TAUS_S]
    p_t = engine_p_t(spec, programs)[:, :, 0, :]  # (members, K, C)
    mean = pulse._member_sum([p_t.swapaxes(0, 1)], p_t.shape[1:]) / spec.n_members
    text = csvio.render_csv(["tau_s", "p_t_cycle0", "p_t_cycle180"],
                            np.column_stack([regen.CPMG2_TAUS_S, mean]))
    assert text.encode("utf-8") == (GOLDEN / "cpmg2_run_sequence.csv").read_bytes()


# --- blocking cannot change a byte ----------------------------------------------

@pytest.mark.parametrize("block", ["one member", "all members"])
def test_block_size_does_not_change_bytes(tmp_path, monkeypatch, block):
    for name, argv in sorted(regen.CLI_CSVS.items()):
        # 1 element gives one member per block; 10**9 puts every member in one
        monkeypatch.setattr(pulse, "_BLOCK_ELEMENTS", 1 if block == "one member" else 10**9)
        monkeypatch.setattr(pulse, "_RF_BLOCK_MEMBERS", 1 if block == "one member" else 10**9)
        text = regen.cli_csv(argv, tmp_path / name)
        assert text.encode("utf-8") == (GOLDEN / name).read_bytes(), name


def test_hahn_memory_follows_the_block_not_the_ensemble():
    def peak_bytes(members):
        spec = EnsembleSpec(n_members=members, seed=4,
                            noise=NoiseModel(ou_sigma_khz=0.05, ou_tau_c_s=0.2),
                            transition="T+", b0_magnitude_ut=4.0,
                            b0_orientation="perpendicular")
        tracemalloc.start()
        try:
            hahn_experiment(spec, PHOSPHORUS, np.linspace(0.002, 0.02, 4),
                            detection="max", shots_per_point=50)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 400 runs per member: 20 members per block, so 10x the members is 10 blocks
    assert peak_bytes(400) < 1.5 * peak_bytes(40)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    n_members=st.integers(1, 12),
    b0_ut=st.sampled_from([0.0, 5e-7]) | st.floats(2.0, 23.0),
    orientation=st.sampled_from(["parallel", "perpendicular"]),
    fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    internal_ut=st.sampled_from([0.0, 6.0]) | st.floats(0.5, 20.0),
    kernel_khz=st.sampled_from([2.0, 1e-300]) | st.floats(0.01, 100.0),
    block=st.sampled_from([1, 5, pulse._RF_BLOCK_MEMBERS]),
    run=st.sampled_from([1, 7, pulse._RF_LINE_RUN]),
    one_offset=st.none() | st.floats(-100.0, 100.0),
)
# a member whose squared element differs in the last bit between
# element ** 2 (np.float_power) and element * element
@example(seed=64, n_members=12, b0_ut=4.0, orientation="perpendicular", fraction=1.0,
         internal_ut=6.0, kernel_khz=2.0, block=5, run=7, one_offset=None)
# one offset: a lone column of terms, which np.add.reduce would sum pairwise
@example(seed=1, n_members=12, b0_ut=4.0, orientation="perpendicular", fraction=1.0,
         internal_ut=6.0, kernel_khz=2.0, block=5, run=pulse._RF_LINE_RUN, one_offset=3.7)
def test_rf_spectrum_matches_the_per_member_oracle(
    seed, n_members, b0_ut, orientation, fraction, internal_ut, kernel_khz, block, run,
    one_offset,
):
    spec = EnsembleSpec(n_members=n_members, seed=seed, transition="T0",
                        b0_magnitude_ut=b0_ut, b0_orientation=orientation,
                        noise=NoiseModel(internal_fraction=fraction,
                                         internal_field_ut=internal_ut))
    offsets = np.linspace(-700.0, 700.0, 301) if one_offset is None else np.array([one_offset])
    want = scalar_oracle.rf_spectrum(spec, PHOSPHORUS, offsets, kernel_fwhm_khz=kernel_khz)
    with mock.patch.object(pulse, "_RF_BLOCK_MEMBERS", block), \
            mock.patch.object(pulse, "_RF_LINE_RUN", run):
        got = rf_spectrum(spec, PHOSPHORUS, offsets, kernel_fwhm_khz=kernel_khz)
    assert got.values.tobytes() == want.tobytes()


# --- closed forms ------------------------------------------------------------------

def test_ramsey_matches_gaussian_static_disorder_closed_form():
    sigma_khz, members = 1.5, 4000
    spec = EnsembleSpec(n_members=members, seed=12,
                        noise=NoiseModel(static_detuning_khz=sigma_khz),
                        transition="T0", b0_magnitude_ut=0.0)
    taus = np.linspace(0.0, 4e-4, 9)
    curve = ramsey_experiment(spec, PHOSPHORUS, taus)
    # p_T = (1 + cos phi)/2 with phi ~ N(0, s^2), s = 2 pi sigma tau
    s2 = (2 * math.pi * sigma_khz * 1e3 * taus) ** 2
    mean = (1 + np.exp(-s2 / 2)) / 2
    var = ((1 + np.exp(-2 * s2)) / 2 - np.exp(-s2)) / 4
    assert curve.values[0] == 1.0
    assert np.all(np.abs(curve.values - mean) <= 5 * np.sqrt(var / members) + 1e-12)


def test_disorder_free_rabi_is_sin_squared():
    spec = EnsembleSpec(n_members=5, seed=3, transition="T+", b0_magnitude_ut=4.0,
                        b0_orientation="perpendicular")
    omega = two_level_params_for(spec, PHOSPHORUS).omega_rad_per_s
    lengths = np.linspace(0.0, 3 * 2 * math.pi / omega, 37)
    curve = rabi_experiment(spec, PHOSPHORUS, lengths)
    assert np.allclose(curve.values, np.sin(omega * lengths / 2) ** 2, rtol=0, atol=1e-12)
