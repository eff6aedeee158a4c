"""Member streams, frozen disorder, and Ornstein-Uhlenbeck noise."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scalar_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_oracle import ou_step

from donorsim import noise as noise_mod
from donorsim import pulse, spincore
from donorsim.fitkit import stretched_exp_model
from donorsim.noise import (
    COMMON_STREAM_INDEX,
    EnsembleSpec,
    EnvironmentPass,
    NoiseModel,
    _integral_variance_factor,
    common_rng,
    draw_member_environment,
    member_rng,
    sensitivity_factor,
)
from donorsim.spincore import GAMMA_I_MHZ_PER_MT, GAMMA_S_MHZ_PER_MT, PHOSPHORUS, eigensystems


# --- streams -----------------------------------------------------------------

def test_member_streams_are_deterministic_and_distinct():
    a1 = member_rng(42, 7).standard_normal(4)
    a2 = member_rng(42, 7).standard_normal(4)
    b = member_rng(42, 8).standard_normal(4)
    c = member_rng(43, 7).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_common_stream_is_reserved_index():
    assert np.array_equal(
        common_rng(5).standard_normal(3),
        member_rng(5, COMMON_STREAM_INDEX).standard_normal(3),
    )
    # far outside any plausible member count
    assert COMMON_STREAM_INDEX >= 2**62


def test_member_environment_independent_of_ensemble_size():
    noise = NoiseModel(static_detuning_khz=3.0, internal_fraction=0.5)
    small = EnsembleSpec(n_members=10, seed=9, noise=noise, b0_magnitude_ut=4.0)
    large = EnsembleSpec(n_members=10_000, seed=9, noise=noise, b0_magnitude_ut=4.0)
    for index in (0, 3, 9):
        env_a = draw_member_environment(small, PHOSPHORUS, index)
        env_b = draw_member_environment(large, PHOSPHORUS, index)
        assert env_a.static_detuning_khz == env_b.static_detuning_khz
        assert env_a.field.as_array().tolist() == env_b.field.as_array().tolist()


def test_static_draw_unchanged_by_internal_subpopulation_setting():
    # draw order is fixed, so switching the subpopulation on cannot shift
    # the static-detuning deviate of any member
    base = NoiseModel(static_detuning_khz=2.0, internal_fraction=0.0)
    with_pop = NoiseModel(static_detuning_khz=2.0, internal_fraction=1.0,
                          internal_field_ut=6.0)
    spec_a = EnsembleSpec(n_members=4, seed=11, noise=base, b0_magnitude_ut=4.0)
    spec_b = EnsembleSpec(n_members=4, seed=11, noise=with_pop, b0_magnitude_ut=4.0)
    for index in range(4):
        env_a = draw_member_environment(spec_a, PHOSPHORUS, index)
        env_b = draw_member_environment(spec_b, PHOSPHORUS, index)
        # member b sees an extra line shift on top of the same deviate, and
        # the extra shift comes only from its internal field
        assert env_b.static_detuning_khz != pytest.approx(env_a.static_detuning_khz) or \
            env_b.field.magnitude() == pytest.approx(4.0)
        assert env_a.field.magnitude() == pytest.approx(4.0)


def test_internal_field_adds_vectorially():
    noise = NoiseModel(internal_fraction=1.0, internal_field_ut=6.0)
    spec = EnsembleSpec(n_members=64, seed=1, noise=noise, b0_magnitude_ut=4.0)
    magnitudes = [
        draw_member_environment(spec, PHOSPHORUS, i).field.magnitude()
        for i in range(spec.n_members)
    ]
    assert min(magnitudes) >= 2.0 - 1e-9   # |6 - 4|
    assert max(magnitudes) <= 10.0 + 1e-9  # 6 + 4
    assert np.std(magnitudes) > 0.5  # directions genuinely random


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    n_members=st.integers(1, 8),
    b0_ut=st.sampled_from([0.0, 5e-7, 4.0]),
    fraction=st.floats(0.0, 1.0),
    internal_ut=st.sampled_from([0.0, 3e-7, 6.0, 40.0]),
    static_khz=st.sampled_from([0.0, 1.5]),
    ou_sigma_khz=st.sampled_from([0.0, 0.05]),
    transition=st.sampled_from(["T-", "T0", "T+"]),
    block=st.sampled_from([1, 3, "default"]),
)
def test_block_pass_matches_per_member_draws_and_eigensolves(
    seed, n_members, b0_ut, fraction, internal_ut, static_khz, ou_sigma_khz, transition, block
):
    spec = EnsembleSpec(
        n_members=n_members, seed=seed, transition=transition, b0_magnitude_ut=b0_ut,
        noise=NoiseModel(static_detuning_khz=static_khz, ou_sigma_khz=ou_sigma_khz,
                         internal_fraction=fraction, internal_field_ut=internal_ut),
    )
    size = pulse._RF_BLOCK_MEMBERS if block == "default" else block
    envs = EnvironmentPass(spec, PHOSPHORUS)
    got = []
    for members in envs.blocks(size):
        assert 1 <= len(members.fields) <= size
        assert members.normals.shape == (len(members.fields), 0)
        energies, vectors = eigensystems(PHOSPHORUS, members.fields)
        got += zip(members.detunings_khz.tolist(), members.fields, energies, vectors)
    assert len(got) == n_members
    for index, (detuning, field, energies, vectors) in enumerate(got):
        want = scalar_oracle.draw_member_environment(spec, PHOSPHORUS, index)
        public = draw_member_environment(spec, PHOSPHORUS, index)
        want_energies, want_vectors = scalar_oracle.eigensystem(PHOSPHORUS, want.field)
        for other in (want, public):
            assert field.tolist() == other.field.as_array().tolist()
            assert (detuning, envs.ou_sigma_khz, spec.noise.ou_tau_c_s) == (
                other.static_detuning_khz, other.ou_sigma_khz, other.ou_tau_c_s)
        assert energies.tolist() == want_energies.tolist()
        assert vectors.tolist() == want_vectors.tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    n_members=st.integers(1, 80),
    b0_ut=st.sampled_from([0.0, 5e-7]) | st.floats(0.0, 30.0),
    fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    internal_ut=st.sampled_from([0.0, 5e-7, 6.0]) | st.floats(0.0, 50.0),
    static_khz=st.sampled_from([0.0, 1.5]),
    transition=st.sampled_from(["T-", "T0", "T+"]),
    size=st.sampled_from([1, 7, 80]),
)
# member 10's cos(theta) squares differently as c * c and as c ** 2, and its
# sin(theta) differs with them
@example(seed=96, n_members=11, b0_ut=4.0, fraction=1.0, internal_ut=6.0, static_khz=1.5,
         transition="T+", size=7)
def test_block_arrays_equal_the_per_member_oracle(
    seed, n_members, b0_ut, fraction, internal_ut, static_khz, transition, size
):
    # the array pass of EnvironmentPass.draw against the scalar draws, on
    # blocks long enough for numpy's vector loops
    spec = EnsembleSpec(
        n_members=n_members, seed=seed, transition=transition, b0_magnitude_ut=b0_ut,
        noise=NoiseModel(static_detuning_khz=static_khz, internal_fraction=fraction,
                         internal_field_ut=internal_ut),
    )
    blocks = list(EnvironmentPass(spec, PHOSPHORUS).blocks(size))
    want = [scalar_oracle.draw_member_environment(spec, PHOSPHORUS, index)
            for index in range(n_members)]
    fields = np.concatenate([members.fields for members in blocks])
    detunings = np.concatenate([members.detunings_khz for members in blocks])
    assert fields.tobytes() == np.array([env.field.as_array() for env in want]).tobytes()
    assert detunings.tobytes() == np.array([env.static_detuning_khz for env in want]).tobytes()


def test_the_pass_draws_without_a_transition_frequency_call(monkeypatch):
    # the line shifts of a block come from one stacked closed-form call
    spec = EnsembleSpec(n_members=300, seed=8, b0_magnitude_ut=4.0, transition="T+",
                        noise=NoiseModel(internal_fraction=1.0))
    envs = EnvironmentPass(spec, PHOSPHORUS)
    calls, transition_frequency = [], spincore.transition_frequency

    def counted(*args):
        calls.append(args)
        return transition_frequency(*args)

    monkeypatch.setattr(noise_mod.spincore, "transition_frequency", counted)
    blocks = list(envs.blocks(256))
    assert calls == []
    shifts = np.concatenate([members.detunings_khz for members in blocks])
    assert np.count_nonzero(shifts) == spec.n_members  # every member's line moved


def _pass_left_mid_buffer(spec: EnsembleSpec, n_random: int) -> EnvironmentPass:
    """A pass whose previous member stopped halfway through a Philox output
    block of four words, with a 32-bit half-word buffered."""
    envs = EnvironmentPass(spec, PHOSPHORUS)
    envs._rng.random(n_random)
    envs._rng.integers(2**32, dtype=np.uint32)
    state = envs._bitgen.state
    assert (state["buffer_pos"], state["has_uint32"]) == (2, 1)
    return envs


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    drawn_index=st.integers(0, 2**63 - 1),
    n_random=st.integers(0, 3).map(lambda n: 4 * n + 1),  # an odd count that ends mid-block
    n_draws=st.integers(1, 80),
)
def test_restarted_pass_generator_is_the_member_stream(seed, drawn_index, n_random, n_draws):
    spec = EnsembleSpec(n_members=1, seed=seed, b0_magnitude_ut=4.0,
                        noise=NoiseModel(static_detuning_khz=1.5, internal_fraction=0.5))
    for index in (drawn_index, 0, 2**63 - 1, COMMON_STREAM_INDEX):
        envs = _pass_left_mid_buffer(spec, n_random)
        noise_mod._restart(envs._bitgen, seed, index)
        fresh = member_rng(seed, index)
        for draw in (lambda g: g.integers(2**32, dtype=np.uint32, size=5),
                     lambda g: g.random(29), lambda g: g.standard_normal(30)):
            assert draw(envs._rng).tolist() == draw(fresh).tolist()

        # the normals that follow a member's four environment draws
        block = _pass_left_mid_buffer(spec, n_random).draw(index, index + 1, n_draws)
        want = scalar_oracle.draw_member_environment(spec, PHOSPHORUS, index)
        public = draw_member_environment(spec, PHOSPHORUS, index)
        assert block.detunings_khz.tolist() == [want.static_detuning_khz]
        normals = block.normals[0].tolist()
        assert normals == want.rng.standard_normal(n_draws).tolist()
        assert normals == public.rng.standard_normal(n_draws).tolist()


def test_an_ensemble_builds_as_many_philox_generators_at_any_size(monkeypatch):
    built = []

    class Philox(noise_mod.Philox):  # numpy's state setter checks the class name
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(noise_mod, "Philox", Philox)
    taus = np.linspace(0.01, 0.2, 64)  # 64 members per engine block
    offsets = np.linspace(-50.0, 50.0, 5)
    counts = []
    for n_members in (3, 150):
        echo = EnsembleSpec(n_members=n_members, seed=4, transition="T+",
                            b0_magnitude_ut=4.0, b0_orientation="perpendicular",
                            noise=NoiseModel(static_detuning_khz=0.5, ou_sigma_khz=0.05,
                                             ou_tau_c_s=0.2))
        spectrum = EnsembleSpec(n_members=2 * n_members, seed=4, b0_magnitude_ut=4.0,
                                b0_orientation="perpendicular",
                                noise=NoiseModel(internal_fraction=0.4))
        built.clear()
        pulse.hahn_experiment(echo, PHOSPHORUS, taus)
        pulse.rf_spectrum(spectrum, PHOSPHORUS, offsets)  # 300 members: two blocks
        counts.append(len(built))
    assert counts[0] == counts[1] >= 1


def test_ou_sigma_scaled_by_line_sensitivity():
    noise = NoiseModel(ou_sigma_khz=1.0, ou_tau_c_s=0.3)
    clock = EnsembleSpec(n_members=1, seed=0, noise=noise, transition="T0",
                         b0_magnitude_ut=4.0)
    sensitive = EnsembleSpec(n_members=1, seed=0, noise=noise, transition="T+",
                             b0_magnitude_ut=4.0)
    env_clock = draw_member_environment(clock, PHOSPHORUS, 0)
    env_plus = draw_member_environment(sensitive, PHOSPHORUS, 0)
    # T+- slope ~ (gs-gi)/2 => factor ~1; T0 at 4 µT is ~500x protected
    assert env_plus.ou_sigma_khz == pytest.approx(1.0, rel=2e-3)
    assert env_clock.ou_sigma_khz < 3e-3


def test_sensitivity_factor_values():
    assert sensitivity_factor(PHOSPHORUS, "T+", 0.0) == pytest.approx(1.0, rel=1e-6)
    assert sensitivity_factor(PHOSPHORUS, "T-", 0.0) == pytest.approx(1.0, rel=1e-6)
    curvature = (GAMMA_S_MHZ_PER_MT + GAMMA_I_MHZ_PER_MT) ** 2 / 117.53 * 1e-3
    expected = curvature * 4.0 / ((GAMMA_S_MHZ_PER_MT - GAMMA_I_MHZ_PER_MT) / 2.0)
    assert sensitivity_factor(PHOSPHORUS, "T0", 4.0) == pytest.approx(expected, rel=0.01)


# --- OU process ----------------------------------------------------------------

def test_integral_variance_factor_series_matches_closed_form_at_boundary():
    # the series branch takes over below 0.01; both branches agree there
    for eps in (0.009, 0.0099999, 0.01, 0.0100001, 0.02):
        series = eps**3 * (2/3 - eps/2 + 7*eps**2/30 - eps**3/12)
        closed = 2*eps - 3 + 4*math.exp(-eps) - math.exp(-2*eps)
        assert _integral_variance_factor(eps) == pytest.approx(series, rel=1e-7)
        assert _integral_variance_factor(eps) == pytest.approx(closed, rel=1e-6)


def test_ou_step_moments_match_brute_force_euler():
    # oracle: fine-step Euler-Maruyama integration of the same process
    sigma, tau_c, dt = 1.3, 0.5, 0.3
    n = 40_000
    h = 1e-3
    steps = int(round(dt / h))
    rng = np.random.default_rng(2024)
    x = sigma * rng.standard_normal(n)  # stationary start
    x0 = x.copy()
    integral = np.zeros(n)
    drift = math.exp(-h / tau_c)
    kick = sigma * math.sqrt(1.0 - drift * drift)
    for _ in range(steps):
        integral += x * h
        x = x * drift + kick * rng.standard_normal(n)

    mu = math.exp(-dt / tau_c)
    var_x = sigma**2 * (1 - mu**2)
    var_i = sigma**2 * tau_c**2 * (2*dt/tau_c - 3 + 4*mu - mu**2)
    cov = sigma**2 * tau_c * (1 - mu) ** 2

    # brute force agrees with the closed-form conditional moments
    resid_x = x - x0 * mu
    resid_i = integral - x0 * tau_c * (1 - mu)
    assert np.var(resid_x) == pytest.approx(var_x, rel=0.05)
    assert np.var(resid_i) == pytest.approx(var_i, rel=0.05)
    assert np.mean(resid_x * resid_i) == pytest.approx(cov, rel=0.08)

    # and ou_step realizes exactly those moments
    rng2 = np.random.default_rng(7)
    xs, ints = [], []
    for _ in range(40_000):
        nx, ni = ou_step(0.7, dt, sigma, tau_c, rng2)
        xs.append(nx)
        ints.append(ni)
    xs, ints = np.asarray(xs), np.asarray(ints)
    assert np.mean(xs) == pytest.approx(0.7 * mu, abs=3 * math.sqrt(var_x / 40_000) * 1.5)
    assert np.var(xs) == pytest.approx(var_x, rel=0.05)
    assert np.var(ints) == pytest.approx(var_i, rel=0.05)
    assert np.mean((xs - 0.7*mu) * (ints - 0.7*tau_c*(1-mu))) == pytest.approx(cov, rel=0.08)


def test_ou_step_subdivision_invariance_in_distribution():
    # one exact step over dt and two over dt/2 give the same joint law
    sigma, tau_c, dt = 1.0, 0.4, 0.5
    n = 30_000
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(12)
    single = np.array([ou_step(0.0, dt, sigma, tau_c, rng_a) for _ in range(n)])
    halves = []
    for _ in range(n):
        x_mid, i1 = ou_step(0.0, dt / 2, sigma, tau_c, rng_b)
        x_end, i2 = ou_step(x_mid, dt / 2, sigma, tau_c, rng_b)
        halves.append((x_end, i1 + i2))
    halves = np.asarray(halves)
    for col in (0, 1):
        assert np.var(single[:, col]) == pytest.approx(np.var(halves[:, col]), rel=0.06)
    assert np.mean(single[:, 0] * single[:, 1]) == pytest.approx(
        np.mean(halves[:, 0] * halves[:, 1]), rel=0.1)


def test_ou_step_zero_sigma_consumes_no_randomness():
    rng = member_rng(3, 0)
    new_x, integral = ou_step(0.0, 1.0, 0.0, 0.5, rng)
    assert new_x == 0.0 and integral == 0.0
    # the next draw equals a fresh stream's first draw: nothing was consumed
    assert rng.standard_normal() == member_rng(3, 0).standard_normal()


def ou_path_phase(sigma, tau_c, duration, dt, rng):
    """Final phase of a stationary OU path stepped with ou_step on a dt grid."""
    x = sigma * float(rng.standard_normal()) if sigma > 0.0 else 0.0
    acc = 0.0
    for _ in range(int(math.ceil(duration / dt - 1e-12))):
        x, integral = ou_step(x, dt, sigma, tau_c, rng)
        acc += integral
    return x, 2.0 * math.pi * 1e3 * acc


def test_ou_step_path_stationarity_and_phase():
    sigma, tau_c = 2.0, 0.2
    duration, dt = 1.0, 0.05
    rng = np.random.default_rng(5)
    final = np.array([ou_path_phase(sigma, tau_c, duration, dt, rng) for _ in range(3000)])
    # the path stays stationary: the final value keeps variance sigma^2
    assert np.var(final[:, 0]) == pytest.approx(sigma**2, rel=0.08)
    # free-evolution phase variance: (2 pi 1e3 sigma)^2 * 2 tau_c *
    #   (T - tau_c (1 - exp(-T/tau_c)))
    scale = (2 * math.pi * 1e3 * sigma) ** 2
    expected = scale * 2 * tau_c * (duration - tau_c * (1 - math.exp(-duration / tau_c)))
    assert np.var(final[:, 1]) == pytest.approx(expected, rel=0.08)
    assert np.mean(final[:, 1]) == pytest.approx(0.0, abs=4 * math.sqrt(expected / 3000))


def test_ou_step_zero_sigma_path_is_flat():
    assert ou_path_phase(0.0, 1.0, 1.0, 0.1, member_rng(0, 0)) == (0.0, 0.0)


# --- envelopes and validation ----------------------------------------------------

def test_stretched_envelope_values():
    # hahn_experiment's phenomenological envelope: the fitted law at amplitude 1
    assert stretched_exp_model(0.0, 1.0, 10.0, 1.8) == pytest.approx(1.0)
    assert stretched_exp_model(5.0, 1.0, 10.0, 1.8) == pytest.approx(math.exp(-1.0))
    assert stretched_exp_model(5.0, 1.0, 10.0, 1.0) == pytest.approx(math.exp(-1.0))
    # n > 1 decays slower before T2/2 and faster after
    assert stretched_exp_model(2.0, 1.0, 10.0, 1.8) > stretched_exp_model(2.0, 1.0, 10.0, 1.0)
    assert stretched_exp_model(9.0, 1.0, 10.0, 1.8) < stretched_exp_model(9.0, 1.0, 10.0, 1.0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(ou_sigma_khz=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(ou_tau_c_s=0.0)
    with pytest.raises(ValueError):
        NoiseModel(internal_fraction=1.5)
    with pytest.raises(ValueError):
        NoiseModel(phenomenological_t2_s=-2.0)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n_members=0, seed=0)
    with pytest.raises(ValueError):
        EnsembleSpec(n_members=1, seed=-1)
    with pytest.raises(ValueError):
        EnsembleSpec(n_members=1, seed=0, transition="X")
    with pytest.raises(ValueError):
        EnsembleSpec(n_members=1, seed=0, b0_orientation="diagonal")


def test_ensemble_spec_rejects_a_field_whose_square_overflows():
    with pytest.raises(ValueError, match="field magnitude up to 1e\\+160 µT overflows"):
        EnsembleSpec(n_members=1, seed=0, b0_magnitude_ut=1e160)
    with pytest.raises(ValueError, match="overflows its square"):
        EnsembleSpec(n_members=1, seed=0, b0_magnitude_ut=1e150,
                     noise=NoiseModel(internal_fraction=0.1, internal_field_ut=1e154))
    # no member carries the internal field, and the nominal one squares finely
    EnsembleSpec(n_members=1, seed=0, b0_magnitude_ut=1e154,
                 noise=NoiseModel(internal_fraction=0.0, internal_field_ut=1e160))
