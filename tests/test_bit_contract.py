"""The floating-point spellings the byte contract relies on, one test each.

Every array spelling below replaces a Python-scalar computation that an
oracle in ``scalar_oracle.py`` or a golden still pins; each test compares
the two with ``==`` on inputs like those the package feeds them, and names
the code that depends on the spelling.  If numpy or libm changes one of
them, the failure names the spelling instead of showing up as a golden diff.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_oracle import rf_matrix_element

from donorsim import fitkit, pulse, spincore
from donorsim.config import DRIVE_DIRECTIONS
from donorsim.noise import EnsembleSpec
from donorsim.spincore import LABELS, PHOSPHORUS, REFERENCE_FIELD_UT, TRIPLET_LABELS, FieldVector

#: Uniform deviates in [0, 1) as the environment pass draws them, plus the ends.
UNIFORMS = np.concatenate([
    np.random.Generator(np.random.Philox(key=7)).random(20_003),
    [0.0, 5e-324, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)],
])


def test_np_cos_and_sin_equal_math_cos_and_sin_on_azimuths():
    # noise.EnvironmentPass.draw: the internal field's azimuthal components
    azimuths = 2.0 * math.pi * UNIFORMS
    assert np.cos(azimuths).tolist() == [math.cos(a) for a in azimuths.tolist()]
    assert np.sin(azimuths).tolist() == [math.sin(a) for a in azimuths.tolist()]


def test_numpy_sin_theta_equals_math_sqrt_of_max():
    # noise.EnvironmentPass.draw: sin(theta) from cos(theta) = 2u - 1
    cos_theta = 2.0 * UNIFORMS - 1.0
    got = np.sqrt(np.maximum(0.0, 1.0 - np.float_power(cos_theta, 2.0)))
    assert got.tolist() == [math.sqrt(max(0.0, 1.0 - c**2)) for c in cos_theta.tolist()]


def _squares_that_a_product_rounds_differently() -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=11))
    values = rng.standard_normal(200_000) * 20.0
    return np.array([v for v in values.tolist() if v * v != v**2])


def test_float_power_square_is_libm_pow_not_a_product():
    # spincore.field_magnitudes and pulse.rf_spectrum's squared elements: b ** 2
    # is libm's pow, which rounds some squares differently from b * b
    values = _squares_that_a_product_rounds_differently()
    assert values.size > 0
    assert np.float_power(values, 2.0).tolist() == [v**2 for v in values.tolist()]
    assert (values * values).tolist() != [v**2 for v in values.tolist()]


def test_float_power_square_sum_and_sqrt_equal_field_vector_magnitude():
    # spincore.field_magnitudes: |B| of the environment pass and of the
    # reference-field mask in spincore.eigensystems
    awkward = _squares_that_a_product_rounds_differently()[:300]
    rng = np.random.Generator(np.random.Philox(key=12))
    fields = np.concatenate([
        rng.standard_normal((3000, 3)) * 10.0,
        awkward.reshape(-1, 3),
        [[0.0, 0.0, 0.0], [0.0, 0.0, 5e-7], [3e-7, -4e-7, 0.0], [-0.0, 0.0, 4.0]],
    ])
    want = [FieldVector(*row).magnitude() for row in fields.tolist()]
    assert spincore.field_magnitudes(fields).tolist() == want


@pytest.mark.parametrize("label", spincore.TRIPLET_LABELS)
def test_stacked_breit_rabi_equals_scalar_transition_frequency(label):
    # noise.EnvironmentPass.draw: one spincore._line_mhz call for a block's line shifts
    rng = np.random.Generator(np.random.Philox(key=13))
    b_ut = np.concatenate([rng.random(5000) * 60.0, [0.0, 5e-7, 1e-6, 4.0, 23.0]])
    got = spincore._line_mhz(PHOSPHORUS, label, b_ut / spincore.UT_PER_MT)
    assert got.tolist() == [spincore.transition_frequency(PHOSPHORUS, label, b)
                            for b in b_ut.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1e150), st.sampled_from(TRIPLET_LABELS))
@example(0.0, "T0")
@example(REFERENCE_FIELD_UT, "T+")
@example(4.0, "T-")
def test_one_closed_form_call_over_three_fields_equals_three_scalar_calls(b_ut, label):
    # spincore.clock_sensitivity: one spincore._line_mhz call over
    # [b + h, b - h, b], where it made one scalar call per field
    b_mt = b_ut / spincore.UT_PER_MT
    h = 1e-4 * (PHOSPHORUS.hyperfine_a / (PHOSPHORUS.gamma_s + PHOSPHORUS.gamma_i))
    points = [b_mt + h, b_mt - h, b_mt]
    f_plus, f_minus, f_mid = (float(spincore._line_mhz(PHOSPHORUS, label, b)) for b in points)
    got = spincore._line_mhz(PHOSPHORUS, label, np.array(points))
    assert got.tolist() == [f_plus, f_minus, f_mid]
    assert spincore.clock_sensitivity(PHOSPHORUS, label, b_ut) == (
        (f_plus - f_minus) / (2.0 * h), (f_plus + f_minus - 2.0 * f_mid) / (h * h) * 1e-3)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1e150))
@example(0.0)
@example(1e-7)
@example(float(np.nextafter(REFERENCE_FIELD_UT, 0.0)))
@example(REFERENCE_FIELD_UT)
@example(1.0000001e-6)
@example(4.0)
@example(1e150)
def test_line_read_along_z_equals_the_transition_table(b_ut):
    # pulse._rabi_omega: one line read through spincore.eigensystems,
    # singlet_triplet_lines and a drive of config.DRIVE_DIRECTIONS, where it
    # picked the parallel element of spincore.transition_table at a field
    # along z, or the per-field oracle's perpendicular element; a line of
    # zero Rabi frequency is not driven
    table = spincore.transition_table(PHOSPHORUS, FieldVector.along_z(b_ut))
    _, vectors = spincore.eigensystems(PHOSPHORUS, np.array([[0.0, 0.0, b_ut]]))
    for orientation, direction in DRIVE_DIRECTIONS.items():
        for line in table:
            spec = EnsembleSpec(n_members=1, seed=0, transition=line.to_label,
                                b0_magnitude_ut=b_ut, b0_orientation=orientation)
            element = (line.element_parallel_mhz_per_mt if orientation == "parallel" else
                       rf_matrix_element(vectors[0], PHOSPHORUS, direction, line.to_label))
            want = 2.0 * math.pi * element * spec.b1_amplitude_mt * 1e6
            if want == 0.0:
                with pytest.raises(ValueError, match="is not driven"):
                    pulse._rabi_omega(spec, PHOSPHORUS)
            else:
                assert pulse._rabi_omega(spec, PHOSPHORUS) == want


def test_add_reduce_over_a_lone_long_axis_is_pairwise():
    # why pulse._ensemble_mean adds with np.add.accumulate and pulse.rf_spectrum
    # pads a lone offset to two columns: np.add.reduce over an axis that is
    # the only long one sums pairwise, not in order
    column = np.array([1.0] + [1e-16] * 15)[:, None]
    ordered = 0.0
    for value in column[:, 0].tolist():
        ordered += value
    assert ordered == 1.0
    assert np.add.reduce(column, axis=0).tolist() != [ordered]
    assert np.add.reduce(np.repeat(column, 2, axis=1), axis=0).tolist() == [ordered, ordered]
    assert np.add.accumulate(column, axis=0)[-1].tolist() == [ordered]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-300, 1e300) | st.sampled_from([0.5, 1.5, 2.5]),
                min_size=1, max_size=7))
def test_sorted_list_median_equals_np_median(widths):
    # fitkit._extrema_start's minimum peak gap, taken without np.median
    assert fitkit._median(widths) == float(np.median(widths))


def _unit_spinors(n: int, key: int) -> np.ndarray:
    """(4, n) real and imaginary parts (a_re, a_im, b_re, b_im) of random unit spinors."""
    z = np.random.Generator(np.random.Philox(key=key)).standard_normal((4, n))
    return z / np.sqrt(np.sum(z * z, axis=0))


def test_float_power_of_hypot_equals_abs_complex_squared():
    # pulse._program_runner's p_T and its exact norm rule's p_S against
    # scalar_oracle.run_sequence's abs(b) ** 2 and abs(a) ** 2; np.abs of a
    # complex array is not Python's abs, so the engine squares np.hypot of
    # the parts instead
    ar, ai, br, bi = _unit_spinors(50_000, key=21)
    re = np.concatenate([ar, br, [0.0, -0.0, 1.0, 5e-324, 1e-200, 0.6]])
    im = np.concatenate([ai, bi, [0.0, 0.0, -0.0, 0.0, 3e-201, 0.8]])
    want = [abs(complex(r, i)) ** 2 for r, i in zip(re.tolist(), im.tolist())]
    assert np.float_power(np.hypot(re, im), 2.0).tolist() == want
    assert np.float_power(np.abs(re + 1j * im), 2.0).tolist() != want


def test_first_column_equals_rotate_arrays_of_the_singlet():
    # pulse._program_runner: a first pulse from |S> is its rotation's first
    # column; == holds +0.0 and -0.0 equal, the one difference allowed
    rng = np.random.Generator(np.random.Philox(key=22))
    n = 20_000
    phase = 2.0 * math.pi * rng.random(n)
    tilt = rng.random(n)  # finite pulses: an axis with a z part
    scale = np.sqrt(1.0 - np.float_power(tilt, 2.0))
    axes = {
        "hard": (np.cos(phase), np.sin(phase), 0.0),
        "finite": (scale * np.cos(phase), scale * np.sin(phase), tilt),
    }
    angle = np.concatenate([4.0 * math.pi * rng.random(n - 4) - 2.0 * math.pi,
                            [0.0, math.pi, -math.pi, 2.0 * math.pi]])
    ones, zeros = np.ones(n), np.zeros(n)
    for nx, ny, nz in axes.values():
        got = pulse._first_column(nx, ny, nz, angle)
        want = pulse._rotate_arrays(ones, zeros, zeros, zeros, nx, ny, nz, angle)
        for g, w in zip(got, want):
            assert g.tolist() == w.tolist()


def test_singlet_as_scalars_equals_arrays_of_ones_and_zeros():
    # pulse._program_runner starts from the Python floats 1.0 and 0.0: numpy
    # treats them as float64 operands, so a rotation or a delay phase gives
    # the bits, zero signs included, that full arrays of ones and zeros give
    rng = np.random.Generator(np.random.Philox(key=23))
    n = 20_000
    phase = np.concatenate([1e3 * rng.standard_normal(n - 3), [0.0, -0.0, math.pi]])
    ones, zeros = np.ones(n), np.zeros(n)
    cases = [
        (pulse._phase_arrays(1.0, 0.0, 0.0, 0.0, phase),
         pulse._phase_arrays(ones, zeros, zeros, zeros, phase)),
        (pulse._rotate_arrays(1.0, 0.0, 0.0, 0.0, np.cos(phase), np.sin(phase), 0.0, phase),
         pulse._rotate_arrays(ones, zeros, zeros, zeros, np.cos(phase), np.sin(phase), 0.0,
                              phase)),
    ]
    for got, want in cases:
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))


def test_norm_screen_stays_far_below_its_margin():
    # pulse._check_norm: the screen (ar*ar + ai*ai) + p_T against the exact
    # total float_power(hypot(ar, ai), 2.0) + p_T; the 1e-14 margin of
    # pulse._NORM_SCREEN must hold the largest gap many times over
    ar, ai, br, bi = _unit_spinors(1_000_000, key=24)
    p_t = np.float_power(np.hypot(br, bi), 2.0)
    screen = (ar * ar + ai * ai) + p_t
    exact = np.float_power(np.hypot(ar, ai), 2.0) + p_t
    gap = float(np.max(np.abs(screen - exact)))
    assert gap <= 2.0 * np.spacing(1.0)
    assert gap < (1e-10 - pulse._NORM_SCREEN) / 10.0


def _drive_4level_node_phases() -> np.ndarray:
    """The CF4 drive phases 2 pi f t of the benchmark's drive-4level pi pulses.

    The pulse is acceptance test 8's: b1 a tenth of the T+/T0 gap at 23 uT,
    at the fields (0.4, 0, 23) and (0.4, 0, 0) uT; the node times are built
    as ``simulate_4level`` and ``_cf4_propagators`` build them.
    """
    coupling = (PHOSPHORUS.gamma_s + PHOSPHORUS.gamma_i) / 2.0
    gap = (spincore.transition_frequency(PHOSPHORUS, "T+", 23.0)
           - spincore.transition_frequency(PHOSPHORUS, "T0", 23.0))
    duration_us = 0.5 / (coupling * (gap / 10.0 / coupling))
    dt_us = 1.0 / (50.0 * PHOSPHORUS.hyperfine_a)
    n_steps = max(1, int(math.ceil(duration_us / dt_us - 1e-12)))
    step = duration_us / n_steps
    clock = itertools.accumulate(itertools.repeat(step, n_steps - 1), initial=0.0)
    times = np.fromiter(clock, float, n_steps)
    t = np.concatenate([times + pulse._CF4_C1 * step, times + pulse._CF4_C2 * step])
    phases = []
    for b in ((0.4, 0.0, 23.0), (0.4, 0.0, 0.0)):
        freq = spincore.transition_frequency(PHOSPHORUS, "T0", FieldVector(*b).magnitude())
        phases.append(2.0 * math.pi * freq * t + 0.0)
    return np.concatenate(phases)


def test_np_cos_equals_math_cos_on_the_cf4_drive_phases():
    # pulse._cf4_propagators: the drive cos(2 pi f t + phase) of both CF4
    # nodes of a block, against the per-step math.cos of the scalar CF4
    # oracle (tests/test_pulse.py); about 366 600 phases
    phases = _drive_4level_node_phases()
    assert phases.size > 300_000
    assert np.cos(phases).tolist() == [math.cos(x) for x in phases.tolist()]


def _cf4_like_complex(shape: tuple[int, ...], key: int) -> np.ndarray:
    """Complex entries of magnitudes 1e-30 to 10, as the CF4 Taylor terms
    have, with zeros of both signs in some real and imaginary parts."""
    rng = np.random.Generator(np.random.Philox(key=key))
    parts = rng.standard_normal((*shape, 2)) * 10.0 ** rng.uniform(-30.0, 1.0, (*shape, 2))
    parts.reshape(-1)[::97] = 0.0
    parts.reshape(-1)[::89] = -0.0
    return parts.view(complex)[..., 0]


@pytest.mark.parametrize("k", [2.0, 6.0, 24.0])
def test_complex_over_a_float_equals_the_float_view_times_the_reciprocal(k):
    # pulse._cf4_propagators: u_re_im += x2.view(float) * (1.0 / 2.0) and the
    # two lines after it, for the oracle's x2 / 2.0, (x2 @ x) / 6.0 and
    # (x2 @ x2) / 24.0; numpy divides z / k as (re + im*0) * fl(1/k)
    z = _cf4_like_complex((2, 128, 4, 4), key=14)
    assert (z / k).view(float).tolist() == (z.view(float) * (1.0 / k)).tolist()
    if k != 2.0:  # a real division by k rounds differently from the product
        assert (z / k).view(float).tolist() != (z.view(float) / k).tolist()


def test_real_times_complex_equals_the_float_view_scaled():
    # pulse._cf4_propagators: phases_re_im *= drive[:, None, None] for the
    # oracle's drive * np.exp(...), and the _CF4_ALPHA1/_CF4_ALPHA2 mixes of
    # the float views m1 and m2 for the oracle's alpha1 * m1 + alpha2 * m2
    drive = np.cos(_drive_4level_node_phases()[:20_000:40])
    table = np.exp(1j * np.linspace(-400.0, 400.0, drive.size * 16)).reshape(-1, 4, 4)
    assert ((drive[:, None, None] * table).view(float).tolist()
            == (table.view(float) * drive[:, None, None]).tolist())
    m1, m2 = _cf4_like_complex((2, 128, 4, 4), key=15)
    for a, b in ((pulse._CF4_ALPHA1, pulse._CF4_ALPHA2), (pulse._CF4_ALPHA2, pulse._CF4_ALPHA1)):
        assert ((a * m1 + b * m2).view(float).tolist()
                == (a * m1.view(float) + b * m2.view(float)).tolist())


def test_float_identity_plus_complex_equals_complex_identity_added():
    # pulse._cf4_propagators: u = x + np.eye(4, dtype=complex) for the
    # oracle's np.eye(4) + x, whose float identity numpy promotes to complex
    x = _cf4_like_complex((2, 128, 4, 4), key=16)
    assert (np.eye(4) + x).tolist() == (x + np.eye(4, dtype=complex)).tolist()


def test_stacked_matmul_and_vecdot_equal_the_per_field_products():
    # spincore.singlet_triplet_lines: matmul on the (m, 4, 1) singlet columns
    # and vecdot over the triplet columns, against the per-field op @ v and
    # np.vdot of scalar_oracle.rf_matrix_element
    rng = np.random.Generator(np.random.Philox(key=25))
    fields = np.concatenate([rng.standard_normal((300, 3)) * 10.0,
                             [[0.0, 0.0, 0.0], [0.0, 0.0, 5e-7], [0.4, 0.0, 23.0]]])
    energies, vectors = spincore.eigensystems(PHOSPHORUS, fields)
    s, t = LABELS.index("S"), [LABELS.index(label) for label in TRIPLET_LABELS]
    # a one-row solve per field
    row_vectors = [spincore.eigensystems(PHOSPHORUS, row[None])[1][0] for row in fields]
    for direction in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, -0.3, 0.8]):
        op = spincore.drive_operator(PHOSPHORUS, direction)
        columns = np.matmul(op, vectors[:, :, s, None])
        per_field = [op @ v[:, s] for v in row_vectors]
        assert columns[..., 0].tolist() == [v.tolist() for v in per_field]
        got = np.vecdot(vectors[:, :, t], columns, axis=-2)
        want = [[complex(np.vdot(u[:, k], v)) for k in t]
                for u, v in zip(row_vectors, per_field)]
        assert got.tolist() == want


def test_np_power_per_row_scalar_exponent_equals_the_single_curve_stretched_exp_model():
    # fitkit.stretched_exp_model: a stacked Jacobian's curves each take their
    # exponent as a scalar, so every row equals that curve's single call.
    # Python's x ** n is no reference here: at n = 1.5, where np.power has
    # no fast path, it still differs from np.power in the last bit.
    taus = np.random.default_rng(0).uniform(0.0, 10.0, 1000)
    exponents = [0.5, 1.5, 2.0, -1.0]
    column = np.array(exponents)[:, None]
    t2 = np.full_like(column, 2.0)  # so that 2 tau / T2 is tau itself
    stacked = fitkit.stretched_exp_model(taus, np.ones_like(column), t2, column)
    for row, n in zip(stacked, exponents):
        assert row.tolist() == fitkit.stretched_exp_model(taus, 1.0, 2.0, n).tolist()
    # the trap: a broadcast exponent column misses np.power's scalar fast
    # path (sqrt, square, reciprocal) for 0.5, 2 and -1
    broadcast = np.power(2.0 * taus / t2, column)
    for row, n in zip(broadcast, exponents):
        if n != 1.5:
            assert row.tolist() != np.power(taus, n).tolist(), n


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 5.0))
def test_np_power_stretched_exp_model_equals_ndarray_power_envelope(random_n):
    # pulse.hahn_experiment's phenomenological envelope: stretched_exp_model
    # at amplitude 1 calls np.power, where the envelope it replaced spelled
    # exp(-((2 tau / T2) ** n)); the two reach numpy's scalar-exponent fast
    # paths (sqrt, square) by different routes, and the Hahn golden pins n = 1.5 only
    taus = np.concatenate([np.random.default_rng(1).uniform(0.0, 0.2, 500),
                           [0.0, 5e-324, 1e-3, 0.12]])
    for n in (0.5, 1.0, 1.5, 2.0, 3.0, random_n):
        for t2 in (1e-3, 0.05, 0.3, 7.0):
            want = np.exp(-((2.0 * taus / t2) ** n))
            assert fitkit.stretched_exp_model(taus, 1.0, t2, n).tolist() == want.tolist(), n
