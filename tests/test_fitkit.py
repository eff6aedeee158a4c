"""Nonlinear least-squares kit: LM core, decay fits, peak fits."""

from __future__ import annotations

import math
import pathlib

import numpy as np
import pytest
import scalar_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from donorsim import csvio, fitkit
from donorsim.fitkit import (
    PEAK_SHAPES,
    FitResult,
    RankDeficiencyError,
    fit_peaks,
    fit_stretched_exp,
    least_squares,
    levenberg_marquardt,
    numeric_jacobian,
    peak_model,
    stretched_exp_model,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


# --- LM core -----------------------------------------------------------------

def test_lm_solves_linear_problem_immediately():
    a = np.array([[2.0, 1.0], [1.0, 3.0], [0.5, -1.0], [4.0, 0.2]])
    b = np.array([1.0, 2.0, 0.3, -1.0])
    exact, *_ = np.linalg.lstsq(a, b, rcond=None)
    p, rss, converged, _, trace = levenberg_marquardt(lambda p: p @ a.T - b, [0.0, 0.0])
    assert converged
    assert np.allclose(p, exact, atol=1e-8)
    assert trace == sorted(trace, reverse=True)


def test_lm_rss_trace_is_monotone_on_rosenbrock():
    def residual(p):
        return np.stack([10.0 * (p[..., 1] - p[..., 0] ** 2), 1.0 - p[..., 0]], axis=-1)

    p, rss, converged, _, trace = levenberg_marquardt(residual, [-1.2, 1.0])
    assert np.all(np.diff(trace) <= 0.0)
    assert np.allclose(p, [1.0, 1.0], atol=1e-6)
    assert rss < 1e-12


def test_lm_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        levenberg_marquardt(lambda p: np.array([np.inf]), [1.0])


def test_numeric_jacobian_matches_analytic():
    def residual(p):
        return np.stack([p[..., 0] ** 2 * p[..., 1], np.sin(p[..., 0]) + 3.0 * p[..., 1]],
                        axis=-1)

    p = np.array([0.7, 1.3])
    jac = numeric_jacobian(residual, p)
    expected = np.array([
        [2 * p[0] * p[1], p[0] ** 2],
        [np.cos(p[0]), 3.0],
    ])
    assert np.allclose(jac, expected, atol=1e-5)


_X = np.linspace(-6.0, 6.0, 121)
# np.power computes the exponents 0.5 and 2 by fast paths of their own
_EXPONENT = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.3, 3.0))
_PEAK = st.tuples(st.floats(-6.0, 6.0), st.floats(0.05, 5.0), st.floats(-10.0, 10.0))


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(PEAK_SHAPES), peaks=st.lists(_PEAK, min_size=1, max_size=3),
       baseline=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_numeric_jacobian_of_peaks_equals_column_oracle(shape, peaks, baseline, seed):
    y = np.random.default_rng(seed).normal(size=_X.size)
    k = len(peaks)
    p = np.array([v for peak in peaks for v in peak] + [baseline])

    def residual(q):
        return peak_model(_X, q, k, shape) - y

    expected = scalar_oracle.numeric_jacobian(residual, p)
    assert numeric_jacobian(residual, p).tobytes() == expected.tobytes()
    assert numeric_jacobian(residual, p, residual(p)).tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(amplitude=st.floats(-5.0, 5.0), t2=st.floats(0.05, 20.0), n=_EXPONENT,
       fix_n=st.one_of(st.none(), _EXPONENT), seed=st.integers(0, 2**32 - 1))
def test_numeric_jacobian_of_stretched_decay_equals_column_oracle(amplitude, t2, n, fix_n, seed):
    taus = np.linspace(0.01, 10.0, 50)
    y = np.random.default_rng(seed).normal(size=taus.size)
    if fix_n is None:
        p = np.array([amplitude, t2, n])

        def residual(q):
            return stretched_exp_model(taus, q[..., 0, None], q[..., 1, None], q[..., 2, None]) - y
    else:
        p = np.array([amplitude, t2])

        def residual(q):
            return stretched_exp_model(taus, q[..., 0, None], q[..., 1, None], fix_n) - y

    expected = scalar_oracle.numeric_jacobian(residual, p)
    assert numeric_jacobian(residual, p).tobytes() == expected.tobytes()


def test_numeric_jacobian_makes_one_residual_call():
    calls = []
    p = np.array([-1.0, 0.8, 2.0, 1.5, 0.5, -1.0, 0.1])

    def residual(q):
        calls.append(np.shape(q))
        return peak_model(_X, q, 2, "gaussian")

    numeric_jacobian(residual, p, residual(p))
    assert calls == [(7,), (7, 7)]


def test_lm_never_recomputes_the_residual_it_holds():
    x, y = _X, peak_model(_X, [0.3, 1.2, 2.0, 0.5], 1, "lorentzian")
    seen = []

    def residual(q):
        seen.append(np.array(q))
        return peak_model(x, q, 1, "lorentzian") - y

    _, _, converged, iterations, trace = levenberg_marquardt(residual, [0.0, 1.0, 1.0, 0.0])
    assert converged
    stacks = [q for q in seen if q.ndim == 2]
    vectors = [q.tobytes() for q in seen if q.ndim == 1]
    assert len(stacks) == iterations  # one residual call per Jacobian
    assert len(set(vectors)) == len(vectors)  # no vector evaluated twice
    assert len(vectors) >= len(trace)


_RESCUE_PEAKS = [(19.5, 9.5, 0.7), (19.5, 8.3, 0.6)]


@pytest.mark.parametrize("name, fit", [
    ("fit_rescue_peaks.csv",
     lambda x, y: fit_peaks(x, y, 2, shape="lorentzian", initial=_RESCUE_PEAKS)),
    ("fit_rescue_peaks.csv",
     lambda x, y: fit_peaks(x, y, 2, shape="gaussian", initial=_RESCUE_PEAKS)),
    ("fit_rescue_stretched.csv", lambda x, y: fit_stretched_exp(x, y)),
    ("fit_rescue_stretched.csv", lambda x, y: fit_stretched_exp(x, y, fix_n=2.0)),
    ("hahn_mean_t0_parallel.csv", lambda x, y: fit_stretched_exp(x, y, initial=[1.0, 0.1, 2.0])),
], ids=["lorentzian", "gaussian", "stretched", "stretched-fix-n", "stretched-n-2"])
def test_fit_with_the_column_oracle_jacobian_is_bit_identical(monkeypatch, fit, name):
    _, data = csvio.read_csv(str(GOLDEN / name))
    x, y = data[:, 0], data[:, 1]
    got = fit(x, y)
    monkeypatch.setattr(fitkit, "numeric_jacobian",
                        lambda fn, p, r0=None: scalar_oracle.numeric_jacobian(fn, p))
    expected = fit(x, y)
    assert got.params.tobytes() == expected.params.tobytes()
    assert got.stderr.tobytes() == expected.stderr.tobytes()
    assert (got.rss, got.iterations, got.rss_trace, got.diagnostics) == (
        expected.rss, expected.iterations, expected.rss_trace, expected.diagnostics)


# --- the stalled starts of the rescue inputs (see regen.py) ---------------------

def rescue_data(name):
    _, data = csvio.read_csv(str(GOLDEN / name))
    return data[:, 0], data[:, 1]


# the RSS at which the former Nelder-Mead restart of fitkit ended these fits
@pytest.mark.parametrize("shape, simplex_rss", [
    ("lorentzian", 0.020399326896512242),
    ("gaussian", 0.017187326060857256),
])
def test_the_extrema_start_finishes_the_peak_fit_the_guesses_stall_on(shape, simplex_rss):
    fit = fit_peaks(*rescue_data("fit_rescue_peaks.csv"), 2, shape=shape, initial=_RESCUE_PEAKS)
    assert fit.converged
    assert "extrema-start" in fit.diagnostics
    assert fit.rss <= simplex_rss


def test_a_stalled_least_squares_ends_where_lm_stops():
    x, y = rescue_data("fit_rescue_stretched.csv")

    def residual(p):
        return stretched_exp_model(x, *np.moveaxis(p, -1, 0)[..., None]) - y

    p0 = [float(y[0]), 2.0 * float(x[1]), 1.5]
    p, rss, converged, iterations, trace = levenberg_marquardt(residual, p0)
    fit = least_squares(residual, p0, ("amplitude", "t2_s", "n"), x.size)
    assert not converged
    assert fit.params.tobytes() == p.tobytes()
    assert (fit.rss, fit.converged, fit.iterations, fit.rss_trace, fit.diagnostics) == (
        rss, False, iterations, tuple(trace), ())


def test_a_free_exponent_on_a_flat_ridge_reports_no_convergence():
    # the decay is faster than the sampling, so (T2, n) slide along a ridge
    # of nearly constant RSS and LM stops at its iteration limit
    fit = fit_stretched_exp(*rescue_data("fit_rescue_stretched.csv"))
    assert not fit.converged
    assert fit.iterations == fitkit.MAX_ITERATIONS
    assert fit_stretched_exp(*rescue_data("fit_rescue_stretched.csv"), fix_n=2.0).converged


# --- stretched-exponential fits -------------------------------------------------

def decay_data(amplitude=0.97, t2=8.0, n=1.6, noise=0.0, seed=0, points=40):
    taus = np.linspace(0.1, 12.0, points)
    y = stretched_exp_model(taus, amplitude, t2, n)
    if noise:
        y = y + np.random.default_rng(seed).normal(0.0, noise, size=taus.size)
    return taus, y


def test_stretched_fit_noiseless_is_exact():
    taus, y = decay_data()
    fit = fit_stretched_exp(taus, y)
    assert fit.converged
    assert fit.names == ("amplitude", "t2_s", "n")
    assert fit["amplitude"] == pytest.approx(0.97, rel=1e-7)
    assert fit["t2_s"] == pytest.approx(8.0, rel=1e-7)
    assert fit["n"] == pytest.approx(1.6, rel=1e-7)
    assert fit.rss < 1e-14


def test_stretched_fit_recovers_under_noise_within_errorbars():
    taus, y = decay_data(noise=0.01, seed=42, points=120)
    fit = fit_stretched_exp(taus, y)
    assert fit.converged
    for name, truth in (("amplitude", 0.97), ("t2_s", 8.0), ("n", 1.6)):
        err = fit.stderr[fit.names.index(name)]
        assert np.isfinite(err) and err > 0
        assert abs(fit[name] - truth) < 5 * err


def test_stretched_fit_fix_n():
    taus, y = decay_data(n=2.0)
    fit = fit_stretched_exp(taus, y, fix_n=2.0)
    assert fit.names == ("amplitude", "t2_s")
    assert fit["t2_s"] == pytest.approx(8.0, rel=1e-8)
    with pytest.raises(ValueError):
        fit_stretched_exp(taus, y, fix_n=-1.0)


def test_stretched_fit_accepts_explicit_initial():
    taus, y = decay_data()
    fit = fit_stretched_exp(taus, y, initial=[0.5, 20.0, 1.0])
    assert fit["t2_s"] == pytest.approx(8.0, rel=1e-6)
    with pytest.raises(ValueError):
        fit_stretched_exp(taus, y, initial=[0.5, 20.0])  # needs 3 when n is free


def test_stretched_fit_input_validation():
    with pytest.raises(RankDeficiencyError):
        fit_stretched_exp([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        fit_stretched_exp([1.0, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_stretched_exp([1.0, 2.0, 3.0], [1.0, np.nan, 0.2])


@pytest.mark.parametrize("x, kwargs, message", [
    # T2 = 0 makes the model 0 at every tau > 0, so the fit would start on a zero gradient
    ([0.0, 1.0, 2.0, 3.0], dict(initial=[1.0, 0.0, 1.0]),
     "initial t2_s must be finite and > 0, got 0.0"),
    ([0.0, 1.0, 2.0, 3.0], dict(initial=[1.0, 1.0, -1.0]),
     "initial n must be finite and > 0, got -1.0"),
    ([0.0, 1.0, 2.0, 3.0], dict(initial=[math.inf, 1.0, 1.0]),
     "initial amplitude must be finite, got inf"),
    ([0.0, 1.0, 2.0, 3.0], dict(initial=[1.0, -2.0], fix_n=2.0),
     "initial t2_s must be finite and > 0, got -2.0"),
    # tau is a half-evolution time; the default T2 guess from negative taus is negative
    ([-1.0, -2.0, -3.0, -4.0], {}, "taus must be >= 0, got -4.0"),
    ([-1.0, 0.0, 1.0, 2.0], {}, "taus must be >= 0, got -1.0"),
])
def test_stretched_fit_rejects_inputs_its_model_cannot_take(monkeypatch, x, kwargs, message):
    def fit(*args, **kw):
        raise AssertionError("the fit ran before its inputs were checked")

    monkeypatch.setattr(fitkit, "least_squares", fit)
    with pytest.raises(ValueError) as exc:
        fit_stretched_exp(x, [1.0, 0.5, 0.2, 0.1], **kwargs)
    assert str(exc.value) == message


def test_fit_result_lookup():
    taus, y = decay_data()
    fit = fit_stretched_exp(taus, y)
    assert isinstance(fit, FitResult)
    assert fit["t2_s"] == fit.params[1]
    with pytest.raises(ValueError):
        fit["no_such_name"]


# --- peak fits -------------------------------------------------------------------

def two_peak_data(shape="lorentzian", noise=0.0, seed=1):
    x = np.linspace(-100.0, 100.0, 401)
    truth = np.array([-55.9, 4.0, 1.0, 55.9, 4.0, 0.8, 0.05])
    y = peak_model(x, truth, 2, shape)
    if noise:
        y = y + np.random.default_rng(seed).normal(0.0, noise, size=x.size)
    return x, y, truth


def test_peak_model_shape_conventions():
    x = np.array([-3.0, 0.0, 3.0])
    lor = peak_model(x, np.array([0.0, 3.0, 2.0, 0.0]), 1, "lorentzian")
    assert lor[1] == pytest.approx(2.0)          # amplitude at center
    assert lor[0] == pytest.approx(1.0)          # width is the HWHM
    gau = peak_model(x, np.array([0.0, 3.0, 2.0, 0.0]), 1, "gaussian")
    assert gau[0] == pytest.approx(2.0 * np.exp(-0.5))  # width is sigma


@pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
def test_fit_peaks_noiseless_recovery(shape):
    x, y, truth = two_peak_data(shape)
    fit = fit_peaks(x, y, 2, shape=shape,
                    initial=[(-50.0, 3.0, 0.7), (50.0, 3.0, 0.7)])
    assert fit.converged
    assert np.allclose(fit.params, truth, rtol=1e-6, atol=1e-8)
    assert fit.names[0:3] == ("center_1", "width_1", "amp_1")
    assert fit.names[-1] == "baseline"


def test_fit_peaks_reports_sorted_by_center():
    x, y, truth = two_peak_data()
    fit = fit_peaks(x, y, 2, initial=[(60.0, 4.0, 0.7), (-60.0, 4.0, 0.7)])
    assert fit["center_1"] < fit["center_2"]
    assert fit["center_1"] == pytest.approx(-55.9, abs=1e-6)
    assert fit["amp_2"] == pytest.approx(0.8, rel=1e-6)


def test_fit_peaks_extrema_start_rescues_bad_guesses():
    x, y, truth = two_peak_data()
    fit = fit_peaks(x, y, 2, initial=[(-5.0, 4.0, 0.1), (5.0, 4.0, 0.1)])
    assert "extrema-start" in fit.diagnostics
    assert fit["center_1"] == pytest.approx(-55.9, abs=1e-4)
    assert fit["center_2"] == pytest.approx(55.9, abs=1e-4)


def test_fit_peaks_good_guesses_leave_no_diagnostic():
    x, y, _ = two_peak_data()
    fit = fit_peaks(x, y, 2, initial=[(-56.0, 4.0, 1.0), (56.0, 4.0, 0.8)])
    assert "extrema-start" not in fit.diagnostics
    assert "overlapping-peaks" not in fit.diagnostics


def test_fit_peaks_overlap_diagnostic():
    x = np.linspace(-20.0, 20.0, 201)
    params = np.array([-1.0, 4.0, 1.0, 1.0, 4.0, 1.0, 0.0])
    y = peak_model(x, params, 2, "lorentzian")
    fit = fit_peaks(x, y, 2, initial=[(-1.5, 4.0, 1.0), (1.5, 4.0, 1.0)])
    assert "overlapping-peaks" in fit.diagnostics


def test_fit_peaks_noisy_soldiers_on():
    x, y, truth = two_peak_data(noise=0.02, seed=9)
    fit = fit_peaks(x, y, 2, initial=[(-50.0, 3.0, 0.7), (50.0, 3.0, 0.7)])
    assert fit.converged
    assert abs(fit["center_1"] - (-55.9)) < 0.5
    assert abs(fit["center_2"] - 55.9) < 0.5


def test_fit_peaks_validation():
    x, y, _ = two_peak_data()
    with pytest.raises(ValueError):
        fit_peaks(x, y, 2, shape="voigt", initial=[(-50, 3, 1), (50, 3, 1)])
    with pytest.raises(ValueError):
        fit_peaks(x, y, 0, initial=[])
    with pytest.raises(ValueError):
        fit_peaks(x, y, 2, initial=[(-50, 3, 1)])
    with pytest.raises(ValueError):
        fit_peaks(x, y, 2, initial=[(-50, -3, 1), (50, 3, 1)])
    with pytest.raises(RankDeficiencyError):
        fit_peaks(x[:5], y[:5], 2, initial=[(-50, 3, 1), (50, 3, 1)])
    with pytest.raises(RankDeficiencyError):
        fit_peaks(x, np.zeros_like(y), 1, initial=[(0, 3, 1)])


@pytest.mark.parametrize("bad", [
    (50, math.inf, 1),  # every residual of an infinite width is finite
    (math.nan, 3, 1),
    (50, math.nan, 1),
    (50, 3, math.nan),
])
def test_fit_peaks_rejects_a_non_finite_start_by_name(monkeypatch, bad):
    def fit(*args, **kwargs):
        raise AssertionError("a fit ran before the start was checked")

    monkeypatch.setattr(fitkit, "least_squares", fit)
    x, y, _ = two_peak_data()
    with pytest.raises(ValueError, match=r"^initial peak 2 \(center, width, amplitude\) "
                                         r"must be finite"):
        fit_peaks(x, y, 2, initial=[(-50, 3, 1), bad])


def test_fit_peaks_fixed_baseline_option():
    x, y, truth = two_peak_data()
    fit = fit_peaks(x, y, 2, initial=[(-50.0, 3.0, 0.7), (50.0, 3.0, 0.7)],
                    baseline=0.05)
    assert fit["baseline"] == pytest.approx(0.05, abs=1e-6)
