"""Least-squares fitting for decay envelopes and spectral peaks.

The workhorse is a damped Gauss-Newton (Levenberg-Marquardt; Marquardt,
J. SIAM 11, 431 (1963)) loop written out explicitly so its convergence
record can be inspected: the residual sum of squares over accepted
iterations is non-increasing by construction and is kept in
``FitResult.rss_trace``.  When the loop stalls on an ill-conditioned
Jacobian, a derivative-free Nelder-Mead simplex restart is tried from the
best point so far, followed by a final Gauss-Newton polish.

Residual functions broadcast over a leading axis of parameter vectors:
a (p,) vector gives (N,) residuals and an (m, p) stack gives (m, N), so
the forward-difference Jacobian (relative step 1e-6) is one call on the
stack of p shifted vectors.  Convergence requires a relative parameter
step below 1e-10 or a gradient infinity-norm below 1e-12.  Parameter
uncertainties are the usual linearized estimate
sqrt(RSS/(N-p) * inv(J^T J)_ii), computed with a pseudo-inverse so
near-degenerate directions report large-but-finite errors instead of
crashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

JACOBIAN_REL_STEP = 1e-6
STEP_TOL = 1e-10
GRAD_TOL = 1e-12
MAX_ITERATIONS = 200
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12


class RankDeficiencyError(ValueError):
    """The data cannot constrain the requested parameters."""


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with their linearized one-sigma uncertainties."""

    names: tuple[str, ...]
    params: np.ndarray
    stderr: np.ndarray
    rss: float
    converged: bool
    iterations: int
    rss_trace: tuple[float, ...]
    diagnostics: tuple[str, ...] = field(default=())

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.names.index(name)])


ResidualFn = Callable[[np.ndarray], np.ndarray]


def _safe_residual(fn: ResidualFn, p: np.ndarray) -> tuple[np.ndarray, float]:
    r = np.asarray(fn(p), dtype=float)
    if not np.all(np.isfinite(r)):
        return r, np.inf
    return r, float(r @ r)


def numeric_jacobian(fn: ResidualFn, p: np.ndarray, r0: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference Jacobian of the residual vector.

    One ``fn`` call evaluates the residuals of all shifted parameter
    vectors, stacked one per row.  ``r0`` is the residual at ``p`` when the
    caller holds it already.
    """
    p = np.asarray(p, dtype=float)
    if r0 is None:
        r0, _ = _safe_residual(fn, p)
    h = JACOBIAN_REL_STEP * np.maximum(np.abs(p), 1.0)
    shifted = np.tile(p, (p.size, 1))
    shifted[np.diag_indices(p.size)] += h
    rows = np.asarray(fn(shifted), dtype=float)
    return np.ascontiguousarray(((rows - r0) / h[:, None]).T)


def _stderr(fn: ResidualFn, p: np.ndarray, rss: float, n_points: int) -> np.ndarray:
    dof = n_points - p.size
    if dof <= 0:
        return np.full(p.size, np.nan)
    jac = numeric_jacobian(fn, p)
    cov = np.linalg.pinv(jac.T @ jac) * (rss / dof)
    diag = np.diag(cov).copy()
    diag[diag < 0] = np.nan
    return np.sqrt(diag)


def levenberg_marquardt(
    fn: ResidualFn, p0: Sequence[float]
) -> tuple[np.ndarray, float, bool, int, list[float]]:
    """Damped least squares; returns (params, rss, converged, iters, rss_trace)."""
    p = np.asarray(p0, dtype=float).copy()
    r, rss = _safe_residual(fn, p)
    if not np.isfinite(rss):
        raise ValueError("initial parameters give non-finite residuals")
    lam = _LAMBDA_INIT
    trace = [rss]
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = numeric_jacobian(fn, p, r)
        grad = jac.T @ r
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        jtj = jac.T @ jac
        damping = np.maximum(np.diag(jtj), 1e-30)
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(damping), -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(jtj + lam * np.diag(damping), -grad, rcond=None)[0]
            trial = p + step
            r_trial, rss_trial = _safe_residual(fn, trial)
            if rss_trial <= rss:
                rel = np.linalg.norm(step) / max(np.linalg.norm(p), 1e-300)
                p, r, rss = trial, r_trial, rss_trial
                trace.append(rss)
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                if rel < STEP_TOL:
                    converged = True
                break
            lam *= 10.0
        if not accepted or converged:
            break
    return p, rss, converged, iterations, trace


def _nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    *,
    maxiter: int,
    xatol: float,
    fatol: float,
) -> tuple[np.ndarray, float, bool]:
    """Non-adaptive Nelder-Mead; returns (x, f(x), stopped before maxiter).

    Coefficients rho=1, chi=2, psi=0.5, sigma=0.5 (Lagarias, Reeds, Wright &
    Wright, SIAM J. Optim. 9, 112 (1998)).  The initial simplex, the
    operation order and the stop test follow scipy's
    ``minimize(method="Nelder-Mead")`` step for step, so both give the same
    floats.
    """
    def order(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    # sorted twice, as scipy does: argsort need not keep tied (e.g. inf) vertices in place
    sim, fsim = order(*order(sim, np.array([f(v) for v in sim])))
    iterations = 1
    while iterations < maxiter and not (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                                        and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
        iterations += 1
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        sim, fsim = order(sim, fsim)
    return sim[0], float(np.min(fsim)), iterations < maxiter


def least_squares(
    fn: ResidualFn,
    p0: Sequence[float],
    names: Sequence[str],
    n_points: int,
) -> FitResult:
    """LM with a simplex fallback; packages the result with uncertainties.

    When LM stops unconverged, a simplex search from its end point takes
    over and LM polishes the simplex point.  The polish starts at the
    simplex value and accepts only steps that do not raise the RSS, so it
    never ends worse than the simplex.
    """
    p, rss, converged, iterations, trace = levenberg_marquardt(fn, p0)
    notes = []
    if not converged:
        x, fun, _ = _nelder_mead(
            lambda q: _safe_residual(fn, q)[1], p, maxiter=2000, xatol=1e-12, fatol=1e-14
        )
        if np.isfinite(fun) and fun <= rss:
            notes.append("simplex-fallback")
            p, rss, converged, polish_iterations, polish_trace = levenberg_marquardt(fn, x)
            trace = trace + polish_trace
            iterations += polish_iterations
    return FitResult(
        names=tuple(names),
        params=p,
        stderr=_stderr(fn, p, rss, n_points),
        rss=rss,
        converged=converged,
        iterations=iterations,
        rss_trace=tuple(trace),
        diagnostics=tuple(notes),
    )


# --- decay envelope ---------------------------------------------------------

def stretched_exp_model(tau_s: np.ndarray, amplitude, t2_s, n) -> np.ndarray:
    """amplitude * exp(-(2 tau / T2)^n) with tau the half-evolution time.

    Scalar parameters give one curve over the 1-d ``tau_s``; parameter
    columns of shape (m, 1) give an (m, tau_s.size) stack of curves.
    """
    tau_s = np.asarray(tau_s, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = 2.0 * tau_s / t2_s
        if np.ndim(n) < 2:
            powered = np.power(scaled, n)
        else:
            # np.power takes a fast path (sqrt, square, reciprocal) for a scalar
            # exponent of 0.5, 2 or -1 but not for a column, so each curve gets
            # its exponent as a scalar
            rows = np.broadcast_to(scaled, (len(n),) + tau_s.shape)
            powered = np.array([np.power(row, e) for row, e in zip(rows, np.ravel(n))])
        return amplitude * np.exp(-powered)


def fit_stretched_exp(
    taus_s: Sequence[float],
    values: Sequence[float],
    *,
    initial: Sequence[float] | None = None,
    fix_n: float | None = None,
) -> FitResult:
    """Fit a stretched-exponential decay to echo amplitudes.

    Parameters are ("amplitude", "t2_s", "n"); with fix_n the exponent is
    held fixed and only the first two are free.  Completely flat data has
    no decay information and raises RankDeficiencyError.  A tau below 0, or an
    ``initial`` not finite or with T2 or a free n <= 0, raises ValueError.
    """
    x = np.asarray(taus_s, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 3:
        raise ValueError("need matching 1-d arrays with at least 3 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("data must be finite")
    if np.min(x) < 0.0:  # tau is a half-evolution time
        raise ValueError(f"taus must be >= 0, got {float(np.min(x))!r}")
    if np.ptp(y) == 0.0:
        raise RankDeficiencyError("flat data cannot constrain a decay time")

    a0 = float(y[np.argmin(x)])
    if a0 == 0.0:
        a0 = float(np.max(np.abs(y))) or 1.0
    # first crossing of amplitude/e locates the decay scale
    target = a0 / np.e
    below = np.nonzero(y <= target)[0] if a0 > 0 else np.nonzero(y >= target)[0]
    t2_guess = 2.0 * float(x[below[0]]) if below.size else 2.0 * float(np.max(x))
    if t2_guess <= 0:
        t2_guess = float(np.max(x)) or 1.0

    if fix_n is not None and not (np.isfinite(fix_n) and fix_n > 0):
        raise ValueError("fix_n must be a positive finite exponent")
    names = ("amplitude", "t2_s", "n")[:2 if fix_n is not None else 3]
    p0 = np.array([a0, t2_guess, 1.5][:len(names)])
    if initial is not None:
        p0 = np.asarray(initial, dtype=float)
        if len(p0) != len(names):
            raise ValueError(f"initial must provide {len(names)} values {names}")
        for name, value in zip(names, p0):
            if not math.isfinite(value) or (name != "amplitude" and value <= 0):
                need = "finite" if name == "amplitude" else "finite and > 0"
                raise ValueError(f"initial {name} must be {need}, got {float(value)!r}")

    def residual(p: np.ndarray) -> np.ndarray:
        n = p[..., 2, None] if fix_n is None else fix_n
        return stretched_exp_model(x, p[..., 0, None], p[..., 1, None], n) - y

    return least_squares(residual, p0, names, n_points=x.size)


# --- spectral peaks ---------------------------------------------------------

PEAK_SHAPES = ("lorentzian", "gaussian")


def peak_model(
    x: np.ndarray,
    params: np.ndarray,
    k: int,
    shape: str,
) -> np.ndarray:
    """Sum of k unit-shape peaks (center, width, amplitude each) plus baseline.

    ``params`` of shape (..., 3k + 1) gives values of shape (..., x.size).
    Overflow is silenced: a point too far out for ``u * u`` gives a peak
    term of exactly 0, the limit of either shape, and a sum past the float
    range is infinite, which a fit rejects as it does any non-finite residual.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(params, dtype=float)[..., None]  # the new axis runs along x
    out = np.broadcast_to(p[..., 3 * k, :], p.shape[:-2] + x.shape)
    with np.errstate(over="ignore"):  # once per call, not per peak: fits call this often
        for i in range(k):
            center, width, amp = p[..., 3 * i, :], p[..., 3 * i + 1, :], p[..., 3 * i + 2, :]
            u = (x - center) / width
            if shape == "lorentzian":
                out = out + amp / (1.0 + u * u)
            else:
                out = out + amp * np.exp(-0.5 * u * u)
    return out


def _median(values: list[float]) -> float:
    """``np.median`` of a few floats, without the ``numpy.ma`` import its first call costs."""
    ordered, half = sorted(values), len(values) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2.0


def _extrema_start(
    xv: np.ndarray, yv: np.ndarray, k: int, widths: np.ndarray, base: float
) -> np.ndarray | None:
    """Alternative start: centers at the k strongest well-separated extrema."""
    signal = yv - base
    min_gap = 3.0 * _median(widths.tolist())
    chosen: list[int] = []
    for idx in np.argsort(-np.abs(signal)):
        if all(abs(xv[idx] - xv[j]) >= min_gap for j in chosen):
            chosen.append(int(idx))
            if len(chosen) == k:
                break
    if len(chosen) < k:
        return None
    chosen.sort(key=lambda j: xv[j])
    p = np.empty(3 * k + 1)
    for i, j in enumerate(chosen):
        p[3 * i: 3 * i + 3] = (xv[j], widths[i], signal[j])
    p[3 * k] = base
    return p


def fit_peaks(
    x: Sequence[float],
    y: Sequence[float],
    k: int,
    *,
    shape: str = "lorentzian",
    initial: Sequence[tuple[float, float, float]],
    baseline: float | None = None,
) -> FitResult:
    """Fit k peaks of a common shape plus a constant baseline.

    ``initial`` supplies one (center, width, amplitude) triple per peak;
    widths are HWHM for lorentzian and sigma for gaussian shapes.  A
    second deterministic start seeded from the data's strongest separated
    extrema guards against misplaced guesses collapsing a peak into the
    baseline; the lower-RSS fit wins.  Peaks are reported sorted by
    center.  A diagnostic flags fits whose centers ended up closer than
    the mean fitted width ("overlapping-peaks").
    """
    if shape not in PEAK_SHAPES:
        raise ValueError(f"shape must be one of {PEAK_SHAPES}")
    if k < 1:
        raise ValueError("k must be >= 1")
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError("need matching 1-d arrays")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise ValueError("data must be finite")
    if len(initial) != k:
        raise ValueError(f"initial must provide {k} (center, width, amplitude) triples")
    if xv.size < 3 * k + 1:
        raise RankDeficiencyError("fewer points than free parameters")
    if np.ptp(yv) == 0.0:
        raise RankDeficiencyError("flat data cannot constrain peaks")

    p0 = np.empty(3 * k + 1)
    for i, (center, width, amp) in enumerate(initial):
        if not all(map(math.isfinite, (center, width, amp))):
            raise ValueError(f"initial peak {i + 1} (center, width, amplitude) must be finite, "
                             f"got {(center, width, amp)!r}")
        if width <= 0:
            raise ValueError("initial peak widths must be > 0")
        p0[3 * i: 3 * i + 3] = (center, width, amp)
    p0[3 * k] = float(np.min(yv)) if baseline is None else float(baseline)

    def residual(p: np.ndarray) -> np.ndarray:
        return peak_model(xv, p, k, shape) - yv

    names = []
    for i in range(1, k + 1):
        names += [f"center_{i}", f"width_{i}", f"amp_{i}"]
    names.append("baseline")

    result = least_squares(residual, p0, names, n_points=xv.size)
    alt_p0 = _extrema_start(xv, yv, k, widths=p0[1: 3 * k: 3], base=p0[3 * k])
    if alt_p0 is not None:
        alt = least_squares(residual, alt_p0, names, n_points=xv.size)
        # adopt the alternative only when it found a genuinely different
        # (better) minimum, not a rounding-level retread of the same one
        same_minimum = np.allclose(alt.params, result.params, rtol=1e-6, atol=1e-12)
        if not same_minimum and alt.rss < result.rss * (1.0 - 1e-6):
            result = replace(alt, diagnostics=alt.diagnostics + ("extrema-start",))

    # report peaks in ascending-center order
    order = np.argsort([result.params[3 * i] for i in range(k)])
    perm = np.concatenate([np.arange(3 * i, 3 * i + 3) for i in order] + [np.array([3 * k])])
    params = result.params[perm]
    stderr = result.stderr[perm]

    notes = list(result.diagnostics)
    centers = params[0: 3 * k: 3]
    widths = np.abs(params[1: 3 * k: 3])
    for i in range(k - 1):
        if centers[i + 1] - centers[i] < 0.5 * (widths[i] + widths[i + 1]):
            notes.append("overlapping-peaks")
            break
    return replace(result, params=params, stderr=stderr, diagnostics=tuple(notes))
