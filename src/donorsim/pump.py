"""Optical pumping kinetics on the {S, T, X} manifold.

Linear rate equations over three occupation numbers: the singlet ground
level S, the (lumped) triplet T, and the intermediate bound-exciton level X
reached by resonant optical excitation.  Pumping S or T promotes population
to X at the respective pump rate; X decays back at ``auger_rate``, branching
to S with probability ``branch_to_s``; a spin randomization channel
exchanges S and T towards their 1:3 statistical weights.

Rates are in 1/s, times in seconds, optical frequencies in cm^-1 with
linewidths quoted in MHz.  The photoconductive observable is the Auger
event rate, pump_rate_s * n_S + pump_rate_t * n_T, times a detector gain.

Steady states are solved over a leading axis of rate matrices: an optical
spectrum stacks one generator per probe point and solves them all in one
SVD call, with ``steady_state``'s checks applied row by row, and
``steady_state`` itself is a stack of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .csvio import Series

#: Conversion between wavenumbers and frequency, MHz per cm^-1.
MHZ_PER_INV_CM = 29979.2458

#: Default spectral response FWHM: 0.001 cm^-1 expressed in MHz.
DEFAULT_OPTICAL_LINEWIDTH_MHZ = 0.001 * MHZ_PER_INV_CM

#: Fine-structure doublet separation (cm^-1) resolvable in high-resolution scans.
DOUBLET_SPLITTING_INV_CM = 0.0008

PUMP_SETTINGS = ("off", "on_T", "on_S")

#: Statistical weights the randomization channel drives (n_S, n_T) towards.
SINGLET_WEIGHT = 0.25


class StepSizeError(ValueError, RuntimeError):
    """Integration step too coarse for the local accuracy; a RuntimeError, so CLI exit 2."""


class ConvergenceError(ValueError, RuntimeError):
    """Trajectory not settled near the steady state; a RuntimeError, so CLI exit 2."""


class NoUniqueSteadyStateError(ValueError, RuntimeError):
    """Rate matrix without a one-dimensional null space; a RuntimeError, so CLI exit 2."""


class DegenerateLinesWarning(UserWarning):
    """S and T optical lines closer than a tenth of the linewidth."""


@dataclass(frozen=True)
class PumpConfig:
    """Rate-model parameters (rates in 1/s)."""

    pump_rate_s: float = 0.0
    pump_rate_t: float = 0.0
    auger_rate: float = 1e6  # ~1 us bound-exciton lifetime
    branch_to_s: float = 0.25
    randomization_rate: float = 0.0
    gain: float = 1.0
    optical_linewidth_mhz: float = DEFAULT_OPTICAL_LINEWIDTH_MHZ

    def __post_init__(self) -> None:
        for name in (
            "pump_rate_s", "pump_rate_t", "auger_rate", "randomization_rate"
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0.0 <= self.branch_to_s <= 1.0:
            raise ValueError(f"branch_to_s must lie in [0, 1], got {self.branch_to_s}")
        if not math.isfinite(self.gain):
            raise ValueError("gain must be finite")
        # a width whose cm^-1 value underflows to 0 would divide by zero
        if not (math.isfinite(self.optical_linewidth_mhz)
                and self.optical_linewidth_mhz / MHZ_PER_INV_CM > 0):
            raise ValueError("optical_linewidth_mhz must be finite and > 0, also in cm^-1, "
                             f"got {self.optical_linewidth_mhz!r}")


@dataclass(frozen=True)
class PopulationState:
    """Occupation numbers (n_s, n_t, n_x); nonnegative, summing to 1."""

    n_s: float
    n_t: float
    n_x: float = 0.0

    def __post_init__(self) -> None:
        values = (self.n_s, self.n_t, self.n_x)
        if any(not math.isfinite(v) for v in values):
            raise ValueError("populations must be finite")
        if any(v < -1e-12 for v in values):
            raise ValueError(f"populations must be >= 0, got {values}")
        total = sum(values)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"populations must sum to 1 +- 1e-9, got {total!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.n_s, self.n_t, self.n_x], dtype=float)


@dataclass(frozen=True)
class PopulationTrajectory:
    """Populations on a uniform time grid; row k is (n_s, n_t, n_x) at times[k]."""

    times_s: np.ndarray
    populations: np.ndarray

    @property
    def n_s(self) -> np.ndarray:
        return self.populations[:, 0]

    @property
    def n_t(self) -> np.ndarray:
        return self.populations[:, 1]

    @property
    def n_x(self) -> np.ndarray:
        return self.populations[:, 2]

    def final_state(self) -> PopulationState:
        ns, nt, nx = (max(float(v), 0.0) for v in self.populations[-1])
        total = ns + nt + nx
        return PopulationState(ns / total, nt / total, nx / total)


def rate_matrix(cfg: PumpConfig) -> np.ndarray:
    """3x3 generator on (n_s, n_t, n_x); every column sums to zero.

    The randomization channel uses rates (3/4) r for S -> T and (1/4) r for
    T -> S so that its fixed point is the 1:3 statistical weight ratio and
    the total S/T exchange relaxation rate equals ``randomization_rate``.
    """
    return _rate_matrices(cfg, cfg.pump_rate_s, cfg.pump_rate_t)


def _rate_matrices(cfg: PumpConfig, pump_rate_s, pump_rate_t) -> np.ndarray:
    """Generators for pump-rate arrays of one shape: that shape + (3, 3).

    ``cfg`` supplies every rate but the two pump rates.
    """
    pump_rate_s = np.asarray(pump_rate_s, dtype=float)
    m = np.zeros(pump_rate_s.shape + (3, 3))
    m[..., 2, 0] += pump_rate_s
    m[..., 0, 0] -= pump_rate_s
    m[..., 2, 1] += pump_rate_t
    m[..., 1, 1] -= pump_rate_t
    m[..., 0, 2] += cfg.auger_rate * cfg.branch_to_s
    m[..., 1, 2] += cfg.auger_rate * (1.0 - cfg.branch_to_s)
    m[..., 2, 2] -= cfg.auger_rate
    r = cfg.randomization_rate
    m[..., 1, 0] += (1.0 - SINGLET_WEIGHT) * r
    m[..., 0, 0] -= (1.0 - SINGLET_WEIGHT) * r
    m[..., 0, 1] += SINGLET_WEIGHT * r
    m[..., 1, 1] -= SINGLET_WEIGHT * r
    return m


def _rk4_transfer(m: np.ndarray, dt: float) -> np.ndarray:
    """One-step transfer matrix of classic RK4 on p' = M p (= 4th-order Taylor)."""
    k = m * dt
    k2 = k @ k
    return np.eye(3) + k + k2 / 2.0 + (k2 @ k) / 6.0 + (k2 @ k2) / 24.0


def evolve_populations(
    initial: PopulationState, cfg: PumpConfig, duration_s: float, dt_s: float
) -> PopulationTrajectory:
    """Integrate the rate equations with fixed-step 4th-order (RK4) stepping.

    The local error is estimated up front by comparing one full step against
    two half steps of the constant-coefficient transfer matrix; if the
    largest entry difference exceeds 1e-6 a StepSizeError is raised.

    Args:
        initial: starting populations.
        cfg: rate parameters.
        duration_s: total integration time, >= dt_s.
        dt_s: step size, > 0.
    """
    if not math.isfinite(dt_s) or dt_s <= 0:
        raise ValueError(f"dt_s must be finite and > 0, got {dt_s!r}")
    if not math.isfinite(duration_s) or duration_s < dt_s:
        raise ValueError("duration_s must be finite and >= dt_s")
    m = rate_matrix(cfg)
    step = _rk4_transfer(m, dt_s)
    half = _rk4_transfer(m, dt_s / 2.0)
    local_error = float(np.abs(step - half @ half).max())
    if local_error > 1e-6:
        raise StepSizeError(
            f"local error estimate {local_error:.3e} exceeds 1e-6; reduce dt_s"
        )
    n_steps = int(math.ceil(duration_s / dt_s - 1e-9))
    out = np.empty((n_steps + 1, 3))
    out[0] = initial.as_array()
    for k in range(n_steps):
        out[k + 1] = step @ out[k]
    times = np.arange(n_steps + 1) * dt_s
    return PopulationTrajectory(times_s=times, populations=out)


def steady_state(cfg: PumpConfig) -> PopulationState:
    """Unique normalized null vector of the rate matrix.

    Raises NoUniqueSteadyStateError when the null space is not
    one-dimensional (e.g. every rate zero, or decoupled subchains).  The
    residual ||M p|| is verified on the rate-normalized generator so the
    check is independent of the absolute rate scale.
    """
    p, checks = _steady_states(rate_matrix(cfg)[None])
    _raise_first_failure(checks)
    return PopulationState(float(p[0, 0]), float(p[0, 1]), float(p[0, 2]))


#: An ordered check over a stack: (failing rows, exception type, message of row i).
_Check = tuple[np.ndarray, type, Callable[[int], str]]


def _steady_states(m: np.ndarray) -> tuple[np.ndarray, list[_Check]]:
    """Steady states of an (n, 3, 3) stack of generators, from one stacked SVD.

    Returns the (n, 3) populations and the checks ``steady_state`` makes, in
    its order; a row is valid only where none of its checks fails.  LAPACK
    solves each stacked matrix as it solves a single one, so every row has
    the bits of a one-matrix solve.
    """
    scale = np.abs(m).max(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # rows that fail a check
        ms = m / scale[:, None, None]
        solvable = np.isfinite(ms).all(axis=(1, 2))
        _, singular_values, vt = np.linalg.svd(np.where(solvable[:, None, None], ms, 0.0))
        nullity = (singular_values < 1e-10).sum(axis=1)
        total = vt[:, -1].sum(axis=1)
        direction = vt[:, -1] / total[:, None]
        p = np.clip(direction, 0.0, None)
        p = p / p.sum(axis=1)[:, None]
        residual = np.abs(np.matmul(ms, p[:, :, None])[:, :, 0]).max(axis=1)
    p_total = p.sum(axis=1)
    return p, [
        (scale == 0.0, NoUniqueSteadyStateError, lambda i: "all rates are zero"),
        (~solvable, np.linalg.LinAlgError, lambda i: "SVD did not converge"),
        (nullity != 1, NoUniqueSteadyStateError,
         lambda i: f"null space dimension {nullity[i]}, expected 1"),
        (np.abs(total) < 1e-12, NoUniqueSteadyStateError,
         lambda i: "null vector is not a population direction"),
        (direction.min(axis=1) < -1e-10, NoUniqueSteadyStateError,
         lambda i: f"null vector has negative entries: {direction[i]}"),
        (residual > 1e-10, NoUniqueSteadyStateError,
         lambda i: f"steady-state residual {residual[i]:.3e} too large"),
        (~np.isfinite(p).all(axis=1), ValueError, lambda i: "populations must be finite"),
        (np.abs(p_total - 1.0) > 1e-9, ValueError,
         lambda i: f"populations must sum to 1 +- 1e-9, got {float(p_total[i])!r}"),
    ]


def _raise_first_failure(checks: list[_Check]) -> None:
    """Raise the first failing check of the first row that fails one."""
    failing = np.logical_or.reduce([mask for mask, _, _ in checks])
    if failing.any():
        i = int(np.argmax(failing))
        error, message = next((e, msg) for mask, e, msg in checks if mask[i])
        raise error(message(i))


def photoconductive_signal(trajectory: PopulationTrajectory, cfg: PumpConfig) -> Series:
    """Auger event rate vs time: gain * (pump_rate_s n_S + pump_rate_t n_T)."""
    values = cfg.gain * (
        cfg.pump_rate_s * trajectory.n_s + cfg.pump_rate_t * trajectory.n_t
    )
    return Series(x=trajectory.times_s, values=values)


def _steady_signal(cfg: PumpConfig) -> float:
    p = steady_state(cfg)
    return cfg.gain * (cfg.pump_rate_s * p.n_s + cfg.pump_rate_t * p.n_t)


def transient_area(signal: Series, cfg: PumpConfig) -> float:
    """Integral of |signal - steady signal| over the trace (trapezoid rule).

    The trace must have settled: the final deviation from the steady signal
    has to be within 1e-4 of the deviation scale (the larger of the steady
    signal magnitude and the peak deviation), otherwise ConvergenceError.
    """
    s_inf = _steady_signal(cfg)
    deviation = np.abs(signal.values - s_inf)
    scale = max(abs(s_inf), float(deviation.max()))
    if scale > 0.0 and float(deviation[-1]) > 1e-4 * scale:
        raise ConvergenceError(
            "final signal deviates from the steady value by "
            f"{float(deviation[-1]):.3e} (scale {scale:.3e}); extend the trace"
        )
    return float(np.trapezoid(deviation, signal.x))


def lorentzian_response(detuning_inv_cm, fwhm_inv_cm: float):
    """Unit-peak Lorentzian spectral overlap, FWHM given in cm^-1.

    A detuning too far out for ``u * u`` overflows to an overlap of exactly
    0, the limit of 1 / (1 + u^2), so that overflow is silenced.
    """
    with np.errstate(over="ignore"):
        u = 2.0 * np.asarray(detuning_inv_cm, dtype=float) / fwhm_inv_cm
        return 1.0 / (1.0 + u * u)


def _line_profile(freq_inv_cm, center_inv_cm: float, fwhm_inv_cm: float,
                  doublet_split_inv_cm: float):
    """Spectral overlap of one optical line, optionally a resolved doublet."""
    if doublet_split_inv_cm > 0.0:
        half = doublet_split_inv_cm / 2.0
        return 0.5 * (
            lorentzian_response(freq_inv_cm - (center_inv_cm - half), fwhm_inv_cm)
            + lorentzian_response(freq_inv_cm - (center_inv_cm + half), fwhm_inv_cm)
        )
    return lorentzian_response(freq_inv_cm - center_inv_cm, fwhm_inv_cm)


def optical_spectrum(
    scan_grid_inv_cm: np.ndarray,
    line_s_inv_cm: float,
    line_t_inv_cm: float,
    cfg: PumpConfig,
    pump_setting: str,
    probe_peak_rate: float = 1e3,
    pump_peak_rate: float = 2e4,
    doublet_split_inv_cm: float = 0.0,
) -> Series:
    """Probe photoconductive spectrum with an optional parked pump laser.

    For every probe frequency on the scan grid the S and T pump rates are
    the probe rate weighted by Lorentzian overlap with the respective line,
    plus a fixed contribution from a pump laser parked on one line center
    (``pump_setting`` one of "off", "on_T", "on_S").  The reported signal is
    the probe-induced Auger rate at the combined steady state, which is what
    a lock-in referenced to the probe measures.

    ``cfg`` supplies auger/branching/randomization rates, the gain and the
    linewidth; its own pump_rate_s/pump_rate_t entries are ignored here.
    """
    if pump_setting not in PUMP_SETTINGS:
        raise ValueError(f"pump_setting must be one of {PUMP_SETTINGS}, got {pump_setting!r}")
    if not (math.isfinite(probe_peak_rate) and probe_peak_rate > 0
            and math.isfinite(pump_peak_rate) and pump_peak_rate >= 0):
        raise ValueError(
            "probe_peak_rate must be finite and > 0 and pump_peak_rate finite and >= 0, "
            f"got {probe_peak_rate!r} and {pump_peak_rate!r}"
        )
    if not (math.isfinite(line_s_inv_cm) and math.isfinite(line_t_inv_cm)):
        raise ValueError(
            f"line positions must be finite, got {line_s_inv_cm!r} and {line_t_inv_cm!r}")
    if not (math.isfinite(doublet_split_inv_cm) and doublet_split_inv_cm >= 0):
        raise ValueError(
            f"doublet_split_inv_cm must be finite and >= 0, got {doublet_split_inv_cm!r}")
    grid = np.asarray(scan_grid_inv_cm, dtype=float)
    fwhm = cfg.optical_linewidth_mhz / MHZ_PER_INV_CM
    if abs(line_s_inv_cm - line_t_inv_cm) < fwhm / 10.0:
        warnings.warn(
            "S and T line centers closer than linewidth/10; lines are degenerate",
            DegenerateLinesWarning,
            stacklevel=2,
        )

    def overlaps(freq):
        return (
            _line_profile(freq, line_s_inv_cm, fwhm, doublet_split_inv_cm),
            _line_profile(freq, line_t_inv_cm, fwhm, doublet_split_inv_cm),
        )

    pump_s = pump_t = 0.0
    if pump_setting == "on_T":
        ls, lt = overlaps(line_t_inv_cm)
        pump_s, pump_t = pump_peak_rate * ls, pump_peak_rate * lt
    elif pump_setting == "on_S":
        ls, lt = overlaps(line_s_inv_cm)
        pump_s, pump_t = pump_peak_rate * ls, pump_peak_rate * lt

    probe_s, probe_t = (probe_peak_rate * overlap for overlap in overlaps(grid))
    with np.errstate(over="ignore"):  # an overflowing rate fails its check below
        rate_s, rate_t = probe_s + pump_s, probe_t + pump_t
    p, checks = _steady_states(_rate_matrices(cfg, rate_s, rate_t))
    _raise_first_failure([
        (~(np.isfinite(rate) & (rate >= 0)), ValueError,
         lambda i, name=name, rate=rate: f"{name} must be finite and >= 0, got {float(rate[i])!r}")
        for name, rate in (("pump_rate_s", rate_s), ("pump_rate_t", rate_t))
    ] + checks)
    return Series(x=grid, values=cfg.gain * (probe_s * p[:, 0] + probe_t * p[:, 1]))
