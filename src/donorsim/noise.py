"""Noise processes and ensemble-member environments for pulsed experiments.

Every ensemble member owns a counter-based random stream keyed by
(seed, member index), so results do not depend on how members are
partitioned across workers.  A member's environment freezes its static
detuning and (for a configurable subpopulation) an internal field of fixed
magnitude and isotropic orientation; slow field fluctuations are an
Ornstein-Uhlenbeck process sampled with the exact joint update of the
process value and its time integral, making the statistics independent of
the stepping interval.

Field noise is quoted in detuning units: ``ou_sigma_khz`` is the standard
deviation the process imprints on a maximally field-sensitive line (slope
(gamma_s - gamma_i)/2, the S -> T+- value).  Each member scales it by the
ratio of its own transition's |dnu/dB0| to that reference slope, which is
how a clock transition is protected from the same field noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import spincore
from .spincore import FieldVector, SpinSystem

#: Reserved stream index for draws shared by the whole ensemble (e.g. the
#: shot-to-shot common-mode echo phase).  Member indices must stay below it.
COMMON_STREAM_INDEX = 2**63

ORIENTATIONS = ("parallel", "perpendicular")


@dataclass(frozen=True)
class NoiseModel:
    """Noise and decoherence parameters for ensemble experiments.

    Attributes:
        static_detuning_khz: Gaussian sigma of a per-member frozen detuning.
        ou_sigma_khz: OU field-noise amplitude, quoted as the detuning sigma
            it produces on a maximally field-sensitive transition.
        ou_tau_c_s: OU correlation time (s).
        internal_fraction: fraction of members carrying an internal field.
        internal_field_ut: magnitude (uT) of that internal field; orientation
            is isotropic per member.
        phenomenological_t2_s: optional closed-form echo decay time; when set,
            exp(-(2 tau / T2)^n) multiplies the echo signal.
        stretching_n: stretching exponent n of the phenomenological decay.
    """

    static_detuning_khz: float = 0.0
    ou_sigma_khz: float = 0.0
    ou_tau_c_s: float = 1.0
    internal_fraction: float = 0.0
    internal_field_ut: float = 6.0
    phenomenological_t2_s: float | None = None
    stretching_n: float = 1.0

    def __post_init__(self) -> None:
        if self.static_detuning_khz < 0 or not math.isfinite(self.static_detuning_khz):
            raise ValueError("static_detuning_khz must be finite and >= 0")
        if self.ou_sigma_khz < 0 or not math.isfinite(self.ou_sigma_khz):
            raise ValueError("ou_sigma_khz must be finite and >= 0")
        if self.ou_tau_c_s <= 0 or not math.isfinite(self.ou_tau_c_s):
            raise ValueError("ou_tau_c_s must be finite and > 0")
        if not 0.0 <= self.internal_fraction <= 1.0:
            raise ValueError("internal_fraction must lie in [0, 1]")
        if self.internal_field_ut < 0 or not math.isfinite(self.internal_field_ut):
            raise ValueError("internal_field_ut must be finite and >= 0")
        t2 = self.phenomenological_t2_s
        if t2 is not None and not (math.isfinite(t2) and t2 > 0):
            raise ValueError("phenomenological_t2_s must be finite and > 0 when set")
        if self.stretching_n <= 0 or not math.isfinite(self.stretching_n):
            raise ValueError("stretching_n must be finite and > 0")


@dataclass(frozen=True)
class EnsembleSpec:
    """Which transition is driven, at what field, over how many members.

    The static field B0 lies along z; the RF field direction is z for
    ``b0_orientation="parallel"`` and x for "perpendicular".
    """

    n_members: int
    seed: int
    noise: NoiseModel = NoiseModel()
    transition: str = "T0"
    b0_magnitude_ut: float = 0.0
    b0_orientation: str = "parallel"
    b1_amplitude_mt: float = 1e-3

    def __post_init__(self) -> None:
        if self.n_members < 1:
            raise ValueError("n_members must be >= 1")
        if not 0 <= self.seed < COMMON_STREAM_INDEX:
            raise ValueError(f"seed must lie in [0, 2^63), got {self.seed!r}")
        if self.transition not in spincore.TRIPLET_LABELS:
            raise ValueError(
                f"transition must be one of {spincore.TRIPLET_LABELS}, got {self.transition!r}"
            )
        if self.b0_magnitude_ut < 0 or not math.isfinite(self.b0_magnitude_ut):
            raise ValueError("b0_magnitude_ut must be finite and >= 0")
        if self.b0_orientation not in ORIENTATIONS:
            raise ValueError(f"b0_orientation must be one of {ORIENTATIONS}")
        if self.b1_amplitude_mt <= 0 or not math.isfinite(self.b1_amplitude_mt):
            raise ValueError("b1_amplitude_mt must be finite and > 0")


@dataclass
class MemberEnvironment:
    """Frozen per-member disorder plus the member's private random stream."""

    rng: np.random.Generator
    static_detuning_khz: float
    ou_sigma_khz: float
    ou_tau_c_s: float
    field: FieldVector
    shot_phase_rad: float = 0.0


def member_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based (Philox) stream for one member, keyed by (seed, index)."""
    if index < 0:
        raise ValueError("member index must be >= 0")
    return np.random.Generator(np.random.Philox(key=seed + (index << 64)))


def common_rng(seed: int) -> np.random.Generator:
    """Stream for ensemble-wide draws, distinct from every member stream."""
    return member_rng(seed, COMMON_STREAM_INDEX)


def sensitivity_factor(system: SpinSystem, transition: str, b0_ut: float) -> float:
    """|dnu/dB0| of a transition relative to the reference slope (gamma_s-gamma_i)/2."""
    slope, _ = spincore.clock_sensitivity(system, transition, b0_ut)
    reference = (system.gamma_s - system.gamma_i) / 2.0
    return abs(slope) / reference


class EnvironmentPass:
    """Draws member environments a block at a time for one ensemble.

    The per-ensemble constants (the OU sigma every member sees on its
    driven line, the nominal field and line frequency) are computed once,
    when the pass is made; ``draw`` then only spends per-member work.

    Draw order in each member's private stream (fixed; later draws in the
    same stream belong to the pulse sequences run on this member): (1)
    static detuning normal deviate, (2) subpopulation uniform, (3)
    internal-field direction as z-uniform and azimuth-uniform deviates.
    Members outside the internal-field subpopulation still consume the
    direction draws so that membership of other members never shifts
    anyone's stream.
    """

    def __init__(self, spec: EnsembleSpec, system: SpinSystem) -> None:
        self.spec = spec
        self.system = system
        factor = sensitivity_factor(system, spec.transition, spec.b0_magnitude_ut)
        #: The OU sigma every member sees on its driven line (model sigma x sensitivity).
        self.ou_sigma_khz = spec.noise.ou_sigma_khz * factor
        self._b0 = FieldVector.along_z(spec.b0_magnitude_ut)
        self._nominal_mhz = spincore.transition_frequency(
            system, spec.transition, self._b0.magnitude())

    def blocks(self, size: int) -> Iterator[list[MemberEnvironment]]:
        """The whole ensemble's environments in index order, at most ``size`` at a time."""
        n_members = self.spec.n_members
        for first in range(0, n_members, size):
            yield self.draw(first, min(first + size, n_members))

    def draw(self, first: int, stop: int) -> list[MemberEnvironment]:
        """The environments of members ``first`` .. ``stop - 1``, in index order."""
        spec, system, b0 = self.spec, self.system, self._b0
        noise = spec.noise
        internal_ut = noise.internal_field_ut
        envs = []
        for index in range(first, stop):
            rng = member_rng(spec.seed, index)
            detuning = noise.static_detuning_khz * float(rng.standard_normal())
            in_subpop = float(rng.random()) < noise.internal_fraction
            cos_theta = 2.0 * float(rng.random()) - 1.0
            azimuth = 2.0 * math.pi * float(rng.random())

            field = b0
            if in_subpop and internal_ut > 0.0:
                sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta**2))
                field = FieldVector(b0.bx + sin_theta * math.cos(azimuth) * internal_ut,
                                    b0.by + sin_theta * math.sin(azimuth) * internal_ut,
                                    b0.bz + cos_theta * internal_ut)
                shifted = spincore.transition_frequency(
                    system, spec.transition, field.magnitude())
                detuning += (shifted - self._nominal_mhz) * 1e3  # MHz -> kHz

            envs.append(MemberEnvironment(
                rng=rng,
                static_detuning_khz=detuning,
                ou_sigma_khz=self.ou_sigma_khz,
                ou_tau_c_s=noise.ou_tau_c_s,
                field=field,
            ))
        return envs


def draw_member_environment(
    spec: EnsembleSpec, system: SpinSystem, index: int
) -> MemberEnvironment:
    """Draw one member's frozen environment from its private stream.

    A one-member ``EnvironmentPass``; its docstring gives the draw order.
    """
    return EnvironmentPass(spec, system).draw(index, index + 1)[0]


def _integral_variance_factor(eps: float) -> float:
    """2*eps - 3 + 4*exp(-eps) - exp(-2*eps), series-stabilised for small eps."""
    if eps < 0.01:
        return eps**3 * (2.0 / 3.0 - eps / 2.0 + 7.0 * eps**2 / 30.0 - eps**3 / 12.0)
    return 2.0 * eps - 3.0 + 4.0 * math.exp(-eps) - math.exp(-2.0 * eps)


def _ou_coefficients(
    dt_s: float, sigma: float, tau_c_s: float
) -> tuple[float, float, float, float, float]:
    """Constants of the exact OU step over dt > 0: (mu, sd_x, sd_i, rho, sqrt(1 - rho^2)).

    The step from x is new_x = x mu + sd_x n1 and integral =
    x tau_c (1 - mu) + sd_i (rho n1 + sqrt(1 - rho^2) n2) for independent
    standard normals n1, n2.
    """
    eps = dt_s / tau_c_s
    mu = math.exp(-eps)
    var_x = sigma**2 * (1.0 - mu * mu)
    var_i = sigma**2 * tau_c_s**2 * _integral_variance_factor(eps)
    cov = sigma**2 * tau_c_s * (1.0 - mu) ** 2
    sd_x = math.sqrt(max(var_x, 0.0))
    sd_i = math.sqrt(max(var_i, 0.0))
    rho = 0.0 if sd_x == 0.0 or sd_i == 0.0 else min(max(cov / (sd_x * sd_i), -1.0), 1.0)
    return mu, sd_x, sd_i, rho, math.sqrt(max(0.0, 1.0 - rho * rho))


def stretched_envelope(tau_s, t2_s: float, n: float):
    """Phenomenological echo envelope exp(-(2 tau / T2)^n)."""
    return np.exp(-((2.0 * np.asarray(tau_s, dtype=float) / t2_s) ** n))
