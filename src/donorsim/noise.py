"""Noise processes and ensemble-member environments for pulsed experiments.

Every ensemble member owns a counter-based random stream keyed by
(seed, member index), so results do not depend on how members are
partitioned across workers.  In an ensemble every member stream starts in
one place: an ``EnvironmentPass`` owns a single Philox generator, re-keys it
in place to the start of each member's stream (``_restart``) and there
draws everything the ensemble engine takes from that stream, in one visit.
The member fields and line shifts that follow from those draws are then
computed for a whole block at once, as arrays.  ``member_rng`` builds the
same stream as a generator of its own, for single runs
(``pulse.run_sequence``) and the ensemble-wide ``common_rng``.

A member's environment freezes its static detuning and (for a
configurable subpopulation) an internal field of fixed magnitude and
isotropic orientation; slow field fluctuations are an Ornstein-Uhlenbeck
process sampled with the exact joint update of the process value and its
time integral, making the statistics independent of the stepping interval.

Field noise is quoted in detuning units: ``ou_sigma_khz`` is the standard
deviation the process imprints on a maximally field-sensitive line (slope
(gamma_s - gamma_i)/2, the S -> T+- value).  Every member scales it by
one factor, ``sensitivity_factor``: the ratio of the driven transition's
|dnu/dB0| at the nominal field B0 to that reference slope, which is how a
clock transition is protected from the same field noise.  Members with an
internal field keep that nominal-field factor, although their line sits
at |B0 + B_int|: on the clock line at B0 = 0 their echo does not decay at
all.  A factor at each member's own field is open work (ROADMAP.md, the
per-member field sensitivity of the OU noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox

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
        # the largest components a member's field can take: B0 + B_int along z,
        # B_int across; their squares must sum without overflow
        across_ut = self.noise.internal_field_ut if self.noise.internal_fraction > 0.0 else 0.0
        reach_ut = self.b0_magnitude_ut + across_ut
        if not math.isfinite(reach_ut * reach_ut + 2.0 * (across_ut * across_ut)):
            raise ValueError(f"field magnitude up to {reach_ut!r} µT overflows its square")


@dataclass
class MemberEnvironment:
    """Frozen per-member disorder plus the member's private random stream."""

    rng: Generator
    static_detuning_khz: float
    ou_sigma_khz: float
    ou_tau_c_s: float
    field: FieldVector
    shot_phase_rad: float = 0.0


def member_rng(seed: int, index: int) -> Generator:
    """Counter-based (Philox) stream for one member, keyed by (seed, index).

    A generator of its own, for single runs and ensemble-wide draws; an
    ``EnvironmentPass`` re-keys one shared generator to the same stream
    instead (``_restart``), since a new Philox seeds itself from OS entropy
    before the key replaces that seed.
    """
    if index < 0:
        raise ValueError("member index must be >= 0")
    return Generator(Philox(key=seed + (index << 64)))


def common_rng(seed: int) -> Generator:
    """Stream for ensemble-wide draws, distinct from every member stream."""
    return member_rng(seed, COMMON_STREAM_INDEX)


_FRESH_WORDS = (0, 0, 0, 0)
_WORD_MASK = (1 << 64) - 1


def _restart(bitgen: Philox, seed: int, index: int) -> None:
    """Re-key ``bitgen`` in place to the start of member stream (seed, index).

    Sets the state ``Philox(key=seed + (index << 64))`` starts from: counter
    zero, an empty output buffer (``buffer_pos = 4``) and no buffered
    32-bit half-word, whatever the previous stream left behind.  The words
    are plain tuples: numpy arrays would triple the cost of the setter.
    """
    if index < 0:
        raise ValueError("member index must be >= 0")
    key = seed + (index << 64)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _FRESH_WORDS, "key": (key & _WORD_MASK, key >> 64)},
        "buffer": _FRESH_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def sensitivity_factor(system: SpinSystem, transition: str, b0_ut: float) -> float:
    """|dnu/dB0| of a transition relative to the reference slope (gamma_s-gamma_i)/2."""
    slope, _ = spincore.clock_sensitivity(system, transition, b0_ut)
    reference = (system.gamma_s - system.gamma_i) / 2.0
    return abs(slope) / reference


@dataclass(frozen=True)
class EnvironmentBlock:
    """The environments of consecutive ensemble members, in index order.

    Attributes:
        detunings_khz: (members,) frozen detunings, internal-field line
            shifts included.
        fields: (members, 3) total static fields, components (x, y, z) in
            uT; row i holds the ``FieldVector`` components of member i.
        normals: (members, n_draws) standard normals; row i continues member
            i's stream right after its four environment draws.
    """

    detunings_khz: np.ndarray
    fields: np.ndarray
    normals: np.ndarray


class EnvironmentPass:
    """Draws member environments a block at a time for one ensemble.

    The per-ensemble constants (the OU sigma every member sees on its
    driven line, the nominal field and line frequency) are computed once,
    when the pass is made.  The pass owns one Philox generator and re-keys
    it to each member's stream (``_restart``), so no member costs a
    generator of its own.  Per member, ``draw`` only re-keys and draws;
    fields and line shifts are then computed for the whole block in array
    calls, each the exact spelling of the scalar step it replaces.

    Draw order in each member's private stream (fixed): (1) static
    detuning normal deviate, (2) subpopulation uniform, (3) internal-field
    direction as z-uniform and azimuth-uniform deviates, then (4) the
    ``n_draws`` normals the pulse sequences run on this member take.
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
        self._nominal_mhz = spincore.transition_frequency(
            system, spec.transition, FieldVector.along_z(spec.b0_magnitude_ut).magnitude())
        self._bitgen = Philox()
        self._rng = Generator(self._bitgen)

    def blocks(self, size: int, n_draws: int = 0) -> Iterator[EnvironmentBlock]:
        """The whole ensemble's environments in index order, at most ``size`` at a time."""
        n_members = self.spec.n_members
        for first in range(0, n_members, size):
            yield self.draw(first, min(first + size, n_members), n_draws)

    def draw(self, first: int, stop: int, n_draws: int = 0) -> EnvironmentBlock:
        """The environments of members ``first`` .. ``stop - 1`` and ``n_draws`` normals each."""
        spec, noise = self.spec, self.spec.noise
        bitgen, rng, seed = self._bitgen, self._rng, spec.seed
        # per member: (normal, subpopulation, z, azimuth) deviates, then the normals
        deviates = np.empty((stop - first, 4))
        normals = np.empty((stop - first, n_draws))
        for index, row, more in zip(range(first, stop), deviates, normals):
            _restart(bitgen, seed, index)
            row[0] = rng.standard_normal()
            rng.random(out=row[1:])
            if n_draws:
                rng.standard_normal(out=more)
        detunings = noise.static_detuning_khz * deviates[:, 0]
        fields = np.zeros((stop - first, 3))
        fields[:, 2] = spec.b0_magnitude_ut
        internal_ut = noise.internal_field_ut
        inside = deviates[:, 1] < noise.internal_fraction
        if internal_ut > 0.0 and inside.any():
            cos_theta = 2.0 * deviates[inside, 2] - 1.0
            azimuth = 2.0 * math.pi * deviates[inside, 3]
            sin_theta = np.sqrt(np.maximum(0.0, 1.0 - np.float_power(cos_theta, 2.0)))
            shifted = fields[inside]
            shifted[:, 0] += (sin_theta * np.cos(azimuth)) * internal_ut
            shifted[:, 1] += (sin_theta * np.sin(azimuth)) * internal_ut
            shifted[:, 2] += cos_theta * internal_ut
            fields[inside] = shifted
            levels = spincore._breit_rabi_arrays(
                self.system, spincore.field_magnitudes(shifted) / spincore.UT_PER_MT)
            line_mhz = levels[spincore.LABELS.index(spec.transition)] - levels[0]
            detunings[inside] += (line_mhz - self._nominal_mhz) * 1e3  # MHz -> kHz
        return EnvironmentBlock(detunings_khz=detunings, fields=fields, normals=normals)


def draw_member_environment(
    spec: EnsembleSpec, system: SpinSystem, index: int
) -> MemberEnvironment:
    """Draw one member's frozen environment from its private stream.

    A one-member ``EnvironmentPass``; its docstring gives the draw order.
    The returned ``rng`` is that pass's own generator, left right after the
    four environment draws, so it continues as ``member_rng(spec.seed,
    index)`` would after them.
    """
    envs = EnvironmentPass(spec, system)
    block = envs.draw(index, index + 1)
    return MemberEnvironment(
        rng=envs._rng,
        static_detuning_khz=float(block.detunings_khz[0]),
        ou_sigma_khz=envs.ou_sigma_khz,
        ou_tau_c_s=spec.noise.ou_tau_c_s,
        field=FieldVector(*block.fields[0].tolist()),
    )


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
