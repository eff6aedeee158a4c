"""Noise processes and ensemble-member environments for pulsed experiments.

Every ensemble member owns a counter-based random stream keyed by
(seed, member index), so results do not depend on how members are
partitioned across workers.  In an ensemble every member stream starts in
one place: an ``EnvironmentPass`` owns a single Philox generator, re-keys it
in place to the start of each member's stream (``_restart``) and there
draws everything the ensemble engine takes from that stream, in one visit.
The member fields and line shifts that follow from those draws are then
computed for a whole block at once, as arrays.  ``member_rng`` builds the
same stream as a generator of its own; in the package only ``common_rng``
calls it, for the ensemble-wide stream.

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
from .config import COMMON_STREAM_INDEX, EnsembleSpec, SpinSystem
from .config import NoiseModel as NoiseModel  # re-exported: the library's import path


def member_rng(seed: int, index: int) -> Generator:
    """Counter-based (Philox) stream for one member, keyed by (seed, index).

    A generator of its own, for the ensemble-wide draws; an ``EnvironmentPass``
    re-keys one shared generator to the same stream instead (``_restart``),
    since a new Philox seeds itself from OS entropy before the key replaces
    that seed.
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
            system, spec.transition, spec.b0_magnitude_ut)
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
            line_mhz = spincore._line_mhz(self.system, spec.transition,
                                          spincore.field_magnitudes(shifted) / spincore.UT_PER_MT)
            detunings[inside] += (line_mhz - self._nominal_mhz) * 1e3  # MHz -> kHz
        return EnvironmentBlock(detunings_khz=detunings, fields=fields, normals=normals)


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
