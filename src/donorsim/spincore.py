"""Electron-nuclear spin system of a shallow donor: levels and couplings.

The model is a spin-1/2 electron hyperfine-coupled to a spin-1/2 nucleus,

    H = gamma_s * B0 * Sz - gamma_i * B0 * Iz + a * S.I

written in frequency units (MHz) in the product basis

    |up,Up>, |up,Dn>, |dn,Up>, |dn,Dn>

with the electron factor first (up/dn = electron, Up/Dn = nucleus).
Magnetic fields are handled in microtesla at the API surface and converted
to millitesla internally, so gyromagnetic ratios are MHz/mT throughout.

At zero field the eigenstates are the singlet S (energy -3a/4) and the
threefold-degenerate triplet T (energy +a/4).  A field splits the triplet;
levels are labelled "S", "T-", "T0", "T+" by adiabatic connection to the
zero-field multiplets (energy order is S < T- < T0 < T+ for every field
in the operating range).  Exactly at zero field the label assignment is
fixed by diagonalising at a reference field of 1e-6 uT along z.

``eigensystem(system, field)``, and ``eigensystems(system, fields)`` for a
stack of fields through one eigensolve, are the one source of that
labelled basis: they build H and return the energies and eigenvectors in
LABELS order.  Only ``EigenSystem`` (one field) and
``singlet_triplet_lines`` read its columns by label; the latter reads the
S -> T line frequencies and drive elements of a whole stack in a few array
calls, bit for bit the per-field ``rf_matrix_element``.  ``zeeman_operator`` is the one spelling of
gamma_s (v.S) - gamma_i (v.I), shared by the static Hamiltonian and the RF
drive (``drive_operator``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Default coupling constants for the 31P donor in 28Si.
HYPERFINE_A_MHZ = 117.53
GAMMA_S_MHZ_PER_MT = 27.972
GAMMA_I_MHZ_PER_MT = 0.017251

UT_PER_MT = 1000.0

#: Reference field (uT, along z) used to disambiguate triplet labels when
#: the applied field magnitude is below this value.
REFERENCE_FIELD_UT = 1e-6

LABELS = ("S", "T-", "T0", "T+")
_LABEL_INDEX = {label: k for k, label in enumerate(LABELS)}
TRIPLET_LABELS = ("T-", "T0", "T+")

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)

# Electron (S) and nuclear (I) spin operators on the 4-dim product space.
SX = np.kron(_SIGMA_X / 2.0, _EYE2)
SY = np.kron(_SIGMA_Y / 2.0, _EYE2)
SZ = np.kron(_SIGMA_Z / 2.0, _EYE2)
IX = np.kron(_EYE2, _SIGMA_X / 2.0)
IY = np.kron(_EYE2, _SIGMA_Y / 2.0)
IZ = np.kron(_EYE2, _SIGMA_Z / 2.0)

_S_VEC = (SX, SY, SZ)
_I_VEC = (IX, IY, IZ)

# S.I, precomputed once.
_S_DOT_I = SX @ IX + SY @ IY + SZ @ IZ


@dataclass(frozen=True)
class SpinSystem:
    """Coupling constants of the electron-nuclear pair.

    Attributes:
        hyperfine_a: isotropic hyperfine constant a (MHz), > 0.
        gamma_s: electron gyromagnetic ratio (MHz/mT), > 0.
        gamma_i: nuclear gyromagnetic ratio (MHz/mT), >= 0 and < gamma_s.
    """

    hyperfine_a: float = HYPERFINE_A_MHZ
    gamma_s: float = GAMMA_S_MHZ_PER_MT
    gamma_i: float = GAMMA_I_MHZ_PER_MT

    def __post_init__(self) -> None:
        for name in ("hyperfine_a", "gamma_s", "gamma_i"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.hyperfine_a <= 0:
            raise ValueError(f"hyperfine_a must be > 0, got {self.hyperfine_a}")
        if self.gamma_s <= 0:
            raise ValueError(f"gamma_s must be > 0, got {self.gamma_s}")
        if self.gamma_i < 0:
            raise ValueError(f"gamma_i must be >= 0, got {self.gamma_i}")
        if self.gamma_s <= self.gamma_i:
            raise ValueError(
                "gamma_s must exceed gamma_i "
                f"(got gamma_s={self.gamma_s}, gamma_i={self.gamma_i})"
            )


#: 31P donor defaults.
PHOSPHORUS = SpinSystem()


@dataclass(frozen=True)
class FieldVector:
    """Static magnetic field vector, components in microtesla."""

    bx: float = 0.0
    by: float = 0.0
    bz: float = 0.0

    def __post_init__(self) -> None:
        for name in ("bx", "by", "bz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"field component {name} must be finite")

    @classmethod
    def along_z(cls, magnitude_ut: float) -> "FieldVector":
        return cls(0.0, 0.0, magnitude_ut)

    def magnitude(self) -> float:
        return math.sqrt(self.bx**2 + self.by**2 + self.bz**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.bx, self.by, self.bz], dtype=float)

    def unit(self) -> np.ndarray:
        mag = self.magnitude()
        if mag == 0.0:
            raise ValueError("cannot normalise a zero field vector")
        return self.as_array() / mag


@dataclass(frozen=True)
class EigenSystem:
    """Labelled eigendecomposition at a given field.

    ``energies`` (MHz, shape 4) and the columns of ``vectors`` (4x4, product
    basis) are both in LABELS order S, T-, T0, T+.
    """

    energies: np.ndarray
    vectors: np.ndarray

    def energy(self, label: str) -> float:
        return float(self.energies[_label_index(label)])

    def vector(self, label: str) -> np.ndarray:
        return self.vectors[:, _label_index(label)]


def _label_index(label: str) -> int:
    try:
        return _LABEL_INDEX[label]
    except KeyError:
        raise KeyError(f"unknown level label {label!r}; expected one of {LABELS}") from None


@dataclass(frozen=True)
class TransitionLine:
    """S -> T* line: frequency plus RF matrix elements for the two drive geometries.

    Matrix elements are |<T*| gamma_s (e.S) - gamma_i (e.I) |S>| in MHz/mT for a
    unit drive direction e either parallel or perpendicular to B0 (z and x when
    the field itself vanishes).
    """

    to_label: str
    frequency_mhz: float
    element_parallel_mhz_per_mt: float
    element_perpendicular_mhz_per_mt: float


def zeeman_operator(system: SpinSystem, vector: np.ndarray) -> np.ndarray:
    """gamma_s (v.S) - gamma_i (v.I) in MHz for a vector ``v`` in mT.

    An (n, 3) stack of vectors gives the (n, 4, 4) stack of operators.  Each
    is summed as ((0 + v_x K_x) + v_y K_y) + v_z K_z with
    K = gamma_s S - gamma_i I, so it does not depend on the stack it is in.
    """
    total = 0
    for c, s, i in zip(np.moveaxis(np.asarray(vector, dtype=float), -1, 0), _S_VEC, _I_VEC):
        total = total + c[..., None, None] * (system.gamma_s * s - system.gamma_i * i)
    return total


def build_hamiltonian(system: SpinSystem, field: FieldVector) -> np.ndarray:
    """Assemble the 4x4 Hamiltonian (MHz) for a field given in microtesla."""
    return _hamiltonians(system, [field])[0]


def _hamiltonians(system: SpinSystem, fields: Sequence[FieldVector]) -> np.ndarray:
    """The (n, 4, 4) stack of ``build_hamiltonian`` for n fields."""
    b_ut = np.array([(f.bx, f.by, f.bz) for f in fields], dtype=float)
    return zeeman_operator(system, b_ut / UT_PER_MT) + system.hyperfine_a * _S_DOT_I


def eigensystem(system: SpinSystem, field: FieldVector) -> EigenSystem:
    """Diagonalise the Hamiltonian at ``field`` and label S/T-/T0/T+.

    Labels follow adiabatic connection to the zero-field multiplets.  The
    spectrum is ordered E(S) < E(T-) < E(T0) < E(T+) for every nonzero
    field in the operating range, so labels follow the ascending eigenvalue
    order.  For field magnitudes below REFERENCE_FIELD_UT the triplet is
    numerically degenerate and the eigenvectors (and hence the label basis)
    are taken from the reference field 1e-6 uT z instead, while the energies
    still come from the Hamiltonian at ``field``.
    """
    energies, vectors = eigensystems(system, [field])
    return EigenSystem(energies=energies[0], vectors=vectors[0])


def eigensystems(
    system: SpinSystem, fields: Sequence[FieldVector]
) -> tuple[np.ndarray, np.ndarray]:
    """``eigensystem`` for n fields through one stacked eigensolve.

    Returns the energies, shape (n, 4), and eigenvectors, shape (n, 4, 4),
    both in LABELS order.  Row k equals a one-field solve of ``fields[k]``
    bit for bit, whatever the other fields, and the reference-field rule
    applies field by field.
    """
    energies, vectors = np.linalg.eigh(_hamiltonians(system, fields))
    small = [k for k, f in enumerate(fields) if f.magnitude() < REFERENCE_FIELD_UT]
    if small:
        href = build_hamiltonian(system, FieldVector.along_z(REFERENCE_FIELD_UT))
        vectors[small] = np.linalg.eigh(href)[1]
    return energies, vectors


def _breit_rabi_arrays(system: SpinSystem, b0_mt):
    """Closed-form level energies (MHz) for field magnitude in mT.

    Valid for any real argument; negative values are the analytic
    continuation used by the finite-difference sensitivity evaluation.
    """
    a = system.hyperfine_a
    x = (system.gamma_s + system.gamma_i) * np.asarray(b0_mt, dtype=float) / a
    root = np.sqrt(1.0 + x * x)
    e_s = -a / 4.0 - (a / 2.0) * root
    e_t0 = -a / 4.0 + (a / 2.0) * root
    e_tm = a / 4.0 - (system.gamma_s - system.gamma_i) * np.asarray(b0_mt) / 2.0
    e_tp = a / 4.0 + (system.gamma_s - system.gamma_i) * np.asarray(b0_mt) / 2.0
    return e_s, e_tm, e_t0, e_tp


def breit_rabi_levels(system: SpinSystem, b0_ut):
    """Closed-form eigenenergies at field magnitude ``b0_ut`` (microtesla).

    Args:
        system: coupling constants.
        b0_ut: scalar or array of field magnitudes, must be >= 0.

    Returns:
        dict mapping "S", "T-", "T0", "T+" to energies in MHz (same shape
        as the input).
    """
    b0 = np.asarray(b0_ut, dtype=float)
    if not np.all(np.isfinite(b0)):
        raise ValueError("field magnitude must be finite")
    if np.any(b0 < 0):
        raise ValueError("field magnitude must be >= 0")
    with np.errstate(over="ignore"):  # an overflowing energy fails the check below
        e_s, e_tm, e_t0, e_tp = _breit_rabi_arrays(system, b0 / UT_PER_MT)
    if not np.all(np.isfinite(e_s)):
        raise ValueError(
            f"field magnitude up to {float(b0.max())!r} µT overflows the level energies")
    if np.isscalar(b0_ut):
        return {
            "S": float(e_s), "T-": float(e_tm), "T0": float(e_t0), "T+": float(e_tp)
        }
    return {"S": e_s, "T-": e_tm, "T0": e_t0, "T+": e_tp}


def _transition_frequency_mt(system: SpinSystem, to_label: str, b0_mt: float) -> float:
    """f(S -> to_label) in MHz from the closed form, field in mT (any sign)."""
    e_s, e_tm, e_t0, e_tp = _breit_rabi_arrays(system, b0_mt)
    upper = {"T-": e_tm, "T0": e_t0, "T+": e_tp}
    if to_label not in upper:
        raise ValueError(f"transition label must be one of {TRIPLET_LABELS}, got {to_label!r}")
    return float(upper[to_label] - e_s)


def transition_frequency(system: SpinSystem, to_label: str, b0_ut: float) -> float:
    """Closed-form S -> T* transition frequency (MHz) at field b0_ut >= 0 (uT)."""
    if b0_ut < 0:
        raise ValueError("field magnitude must be >= 0")
    return _transition_frequency_mt(system, to_label, b0_ut / UT_PER_MT)


def drive_operator(system: SpinSystem, drive_direction) -> np.ndarray:
    """gamma_s (e.S) - gamma_i (e.I) in MHz/mT for the unit vector e along a drive."""
    e = np.asarray(drive_direction, dtype=float)
    norm = float(np.linalg.norm(e))
    if norm == 0.0 or not np.all(np.isfinite(e)):
        raise ValueError("drive direction must be a finite nonzero vector")
    return zeeman_operator(system, e / norm)


def rf_matrix_element(
    eig: EigenSystem,
    system: SpinSystem,
    drive_direction: np.ndarray,
    to_label: str,
    from_label: str = "S",
) -> float:
    """|<to| gamma_s (e.S) - gamma_i (e.I) |from>| for unit drive direction e.

    Returned in MHz/mT: multiply by an RF amplitude in mT to get the coupling
    strength in MHz.
    """
    op = drive_operator(system, drive_direction)
    amp = np.vdot(eig.vector(to_label), op @ eig.vector(from_label))
    return float(abs(amp))


def singlet_triplet_lines(
    energies: np.ndarray, vectors: np.ndarray, operator: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (MHz) and |<T|operator|S>| of the S -> T lines of a stack of fields.

    Takes the ``eigensystems`` output of m fields and returns two (m, 3)
    arrays whose columns follow TRIPLET_LABELS.  ``operator`` is a
    ``drive_operator``; row k equals the per-field ``rf_matrix_element``
    of that drive and the ``EigenSystem`` energy differences bit for bit.
    The spellings are chosen for that: ``matmul`` on an (m, 4, 1) column
    stack makes the same 4x4 product per field as ``op @ v``, ``vecdot``
    the same sum as ``vdot``, and ``hypot`` the same magnitude as a
    scalar ``abs`` (``np.abs`` differs from it in the last bit).
    """
    s, t = _LABEL_INDEX["S"], [_LABEL_INDEX[label] for label in TRIPLET_LABELS]
    frequencies = energies[:, t] - energies[:, s, None]
    amplitudes = np.vecdot(vectors[:, :, t], np.matmul(operator, vectors[:, :, s, None]), axis=-2)
    return frequencies, np.hypot(amplitudes.real, amplitudes.imag)


def _drive_directions(field: FieldVector) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (parallel, perpendicular) unit drive directions for a field."""
    z = np.array([0.0, 0.0, 1.0])
    if field.magnitude() < REFERENCE_FIELD_UT:
        return z, np.array([1.0, 0.0, 0.0])
    par = field.unit()
    perp = np.cross(z, par)
    norm = np.linalg.norm(perp)
    if norm < 1e-12:  # field along +-z
        return par, np.array([1.0, 0.0, 0.0])
    return par, perp / norm


def transition_table(system: SpinSystem, field: FieldVector) -> list[TransitionLine]:
    """All three S -> T* lines at the given field.

    Frequencies come from the numeric eigensystem; each line carries RF
    matrix elements for drive parallel and perpendicular to the field
    direction (z and x at zero field).

    Selection rules in the parallel-field geometry: S -> T0 couples only to
    the parallel drive with element (gamma_s + gamma_i)/2 at zero field, and
    S -> T+- couple only to the perpendicular drive with element
    (gamma_s + gamma_i)/(2 sqrt 2); the forbidden combinations vanish.
    """
    energies, vectors = eigensystems(system, [field])
    par, perp = _drive_directions(field)
    frequencies, elements_par = singlet_triplet_lines(
        energies, vectors, drive_operator(system, par))
    _, elements_perp = singlet_triplet_lines(energies, vectors, drive_operator(system, perp))
    return [
        TransitionLine(
            to_label=label,
            frequency_mhz=float(frequency),
            element_parallel_mhz_per_mt=float(element_par),
            element_perpendicular_mhz_per_mt=float(element_perp),
        )
        for label, frequency, element_par, element_perp
        in zip(TRIPLET_LABELS, frequencies[0], elements_par[0], elements_perp[0])
    ]


def clock_sensitivity(
    system: SpinSystem, to_label: str, b0_ut: float
) -> tuple[float, float]:
    """First and second derivatives of an S -> T* frequency vs field magnitude.

    Central finite differences on the closed form, with step 1e-4 of the
    natural field scale a/(gamma_s + gamma_i) (relative truncation and
    round-off both land near 1e-8).  At b0 = 0 the evaluation continues the
    closed form analytically to negative arguments, which reproduces the
    one-sided physical derivatives.

    Args:
        system: coupling constants.
        to_label: "T-", "T0" or "T+" (transition from S).
        b0_ut: field magnitude in uT, >= 0.

    Returns:
        (slope, curvature) in (kHz/uT, kHz/uT^2).
    """
    if b0_ut < 0:
        raise ValueError("field magnitude must be >= 0")
    b_mt = b0_ut / UT_PER_MT
    scale_mt = system.hyperfine_a / (system.gamma_s + system.gamma_i)
    h = 1e-4 * scale_mt
    f_plus = _transition_frequency_mt(system, to_label, b_mt + h)
    f_minus = _transition_frequency_mt(system, to_label, b_mt - h)
    f_mid = _transition_frequency_mt(system, to_label, b_mt)
    slope_mhz_per_mt = (f_plus - f_minus) / (2.0 * h)
    curv_mhz_per_mt2 = (f_plus + f_minus - 2.0 * f_mid) / (h * h)
    # MHz/mT is numerically kHz/uT; curvature picks up a factor 1e-3.
    return slope_mhz_per_mt, curv_mhz_per_mt2 * 1e-3


def estimate_field_from_splitting(splitting_khz: float, system: SpinSystem) -> float:
    """Invert the T+/T- Zeeman splitting to a field magnitude.

    The splitting E(T+) - E(T-) = (gamma_s - gamma_i) B0 is exactly linear,
    so the inverse is B0 = splitting / (gamma_s - gamma_i), returned in uT
    for a splitting given in kHz.
    """
    if not math.isfinite(splitting_khz) or splitting_khz <= 0:
        raise ValueError(f"splitting must be finite and > 0, got {splitting_khz!r}")
    return splitting_khz / (system.gamma_s - system.gamma_i)
