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

``eigensystems(system, fields_ut)``, for an (n, 3) array of fields through
one eigensolve, is the one source of that labelled basis: it builds H
(``hamiltonians``) and returns the energies and eigenvectors in LABELS
order; one field is a one-row stack.  ``singlet_triplet_lines`` is the
one reader of its columns by label: it reads the S -> T line frequencies
and drive elements of a whole stack in a few array calls, bit for bit the
per-field oracle ``rf_matrix_element`` in ``tests/scalar_oracle.py``.
``zeeman_operator`` is the one spelling of gamma_s (v.S) - gamma_i (v.I),
shared by the static Hamiltonian and the RF drive (``drive_operator``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TRIPLET_LABELS, SpinSystem

UT_PER_MT = 1000.0

#: Reference field (uT, along z) used to disambiguate triplet labels when
#: the applied field magnitude is below this value.
REFERENCE_FIELD_UT = 1e-6

LABELS = ("S", "T-", "T0", "T+")

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


@dataclass(frozen=True)
class TransitionLine:
    """S -> T* line and its RF matrix element for a drive parallel to B0.

    The element is |<T*| gamma_s (e.S) - gamma_i (e.I) |S>| in MHz/mT for the
    unit drive direction e along B0 (along z when the field itself vanishes).
    """

    to_label: str
    element_parallel_mhz_per_mt: float


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


def field_magnitudes(fields: np.ndarray) -> np.ndarray:
    """|B| of each row of an (n, 3) field array, bit for bit ``FieldVector.magnitude``.

    ``np.float_power(b, 2.0)`` is libm's ``pow``, as ``b**2`` is (``b * b``
    differs from it in the last bit), and the squares add in component order.
    """
    squares = np.float_power(fields, 2.0)
    return np.sqrt((squares[:, 0] + squares[:, 1]) + squares[:, 2])


def hamiltonians(system: SpinSystem, fields_ut: np.ndarray) -> np.ndarray:
    """The (n, 4, 4) Hamiltonians (MHz) of an (n, 3) field array in uT."""
    return zeeman_operator(system, fields_ut / UT_PER_MT) + system.hyperfine_a * _S_DOT_I


def eigensystems(system: SpinSystem, fields_ut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise n fields in one eigensolve, labelled S/T-/T0/T+.

    ``fields_ut`` is an (n, 3) array of fields (x, y, z) in uT; one field is
    a one-row stack.  Returns the energies, shape (n, 4), and eigenvectors,
    shape (n, 4, 4), both in LABELS order, which is ascending energy for
    every nonzero field in the operating range (adiabatic connection to the
    zero-field multiplets).  A row whose ``field_magnitudes`` is below
    REFERENCE_FIELD_UT takes its eigenvectors from the reference field along
    z, as the triplet is degenerate there; its energies are its own.  Row k
    is the same bits whatever the other rows.
    """
    energies, vectors = np.linalg.eigh(hamiltonians(system, fields_ut))
    small = field_magnitudes(fields_ut) < REFERENCE_FIELD_UT
    if small.any():
        href = hamiltonians(system, np.array([[0.0, 0.0, REFERENCE_FIELD_UT]]))[0]
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


def _line_mhz(system: SpinSystem, to_label: str, b_mt):
    """f(S -> to_label) in MHz from the closed form, field in mT (any sign, scalar or array)."""
    if to_label not in TRIPLET_LABELS:
        raise ValueError(f"transition label must be one of {TRIPLET_LABELS}, got {to_label!r}")
    levels = _breit_rabi_arrays(system, b_mt)
    return levels[LABELS.index(to_label)] - levels[0]


def transition_frequency(system: SpinSystem, to_label: str, b0_ut: float) -> float:
    """Closed-form S -> T* transition frequency (MHz) at field b0_ut >= 0 (uT)."""
    if b0_ut < 0:
        raise ValueError("field magnitude must be >= 0")
    return float(_line_mhz(system, to_label, b0_ut / UT_PER_MT))


def drive_operator(system: SpinSystem, drive_direction) -> np.ndarray:
    """gamma_s (e.S) - gamma_i (e.I) in MHz/mT for e along a finite nonzero 3-vector drive."""
    e = np.asarray(drive_direction, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected as infinite
        norm = float(np.linalg.norm(e)) if e.shape == (3,) else math.nan
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"drive direction must be a finite nonzero 3-vector, got {e.tolist()}")
    return zeeman_operator(system, e / norm)


def singlet_triplet_lines(
    energies: np.ndarray, vectors: np.ndarray, operator: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (MHz) and |<T|operator|S>| of the S -> T lines of a stack of fields.

    Takes the ``eigensystems`` output of m fields and returns two (m, 3)
    arrays whose columns follow TRIPLET_LABELS.  ``operator`` is a
    ``drive_operator``; row k equals the per-field oracle
    ``rf_matrix_element`` (``tests/scalar_oracle.py``) of that drive and the
    energy differences of row k bit for bit.
    The spellings are chosen for that: ``matmul`` on an (m, 4, 1) column
    stack makes the same 4x4 product per field as ``op @ v``, ``vecdot``
    the same sum as ``vdot``, and ``hypot`` the same magnitude as a
    scalar ``abs`` (``np.abs`` differs from it in the last bit).
    """
    s, t = LABELS.index("S"), [LABELS.index(label) for label in TRIPLET_LABELS]
    frequencies = energies[:, t] - energies[:, s, None]
    amplitudes = np.vecdot(vectors[:, :, t], np.matmul(operator, vectors[:, :, s, None]), axis=-2)
    return frequencies, np.hypot(amplitudes.real, amplitudes.imag)


def _parallel_direction(field: FieldVector) -> np.ndarray:
    """Unit drive direction along a field (along z below REFERENCE_FIELD_UT)."""
    if field.magnitude() < REFERENCE_FIELD_UT:
        return np.array([0.0, 0.0, 1.0])
    return field.as_array() / field.magnitude()


def transition_table(system: SpinSystem, field: FieldVector) -> list[TransitionLine]:
    """All three S -> T* lines at the given field, with the RF matrix element
    for a drive parallel to the field direction (z at zero field).

    A line's frequency is ``transition_frequency`` (closed form) or an
    energy difference of ``eigensystems``; the element of any other drive,
    such as ``DRIVE_DIRECTIONS["perpendicular"]``, is one
    ``singlet_triplet_lines`` call with that ``drive_operator``.

    Selection rules in the parallel-field geometry: S -> T0 couples only to
    the parallel drive with element (gamma_s + gamma_i)/2 at zero field, and
    S -> T+- couple only to the perpendicular drive with element
    (gamma_s + gamma_i)/(2 sqrt 2); the forbidden combinations vanish.
    """
    energies, vectors = eigensystems(system, field.as_array()[None])
    _, elements = singlet_triplet_lines(
        energies, vectors, drive_operator(system, _parallel_direction(field)))
    return [TransitionLine(to_label=label, element_parallel_mhz_per_mt=float(element))
            for label, element in zip(TRIPLET_LABELS, elements[0])]


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
    f_plus, f_minus, f_mid = _line_mhz(
        system, to_label, np.array([b_mt + h, b_mt - h, b_mt])).tolist()
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
