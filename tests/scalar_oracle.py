"""Scalar two-level propagation: the test oracle of the block ensemble engine.

One complex spinor, one event and one OU step at a time, in plain Python
arithmetic.  ``pulse.run_sequence`` and ``pulse._ensemble_blocks`` must
equal ``run_sequence`` here bit for bit; ``propagate_pulse`` is checked
against the matrix exponential and ``ou_step`` against brute-force
Euler-Maruyama moments.  ``tests/golden/regen.py`` builds
``cpmg2_run_sequence.csv`` through this module, so that golden does not
depend on the engine it pins.

``draw_member_environment`` and ``eigensystem`` are one member's
environment and one field's eigensolve, one at a time: the oracle of the
block environment pass (``noise.EnvironmentPass``) and the stacked
eigensolve (``spincore.eigensystems``).

``steady_state``/``optical_spectrum`` solve one probe point's rate matrix
at a time, and ``numeric_jacobian`` shifts one parameter per residual
call: the oracles of the stacked steady states in ``pump`` and the
one-call Jacobian in ``fitkit``.

``rf_spectrum`` adds one member's S -> T lines at a time, each from its own
``vdot``: the oracle of the stacked line pass and ordered reduction of
``pulse.rf_spectrum``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from donorsim import pump, spincore
from donorsim.fitkit import JACOBIAN_REL_STEP, ResidualFn, _safe_residual
from donorsim.noise import EnsembleSpec, MemberEnvironment, _ou_coefficients, member_rng
from donorsim.program import Delay, Pulse, PulseProgram, UnboundSymbolError
from donorsim.pulse import TwoLevelParams
from donorsim.pump import NoUniqueSteadyStateError, PopulationState, PumpConfig
from donorsim.spincore import FieldVector, SpinSystem


def ou_step(
    x: float, dt_s: float, sigma: float, tau_c_s: float, rng: np.random.Generator
) -> tuple[float, float]:
    """Advance an OU process by dt and return (new value, integral over dt).

    Uses the exact joint Gaussian update of the process and its integral,
    so the distribution of both is independent of how a time interval is
    subdivided.  ``sigma`` is the stationary standard deviation; the
    returned integral has units of sigma * seconds.  A zero-sigma process
    consumes no randomness.
    """
    if dt_s < 0:
        raise ValueError("dt_s must be >= 0")
    if sigma == 0.0 or dt_s == 0.0:
        return (x * math.exp(-dt_s / tau_c_s) if sigma != 0.0 else 0.0, x * 0.0)
    mu, sd_x, sd_i, rho, rho_c = _ou_coefficients(dt_s, sigma, tau_c_s)
    n1 = float(rng.standard_normal())
    n2 = float(rng.standard_normal())
    new_x = x * mu + sd_x * n1
    integral = x * tau_c_s * (1.0 - mu) + sd_i * (rho * n1 + rho_c * n2)
    return new_x, integral


def _rotate(a: complex, b: complex, nx: float, ny: float, nz: float,
            angle: float) -> tuple[complex, complex]:
    """Exact SU(2) rotation of the spinor (a, b) about unit axis n by angle."""
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    u00 = complex(c, -s * nz)
    u01 = complex(-s * ny, -s * nx)
    u10 = complex(s * ny, -s * nx)
    u11 = complex(c, s * nz)
    return u00 * a + u01 * b, u10 * a + u11 * b


def propagate_pulse(state: np.ndarray, pulse: Pulse, params: TwoLevelParams) -> np.ndarray:
    """Apply one finite RF pulse as an exact SU(2) rotation.

    The rotation axis is (Omega cos phi, Omega sin phi, 2 pi detuning) and
    the angle is the generalized Rabi frequency times the pulse duration.
    The duration comes from the pulse itself, or from the nominal angle and
    Omega when the pulse carries none.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (2,):
        raise ValueError("state must be a complex 2-vector")
    norm = float(np.linalg.norm(state))
    if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"state must be normalized, got |state| = {norm!r}")
    omega = params.omega_rad_per_s
    delta = params.detuning_rad_per_s
    if pulse.duration_s is not None:
        duration = pulse.duration_s
    else:
        if omega == 0.0:
            raise ValueError("cannot derive duration from angle at zero Rabi frequency")
        duration = pulse.angle_rad / omega
    n_eff = math.hypot(omega, delta)
    if n_eff == 0.0 or duration == 0.0:
        return state.copy()
    a, b = _rotate(
        complex(state[0]), complex(state[1]),
        (omega / n_eff) * math.cos(pulse.phase_rad),
        (omega / n_eff) * math.sin(pulse.phase_rad),
        delta / n_eff,
        n_eff * duration,
    )
    return np.array([a, b], dtype=complex)


def run_sequence(
    program: PulseProgram,
    params: TwoLevelParams,
    env: MemberEnvironment | None = None,
    *,
    detuning_during_pulses: bool = False,
) -> tuple[float, float]:
    """Run one bound, cycle-free program from |S> and return (p_S, p_T).

    Delays accumulate z phase from the static detuning (params plus the
    member's frozen offset) and, when the environment carries OU noise, from
    the exact OU phase integral over the delay; the OU state persists across
    the events of one run.  Pulses are ideal nominal rotations by default
    (see module docstring); the environment's shot phase, when nonzero, is
    applied as an extra z rotation just before the final pulse, modelling
    the net uncancelled common-mode phase of one shot.

    Raises UnboundSymbolError for symbolic delays and ValueError for
    unexpanded phase cycles.
    """
    if program.cycles:
        raise ValueError("program still has phase cycles; expand with .shots() first")
    static_khz = params.detuning_offset_khz + (env.static_detuning_khz if env else 0.0)
    delta_ang = 2.0 * math.pi * static_khz * 1e3
    a, b = 1.0 + 0.0j, 0.0 + 0.0j

    ou_sigma = env.ou_sigma_khz if env is not None else 0.0
    ou_x = 0.0
    if env is not None and ou_sigma > 0.0:
        ou_x = ou_sigma * float(env.rng.standard_normal())

    last_pulse_index = max(
        (i for i, ev in enumerate(program.events) if isinstance(ev, Pulse)),
        default=None,
    )
    for index, event in enumerate(program.events):
        if isinstance(event, Delay):
            if event.symbol is not None:
                raise UnboundSymbolError(f"unbound delay symbol {event.symbol!r}")
            tau = event.duration_s
            phase = delta_ang * tau
            if env is not None and ou_sigma > 0.0:
                ou_x, integral = ou_step(ou_x, tau, ou_sigma, env.ou_tau_c_s, env.rng)
                phase += 2.0 * math.pi * 1e3 * integral
            if phase != 0.0:
                a, b = _rotate(a, b, 0.0, 0.0, 1.0, phase)
            continue
        if env is not None and env.shot_phase_rad != 0.0 and index == last_pulse_index:
            a, b = _rotate(a, b, 0.0, 0.0, 1.0, env.shot_phase_rad)
        if detuning_during_pulses:
            member_params = replace(params, detuning_offset_khz=static_khz)
            state = propagate_pulse(np.array([a, b]), event, member_params)
            a, b = complex(state[0]), complex(state[1])
        else:
            a, b = _rotate(
                a, b,
                math.cos(event.phase_rad), math.sin(event.phase_rad), 0.0,
                event.angle_rad,
            )
    p_s = abs(a) ** 2
    p_t = abs(b) ** 2
    total = p_s + p_t
    if abs(total - 1.0) > 1e-10:
        raise RuntimeError(f"propagation lost norm: {total!r}")
    return p_s, p_t


def draw_member_environment(
    spec: EnsembleSpec, system: SpinSystem, index: int
) -> MemberEnvironment:
    """Draw one member's frozen environment from its private stream.

    Draw order: static detuning normal deviate, subpopulation uniform, then
    the internal-field direction as z-uniform and azimuth-uniform deviates,
    which members outside the subpopulation consume too.
    """
    rng = member_rng(spec.seed, index)
    noise = spec.noise
    detuning = noise.static_detuning_khz * float(rng.standard_normal())
    in_subpop = float(rng.random()) < noise.internal_fraction
    cos_theta = 2.0 * float(rng.random()) - 1.0
    azimuth = 2.0 * math.pi * float(rng.random())

    b0 = FieldVector.along_z(spec.b0_magnitude_ut)
    field = b0
    if in_subpop and noise.internal_field_ut > 0.0:
        sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta**2))
        internal = np.array(
            [
                sin_theta * math.cos(azimuth),
                sin_theta * math.sin(azimuth),
                cos_theta,
            ]
        ) * noise.internal_field_ut
        field = FieldVector(
            b0.bx + internal[0], b0.by + internal[1], b0.bz + internal[2]
        )
        shifted = spincore.transition_frequency(system, spec.transition, field.magnitude())
        nominal = spincore.transition_frequency(system, spec.transition, b0.magnitude())
        detuning += (shifted - nominal) * 1e3  # MHz -> kHz

    slope, _ = spincore.clock_sensitivity(system, spec.transition, spec.b0_magnitude_ut)
    factor = abs(slope) / ((system.gamma_s - system.gamma_i) / 2.0)
    return MemberEnvironment(
        rng=rng,
        static_detuning_khz=detuning,
        ou_sigma_khz=noise.ou_sigma_khz * factor,
        ou_tau_c_s=noise.ou_tau_c_s,
        field=field,
    )


def eigensystem(system: SpinSystem, field: FieldVector) -> tuple[np.ndarray, np.ndarray]:
    """Energies and eigenvectors at one field, from one 4x4 ``eigh``.

    Below REFERENCE_FIELD_UT the eigenvectors come from the reference field
    along z instead; the energies always come from ``field``.
    """
    def hamiltonian(f: FieldVector) -> np.ndarray:
        b_mt = f.as_array() / spincore.UT_PER_MT
        zeeman = sum(
            c * (system.gamma_s * s - system.gamma_i * i)
            for c, s, i in zip(b_mt, (spincore.SX, spincore.SY, spincore.SZ),
                               (spincore.IX, spincore.IY, spincore.IZ))
        )
        return zeeman + system.hyperfine_a * (
            spincore.SX @ spincore.IX + spincore.SY @ spincore.IY + spincore.SZ @ spincore.IZ)

    energies, vectors = np.linalg.eigh(hamiltonian(field))
    if field.magnitude() < spincore.REFERENCE_FIELD_UT:
        _, vectors = np.linalg.eigh(hamiltonian(FieldVector.along_z(spincore.REFERENCE_FIELD_UT)))
    return energies, vectors


def steady_state(cfg: PumpConfig) -> PopulationState:
    """Unique normalized null vector of one rate matrix, from one 3x3 SVD."""
    m = pump.rate_matrix(cfg)
    scale = float(np.abs(m).max())
    if scale == 0.0:
        raise NoUniqueSteadyStateError("all rates are zero")
    ms = m / scale
    _, singular_values, vt = np.linalg.svd(ms)
    null_mask = singular_values < 1e-10
    if int(null_mask.sum()) != 1:
        raise NoUniqueSteadyStateError(
            f"null space dimension {int(null_mask.sum())}, expected 1"
        )
    p = vt[-1]
    total = p.sum()
    if abs(total) < 1e-12:
        raise NoUniqueSteadyStateError("null vector is not a population direction")
    p = p / total
    if p.min() < -1e-10:
        raise NoUniqueSteadyStateError(f"null vector has negative entries: {p}")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    residual = float(np.abs(ms @ p).max())
    if residual > 1e-10:
        raise NoUniqueSteadyStateError(f"steady-state residual {residual:.3e} too large")
    return PopulationState(float(p[0]), float(p[1]), float(p[2]))


def optical_spectrum(
    scan_grid_inv_cm: np.ndarray,
    line_s_inv_cm: float,
    line_t_inv_cm: float,
    cfg: PumpConfig,
    pump_setting: str,
    probe_peak_rate: float = 1e3,
    pump_peak_rate: float = 2e4,
    doublet_split_inv_cm: float = 0.0,
) -> np.ndarray:
    """Probe signal at each grid point from its own config and steady state.

    Takes valid arguments only: ``pump.optical_spectrum`` checks them.
    """
    grid = np.asarray(scan_grid_inv_cm, dtype=float)
    fwhm = cfg.optical_linewidth_mhz / pump.MHZ_PER_INV_CM

    def overlaps(freq):
        return (
            pump._line_profile(freq, line_s_inv_cm, fwhm, doublet_split_inv_cm),
            pump._line_profile(freq, line_t_inv_cm, fwhm, doublet_split_inv_cm),
        )

    pump_s = pump_t = 0.0
    if pump_setting == "on_T":
        ls, lt = overlaps(line_t_inv_cm)
        pump_s, pump_t = pump_peak_rate * ls, pump_peak_rate * lt
    elif pump_setting == "on_S":
        ls, lt = overlaps(line_s_inv_cm)
        pump_s, pump_t = pump_peak_rate * ls, pump_peak_rate * lt

    values = np.empty_like(grid)
    for i, freq in enumerate(grid):
        ls, lt = overlaps(freq)
        probe_s = probe_peak_rate * float(ls)
        probe_t = probe_peak_rate * float(lt)
        point_cfg = replace(
            cfg, pump_rate_s=probe_s + pump_s, pump_rate_t=probe_t + pump_t
        )
        p = steady_state(point_cfg)
        values[i] = cfg.gain * (probe_s * p.n_s + probe_t * p.n_t)
    return values


def numeric_jacobian(fn: ResidualFn, p: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian, one shifted parameter per residual call."""
    p = np.asarray(p, dtype=float)
    r0, _ = _safe_residual(fn, p)
    jac = np.empty((r0.size, p.size))
    for j in range(p.size):
        h = JACOBIAN_REL_STEP * max(abs(p[j]), 1.0)
        shifted = p.copy()
        shifted[j] += h
        rj, _ = _safe_residual(fn, shifted)
        jac[:, j] = (rj - r0) / h
    return jac


def rf_spectrum(
    spec: EnsembleSpec,
    system: SpinSystem,
    offsets_khz: np.ndarray,
    *,
    kernel_fwhm_khz: float = 2.0,
) -> np.ndarray:
    """Ensemble RF spectrum values, one member and one S -> T line at a time.

    Each member's field comes from ``draw_member_environment`` and its
    eigensystem from ``eigensystem``; each line's element is
    ``abs(vdot(v_T, op @ v_S))`` and its Lorentzian is added to the running
    total with ``+=``, skipping lines of zero weight.  Takes valid
    arguments only: ``pulse.rf_spectrum`` checks them.
    """
    offsets = np.asarray(offsets_khz, dtype=float)
    b1_dir = [0.0, 0.0, 1.0] if spec.b0_orientation == "parallel" else [1.0, 0.0, 0.0]
    op = spincore.drive_operator(system, b1_dir)
    half = kernel_fwhm_khz / 2.0
    total = np.zeros_like(offsets)
    for index in range(spec.n_members):
        field = draw_member_environment(spec, system, index).field
        energies, vectors = eigensystem(system, field)
        v_s = op @ vectors[:, 0]
        for k in (1, 2, 3):
            frequency_mhz = float(energies[k]) - float(energies[0])
            element = float(abs(np.vdot(vectors[:, k], v_s)))
            weight = element ** 2
            if weight == 0.0:
                continue
            with np.errstate(over="ignore"):
                u = (offsets - (frequency_mhz - system.hyperfine_a) * 1e3) / half
                total += weight / (1.0 + u * u)
    return total / spec.n_members
