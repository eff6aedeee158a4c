"""Pulsed magnetic resonance on the driven S -> T* transitions.

Two-level dynamics in the frame rotating at the RF carrier: a pulse is an
exact SU(2) rotation about the axis (Omega cos phi, Omega sin phi,
2 pi * detuning) with Omega = 2 pi * rabi_coupling * b1_amplitude, and a
delay is a z rotation by the accumulated detuning phase (static offsets
plus the member's OU phase integral).

Each pulse's duration decides how it runs.  A pulse without one is hard:
an instantaneous rotation by its nominal angle about the in-plane phase
axis, so detuning acts only during delays and the textbook echo identities
stay exact (a Hahn echo refocuses frozen disorder completely).  A pulse
with a duration is finite: it runs for that time about the axis the
detuning tilts, as ``rabi_experiment``'s pulses do.  The OU phase enters
through delays only, not a finite pulse's axis: a Rabi program has no delay,
so it reads no OU noise and draws no OU start.  The four-level simulation
runs every pulse for its duration and rejects one without.

The four-level simulation integrates the full product-basis Hamiltonian
with a cosine drive in the interaction frame (commutator-free 4th-order
Magnus stepping), retaining counter-rotating terms and all off-resonant
levels, so addressability leakage to T+- is modelled rather than assumed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import noise as noise_mod
from . import spincore
from .config import DRIVE_DIRECTIONS
from .csvio import Series, series_axis
from .fitkit import stretched_exp_model
from .noise import EnsembleSpec, _ou_coefficients
from .program import Delay, Pulse, PulseProgram
from .spincore import FieldVector, SpinSystem


def _rabi_omega(spec: EnsembleSpec, system: SpinSystem) -> float:
    """Angular Rabi frequency of the driven line, 2 pi * coupling * RF amplitude.

    The coupling is the line's RF matrix element at the nominal field along
    z, read for the drive of ``spec.b0_orientation`` as ``rf_spectrum`` reads
    lines.  A line the geometry does not drive (zero Rabi frequency) raises
    ValueError.
    """
    _, elements = spincore.singlet_triplet_lines(
        *spincore.eigensystems(system, np.array([[0.0, 0.0, spec.b0_magnitude_ut]])),
        spincore.drive_operator(system, DRIVE_DIRECTIONS[spec.b0_orientation]))
    coupling = float(elements[0, spincore.TRIPLET_LABELS.index(spec.transition)])
    omega = 2.0 * math.pi * coupling * spec.b1_amplitude_mt * 1e6
    if omega == 0.0:
        raise ValueError(
            f"S -> {spec.transition} is not driven in the {spec.b0_orientation} "
            "geometry (zero matrix element)"
        )
    return omega


#: Upper bound on members x sweep points x shots x cycles in one engine block;
#: it keeps each float64 temporary of the ensemble engine near 64 KB, whatever
#: the block's (K, C, members, shots) shape.
_BLOCK_ELEMENTS = 8192


def _half_angle(angle):
    """cos and sin of ``angle / 2``, with the halved angle freed on return."""
    half = angle / 2.0
    return np.cos(half), np.sin(half)


def _rotate_arrays(ar, ai, br, bi, nx, ny, nz, angle):
    """Exact SU(2) rotation of the spinors (a, b) about unit axis n by angle.

    The spinors come as real/imaginary arrays.  Each product and sum is the
    one CPython's complex arithmetic performs for u @ (a, b), so every
    element equals a complex-scalar rotation bit for bit (up to the sign of
    an exact zero, which no probability can see).
    """
    c, s = _half_angle(angle)
    u00r, u00i = c, -s * nz
    u01r, u01i = -s * ny, -s * nx
    u10r, u10i = s * ny, -s * nx
    u11r, u11i = c, s * nz
    return (
        (u00r * ar - u00i * ai) + (u01r * br - u01i * bi),
        (u00r * ai + u00i * ar) + (u01r * bi + u01i * br),
        (u10r * ar - u10i * ai) + (u11r * br - u11i * bi),
        (u10r * ai + u10i * ar) + (u11r * bi + u11i * br),
    )


def _phase_arrays(ar, ai, br, bi, phase):
    """``_rotate_arrays`` about z, without its products with exact zeros.

    Dropping them changes at most the sign of an exact zero.
    """
    c, s = _half_angle(phase)
    return c * ar + s * ai, c * ai - s * ar, c * br - s * bi, c * bi + s * br


def _first_column(nx, ny, nz, angle):
    """``_rotate_arrays`` of |S> = (1, 0, 0, 0): the rotation's first column.

    It skips the products with the exact ones and zeros of |S>, so it equals
    ``_rotate_arrays`` up to the sign of an exact zero.
    """
    c, s = _half_angle(angle)
    return c, -s * nz, s * ny, -s * nx


#: Margin of the norm screen: ``(ar*ar + ai*ai) + p_T`` and the exact total
#: ``float_power(hypot(ar, ai), 2.0) + p_T`` differ by a few ulp(1), far below
#: it, so a run the screen passes also passes the exact rule.
_NORM_SCREEN = 1e-10 - 1e-14


def _check_norm(ar, ai, p_t, shape: tuple[int, int, int, int]) -> None:
    """Raise RuntimeError when a run's p_S + p_T is not within 1e-10 of 1, NaN included.

    The state and p_T broadcast to the engine's (K, C, members, shots)
    ``shape``; the message names the first such run in run order.  A cheap
    screen passes almost every block; any other block goes through the exact
    total, so the decision and the message are those of the exact rule.
    """
    if np.all(np.abs((ar * ar + ai * ai) + p_t - 1.0) < _NORM_SCREEN):
        return
    total = np.broadcast_to(np.float_power(np.hypot(ar, ai), 2.0) + p_t, shape)
    lost = ~(np.abs(total - 1.0) <= 1e-10)
    if np.any(lost):
        in_run_order = (2, 0, 3, 1)  # (members, K, shots, C)
        first = total.transpose(in_run_order)[lost.transpose(in_run_order)][0]
        raise RuntimeError(f"propagation lost norm: {float(first)!r}")


def _program_runner(
    omega: float,
    programs: list[list[PulseProgram]],
    shot_phases: np.ndarray | None,
    ou_sigma_khz: float,
    ou_tau_c_s: float,
):
    """Check a non-empty grid of bound shot programs once and tabulate it.

    ``programs[k][c]`` is the cycle-free program of sweep point k and phase
    cycle entry c; all of them share one event skeleton (the same sequence
    of delays, hard pulses and finite pulses) and differ only in durations,
    angles and phases.  ``shot_phases[k, j]`` is the shot phase of shot j
    at point k (one shot and no shot phase when None).  Finite pulses turn
    at the angular Rabi frequency ``omega``, which must then be finite; hard
    pulses do not read it.  The OU step constants are built for
    ``ou_sigma_khz`` and ``ou_tau_c_s``.

    Returns ``(n_draws, run)``.  ``run(detunings_khz, normals) -> p_T`` runs
    members that share those OU parameters: member i has the frozen detuning
    ``detunings_khz[i]`` and runs, for every k, every shot j and every c in
    that order, the program (k, c) with the shot phase (k, j).  Row i of the
    (members, n_draws) ``normals`` holds the deviates its stream gives in
    that order, one per OU start and two per stepped delay; ``n_draws`` is 0
    without OU noise or without a delay, and ``run`` then reads no normals.
    ``run`` raises RuntimeError when a run loses its norm, NaN included,
    naming the first such run in that order.

    The engine's one layout is (K, C, members, shots): every per-program
    table is (K, C, 1, 1), the shot-phase table (K, 1, 1, shots), the OU
    slot tables (K, C, 1, shots) and the per-member columns (members, 1).
    So each ufunc's inner loop runs over members x shots with the per-(k, c)
    coefficients as scalars, and no element's operations depend on the
    layout.  The state starts as the scalars of |S> and takes the shape its
    events give it: a program of hard pulses never widens to the members.
    A first pulse from |S> is its rotation's first column.  p_T leaves
    ``run`` in the full layout, as a broadcast view.
    """
    n_points, n_cycles = len(programs), len(programs[0])
    skeleton = programs[0][0].events

    def kinds(events) -> list[tuple[type, bool]]:  # a pulse without a duration is hard
        return [(type(ev), ev.duration_s is None) for ev in events]

    for row in programs:
        if len(row) != n_cycles:
            raise ValueError("every sweep point needs the same number of cycle programs")
        for program in row:
            program.check_runnable()
            if kinds(program.events) != kinds(skeleton):
                raise ValueError("shot programs must share one event skeleton")
    n_shots = 1 if shot_phases is None else shot_phases.shape[1]

    def per_program(e: int, fn) -> np.ndarray:
        """fn(event e of each program) as a (K, C, 1, 1) array."""
        return np.array([[fn(p.events[e]) for p in row] for row in programs],
                        dtype=float).reshape(n_points, n_cycles, 1, 1)

    delays = {}  # event index -> durations
    pulses = {}  # event index -> (finite, duration or angle, cos phase, sin phase)
    for e, ev in enumerate(skeleton):
        if isinstance(ev, Delay):
            delays[e] = per_program(e, lambda d: d.duration_s)
        else:
            finite = ev.duration_s is not None
            size = (lambda p: p.duration_s) if finite else (lambda p: p.angle_rad)
            pulses[e] = (finite, per_program(e, size),
                         per_program(e, lambda p: math.cos(p.phase_rad)),
                         per_program(e, lambda p: math.sin(p.phase_rad)))
    any_finite = any(finite for finite, *_ in pulses.values())
    if any_finite and not math.isfinite(omega):
        raise ValueError("Rabi frequency 2 pi * coupling * RF amplitude must be finite")
    last_pulse = max(pulses, default=None)
    shot_z = None if shot_phases is None else shot_phases.reshape(n_points, 1, 1, n_shots)
    phase_per_khz_s = 2.0 * math.pi * 1e3
    n_draws = 0
    ou = ou_sigma_khz > 0.0 and bool(delays)  # without a delay no run reads the process
    if ou:
        n_draws, slots, delay_steps = _ou_tables(
            delays, (n_points, n_cycles, n_shots), ou_sigma_khz, ou_tau_c_s)
    flat_slots = {}  # members per block -> slots as flat indices into its normals

    # an overflowing phase becomes NaN without a warning; the norm check reports it
    @np.errstate(over="ignore", invalid="ignore")
    def run(detunings_khz: np.ndarray, normals: np.ndarray) -> np.ndarray:
        n_members = len(detunings_khz)
        delta = 2.0 * math.pi * detunings_khz.reshape(n_members, 1) * 1e3
        if any_finite:
            n_eff = np.array([math.hypot(omega, d) for d in delta.ravel().tolist()])
            n_eff = n_eff.reshape(delta.shape)
            n_safe = np.where(n_eff == 0.0, 1.0, n_eff)  # no drive, no detuning: identity
            axis_scale, axis_z = omega / n_safe, delta / n_safe
        if ou:
            if n_members not in flat_slots:  # at most two sizes: full blocks and the last
                flat_slots[n_members] = slots + n_draws * np.arange(n_members).reshape(-1, 1)
            index = flat_slots[n_members]
            x = ou_sigma_khz * normals.take(index[0])
        ar, ai, br, bi = 1.0, 0.0, 0.0, 0.0  # |S>; it takes the shape its events give it
        for e in range(len(skeleton)):
            if e in delays:
                phase = delta * delays[e]
                if ou:
                    stepping, g, (mu, sd_x, sd_i, rho, rho_c) = delay_steps[e]
                    n1, n2 = normals.take(index[g]), normals.take(index[g + 1])
                    integral = x * ou_tau_c_s * (1.0 - mu) + sd_i * (rho * n1 + rho_c * n2)
                    if stepping is None:  # every run steps
                        x = x * mu + sd_x * n1
                    else:
                        x = np.where(stepping, x * mu + sd_x * n1, x)
                        integral = np.where(stepping, integral, 0.0)
                    phase = phase + phase_per_khz_s * integral
                ar, ai, br, bi = _phase_arrays(ar, ai, br, bi, phase)
                continue
            shot = e == last_pulse and shot_z is not None
            if shot:
                ar, ai, br, bi = _phase_arrays(ar, ai, br, bi, shot_z)
            finite, size, cos_phase, sin_phase = pulses[e]
            if finite:
                axis = (axis_scale * cos_phase, axis_scale * sin_phase, axis_z, n_eff * size)
            else:
                axis = (cos_phase, sin_phase, 0.0, size)
            if e == 0 and not shot:  # the state is still exactly |S>
                ar, ai, br, bi = _first_column(*axis)
            else:
                ar, ai, br, bi = _rotate_arrays(ar, ai, br, bi, *axis)
        # float_power squares through libm pow, as abs(z) ** 2 does; numpy's
        # square (x * x) differs from it in the last bit for ~0.1 % of inputs.
        p_t = np.float_power(np.hypot(br, bi), 2.0)
        shape = (n_points, n_cycles, n_members, n_shots)
        _check_norm(ar, ai, p_t, shape)
        return np.broadcast_to(p_t, shape)

    return n_draws, run


def _ensemble_blocks(
    spec: EnsembleSpec,
    system: SpinSystem,
    programs: list[list[PulseProgram]],
    *,
    shot_phases: np.ndarray | None = None,
):
    """Run bound shot programs over the whole ensemble, a member block at a time.

    The driven line's Rabi frequency comes from ``_rabi_omega``; a line the
    geometry does not drive raises ValueError before any member is drawn.
    ``programs`` and ``shot_phases`` form the grid ``_program_runner``
    checks once; each block of members the environment pass draws, OU
    deviates included, then runs it.  For member i that equals, bit for bit,
    one scalar run of ``programs[k][c]`` from |S> with the shot phase
    ``shot_phases[k, j]``, for every k, every shot j and every c in that
    order, on one environment and one stream (``run_sequence`` in
    ``tests/scalar_oracle.py``); event e is the same kind (delay, hard or
    finite pulse) in every program.

    Yields p_T arrays in the engine's layout, (K, C, block members, shots),
    blocks in member-index order; a block holds at most
    ``_BLOCK_ELEMENTS`` runs (and at least one member).
    """
    omega = _rabi_omega(spec, system)
    if not (programs and programs[0]):
        return
    envs = noise_mod.EnvironmentPass(spec, system)
    n_draws, run = _program_runner(omega, programs, shot_phases, envs.ou_sigma_khz,
                                   spec.noise.ou_tau_c_s)
    n_shots = 1 if shot_phases is None else shot_phases.shape[1]
    block = max(1, _BLOCK_ELEMENTS // (len(programs) * n_shots * len(programs[0])))
    for members in envs.blocks(block, n_draws):
        yield run(members.detunings_khz, members.normals)


def _ou_tables(delays: dict[int, np.ndarray], shape: tuple[int, int, int],
               sigma: float, tau_c: float):
    """Where each OU deviate sits in a member's draws, and the step constants.

    Every run starts from a stationary OU value (one normal) and takes one
    exact joint step per delay of nonzero duration (two normals, n1 then
    n2); zero-length delays draw nothing and leave the process alone.  Runs
    follow the stream order sweep point, shot, cycle.  The step constants
    depend only on the duration, so they come from ``_ou_coefficients`` once
    per (sweep point, cycle) entry, and a constant that overflows raises
    ValueError before any member is drawn.

    ``delays`` maps each delay's event index to its (K, C, 1, 1) durations
    and ``shape`` is (K, C, shots).  Returns the draws per member, the
    (1 + 2 delays, K, C, 1, shots) slot table (the index of each run's first
    draw, then the indices of n1 and n2 of each delay in turn), and per delay
    event: its (K, C, 1, 1) stepping mask (None when every entry steps), the
    slot-table row g of its n1 (n2 is row g + 1), and its (K, C, 1, 1)
    constants mu, sd_x, sd_i, rho, sqrt(1 - rho^2).
    """
    n_points, n_cycles, n_shots = shape
    durations = [d[:, :, 0, 0] for d in delays.values()]
    stepping = np.array([d > 0.0 for d in durations], dtype=bool).reshape(
        -1, 1, n_points, n_cycles, 1, 1)
    runs = 1 + 2 * stepping.sum(axis=0)  # (1, K, C, 1, 1) draws per run
    per_shot = runs.sum(axis=2, keepdims=True)  # draws per shot of each sweep point
    # a run's first draw follows the earlier points, the point's earlier shots
    # and the shot's earlier cycles
    start = (np.cumsum(per_shot * n_shots, axis=1) - per_shot * n_shots
             + per_shot * np.arange(n_shots) + np.cumsum(runs, axis=2) - runs)
    slots = [start]
    for mask, before in zip(stepping, np.cumsum(stepping, axis=0) - stepping):
        n1 = np.where(mask, start + 1 + 2 * before, start)  # after the run's earlier steps
        slots += [n1, np.where(mask, n1 + 1, start)]
    steps = {}
    for d, e in enumerate(delays):
        coeffs = np.array([
            [_ou_step(t, sigma, tau_c) if t > 0.0 else (1.0, 0.0, 0.0, 0.0, 1.0) for t in row]
            for row in durations[d].tolist()
        ])  # (K, C, 5)
        mask = stepping[d, 0]
        steps[e] = (None if mask.all() else mask, 1 + 2 * d,
                    tuple(coeffs[:, :, None, None, i] for i in range(5)))
    return int(per_shot.sum()) * n_shots, np.concatenate(slots), steps


def _ou_step(t: float, sigma: float, tau_c: float) -> tuple[float, ...]:
    """``_ou_coefficients`` for one delay, or ValueError if a constant overflows."""
    try:
        coeffs = _ou_coefficients(t, sigma, tau_c)
    except OverflowError:  # float ** raises where * gives inf
        coeffs = (math.inf,)
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(f"OU step constants overflow: driven-line sigma {sigma!r} kHz, "
                         f"correlation time {tau_c!r} s, delay {t!r} s")
    return coeffs


def _ensemble_mean(spec: EnsembleSpec, system: SpinSystem, programs: list[list[PulseProgram]],
                   signal, shape: tuple[int, ...], **engine) -> np.ndarray:
    """Mean over the members of ``signal`` of each ``_ensemble_blocks`` block.

    ``signal`` maps a p_T block to per-member rows with the members on axis
    1, after the sweep point.  The running total goes in front of a block's
    rows and ``np.add.accumulate`` adds the rows along that axis one after
    the other, so the first row starts the sum and the blocking cannot
    change a bit; the sum is then divided by ``spec.n_members``.  With no
    programs the mean is zeros of ``shape``.
    """
    total = None
    for p_t in _ensemble_blocks(spec, system, programs, **engine):
        block = signal(p_t)
        if total is not None:
            block = np.concatenate([total[:, None], block], axis=1)
        total = np.add.accumulate(block, axis=1)[:, -1]
    return (np.zeros(shape) if total is None else total) / spec.n_members


def _tau_programs(name: str, taus: np.ndarray) -> list[list[PulseProgram]]:
    """The built-in text ``name`` compiled, its cycles expanded and ``tau``
    bound per sweep point: the (points x cycles) grid of shot programs."""
    from . import seqdsl  # only the experiments that run a text load the DSL

    text = {"ramsey": seqdsl.RAMSEY_TEXT, "hahn": seqdsl.HAHN_TEXT}[name]
    shots = seqdsl.compile(seqdsl.parse(text)).shots()
    return [[p.bind({"tau": float(tau)}) for p in shots] for tau in taus]


def rabi_experiment(
    spec: EnsembleSpec, system: SpinSystem, lengths_s: np.ndarray
) -> Series:
    """Ensemble-averaged population transfer vs pulse length.

    Each member sees the drive through its frozen detuning (static disorder
    plus internal-field line shift), so the transfer follows the generalized
    Rabi formula member by member; disorder comparable to the Rabi frequency
    damps the averaged oscillation.  Lengths must be finite, >= 0 and increasing.
    """
    lengths = np.asarray(lengths_s, dtype=float)
    if not np.all(np.isfinite(lengths) & (lengths >= 0)):
        raise ValueError("lengths_s must be finite and >= 0")
    lengths = series_axis(lengths, "lengths_s")
    driven = np.flatnonzero(lengths != 0.0)  # a zero-length pulse transfers nothing
    programs = [
        [PulseProgram(name="rabi", events=(
            Pulse(angle_rad=0.0, phase_rad=0.0, duration_s=float(lengths[k])),))]
        for k in driven
    ]
    mean = np.zeros_like(lengths)
    mean[driven] = _ensemble_mean(spec, system, programs, lambda p_t: p_t[:, 0, :, 0],
                                  driven.shape)
    return Series(values=mean)


def ramsey_experiment(
    spec: EnsembleSpec, system: SpinSystem, taus_s: np.ndarray
) -> Series:
    """Ensemble-averaged fringe of ``seqdsl.RAMSEY_TEXT``, pi/2 : tau : pi/2 (final p_T).

    Taus must be finite, >= 0 and increasing.
    """
    taus = np.asarray(taus_s, dtype=float)
    if not np.all(np.isfinite(taus) & (taus >= 0)):
        raise ValueError("taus_s must be finite and >= 0")
    taus = series_axis(taus, "taus_s")
    programs = _tau_programs("ramsey", taus)
    mean = _ensemble_mean(spec, system, programs, lambda p_t: p_t[:, 0, :, 0], taus.shape)
    return Series(values=mean)


def max_magnitude_estimate(shots: np.ndarray) -> np.ndarray | float:
    """Largest absolute shot value, per tau point.

    Accepts a 1-d array of shots (returns a float) or a 2-d array with one
    row per tau point (returns max |.| along the last axis).  This is the
    detection rule for signals whose sign is randomized shot to shot by
    common-mode field noise: the largest magnitude approaches the underlying
    amplitude from below as the shot count grows.
    """
    arr = np.asarray(shots, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("shots must be 1-d or 2-d")
    if arr.shape[-1] == 0:  # no tau points is an empty answer, no shots is an error
        raise ValueError("need at least one shot per tau point")
    if not np.all(np.isfinite(arr)):
        raise ValueError("shots must be finite")
    return float(np.abs(arr).max()) if arr.ndim == 1 else np.abs(arr).max(axis=-1)


def hahn_experiment(
    spec: EnsembleSpec,
    system: SpinSystem,
    taus_s: np.ndarray,
    *,
    detection: str = "mean",
    shots_per_point: int | None = None,
) -> Series:
    """Phase-cycled Hahn echo decay over an ensemble.

    For every tau ``seqdsl.HAHN_TEXT``, +-pi/2 : tau : pi : tau : pi/2, runs twice
    per member (first pulse phase cycled by 180 deg); the two p_T readouts are
    subtracted and the difference is normalized by its ideal zero-noise,
    zero-tau value of -1, so a clean echo reads 1.0.  The optional
    phenomenological envelope multiplies the per-member cycled signal.

    detection="mean" averages one cycled difference per member (one shot
    pair per tau).  detection="max" repeats ``shots_per_point`` (default
    100) shot pairs, each with a fresh common-mode phase drawn uniformly
    from the ensemble-wide stream, and keeps the largest |ensemble-averaged
    cycled signal|; this is the estimator for field-sensitive lines whose
    echo phase is randomized between shots.  A given ``shots_per_point``
    must be an int >= 1, and under detection="mean" it is an error.  Taus
    must be finite, > 0 and increasing.  All is checked before any member runs.

    Members run in blocks of the ensemble engine and are reduced in index
    order, so memory stays bounded by the block, not the ensemble.
    """
    taus = np.asarray(taus_s, dtype=float)
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("taus_s must be finite and > 0")
    taus = series_axis(taus, "taus_s")
    if detection not in ("mean", "max"):
        raise ValueError(f"detection must be 'mean' or 'max', got {detection!r}")
    if shots_per_point is not None:
        if isinstance(shots_per_point, bool) or not isinstance(shots_per_point, (int, np.integer)):
            raise ValueError(f"shots_per_point must be an int, got {shots_per_point!r}")
        if shots_per_point < 1:
            raise ValueError("shots_per_point must be >= 1")
    if detection == "mean" and shots_per_point is not None:
        raise ValueError("shots_per_point applies only to detection='max'")
    n_shots = 1 if detection == "mean" else (shots_per_point or 100)

    programs = _tau_programs("hahn", taus)  # cycles: first pulse +pi/2, first pulse -pi/2
    envelope = np.ones_like(taus)
    pheno = spec.noise.phenomenological_t2_s
    if pheno is not None:
        envelope = stretched_exp_model(taus, 1.0, pheno, spec.noise.stretching_n)

    # Common-mode phases per (tau, shot) under max detection.
    shot_phases = None
    if detection == "max":
        crng = noise_mod.common_rng(spec.seed)
        shot_phases = crng.uniform(0.0, 2.0 * math.pi, size=(taus.size, n_shots))

    # the cycled difference p_T(+) - p_T(-) is -1 at zero phase error, so negate it
    per_shot = _ensemble_mean(spec, system, programs, lambda p_t: -(p_t[:, 0] - p_t[:, 1]),
                              (taus.size, n_shots), shot_phases=shot_phases) * envelope[:, None]
    if detection == "mean":
        values = per_shot[:, 0]
    else:
        values = np.asarray(max_magnitude_estimate(per_shot))
    return Series(values=values, shots=n_shots)


#: Most CF4 steps whose propagators ``simulate_4level`` stacks at once; both
#: sub-steps share one (2, steps, 4, 4) stack, so each complex temporary of
#: that shape stays near 64 KB.
_CF4_BLOCK_STEPS = 128

# CF4 nodes and weights (Blanes & Moan 2006).
_CF4_C1 = 0.5 - math.sqrt(3.0) / 6.0
_CF4_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CF4_ALPHA1 = 0.25 + math.sqrt(3.0) / 6.0
_CF4_ALPHA2 = 0.25 - math.sqrt(3.0) / 6.0
_UPPER = np.triu_indices(4, 1)


def _cf4_propagators(times_us: np.ndarray, dt_us: float, igaps: np.ndarray,
                     w_mhz: np.ndarray, freq_mhz: float, phase_rad: float) -> np.ndarray:
    """Both sub-step propagators of the CF4 steps that start at ``times_us``.

    Returns one (2, steps, 4, 4) stack ``u``: step k maps psi to
    ``u[1, k] @ (u[0, k] @ psi)``.  ``igaps`` is 2 pi i times the level gaps, so
    the interaction-frame coupling at time t is
    ``cos(2 pi f t + phase) * exp(igaps * t) * w``.

    The bits are set by ``np.cos``, ``np.exp``, the complex products by ``w``
    and by ``-2 pi i dt`` and the two matrix products.  The other operations
    have a real operand and run exactly on ``.view(float)``: a real scales
    both parts, and numpy's ``z / k``, ``(re + im*0) * fl(1/k)``, is the view
    times ``1.0 / k`` (``tests/test_bit_contract.py``).
    """
    two_pi = 2.0 * math.pi
    n = times_us.size
    t = np.concatenate([times_us + _CF4_C1 * dt_us, times_us + _CF4_C2 * dt_us])
    drive = np.cos(two_pi * freq_mhz * t + phase_rad)
    # igaps is antisymmetric with a zero diagonal, so exp(igaps * t) is 1 on the
    # diagonal and the conjugate of its upper triangle below it
    upper = np.exp(igaps[_UPPER] * t[:, None])
    phases = np.ones((2 * n, 4, 4), dtype=complex)
    phases[:, _UPPER[0], _UPPER[1]] = upper
    phases[:, _UPPER[1], _UPPER[0]] = upper.conj()
    phases_re_im = phases.view(float)
    phases_re_im *= drive[:, None, None]
    m1, m2 = (phases * w_mhz).view(float).reshape(2, n, 4, 8)
    mats = np.stack([_CF4_ALPHA1 * m1 + _CF4_ALPHA2 * m2, _CF4_ALPHA2 * m1 + _CF4_ALPHA1 * m2])
    x = -1j * two_pi * dt_us * mats.view(complex)
    x2 = x @ x
    x3_x4 = x2 @ np.concatenate([x, x2], axis=-1)  # x2 @ x and x2 @ x2 in one product
    u = x + np.eye(4, dtype=complex)
    u_re_im, x3_x4_re_im = u.view(float), x3_x4.view(float)
    u_re_im += x2.view(float) * (1.0 / 2.0)
    u_re_im += x3_x4_re_im[..., :8] * (1.0 / 6.0)
    u_re_im += x3_x4_re_im[..., 8:] * (1.0 / 24.0)
    return u


def simulate_4level(
    program: PulseProgram,
    system: SpinSystem,
    b0: FieldVector,
    b1_amplitude_mt: float,
    b1_direction,
    rf_frequency_mhz: float,
) -> dict[str, float]:
    """Drive the full 4-level system and return final level populations.

    The state starts in the S eigenlevel of H(b0).  Pulses apply the cosine
    drive b1(t) = b1_amplitude * cos(2 pi f t + phase) along ``b1_direction``
    through the operator gamma_s (e.S) - gamma_i (e.I); integration runs in
    the interaction frame of H(b0) with CF4 Magnus steps, keeping
    counter-rotating terms and every level, so off-resonant (T+-) leakage is
    simulated honestly.  Delays advance the carrier clock, preserving
    pulse-to-pulse phase coherence.

    The step is fixed: each pulse takes the fewest equal steps of at most
    1/(50 a), and the local error per step stays below 1e-8 for drives weak
    compared to a.  Every pulse runs for its ``duration_s``, and its angle
    is not read: a lab-frame integrator has no hard pulse, so a pulse
    without a duration is rejected.

    Both sub-step propagators of up to ``_CF4_BLOCK_STEPS`` consecutive steps
    are built as one stack of arrays and then applied to the state in step
    order; every step does the same floating-point operations as a
    step-by-step loop, so the populations do not depend on the block size,
    and memory stays flat in the pulse length.
    """
    program.check_runnable()
    if b1_amplitude_mt < 0 or not math.isfinite(b1_amplitude_mt):
        raise ValueError("b1_amplitude_mt must be finite and >= 0")
    if not math.isfinite(rf_frequency_mhz):
        raise ValueError(f"rf_frequency_mhz must be finite, got {rf_frequency_mhz!r}")
    op = spincore.drive_operator(system, b1_direction)
    if any(event.duration_s is None for event in program.events):  # delays are bound
        raise ValueError("pulse without duration needs a duration_s: simulate_4level "
                         "has no hard pulses")
    durations_us = [event.duration_s * 1e6 for event in program.events]
    if not all(map(math.isfinite, durations_us)):  # math.ceil would overflow on inf
        raise ValueError("event durations must be finite in microseconds")

    dt_us = 1.0 / (50.0 * system.hyperfine_a)
    energies, vectors = spincore.eigensystems(system, b0.as_array()[None])
    energies, vectors = energies[0], vectors[0]
    igaps = 1j * (2.0 * math.pi) * (energies[:, None] - energies[None, :])
    w = b1_amplitude_mt * (vectors.conj().T @ op @ vectors)  # MHz, eigenbasis

    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0  # S
    half = np.empty_like(psi)  # psi after a step's first sub-step
    t_us = 0.0
    for event, duration_us in zip(program.events, durations_us):
        if isinstance(event, Delay):
            t_us += duration_us
            continue
        n_steps = max(1, int(math.ceil(duration_us / dt_us - 1e-12)))
        step = duration_us / n_steps
        # step start times by sequential ``t += step`` adds, not t0 + k*step,
        # so each step sees the times a step-by-step loop would; one block at a time
        clock = itertools.accumulate(itertools.repeat(step, n_steps), initial=t_us)
        for first in range(0, n_steps, _CF4_BLOCK_STEPS):
            n = min(_CF4_BLOCK_STEPS, n_steps - first)
            times = np.fromiter(itertools.islice(clock, n), float, n)
            ua, ub = _cf4_propagators(times, step, igaps, w, rf_frequency_mhz, event.phase_rad)
            for a, b in zip(ua, ub):
                a.dot(psi, out=half)
                b.dot(half, out=psi)
        t_us = next(clock)
    norm = float(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= 1e-10:
        raise RuntimeError(f"4-level propagation lost norm: {norm!r}")
    return {lbl: float(abs(psi[k]) ** 2) for k, lbl in enumerate(spincore.LABELS)}


#: Members per block of ``rf_spectrum``: one environment pass and one stacked
#: eigensolve each; the (members, 4, 4) complex stack stays near 64 KB.
_RF_BLOCK_MEMBERS = 256

#: Lines per ordered reduction of ``rf_spectrum``: each (lines + 1, points)
#: term table stays near 235 KB at 601 points.
_RF_LINE_RUN = 48


def rf_spectrum(
    spec: EnsembleSpec,
    system: SpinSystem,
    offsets_khz: np.ndarray,
    *,
    kernel_fwhm_khz: float = 2.0,
) -> Series:
    """Ensemble RF absorption spectrum around the hyperfine frequency.

    For every member (including its internal field, if drawn) the three
    S -> T* lines are placed at their frequencies with weights equal to the
    squared RF matrix element for the actual drive direction, then smeared
    with a unit-peak Lorentzian of the given FWHM.  ``offsets_khz`` are RF
    offsets from the zero-field hyperfine constant.

    Captures the geometry selection rules (S -> T0 needs the drive parallel
    to B0, S -> T+- perpendicular) and the internal-field subpopulation's
    broad T+- sidebands, whose position is set by the internal field
    magnitude rather than the applied field.

    Members are drawn and diagonalised ``_RF_BLOCK_MEMBERS`` at a time, and
    each block's lines come from one ``singlet_triplet_lines`` call.  Lines
    of zero weight are skipped.  The others are added ``_RF_LINE_RUN`` at a
    time: their Lorentzian terms fill the rows below the running total, and
    ``np.add.reduce`` over axis 0 adds the rows in order, one after the
    other.  (A lone offset is computed twice, as two columns: over one
    column numpy would sum the rows pairwise.)  So the sum is the
    member-by-member, label-order sum, and the result depends on neither
    size.  A term whose ``u * u`` overflows is exactly 0 (its line is too
    narrow to reach the point), so overflow is silenced there.
    """
    offsets = series_axis(offsets_khz, "offsets_khz")
    half = kernel_fwhm_khz / 2.0
    if not (math.isfinite(kernel_fwhm_khz) and half > 0):  # a half of 0 would divide by zero
        raise ValueError(f"kernel_fwhm_khz must be finite and > 0, also when halved, "
                         f"got {kernel_fwhm_khz!r}")
    op = spincore.drive_operator(system, DRIVE_DIRECTIONS[spec.b0_orientation])
    if offsets.size == 0:
        return Series(values=offsets)
    columns = np.repeat(offsets, 2) if offsets.size == 1 else offsets
    terms = np.zeros((_RF_LINE_RUN + 1, columns.size))
    for members in noise_mod.EnvironmentPass(spec, system).blocks(_RF_BLOCK_MEMBERS):
        frequencies, elements = spincore.singlet_triplet_lines(
            *spincore.eigensystems(system, members.fields), op)
        weights = np.float_power(elements, 2.0).ravel()
        keep = weights != 0.0
        centers = (frequencies.ravel()[keep] - system.hyperfine_a) * 1e3
        weights = weights[keep]
        for start in range(0, weights.size, _RF_LINE_RUN):
            n = min(_RF_LINE_RUN, weights.size - start)
            u = terms[1:n + 1]
            np.subtract(columns, centers[start:start + n, None], out=u)
            with np.errstate(over="ignore"):
                np.divide(u, half, out=u)
                np.multiply(u, u, out=u)
            np.add(1.0, u, out=u)
            np.divide(weights[start:start + n, None], u, out=u)
            terms[0] = np.add.reduce(terms[:n + 1], axis=0)
    return Series(values=terms[0, :offsets.size] / spec.n_members)
