"""Regenerate the golden --help transcripts and the golden result CSVs.

Run from the repository root::

    PYTHONPATH=src python3 tests/golden/regen.py

Help text is captured at a fixed 80-column width so the files are stable
across terminals; the matching test pins COLUMNS the same way.

The result CSVs pin the bytes of small seeded ensemble experiments (Rabi,
Ramsey, Hahn echo in mean and max detection, two RF spectra with an
internal-field subpopulation, one at zero applied field over more members
than one block of the spectrum path), of the level diagram and a pumped optical
spectrum, and of a phase-cycled CPMG-2 program run member by member through
the scalar oracle's ``run_sequence`` (``tests/scalar_oracle.py``), never
through the engine that golden pins.  Two ``fit`` reports, one per model,
pin the text output of fitting golden CSVs.  Two more fit the checked-in
inputs ``fit_rescue_peaks.csv`` (both peak guesses on one line) and
``fit_rescue_stretched.csv`` (a decay faster than the sampling), on which
Levenberg-Marquardt stalls and the Nelder-Mead rescue runs; their reports
carry ``# note: simplex-fallback``.  A three-event program (pulse,
delay, pulse at phase 90) driven through ``simulate_4level`` near zero field
pins the 4-level CF4 integrator, with pulses of 101 and 601 steps.  A
refactor is judged against these bytes; rewrite them only for a deliberate
change of the physics or of the random streams.

The bytes are pinned to the numpy, BLAS and libc that wrote them (the
CF4 steps go through BLAS, the closed forms through libm), as the
benchmark references are pinned to the versions in
``perfbench/reference/seed0/environment.json``.  ``regenerate`` prints
those three versions before it writes; the files in this directory match
numpy 2.4.6, OpenBLAS 0.3.31 (scipy-openblas) and glibc 2.36 on x86-64.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pathlib
import platform
import sys
from typing import Callable

import numpy as np

from donorsim import csvio, noise, pulse, seqdsl, spincore
from donorsim.cli import main
from donorsim.noise import EnsembleSpec, NoiseModel
from donorsim.program import Delay, Pulse, PulseProgram
from donorsim.spincore import PHOSPHORUS, FieldVector

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE.parent))  # tests/, home of the scalar oracle
import scalar_oracle  # noqa: E402

HELP_COMMANDS = {
    "help_main.txt": ["--help"],
    "help_levels.txt": ["levels", "--help"],
    "help_rf_spectrum.txt": ["rf-spectrum", "--help"],
    "help_optical_spectrum.txt": ["optical-spectrum", "--help"],
    "help_rabi.txt": ["rabi", "--help"],
    "help_ramsey.txt": ["ramsey", "--help"],
    "help_hahn.txt": ["hahn", "--help"],
    "help_fit.txt": ["fit", "--help"],
    "help_parse.txt": ["parse", "--help"],
    "help_estimate_field.txt": ["estimate-field", "--help"],
}

# Static + OU noise and an internal-field subpopulation on every ensemble.
_NOISE = ["--b0-ut", "4", "--static-detuning-khz", "1.5", "--ou-sigma-khz", "0.05",
          "--ou-tau-c-s", "0.2", "--internal-fraction", "0.3", "--internal-field-ut", "6"]
_T0 = ["--transition", "T0", "--orientation", "parallel"]
_TPLUS = ["--transition", "T+", "--orientation", "perpendicular"]
_RABI = ["rabi", *_NOISE, "--members", "40", "--points", "21", "--max-us", "120",
         "--seed", "5"]
_RAMSEY = ["ramsey", *_NOISE, "--members", "40", "--points", "11", "--tau-max-s", "1e-3",
           "--seed", "6"]
_HAHN = ["hahn", *_NOISE, "--members", "30", "--points", "6", "--tau-min-s", "0.002",
         "--tau-max-s", "0.05", "--seed", "7"]

_RF = ["rf-spectrum", "--b0-ut", "4", "--orientation", "perpendicular",
       "--internal-fraction", "0.4", "--members", "60", "--offset-min-khz", "-80",
       "--offset-max-khz", "80", "--points", "161", "--seed", "9"]
# Zero applied field: the members without an internal field take the
# reference-field basis, and 1100 members span more than one member block.
_RF_ZERO = ["rf-spectrum", "--b0-ut", "0", "--orientation", "parallel",
            "--internal-fraction", "0.4", "--members", "1100", "--offset-min-khz", "-100",
            "--offset-max-khz", "100", "--points", "41", "--kernel-fwhm-khz", "4",
            "--seed", "11"]

#: Golden output name -> CLI argv (``--output`` is appended).  The fit reports
#: read golden CSVs listed before them or checked-in ``fit_rescue_*.csv`` inputs.
CLI_CSVS = {
    "levels.csv": ["levels", "--points", "21"],
    "rf_spectrum_internal_perpendicular.csv": _RF,
    "rf_spectrum_zero_field_parallel.csv": _RF_ZERO,
    "optical_spectrum_on_t.csv": ["optical-spectrum", "--pump", "on_T", "--points", "41"],
    "rabi_t0_parallel.csv": _RABI + _T0,
    "rabi_tplus_perpendicular.csv": _RABI + _TPLUS,
    "ramsey_t0_parallel.csv": _RAMSEY + _T0,
    "ramsey_tplus_perpendicular.csv": _RAMSEY + _TPLUS,
    "hahn_mean_t0_parallel.csv": _HAHN + _T0 + ["--t2-s", "0.2", "--stretching-n", "1.5"],
    "hahn_mean_tplus_perpendicular.csv": _HAHN + _TPLUS,
    "hahn_max_tplus_perpendicular.csv": _HAHN + _TPLUS + [
        "--detection", "max", "--shots", "7", "--workers", "3"],
    "fit_stretched_hahn_mean_t0_parallel.txt": [
        "fit", str(HERE / "hahn_mean_t0_parallel.csv"), "--model", "stretched"],
    "fit_peaks_rf_spectrum_internal_perpendicular.txt": [
        "fit", str(HERE / "rf_spectrum_internal_perpendicular.csv"), "--model", "peaks",
        "--k", "2", "--peak=-56,3,0.5", "--peak=56,3,0.5"],
    "fit_peaks_simplex_fallback.txt": [
        "fit", str(HERE / "fit_rescue_peaks.csv"), "--model", "peaks", "--k", "2",
        "--peak=19.5,9.5,0.7", "--peak=19.5,8.3,0.6"],
    "fit_stretched_simplex_fallback.txt": [
        "fit", str(HERE / "fit_rescue_stretched.csv"), "--model", "stretched"],
}

CPMG2_TEXT = """\
seq cpmg2 {
  cycle p1 [0, 180];
  pulse p1 angle=90 phase=0;
  delay tau;
  pulse angle=180 phase=90;
  delay tau;
  delay tau;
  pulse angle=180 phase=90;
  delay tau;
  pulse angle=90 phase=0;
}
"""
CPMG2_TAUS_S = (0.0, 0.001, 0.004, 0.01, 0.03)


def cpmg2_spec() -> EnsembleSpec:
    return EnsembleSpec(
        n_members=25, seed=8,
        noise=NoiseModel(static_detuning_khz=1.5, ou_sigma_khz=0.05, ou_tau_c_s=0.2,
                         internal_fraction=0.3, internal_field_ut=6.0),
        transition="T+", b0_magnitude_ut=4.0, b0_orientation="perpendicular",
    )


def cpmg2_csv() -> str:
    """Ensemble-mean p_T per tau and phase-cycle shot, one scalar-oracle run per run."""
    spec = cpmg2_spec()
    params = pulse.two_level_params_for(spec, PHOSPHORUS)
    shots = seqdsl.compile(seqdsl.parse(CPMG2_TEXT)).shots()
    total = np.zeros((len(CPMG2_TAUS_S), len(shots)))
    for index in range(spec.n_members):
        env = noise.draw_member_environment(spec, PHOSPHORUS, index)
        for k, tau in enumerate(CPMG2_TAUS_S):
            for c, program in enumerate(shots):
                total[k, c] += scalar_oracle.run_sequence(
                    program.bind({"tau": tau}), params, env)[1]
    data = np.column_stack([CPMG2_TAUS_S, total / spec.n_members])
    return csvio.render_csv(["tau_s", "p_t_cycle0", "p_t_cycle180"], data)


def hahn_readout_csv() -> str:
    """Library Hahn echo with a readout gain and offset (not reachable from the CLI)."""
    spec = cpmg2_spec()
    series = pulse.hahn_experiment(spec, PHOSPHORUS, np.array([0.002, 0.01, 0.03]),
                                   readout_gain=1.7, readout_offset=0.3)
    return csvio.render_csv(["tau_s", "echo"], np.column_stack([series.x, series.values]))


FOUR_LEVEL_FIELDS_UT = ((0.4, 0.0, 0.0), (0.4, 0.0, 2.0))


def four_level_csv() -> str:
    """Final S/T-/T0/T+ populations of a pulse-delay-pulse program, per field.

    The pulses last 100.5 and 600.3 default steps (so 101 and 601 CF4 steps),
    the second at phase 90; the tilted drive reaches every level.
    """
    dt_s = 1e-6 / (50.0 * PHOSPHORUS.hyperfine_a)
    program = PulseProgram(name="p0_delay_p90", events=(
        Pulse(angle_rad=math.pi / 2, phase_rad=0.0, duration_s=100.5 * dt_s),
        Delay(duration_s=3e-8),
        Pulse(angle_rad=math.pi, phase_rad=math.pi / 2, duration_s=600.3 * dt_s),
    ))
    rows = []
    for b in FOUR_LEVEL_FIELDS_UT:
        field = FieldVector(*b)
        pops = pulse.simulate_4level(
            program, PHOSPHORUS, field, 0.5, np.array([1.0, 0.0, 1.0]),
            spincore.transition_frequency(PHOSPHORUS, "T0", field.magnitude()),
        )
        rows.append([b[2], *(pops[label] for label in spincore.LABELS)])
    return csvio.render_csv(["b_z_ut", *spincore.LABELS], np.array(rows))


#: Golden CSV name -> function returning the CSV text.
LIBRARY_CSVS: dict[str, Callable[[], str]] = {
    "cpmg2_run_sequence.csv": cpmg2_csv,
    "hahn_readout_gain_offset.csv": hahn_readout_csv,
    "simulate_4level_pulse_delay_pulse.csv": four_level_csv,
}


def cli_csv(argv: list[str], path: pathlib.Path) -> str:
    code = main([*argv, "--output", str(path)])
    assert code == 0, (argv, code)
    return path.read_text(encoding="utf-8")


def environment() -> str:
    """The numpy, BLAS and libc versions the goldens are written with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = " ".join(platform.libc_ver()).strip() or "unknown"
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, libc {libc}"


def regenerate() -> None:
    print(f"writing goldens with {environment()}")
    os.environ["COLUMNS"] = "80"
    for filename, argv in HELP_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0, (argv, code)
        (HERE / filename).write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {filename} ({len(buf.getvalue())} bytes)")
    for filename, argv in CLI_CSVS.items():
        text = cli_csv(argv, HERE / filename)
        print(f"wrote {filename} ({len(text)} bytes)")
    for filename, make in LIBRARY_CSVS.items():
        text = make()
        (HERE / filename).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {filename} ({len(text)} bytes)")


if __name__ == "__main__":
    regenerate()
