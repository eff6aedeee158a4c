"""The four benchmark workloads and the output checks that hold for any seed.

A workload is a list of operations run in order in one process.  Each
operation is one ``donorsim`` CLI call through ``donorsim.cli.main(argv)``
with ``--output`` into the run directory, or one library call for
``drive-4level``.  Functions are looked up on their modules at call time, so
a traced run sees every call.  Inputs (config files, sequence text, CLI
seed) are made from the benchmark seed before the timed region.

``check_<workload>`` returns, per operation, the list of failed oracle
checks.  They use closed forms and physical orderings that hold for every
seed; byte comparison against recorded outputs lives in ``reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from donorsim import cli, csvio, pulse, pump, seqdsl, spincore

#: Seed whose outputs are recorded under reference/.
DEFAULT_SEED = 0

SYSTEM = spincore.PHOSPHORUS
GAMMA_DIFF = SYSTEM.gamma_s - SYSTEM.gamma_i  # kHz per uT of T+/T- splitting
ECHO_TAUS = ("--points", "20", "--tau-min-s", "0.0015", "--tau-max-s", "0.0232")

# ensemble-mean sizes
RABI_MEMBERS, RABI_POINTS, RABI_MAX_US = 500, 201, 200.0
RAMSEY_MEMBERS, RAMSEY_POINTS, RAMSEY_MAX_S = 1000, 101, 2e-3
HAHN_MEMBERS, ECHO_POINTS = 2000, 20
STATIC_SIGMA_KHZ = 1.5
# echo-max sizes
MAX_MEMBERS, MAX_SHOTS, MAX_WORKERS = 100, 50, 2
# spectrum-fit sizes
LEVEL_POINTS, RF_MEMBERS, RF_POINTS, OPTICAL_POINTS = 5000, 2000, 601, 801
RF_FIELDS_UT = (2.0, 4.0, 8.0)
PUMP_SETTINGS = ("off", "on_T", "on_S")
FIELD_TOL_UT = 0.05
# drive-4level: acceptance-test-8 drive, b1 a tenth of the T+/T0 gap at 23 uT
DRIVE_FIELDS_UT = {"23ut": (0.4, 0.0, 23.0), "0ut": (0.4, 0.0, 0.0)}


@dataclass
class Op:
    """One timed call; ``step`` is the CLI subcommand or library function it times."""

    name: str
    run: Callable[[], int]
    outputs: tuple[str, ...]
    step: str


@dataclass
class Workload:
    plan: Callable[[int, str, int | None], list[Op]]
    check: Callable[[int, str], dict[str, list[str]]]
    counts: Callable[[], dict[str, float]]


def cli_seed(seed: int) -> int:
    """The CLI seed for a benchmark seed (the CLI accepts [0, 2^63))."""
    return seed % 2**63


def _cli(argv: list[str], stdout_path: str | None = None) -> Callable[[], int]:
    def run() -> int:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        if stdout_path is not None:
            with open(stdout_path, "w", encoding="utf-8") as fh:
                fh.write(captured.getvalue())
        return code
    return run


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def read_report(path: str) -> dict[str, str]:
    """``name = value`` lines of a ``donorsim fit`` report."""
    report = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line and not line.startswith("#"):
                key, value = line.split("=", 1)
                report[key.strip()] = value.split("+-")[0].strip()
    return report


def _read(out: str, name: str, columns: list[str], rows: int,
          failures: list[str]) -> np.ndarray | None:
    """Read a CSV back through csvio.read_csv and check its shape."""
    try:
        got_columns, data = csvio.read_csv(os.path.join(out, name))
    except (OSError, ValueError) as exc:
        failures.append(f"{name}: does not read back: {exc}")
        return None
    if got_columns != columns or data.shape != (rows, len(columns)):
        failures.append(f"{name}: columns {got_columns} shape {data.shape}")
        return None
    return data


def _fit_ok(out: str, name: str, failures: list[str]) -> dict[str, str]:
    try:
        report = read_report(os.path.join(out, name))
    except OSError as exc:
        failures.append(f"{name}: {exc}")
        return {}
    if report.get("converged") != "true":
        failures.append(f"{name}: converged = {report.get('converged')}")
    return report


def _mc_within(name: str, got: np.ndarray, mean: np.ndarray, var: np.ndarray,
               members: int, failures: list[str]) -> None:
    """Monte-Carlo tolerance: 5 standard errors of the ensemble mean."""
    tol = 5.0 * np.sqrt(var / members) + 1e-9
    worst = np.max(np.abs(got - mean) - tol)
    if worst > 0:
        failures.append(f"{name}: exceeds the 5-sigma Monte-Carlo band by {worst:.3g}")


# --- ensemble-mean ---------------------------------------------------------

def plan_ensemble_mean(seed: int, out: str, workers: int | None) -> list[Op]:
    s = str(cli_seed(seed))
    static = _write(os.path.join(out, "static.ini"),
                    f"[field]\nb0_ut = 4.0\n\n[noise]\nstatic_detuning_khz = {STATIC_SIGMA_KHZ}\n")
    ou = _write(os.path.join(out, "ou.ini"),
                "[field]\nb0_ut = 4.0\n\n[noise]\nou_sigma_khz = 0.05\nou_tau_c_s = 0.2\n")
    o = lambda name: os.path.join(out, name)  # noqa: E731
    hahn = ["hahn", "--config", ou, "--members", str(HAHN_MEMBERS), *ECHO_TAUS,
            "--detection", "mean", "--workers", "1", "--seed", s]
    return [
        Op("rabi", _cli(["rabi", "--config", static, "--members", str(RABI_MEMBERS),
                         "--points", str(RABI_POINTS), "--max-us", str(RABI_MAX_US),
                         "--seed", s, "--output", o("rabi.csv")]),
           ("rabi.csv",), "rabi"),
        Op("ramsey", _cli(["ramsey", "--config", static, "--members", str(RAMSEY_MEMBERS),
                           "--points", str(RAMSEY_POINTS), "--tau-max-s", str(RAMSEY_MAX_S),
                           "--seed", s, "--output", o("ramsey.csv")]),
           ("ramsey.csv",), "ramsey"),
        Op("hahn_tplus", _cli(hahn + ["--transition", "T+", "--orientation", "perpendicular",
                                      "--output", o("hahn_tplus.csv")]),
           ("hahn_tplus.csv",), "hahn"),
        Op("hahn_t0", _cli(hahn + ["--transition", "T0", "--orientation", "parallel",
                                   "--output", o("hahn_t0.csv")]),
           ("hahn_t0.csv",), "hahn"),
        Op("fit_stretched", _cli(["fit", o("hahn_tplus.csv"), "--model", "stretched",
                                  "--output", o("fit_tplus.txt")]),
           ("fit_tplus.txt",), "fit"),
    ]


def _rabi_oracle(lengths_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the generalized Rabi transfer over Gaussian disorder."""
    line = {t.to_label: t for t in spincore.transition_table(
        SYSTEM, spincore.FieldVector.along_z(4.0))}["T0"]
    omega = 2 * math.pi * line.element_parallel_mhz_per_mt * 1e-3 * 1e6
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / weights.sum()
    delta = 2 * math.pi * STATIC_SIGMA_KHZ * 1e3 * nodes[:, None]
    gen = np.hypot(omega, delta)
    p = (omega / gen) ** 2 * np.sin(gen * lengths_s[None, :] / 2) ** 2
    mean = weights @ p
    return mean, weights @ p**2 - mean**2


def check_ensemble_mean(seed: int, out: str) -> dict[str, list[str]]:
    f = {name: [] for name in ("rabi", "ramsey", "hahn_tplus", "hahn_t0", "fit_stretched")}
    rabi = _read(out, "rabi.csv", ["pulse_s", "p_transfer"], RABI_POINTS, f["rabi"])
    if rabi is not None:
        mean, var = _rabi_oracle(rabi[:, 0])
        _mc_within("rabi", rabi[:, 1], mean, var, RABI_MEMBERS, f["rabi"])
    ramsey = _read(out, "ramsey.csv", ["tau_s", "p_transfer"], RAMSEY_POINTS, f["ramsey"])
    if ramsey is not None:
        # p_T = (1 + cos phi)/2 with phi ~ N(0, s^2), s = 2 pi sigma tau
        s2 = (2 * math.pi * STATIC_SIGMA_KHZ * 1e3 * ramsey[:, 0]) ** 2
        mean = (1 + np.exp(-s2 / 2)) / 2
        var = ((1 + np.exp(-2 * s2)) / 2 - np.exp(-s2)) / 4
        _mc_within("ramsey", ramsey[:, 1], mean, var, RAMSEY_MEMBERS, f["ramsey"])
    cols = ["tau_s", "echo", "shots"]
    tplus = _read(out, "hahn_tplus.csv", cols, ECHO_POINTS, f["hahn_tplus"])
    t0 = _read(out, "hahn_t0.csv", cols, ECHO_POINTS, f["hahn_t0"])
    if t0 is not None and np.min(t0[:, 1]) <= 0.99:
        f["hahn_t0"].append(f"clock-line echo fell to {np.min(t0[:, 1]):.4f} (<= 0.99)")
    if tplus is not None and t0 is not None:
        if not np.min(tplus[:, 1]) < 1 / math.e < np.min(t0[:, 1]):
            f["hahn_t0"].append("T+ echo does not decay before the T0 echo")
    report = _fit_ok(out, "fit_tplus.txt", f["fit_stretched"])
    try:
        n = float(report.get("n", "nan"))
    except ValueError:
        n = math.nan
    if report and not n > 1.0:
        f["fit_stretched"].append(f"stretched fit n = {report.get('n')} (need > 1)")
    return f


def counts_ensemble_mean() -> dict[str, float]:
    runs_hahn = HAHN_MEMBERS * ECHO_POINTS * 2  # two phase-cycle shots per point
    return {
        "member_tau_shots": RABI_MEMBERS * RABI_POINTS + RAMSEY_MEMBERS * RAMSEY_POINTS
        + 2 * HAHN_MEMBERS * ECHO_POINTS,
        # 4 environment draws per member and experiment; OU runs draw
        # 1 + 2 * (delays) normals, two delays in the echo
        "rng_draws": 4 * (RABI_MEMBERS + RAMSEY_MEMBERS + 2 * HAHN_MEMBERS)
        + 2 * runs_hahn * 5,
    }


# --- echo-max --------------------------------------------------------------

def plan_echo_max(seed: int, out: str, workers: int | None) -> list[Op]:
    ou = _write(os.path.join(out, "ou.ini"),
                "[field]\nb0_ut = 4.0\n\n[noise]\nou_sigma_khz = 0.05\nou_tau_c_s = 0.2\n")
    argv = ["hahn", "--config", ou, "--members", str(MAX_MEMBERS), *ECHO_TAUS,
            "--transition", "T+", "--orientation", "perpendicular",
            "--detection", "max", "--shots", str(MAX_SHOTS),
            "--workers", str(workers or MAX_WORKERS), "--seed", str(cli_seed(seed)),
            "--output", os.path.join(out, "echo_max.csv")]
    return [Op("hahn_max", _cli(argv), ("echo_max.csv",), "hahn")]


def check_echo_max(seed: int, out: str) -> dict[str, list[str]]:
    f: list[str] = []
    data = _read(out, "echo_max.csv", ["tau_s", "echo", "shots"], ECHO_POINTS, f)
    if data is not None:
        echo = data[:, 1]
        if not np.all(data[:, 2] == MAX_SHOTS):
            f.append("shot counts differ from --shots")
        # |ensemble mean of a cycled signal in [-1, 1]| can only lie in [0, 1]
        if not np.all((echo > 0) & (echo <= 1 + 1e-12)):
            f.append(f"echo outside (0, 1]: {echo.min():.4g}..{echo.max():.4g}")
        if not echo[0] > echo[-1]:
            f.append("max-detected echo does not decay")
    return {"hahn_max": f}


def counts_echo_max() -> dict[str, float]:
    runs = MAX_MEMBERS * ECHO_POINTS * MAX_SHOTS * 2
    return {
        "member_tau_shots": MAX_MEMBERS * ECHO_POINTS * MAX_SHOTS,
        "rng_draws": 4 * MAX_MEMBERS + runs * 5 + ECHO_POINTS * MAX_SHOTS,
    }


# --- spectrum-fit ----------------------------------------------------------

def _tag(b_ut: float) -> str:
    return f"{b_ut:g}ut"


def _estimate_field(out: str, b_ut: float) -> Callable[[], int]:
    def run() -> int:
        report = read_report(os.path.join(out, f"fit_rf_{_tag(b_ut)}.txt"))
        splitting = float(report["center_2"]) - float(report["center_1"])
        return _cli(["estimate-field", "--splitting-khz", repr(splitting)],
                    os.path.join(out, f"field_{_tag(b_ut)}.txt"))()
    return run


def plan_spectrum_fit(seed: int, out: str, workers: int | None) -> list[Op]:
    spec = _write(os.path.join(out, "internal.ini"), "[noise]\ninternal_fraction = 0.4\n")
    o = lambda name: os.path.join(out, name)  # noqa: E731
    ops = [Op("levels", _cli(["levels", "--points", str(LEVEL_POINTS),
                              "--output", o("levels.csv")]), ("levels.csv",), "levels")]
    for b in RF_FIELDS_UT:
        t = _tag(b)
        center = GAMMA_DIFF / 2 * b
        ops += [
            Op(f"rf_spectrum_{t}", _cli([
                "rf-spectrum", "--config", spec, "--b0-ut", repr(b),
                "--orientation", "perpendicular", "--members", str(RF_MEMBERS),
                "--points", str(RF_POINTS), "--seed", str(cli_seed(seed)),
                "--output", o(f"rf_{t}.csv")]), (f"rf_{t}.csv",), "rf_spectrum"),
            Op(f"fit_peaks_{t}", _cli([
                "fit", o(f"rf_{t}.csv"), "--model", "peaks", "--k", "2",
                f"--peak={-center!r},3,0.5", f"--peak={center!r},3,0.5",
                "--output", o(f"fit_rf_{t}.txt")]), (f"fit_rf_{t}.txt",), "fit"),
            Op(f"estimate_field_{t}", _estimate_field(out, b), (f"field_{t}.txt",),
               "estimate_field"),
        ]
    for setting in PUMP_SETTINGS:
        ops.append(Op(f"optical_{setting}", _cli([
            "optical-spectrum", "--pump", setting, "--points", str(OPTICAL_POINTS),
            "--randomization-rate", "5", "--output", o(f"optical_{setting}.csv")]),
            (f"optical_{setting}.csv",), "optical_spectrum"))
    return ops


def check_spectrum_fit(seed: int, out: str) -> dict[str, list[str]]:
    f: dict[str, list[str]] = {"levels": []}
    levels = _read(out, "levels.csv", ["b_mt", "energy_S_mhz", "energy_Tminus_mhz",
                                       "energy_T0_mhz", "energy_Tplus_mhz"],
                   LEVEL_POINTS, f["levels"])
    if levels is not None:
        # E(T+) - E(T-) = (gamma_s - gamma_i) B exactly
        split = levels[:, 4] - levels[:, 2]
        if not np.allclose(split, GAMMA_DIFF * levels[:, 0], rtol=1e-9, atol=1e-9):
            f["levels"].append("T+/T- splitting is not linear in B")
    for b in RF_FIELDS_UT:
        t = _tag(b)
        rf_f = f[f"rf_spectrum_{t}"] = []
        fit_f = f[f"fit_peaks_{t}"] = []
        field_f = f[f"estimate_field_{t}"] = []
        rf = _read(out, f"rf_{t}.csv", ["offset_khz", "response"], RF_POINTS, rf_f)
        if rf is not None and np.min(rf[:, 1]) < 0:
            rf_f.append("negative absorption")
        _fit_ok(out, f"fit_rf_{t}.txt", fit_f)
        try:
            with open(os.path.join(out, f"field_{t}.txt"), encoding="utf-8") as fh:
                estimate = float(fh.read().split()[0])
        except (OSError, ValueError, IndexError) as exc:
            field_f.append(f"no field estimate: {exc}")
            continue
        if abs(estimate - b) > FIELD_TOL_UT:
            field_f.append(f"estimated {estimate} uT for {b} uT (tolerance {FIELD_TOL_UT})")
    signal = {}
    for setting in PUMP_SETTINGS:
        data = _read(out, f"optical_{setting}.csv", ["detuning_invcm", "signal"],
                     OPTICAL_POINTS, f.setdefault(f"optical_{setting}", []))
        if data is not None:
            line_s = SYSTEM.hyperfine_a / pump.MHZ_PER_INV_CM  # the CLI's default
            idx_t = int(np.argmin(np.abs(data[:, 0])))
            idx_s = int(np.argmin(np.abs(data[:, 0] - line_s)))
            signal[setting] = (data[idx_t, 1], data[idx_s, 1])
    if len(signal) == 3:
        (off_t, off_s), (ont_t, ont_s), (ons_t, ons_s) = (signal[p] for p in PUMP_SETTINGS)
        if not (ont_t < off_t and ont_s > off_s):
            f["optical_on_T"].append("pumping T does not move strength from T to S")
        if not (ons_s < off_s and ons_t > off_t):
            f["optical_on_S"].append("pumping S does not move strength from S to T")
    return f


def counts_spectrum_fit() -> dict[str, float]:
    return {"member_tau_shots": 0, "rng_draws": 4 * RF_MEMBERS * len(RF_FIELDS_UT)}


# --- drive-4level ----------------------------------------------------------

def drive() -> tuple[float, float]:
    """(b1 in mT, pi-pulse duration in us) of the acceptance-test-8 drive."""
    coupling = (SYSTEM.gamma_s + SYSTEM.gamma_i) / 2.0
    gap = (spincore.transition_frequency(SYSTEM, "T+", 23.0)
           - spincore.transition_frequency(SYSTEM, "T0", 23.0))
    b1_mt = gap / 10.0 / coupling
    return b1_mt, 0.5 / (coupling * b1_mt)


def plan_drive_4level(seed: int, out: str, workers: int | None) -> list[Op]:
    b1_mt, duration_us = drive()
    text = f"seq pi {{\n  pulse angle=180 phase=0 dur={duration_us!r}us;\n}}\n"
    state: dict[str, object] = {}

    def compile_text() -> int:
        ast = seqdsl.parse(text)
        errors = [d for d in seqdsl.validate(ast) if d.severity == "error"]
        if errors:
            return 1
        program = state["program"] = seqdsl.compile(ast, {})
        _write(os.path.join(out, "program.json"), json.dumps({
            "canonical": seqdsl.pretty_print(ast),
            "events": [[ev.angle_rad, ev.phase_rad, ev.duration_s] for ev in program.events],
        }, indent=1) + "\n")
        return 0

    def simulate(tag: str, b: tuple[float, float, float]) -> Callable[[], int]:
        def run() -> int:
            field = spincore.FieldVector(*b)
            pops = pulse.simulate_4level(
                state["program"], SYSTEM, field, b1_mt,
                b1_direction=np.array([0.0, 0.0, 1.0]),
                rf_frequency_mhz=spincore.transition_frequency(SYSTEM, "T0", field.magnitude()),
            )
            _write(os.path.join(out, f"pops_{tag}.json"), json.dumps(pops, indent=1) + "\n")
            return 0
        return run

    return [Op("compile", compile_text, ("program.json",), "seqdsl")] + [
        Op(f"simulate_{tag}", simulate(tag, b), (f"pops_{tag}.json",), "simulate_4level")
        for tag, b in DRIVE_FIELDS_UT.items()
    ]


def check_drive_4level(seed: int, out: str) -> dict[str, list[str]]:
    f: dict[str, list[str]] = {"compile": []}
    _, duration_us = drive()
    want = [[math.pi, 0.0, duration_us * 1e-6]]
    try:
        with open(os.path.join(out, "program.json"), encoding="utf-8") as fh:
            listing = json.load(fh)
        # the canonical form must compile to the same program again
        again = seqdsl.compile(seqdsl.parse(listing["canonical"]), {}).events
        events = listing["events"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        f["compile"].append(f"no compiled program: {exc}")
    else:
        if not (len(events) == 1 and np.allclose(events, want, rtol=1e-12, atol=0)):
            f["compile"].append(f"compiled events {events}, expected {want}")
        if [[ev.angle_rad, ev.phase_rad, ev.duration_s] for ev in again] != events:
            f["compile"].append("canonical form compiles to a different program")
    leak = {}
    for tag in DRIVE_FIELDS_UT:
        fails = f[f"simulate_{tag}"] = []
        try:
            with open(os.path.join(out, f"pops_{tag}.json"), encoding="utf-8") as fh:
                pops = json.load(fh)
        except (OSError, ValueError) as exc:
            fails.append(f"no populations: {exc}")
            continue
        try:
            total = sum(pops.values())
            leak[tag] = pops["T+"] + pops["T-"]
        except (AttributeError, KeyError, TypeError) as exc:
            fails.append(f"populations without T+ and T-: {type(exc).__name__}: {exc}")
            continue
        if abs(total - 1.0) > 1e-9:
            fails.append(f"populations sum to {total!r}")
    if len(leak) == 2:
        if not leak["23ut"] < 0.01 < 0.05 < leak["0ut"]:
            f["simulate_0ut"].append(f"leak does not rise as the field falls: {leak}")
    return f


def counts_drive_4level() -> dict[str, float]:
    _, duration_us = drive()
    dt_us = 1.0 / (50.0 * SYSTEM.hyperfine_a)
    steps = math.ceil(duration_us / dt_us - 1e-12)
    return {"member_tau_shots": 0, "rng_draws": 0,
            "cf4_steps": steps * len(DRIVE_FIELDS_UT),
            "sim_us": duration_us * len(DRIVE_FIELDS_UT)}


WORKLOADS = {
    "ensemble-mean": Workload(plan_ensemble_mean, check_ensemble_mean, counts_ensemble_mean),
    "echo-max": Workload(plan_echo_max, check_echo_max, counts_echo_max),
    "spectrum-fit": Workload(plan_spectrum_fit, check_spectrum_fit, counts_spectrum_fit),
    "drive-4level": Workload(plan_drive_4level, check_drive_4level, counts_drive_4level),
}
