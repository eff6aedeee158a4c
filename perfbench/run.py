"""donorsim benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from any directory of a checkout; the package is imported from the
checkout's ``src`` and nothing is installed.  NAME is one of
``ensemble-mean``, ``echo-max``, ``spectrum-fit``, ``drive-4level``, or
``all`` to run each in turn and print every metric.

``--trace 0`` repeats the workload, each repetition in a fresh process with
tracing off, for about S seconds (at least once), and reports end-to-end
metrics as medians over the repetitions.  ``--trace 1`` runs the workload
once untraced, once under the outside-in tracer (``tracer.py``), runs the
first ``hahn`` call under ``tracemalloc`` on the echo workloads, times the
import of each module, and reports the per-layer metrics.  See README.md for what each
metric means and which end-to-end metric it should move.

Every operation's outputs are checked (``workloads.py``, ``reference.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

from worker import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ensemble-mean", "echo-max", "spectrum-fit", "drive-4level")
#: Workloads whose echo array ``pulse.traced_peak_mb`` measures.
TRACEMALLOC_WORKLOADS = ("ensemble-mean", "echo-max")
#: CLI subcommands long enough to be timed on their own.
TIMED_SUBCOMMANDS = ("hahn", "ramsey", "rabi", "rf_spectrum")
#: Fresh processes that time set-up, counting those that also run the workload.
SETUP_SAMPLES = 5
#: Each run must end well within the three minutes a run is allowed.
RUN_BUDGET_S = 170.0
#: Every worker runs its BLAS on one thread.  The workloads' 4x4 algebra never
#: uses BLAS threads, but starting them made up about a fifth of set-up and
#: took longer when the other core was busy; parallel work is measured
#: through ``--workers``, whose processes would otherwise oversubscribe the cores.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Seconds one calibration loop of worker.py takes, about, on the idle 2-core
#: Xeon host the benchmark was written on; operation times are scaled to it.
CAL_REF_S = 0.001
#: Seconds the calibration imports of worker.py take, about, on that host.
IMPORT_REF_S = 0.025

CALLS = ("program.bind", "pulse.run_sequence", "noise.ou_step",
         "noise.draw_member_environment", "pulse.propagate_pulse",
         "spincore.clock_sensitivity", "spincore.eigensystem", "pump.steady_state")
SELF = ("program.bind", "pulse.run_sequence", "noise.ou_step",
        "noise.draw_member_environment", "pulse.propagate_pulse",
        "pulse.hahn_experiment", "pulse.ramsey_experiment", "pulse.rabi_experiment",
        "spincore.eigensystem", "pulse.simulate_4level", "fitkit.fit_peaks",
        "fitkit.fit_stretched_exp", "pump.optical_spectrum", "csvio.render_csv",
        "csvio.read_csv", "seqdsl.parse", "seqdsl.compile", "config.load_config",
        "cli.main")
DISTINCT = ("program.bind", "spincore.clock_sensitivity")
FITS = ("fitkit.fit_peaks", "fitkit.fit_stretched_exp")
#: Steps whose untraced time ``pulse.member_tau_shots_per_s`` divides the work by.
ENSEMBLE_STEPS = ("hahn", "ramsey", "rabi")


class BenchError(Exception):
    """The benchmark could not measure (missing sources, a crashed worker)."""


class Runner:
    """Starts worker processes inside the checkout and collects their results."""

    def __init__(self, workdir: str, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "DONORSIM_SEED"}
        self.env.update(PYTHONPATH=SRC, TMPDIR=workdir, **ONE_BLAS_THREAD)

    def _start(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time for this run")
        try:
            return subprocess.run(argv, env=self.env, cwd=ROOT, timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:3]} did not finish in time") from exc

    def worker(self, workload: str, seed: int, mode: str) -> dict:
        self.count += 1
        out = os.path.join(self.workdir, f"{self.count}-{mode}")
        result_path = out + ".json"
        proc = self._start([sys.executable, os.path.join(HERE, "worker.py"),
                            workload, str(seed), out, result_path, mode])
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def import_times(self) -> dict[str, float]:
        """Seconds each donorsim module adds to a fresh import (python -X importtime)."""
        proc = self._start([sys.executable, "-X", "importtime", "-c",
                            "import numpy, donorsim.cli; donorsim.cli.build_parser()"])
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        return import_times(proc.stderr)


def import_times(report: str) -> dict[str, float]:
    """Per-module seconds from a ``-X importtime`` report.

    numpy is imported first and reported on its own.  A donorsim module is
    charged for itself and for the third-party imports it pulls in first
    (fitkit pays for scipy.optimize), not for the donorsim modules it imports.
    """
    nodes = []  # (depth, name, cumulative_us, children), children listed first
    pending: list[tuple] = []
    for line in report.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            depth = len(m.group(2)) // 2
            children = []
            while pending and pending[-1][0] > depth:
                children.append(pending.pop())
            pending.append((depth, m.group(3), int(m.group(1)), children))
            nodes.append(pending[-1])

    def nested_donorsim_us(node) -> int:
        return sum(c[2] if c[1].startswith("donorsim") else nested_donorsim_us(c)
                   for c in node[3])

    times = {}
    for node in nodes:
        name = node[1]
        if name in ("numpy", "donorsim") or name.startswith("donorsim."):
            short = "package" if name == "donorsim" else name.rsplit(".", 1)[-1]
            times[short] = (node[2] - nested_donorsim_us(node)) / 1e6
    return times


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _scaled(seconds: float, cal_s: float, ref_s: float = CAL_REF_S) -> float:
    """A time scaled to the reference speed of its calibration."""
    return seconds * ref_s / cal_s


def _wall(result: dict) -> float:
    return sum(_scaled(op["seconds"], op["cal_s"]) for op in result["ops"])


def _speed_factor(result: dict) -> float:
    """CAL_REF_S over the calibration time, weighted by the time of each operation."""
    return _wall(result) / result["wall_s"] if result["wall_s"] else 1.0


def _step_seconds(result: dict, steps=TIMED_SUBCOMMANDS) -> dict[str, float]:
    """Scaled seconds per step in one repetition (summed over its calls)."""
    totals = {}
    for op in result["ops"]:
        if op["step"] in steps:
            totals[op["step"]] = totals.get(op["step"], 0.0) + _scaled(op["seconds"], op["cal_s"])
    return totals


def _parallel_ops(result: dict) -> int:
    """Operations that ran child processes or extra threads (see worker.Speedometer)."""
    return sum(op["parallel"] for op in result["ops"])


class Tally:
    """Operations attempted and failed across every worker of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, result: dict) -> None:
        for op in result["ops"]:
            self.attempted += 1
            if op["failures"]:
                self.failures.append(f"{op['name']}: {'; '.join(op['failures'])}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(runner: Runner, workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics from untraced repetitions, medians over repetitions."""
    start = time.monotonic()
    reps: list[dict] = []
    while not reps or (time.monotonic() - start
                       + _median([r["elapsed"] for r in reps]) <= seconds):
        t0 = time.monotonic()
        result = runner.worker(workload, seed, "plain")
        result["elapsed"] = time.monotonic() - t0
        tally.add(result)
        reps.append(result)
    setups = reps + [runner.worker(workload, seed, "setup")
                     for _ in range(SETUP_SAMPLES - len(reps))]
    walls = [_wall(r) for r in reps]
    setup_s = [_scaled(r["setup_s"], r["setup_cal_s"], IMPORT_REF_S) for r in setups]
    steps = [_step_seconds(r) for r in reps]
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setup_s),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
    }
    report = {f"{s}_s": _median([st[s] for st in steps]) for s in TIMED_SUBCOMMANDS
              if s in steps[0]}
    report.update({
        "failed_share": tally.failed / tally.attempted,
        "wall_s.samples": walls,
        "setup_s.samples": setup_s,
        "wall_unscaled_s": _median([r["wall_s"] for r in reps]),
        "setup_unscaled_s": _median([r["setup_s"] for r in setups]),
        "calibration_s": _median([op["cal_s"] for r in reps for op in r["ops"]]),
        "parallel_ops": max(_parallel_ops(r) for r in reps),
    })
    return {"metrics": metrics, "report": report}


def layers(runner: Runner, workload: str, seed: int, tally: Tally) -> dict[str, float]:
    """Per-layer metrics from one untraced, one traced and one tracemalloc run.

    Traced times are scaled by the traced run's average calibration factor;
    rates come from the untraced run, so the tracer's own cost stays out of
    them; import times are not scaled.
    """
    plain = runner.worker(workload, seed, "plain")
    traced = runner.worker(workload, seed, "trace")
    tally.add(plain)
    tally.add(traced)
    peak_mb = 0.0
    if workload in TRACEMALLOC_WORKLOADS:
        allocs = runner.worker(workload, seed, "tracemalloc")
        tally.add(allocs)
        peak_mb = allocs["pulse_traced_peak_mb"]
    imports = [runner.import_times() for _ in range(3)]

    stats, distinct, counts = traced["trace"], traced["distinct"], traced["counts"]
    factor = _speed_factor(traced)

    def stat(name: str, index: int) -> float:
        value = stats.get(name, [0, 0.0, 0.0])[index]
        return value if index == 0 else value * factor

    m: dict[str, float] = {}
    for name in CALLS:
        m[f"{name}.calls"] = stat(name, 0)
    for name in SELF:
        m[f"{name}.self_s"] = stat(name, 2)
    for name in DISTINCT:
        calls = stat(name, 0)
        m[f"{name}.distinct_ratio"] = distinct.get(name, 0) / calls if calls else 0.0
    for name in FITS:
        calls = stat(name, 0)
        m[f"{name}.iterations"] = traced["fits"][name]["iterations"]
        m[f"{name}.converged"] = traced["fits"][name]["converged"] / calls if calls else 0.0
    for module in MODULES:
        m[f"{module}.self_s"] = sum(stat(k, 2) for k in stats if k.startswith(module + "."))
    experiment_s = sum(_step_seconds(plain, ENSEMBLE_STEPS).values())
    m["pulse.member_tau_shots"] = counts["member_tau_shots"]
    m["pulse.member_tau_shots_per_s"] = (counts["member_tau_shots"] / experiment_s
                                         if experiment_s else 0.0)
    sim_s = _step_seconds(plain, ("simulate_4level",)).get("simulate_4level", 0.0)
    m["pulse.simulate_4level.steps_computed"] = counts.get("cf4_steps", 0)
    m["pulse.simulate_4level.steps_per_s"] = counts.get("cf4_steps", 0) / sim_s if sim_s else 0.0
    m["pulse.simulate_4level.sim_us_per_s"] = counts.get("sim_us", 0.0) / sim_s if sim_s else 0.0
    m["pulse.traced_peak_mb"] = peak_mb
    m["noise.rng_draws"] = counts["rng_draws"]
    m["csvio.emit_csv.bytes"] = counts["csv_bytes"]
    steps = _step_seconds(plain)
    for step in TIMED_SUBCOMMANDS:
        m[f"cli.{step}_s"] = steps.get(step, 0.0)
    for module in ("numpy", "package") + MODULES:
        m[f"setup.import.{module}_s"] = _median([t.get(module, 0.0) for t in imports])
    m["setup.rss_mb"] = plain["setup_rss_mb"]
    m["trace.overhead_s"] = _wall(traced) - _wall(plain)
    partial = m["trace.partial_ops"] = _parallel_ops(traced)
    if partial:
        print(f"{workload}: {partial} traced operations ran child processes or threads; "
              "the tracer sees only the calls of the worker's main thread")
    return m


def _unit(name: str) -> str:
    for suffix, unit in (("sim_us_per_s", "us/s"), ("_per_s", "1/s"), ("_s", "s"),
                         ("_mb", "MB"), ("_ratio", "ratio"), ("converged", "share"),
                         ("_share", "share"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_one(runner: Runner, workload: str, seed: int, seconds: float, trace: bool,
            tally: Tally) -> dict[str, float]:
    if trace:
        return layers(runner, workload, seed, tally)
    measured = measure(runner, workload, seed, seconds, tally)
    for name, value in measured["report"].items():
        print(f"{workload}  {name} = {value} {'' if isinstance(value, list) else _unit(name)}")
    return measured["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "donorsim")):
        print(f"run.py: no donorsim sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(workdir, time.monotonic() + RUN_BUDGET_S * len(names))
    tallies = []
    metrics: dict[str, float] = {}
    try:
        print(f"environment: nproc={os.cpu_count()} python={platform.python_version()} "
              f"machine={platform.machine()} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        runner.worker(names[0], args.seed, "setup")  # warm-up: byte-compile, check import
        for name in names:
            tallies.append(Tally())
            got = run_one(runner, name, args.seed, args.seconds, bool(args.trace), tallies[-1])
            for key, value in got.items():
                print(f"{name}  {key} = {value} {_unit(key)}")
                metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    failures = [f for t in tallies for f in t.failures]
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(t.attempted for t in tallies),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
