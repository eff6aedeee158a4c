"""Run one workload once in a fresh process and write its measurements as JSON.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR RESULT_JSON MODE

MODE is ``plain`` (timed, tracing off), ``trace`` (the outside-in tracer is
on), ``tracemalloc`` (peak Python allocations of the workload's first
``hahn`` call, which holds the members x taus x shots array; tracemalloc
slows the ensemble loops about tenfold, so only that call runs) or
``setup`` (only the set-up is timed).  ``run.py`` starts this script with
``PYTHONPATH`` set to the checkout's ``src``.

Set-up is timed first, before anything else is imported: ``import
donorsim`` plus ``build_parser()``.  Each operation is timed on its own and
``wall_s`` is their sum, from the first call to the last output written;
the output checks run after it.

The host's speed drifts by up to 2.5x within seconds when other tenants
load it, so a ``Speedometer`` times a short fixed loop every 0.05 s of wall
time, and once before and after each operation.  An operation's time
excludes the loops run inside it, and ``run.py`` scales it by the loop's
mean speed over the operation.  The loop measures the host only while this
process runs alone: an operation that runs child processes or extra threads
is timed with the loops inside it, and scaled by the two loops around it.
Set-up did not follow the loop; it is scaled by the time of a fixed set of
imports instead.
"""

import math
import os
import signal
import sys
import threading
import time

#: Iterations of the pure-Python and of the numpy part of one calibration loop.
BURST_ITERATIONS = 10_000
BURST_ARRAY_ITERATIONS = 40
#: Wall-clock seconds between calibration loops while an interval runs.
BURST_INTERVAL_S = 0.05


class Speedometer:
    """Samples the host's speed with a fixed loop, on a SIGALRM timer.

    The loop mixes the package's two kinds of work: scalar Python arithmetic
    and small numpy matrix products.
    """

    def __init__(self) -> None:
        import numpy

        self.bursts: list[float] = []
        self.threads: list[int] = []  # Python threads at each loop
        self.busy_s = 0.0
        self._running = False
        self._matrix = numpy.linspace(-0.01, 0.01, 16).reshape(4, 4) * 1j
        self._eye = numpy.eye(4)
        for _ in range(3):
            self.burst()  # let the interpreter specialise the loop before it counts
        self.bursts.clear()
        self.threads.clear()
        self.busy_s = 0.0

    def burst(self, *_signal_args) -> None:
        if self._running:  # a timer signal arrived during a loop: skip it
            return
        self._running = True
        start = time.perf_counter()
        x = 0.0
        for i in range(BURST_ITERATIONS):
            x += math.sin(i * 0.001)
        psi = self._eye[0] + 0j
        for i in range(BURST_ARRAY_ITERATIONS):
            m = self._matrix * math.cos(0.1 * i)
            psi = (self._eye + m + (m @ m) / 2.0) @ psi
        elapsed = time.perf_counter() - start
        self.bursts.append(elapsed)
        # Python threads only: the BLAS library starts and stops native ones itself
        self.threads.append(threading.active_count())
        self.busy_s += elapsed
        self._running = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, BURST_INTERVAL_S, BURST_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def time(self, fn):
        """fn's result, its seconds, harmonic-mean loop seconds, and whether it ran in parallel.

        When fn ran child processes (their CPU time, once reaped) or more
        threads than before it, the loops inside it shared the cores with
        them: they neither measure the host nor delay fn by their own
        length.  Its seconds then keep them, and only the loops just before
        and after it count.  Otherwise its seconds exclude them.
        """
        self.burst()
        first = len(self.bursts) - 1
        busy = self.busy_s
        children = _children_cpu_s()
        start = time.perf_counter()
        value = fn()
        seconds = time.perf_counter() - start
        inside_busy = self.busy_s - busy
        self.burst()
        window = self.bursts[first:]
        parallel = (_children_cpu_s() > children
                    or max(self.threads[first:]) > self.threads[first])
        if parallel:
            window = [window[0], window[-1]]
        else:
            seconds -= inside_busy
        # the timer spaces loops evenly in wall time, so the work done between
        # two of them goes as 1 / loop time: average speeds, not times
        return value, seconds, len(window) / sum(1.0 / b for b in window), parallel


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


#: Standard-library modules that neither the package, numpy, scipy nor this
#: script imports.  Timing their import right after set-up calibrates set-up
#: with the same kind of work: finding, reading, unmarshalling and running
#: modules, and loading two extension modules (pyexpat, _sqlite3).
IMPORT_CALIBRATION = ("xml.dom.minidom", "email.mime.multipart", "http.client", "sqlite3",
                      "tarfile", "ftplib", "smtplib", "imaplib", "mailbox", "plistlib",
                      "html.parser", "xmlrpc.client")

if __name__ == "__main__":
    import importlib

    _start = time.perf_counter()
    import donorsim.cli

    donorsim.cli.build_parser()
    SETUP_S = time.perf_counter() - _start
    import resource

    SETUP_RSS_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _loaded = [name for name in IMPORT_CALIBRATION if name in sys.modules]
    if _loaded:  # their import would no longer measure the host
        sys.exit(f"worker.py: set-up already imports the calibration modules {_loaded}; "
                 "replace them in IMPORT_CALIBRATION")
    _start = time.perf_counter()
    for _name in IMPORT_CALIBRATION:
        importlib.import_module(_name)
    SETUP_CAL_S = time.perf_counter() - _start

import json  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402

#: Modules whose public functions the tracer wraps (the per-layer names).
MODULES = ("spincore", "pump", "noise", "pulse", "program", "seqdsl", "fitkit",
           "config", "csvio", "cli")


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _fit_observer(record: dict):
    def observe(args, kwargs, result) -> None:
        record["iterations"] += result.iterations
        record["converged"] += int(result.converged)
    return observe


def _make_tracer():
    from tracer import Tracer

    fits = {name: {"iterations": 0, "converged": 0}
            for name in ("fitkit.fit_peaks", "fitkit.fit_stretched_exp")}
    tracer = Tracer(
        keys={
            # distinct (program, bindings) pairs
            "program.bind": lambda a, k: (a[0], tuple(sorted(a[1].items()))),
            "spincore.clock_sensitivity": lambda a, k: (a, tuple(sorted(k.items()))),
        },
        observers={n: _fit_observer(r) for n, r in fits.items()},
    )
    tracer.install([f"donorsim.{m}" for m in MODULES])
    return tracer, fits


def _guarded(run):
    def call():
        try:
            return run()
        except Exception as exc:  # an operation that raises counts as failed
            return f"raised {type(exc).__name__}: {exc}"
    return call


def _checked(check, ops) -> dict[str, list[str]]:
    """A check's failures per operation; a check that raises fails every operation."""
    try:
        return check()
    except Exception as exc:  # outputs the check cannot read are a program defect
        return {op.name: [f"output check raised {type(exc).__name__}: {exc}"] for op in ops}


def main(argv: list[str]) -> int:
    workload_name, seed, out, result_path, mode = argv
    seed = int(seed)
    result = {"setup_s": SETUP_S, "setup_cal_s": SETUP_CAL_S, "setup_rss_mb": SETUP_RSS_MB}
    if mode == "setup":
        _dump(result_path, result)
        return 0

    import reference
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    os.makedirs(out, exist_ok=True)
    ops = workload.plan(seed, out, None)
    tracer = None
    if mode == "trace":
        tracer, fits = _make_tracer()
    elif mode == "tracemalloc":
        ops = [op for op in ops if op.step == "hahn"][:1]
        tracemalloc.start()
    op_results = []
    meter = Speedometer()
    if mode != "tracemalloc":  # loops would only add traced allocations there
        meter.start()
    for op in ops:
        code, seconds, cal_s, parallel = meter.time(_guarded(op.run))
        op_results.append({"name": op.name, "step": op.step, "seconds": seconds,
                           "cal_s": cal_s, "parallel": parallel, "code": code})
    meter.stop()
    result["wall_s"] = sum(op["seconds"] for op in op_results)
    if tracer is not None:
        tracer.restore()
        result["trace"] = {name: list(v) for name, v in tracer.stats.items()}
        result["distinct"] = {name: len(s) for name, s in tracer.distinct.items()}
        result["fits"] = fits
    if mode == "tracemalloc":
        result["pulse_traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    result["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF) + _rss_mb(resource.RUSAGE_CHILDREN)

    oracle, recorded = _checked(lambda: workload.check(seed, out), ops), \
        _checked(lambda: reference.compare(workload_name, seed, out, ops), ops)
    for op in op_results:
        failures = []
        if op["code"] != 0:
            failures.append(f"exit code {op['code']}")
        failures += oracle.get(op["name"], []) + recorded.get(op["name"], [])
        op["failures"] = failures
    result["ops"] = op_results
    result["counts"] = workload.counts()
    result["counts"]["csv_bytes"] = sum(
        os.path.getsize(os.path.join(out, name)) for op in ops for name in op.outputs
        if name.endswith(".csv") and os.path.exists(os.path.join(out, name)))
    _dump(result_path, result)
    return 0


def _dump(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
