"""Command-line interface.

``donorsim <subcommand> [flags]`` wires the physics modules together:
seeded ensemble experiments, spectra, level sweeps, fitting, and the
sequence-text tools.  Numeric results are emitted as CSV (see csvio);
everything is deterministic for a fixed seed and worker count.

Exit codes: 0 success, 1 validation/usage error (bad flag, bad config
value, malformed input data), 2 runtime error (I/O failure, lost norm,
convergence failure, fit that did not converge).  The exception class
decides the code: ``OSError`` and ``RuntimeError`` give 2, any other
``ValueError`` gives 1.  The convergence error of ``pump`` is both, and
gives 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, TextIO

from .config import (PEAK_SHAPES, PUMP_SETTINGS, SETTINGS, ConfigError, EnsembleSpec, PumpConfig,
                     SpinSystem, build, load_config, parse_int, parse_number, read_text,
                     resolve_seed, write_text)

if TYPE_CHECKING:
    import numpy as np


def _effective_config(args: argparse.Namespace) -> dict[str, Any]:
    """The ``--config`` file's settings, then every given setting flag, already
    parsed; by field name, for ``config.build``."""
    cfg = load_config(args.config) if getattr(args, "config", None) else {}
    return {**cfg, **{name: value for name, value in vars(args).items() if name in SETTINGS}}


def _ensemble_spec(args: argparse.Namespace, cfg: dict) -> EnsembleSpec:
    """The run's ensemble.  Its seed resolves only here (flag > DONORSIM_SEED >
    file > 0), so a bad sweep or ``--workers`` is named before a bad DONORSIM_SEED."""
    return build(EnsembleSpec, {**cfg, "seed": resolve_seed(getattr(args, "seed", None),
                                                            cfg.get("seed"))})


# --- subcommand implementations ---------------------------------------------

def _cmd_sweep(args: argparse.Namespace, cfg: dict, target: str | TextIO) -> int:
    """A CSV row: ``--points`` x over its span, checked before any work, then its y columns."""
    row = _COMMANDS[args.command]
    start, stop = row.span(args)
    if args.points < 2:
        raise ConfigError("--points must be >= 2")
    if not (all(map(math.isfinite, (start, stop, stop - start))) and start < stop):
        raise ConfigError(f"sweep needs a finite start below its end, got {start!r} to {stop!r}")
    import numpy as np

    from . import csvio

    x = np.linspace(start, stop, args.points)
    csvio.emit_csv(target, row.columns, np.column_stack([x, *row.compute(args, cfg, x)]))
    return 0


def _levels(args: argparse.Namespace, cfg: dict, b_mt: np.ndarray) -> list[np.ndarray]:
    from . import spincore

    if args.bmin_mt < 0.0:
        raise ConfigError("need 0 <= --bmin-mt")
    if not math.isfinite(args.bmax_mt * spincore.UT_PER_MT):
        raise ConfigError(f"--bmax-mt {args.bmax_mt!r} overflows when converted to µT")
    levels = spincore.breit_rabi_levels(build(SpinSystem, cfg), b_mt * spincore.UT_PER_MT)
    return [levels[label] for label in spincore.LABELS]


def _rf_spectrum(args: argparse.Namespace, cfg: dict, x: np.ndarray) -> list[np.ndarray]:
    from .pulse import rf_spectrum

    return [rf_spectrum(_ensemble_spec(args, cfg), build(SpinSystem, cfg), x,
                        kernel_fwhm_khz=args.kernel_fwhm_khz).values]


def _optical_spectrum(args: argparse.Namespace, cfg: dict, x: np.ndarray) -> list[np.ndarray]:
    from . import pump

    line_s_invcm = args.line_s_invcm
    if line_s_invcm is None:  # the configured hyperfine splitting above the T line
        line_s_invcm = build(SpinSystem, cfg).hyperfine_a / pump.MHZ_PER_INV_CM
    return [pump.optical_spectrum(
        x, line_s_inv_cm=line_s_invcm, line_t_inv_cm=args.line_t_invcm, cfg=build(PumpConfig, cfg),
        pump_setting=args.pump, probe_peak_rate=args.probe_peak_rate,
        pump_peak_rate=args.pump_peak_rate, doublet_split_inv_cm=args.doublet_split_invcm,
    ).values]


def _rabi(args: argparse.Namespace, cfg: dict, lengths_s: np.ndarray) -> list[np.ndarray]:
    from .pulse import rabi_experiment

    return [rabi_experiment(_ensemble_spec(args, cfg), build(SpinSystem, cfg), lengths_s).values]


def _ramsey(args: argparse.Namespace, cfg: dict, taus_s: np.ndarray) -> list[np.ndarray]:
    from .pulse import ramsey_experiment

    return [ramsey_experiment(_ensemble_spec(args, cfg), build(SpinSystem, cfg), taus_s).values]


def _hahn(args: argparse.Namespace, cfg: dict, taus_s: np.ndarray) -> list[np.ndarray]:
    import numpy as np

    from .pulse import hahn_experiment

    # --workers starts no processes: per-member streams make every count give the same bytes
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    # a count below 1 is hahn_experiment's error under either detection
    if args.detection == "mean" and args.shots is not None and args.shots >= 1:
        raise ConfigError("--shots applies only to --detection max")
    echo = hahn_experiment(_ensemble_spec(args, cfg), build(SpinSystem, cfg), taus_s,
                           detection=args.detection, shots_per_point=args.shots)
    return [echo.values, np.full_like(taus_s, echo.shots)]


def _parse_numbers(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"values must be numbers, got {text!r}") from None


def _parse_triple(text: str) -> tuple[float, float, float]:
    if text.count(",") != 2:
        raise ValueError(f"needs 'center,width,amplitude', got {text!r}")
    return tuple(_parse_numbers(text))


#: Each fit model's own flags, by ``args`` attribute; the other model rejects them.
_MODEL_FLAGS = {"stretched": ("initial", "fix_n"), "peaks": ("k", "shape", "peak", "baseline")}


def _cmd_fit(args: argparse.Namespace, cfg: dict, target: str | TextIO) -> int:
    from . import csvio, fitkit

    other = "peaks" if args.model == "stretched" else "stretched"
    for name in _MODEL_FLAGS[other]:
        if getattr(args, name) is not None:
            raise ConfigError(f"--{name.replace('_', '-')} applies only to --model {other}")
    columns, data = csvio.read_csv(args.input)
    if data.shape[0] < 3 or data.shape[1] < 2:
        raise ConfigError(f"{args.input}: need at least 3 rows and 2 columns to fit")
    x, y = data[:, 0], data[:, 1]
    if args.model == "stretched":
        result = fitkit.fit_stretched_exp(x, y, initial=args.initial, fix_n=args.fix_n)
    else:
        k = 1 if args.k is None else args.k
        if k < 1:
            raise ConfigError("--k must be >= 1")
        peaks = args.peak or []
        if len(peaks) != k:
            raise ConfigError(f"--model peaks needs exactly k={k} --peak triples")
        result = fitkit.fit_peaks(
            x, y, k, shape=args.shape or "lorentzian", initial=peaks, baseline=args.baseline
        )
    lines = [f"# fit of {columns[1]} vs {columns[0]} ({args.model})"]
    for name, value, err in zip(result.names, result.params, result.stderr):
        lines.append(f"{name} = {csvio.format_value(value)} +- {csvio.format_value(err)}")
    lines.append(f"rss = {csvio.format_value(result.rss)}")
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"converged = {str(result.converged).lower()}")
    lines += [f"# note: {note}" for note in result.diagnostics]
    write_text(target, "\n".join(lines) + "\n")
    if result.converged:
        return 0
    print(f"donorsim: error: the fit did not converge in {result.iterations} iterations",
          file=sys.stderr)
    return 2


def _cmd_parse(args: argparse.Namespace, cfg: dict, target: str | TextIO) -> int:
    from . import seqdsl

    ast = seqdsl.parse(read_text(sys.stdin if args.file == "-" else args.file))
    diagnostics = seqdsl.validate(ast)
    for diag in diagnostics:
        print(f"{args.file}:{diag}", file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        return 1
    write_text(target, seqdsl.pretty_print(ast))
    return 0


def _cmd_estimate_field(args: argparse.Namespace, cfg: dict, target: str | TextIO) -> int:
    from . import spincore

    field_ut = spincore.estimate_field_from_splitting(args.splitting_khz, build(SpinSystem, cfg))
    write_text(target, f"{field_ut:.3f} µT\n")
    return 0


# --- the subcommand table ----------------------------------------------------

class _ParsedFlag(argparse.Action):
    """A flag whose text ``parse`` reads as it is given; a bad text is exit 1."""

    def __init__(self, option_strings, dest, *, parse: Callable, append=False, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.parse, self.append = parse, append

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            value = self.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{option_string}: {exc}") from None
        if self.append:
            value = [*(getattr(namespace, self.dest) or []), value]
        setattr(namespace, self.dest, value)


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help line, its flags in ``--help`` order, and how it runs.

    A flag is a dict of ``add_argument`` keywords with its ``name`` (a
    ``parse`` keyword reads the text through ``_ParsedFlag``, whose ``append``
    lists a repeated flag's values in order), or a tuple of the settings
    (``config.SETTINGS`` names) the subcommand reads, whose flags it adds in
    that order; a setting it does not read has no flag there.  A CSV row writes the x
    swept over ``span(args)`` and ``compute(args, cfg, x)`` under
    ``columns``; any other row runs ``run(args, cfg, target)``.  Each
    function imports the modules it runs, so a process loads only what its
    subcommand needs: the table itself needs only ``config``, and numpy
    loads once a subcommand has accepted its argv, its config and, for a
    CSV row, its points and span.
    """

    help: str
    flags: tuple[dict | tuple[str, ...], ...]
    columns: tuple[str, ...] = ()
    span: Callable[[argparse.Namespace], tuple[float, float]] | None = None
    compute: Callable[[argparse.Namespace, dict, np.ndarray], list[np.ndarray]] | None = None
    run: Callable[[argparse.Namespace, dict, str | TextIO], int] = _cmd_sweep


#: The first flags of every subcommand but ``parse``, and the settings each ensemble
#: subcommand reads in ``--help`` order: the spectrum's members, field and internal
#: field, with what each experiment adds before the internal field.
_CONFIG = dict(name="--config", metavar="PATH", help="config file (key = value with [section]s)")
_COMMON = (_CONFIG, ("output",))
_FIELD = ("seed", "output", "n_members", "b0_magnitude_ut", "b0_orientation")
_INTERNAL = ("internal_fraction", "internal_field_ut")
_SPECTRUM = (*_FIELD, *_INTERNAL)
_RABI = (*_FIELD, "transition", "b1_amplitude_mt", "static_detuning_khz", *_INTERNAL)
_RAMSEY = (*_FIELD, "transition", "static_detuning_khz", "ou_sigma_khz", "ou_tau_c_s",
           *_INTERNAL)
_HAHN = (*_RAMSEY, "phenomenological_t2_s", "stretching_n")

_COMMANDS = {
    "levels": _Command("singlet/triplet energies vs field (CSV)", (*_COMMON,
        dict(name="--bmin-mt", parse=parse_number, default=0.0, metavar="MT",
             help="sweep start in mT (default 0)"),
        dict(name="--bmax-mt", parse=parse_number, default=5.0, metavar="MT",
             help="sweep end in mT (default 5)"),
        dict(name="--points", parse=parse_int, default=500, metavar="N",
             help="number of field points (default 500)"),
    ), ("b_mt", "energy_S_mhz", "energy_Tminus_mhz", "energy_T0_mhz", "energy_Tplus_mhz"),
        lambda args: (args.bmin_mt, args.bmax_mt), _levels),
    "rf-spectrum": _Command("ensemble RF response vs frequency offset (CSV)", (_CONFIG, _SPECTRUM,
        dict(name="--offset-min-khz", parse=parse_number, default=-150.0, metavar="KHZ",
             help="scan start, offset from the hyperfine frequency"),
        dict(name="--offset-max-khz", parse=parse_number, default=150.0, metavar="KHZ",
             help="scan end (default 150)"),
        dict(name="--points", parse=parse_int, default=601, metavar="N",
             help="number of scan points (default 601)"),
        dict(name="--kernel-fwhm-khz", parse=parse_number, default=2.0, metavar="KHZ",
             help="display kernel width (default 2)"),
    ), ("offset_khz", "response"),
        lambda args: (args.offset_min_khz, args.offset_max_khz), _rf_spectrum),
    "optical-spectrum": _Command("photoconductive signal vs probe detuning (CSV)", (*_COMMON,
        dict(name="--pump", choices=PUMP_SETTINGS, default="off",
             help="hold a pump laser on one line while the probe scans"),
        dict(name="--scan-min-invcm", parse=parse_number, default=-0.003, metavar="CM1",
             help="probe scan start, cm^-1 (default -0.003)"),
        dict(name="--scan-max-invcm", parse=parse_number, default=0.007, metavar="CM1",
             help="probe scan end, cm^-1 (default 0.007)"),
        dict(name="--points", parse=parse_int, default=801, metavar="N",
             help="number of scan points (default 801)"),
        dict(name="--line-s-invcm", parse=parse_number, metavar="CM1",
             help="singlet line position (default: hyperfine splitting above T)"),
        dict(name="--line-t-invcm", parse=parse_number, default=0.0, metavar="CM1",
             help="triplet line position (default 0)"),
        dict(name="--doublet-split-invcm", parse=parse_number, default=0.0, metavar="CM1",
             help="split each line into an equal doublet (default 0 = single lines)"),
        dict(name="--probe-peak-rate", parse=parse_number, default=1e3, metavar="RATE",
             help="probe pump rate at line center, 1/s (default 1e3)"),
        dict(name="--pump-peak-rate", parse=parse_number, default=2e4, metavar="RATE",
             help="pump rate at line center, 1/s (default 2e4)"),
        ("auger_rate", "branch_to_s", "randomization_rate", "gain", "optical_linewidth_mhz"),
    ), ("detuning_invcm", "signal"),
        lambda args: (args.scan_min_invcm, args.scan_max_invcm), _optical_spectrum),
    "rabi": _Command("transfer probability vs pulse length (CSV)", (_CONFIG, _RABI,
        dict(name="--max-us", parse=parse_number, default=200.0, metavar="US",
             help="longest pulse in µs (default 200)"),
        dict(name="--points", parse=parse_int, default=201, metavar="N",
             help="number of pulse lengths (default 201)"),
    ), ("pulse_s", "p_transfer"), lambda args: (0.0, args.max_us * 1e-6), _rabi),
    "ramsey": _Command("two-pulse fringe signal vs free evolution (CSV)", (_CONFIG, _RAMSEY,
        dict(name="--tau-min-s", parse=parse_number, default=0.0, metavar="S",
             help="shortest free-evolution time (default 0)"),
        dict(name="--tau-max-s", parse=parse_number, default=2e-3, metavar="S",
             help="longest free-evolution time (default 2e-3)"),
        dict(name="--points", parse=parse_int, default=101, metavar="N",
             help="number of delays (default 101)"),
    ), ("tau_s", "p_transfer"), lambda args: (args.tau_min_s, args.tau_max_s), _ramsey),
    "hahn": _Command("phase-cycled echo amplitude vs tau (CSV)", (_CONFIG, _HAHN,
        dict(name="--tau-min-s", parse=parse_number, default=1e-3, metavar="S",
             help="shortest half-evolution time (default 1e-3)"),
        dict(name="--tau-max-s", parse=parse_number, default=0.12, metavar="S",
             help="longest half-evolution time (default 0.12)"),
        dict(name="--points", parse=parse_int, default=12, metavar="N",
             help="number of tau points (default 12)"),
        dict(name="--detection", choices=("mean", "max"), default="mean",
             help="ensemble-mean readout or max-magnitude over random-phase shots"),
        dict(name="--shots", parse=parse_int, default=None, metavar="N",
             help="shots per point for max detection (default 100)"),
        dict(name="--workers", parse=parse_int, default=1, metavar="N",
             help="worker count; results are identical for any value"),
    ), ("tau_s", "echo", "shots"), lambda args: (args.tau_min_s, args.tau_max_s), _hahn),
    "fit": _Command("fit a stretched exponential or peaks to a CSV file", (*_COMMON,
        dict(name="input", metavar="CSV", help="input file (x in column 1, y in column 2)"),
        dict(name="--model", choices=("stretched", "peaks"), default="stretched",
             help="model family (default stretched)"),
        dict(name="--initial", parse=_parse_numbers, metavar="A,T2[,N]",
             help="initial guesses for the stretched model"),
        dict(name="--fix-n", parse=parse_number, metavar="N",
             help="hold the stretching exponent fixed"),
        dict(name="--k", parse=parse_int, metavar="K",
             help="number of peaks for --model peaks (default 1)"),
        dict(name="--shape", choices=PEAK_SHAPES, help="peak shape (default lorentzian)"),
        dict(name="--peak", parse=_parse_triple, append=True, metavar="C,W,A",
             help="initial center,width,amplitude; repeat k times"),
        dict(name="--baseline", parse=parse_number, metavar="B",
             help="initial baseline (default: minimum of the data)"),
    ), run=_cmd_fit),
    "parse": _Command("check a sequence file and print its canonical form", (
        dict(name="file", metavar="FILE", help="sequence source path, or - for stdin"),
    ), run=_cmd_parse),
    "estimate-field": _Command("infer field magnitude from a line splitting", (*_COMMON,
        dict(name="--splitting-khz", parse=parse_number, required=True, metavar="KHZ",
             help="measured splitting between the outer lines"),
    ), run=_cmd_estimate_field),
}


#: "-" and a digit, ".", "inf" or "nan" starts a value, not a flag.  This replaces argparse's
#: private ``_negative_number_matcher``, which takes only "-\d+" and "-\d*\.\d+" as values.
_NEGATIVE_VALUE = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``donorsim`` parser of ``_COMMANDS``, built once per process for every ``main`` call.

    Parsing leaves it unchanged: each call gets a fresh namespace and copies
    append defaults, and help text is laid out at print time.
    """
    parser = argparse.ArgumentParser(
        prog="donorsim",
        description="Donor electron-nuclear spin simulator: energy levels, "
                    "spectra, pulsed experiments, fitting.",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, row in _COMMANDS.items():
        p = sub.add_parser(command, help=row.help)
        p._negative_number_matcher = _NEGATIVE_VALUE
        for flag in row.flags:
            if isinstance(flag, dict):
                kwargs = {"action": _ParsedFlag, **flag} if "parse" in flag else dict(flag)
                p.add_argument(kwargs.pop("name"), **kwargs)
                continue
            for name in flag:  # the flags of these settings
                meta = SETTINGS[name].metadata
                p.add_argument(meta["flag"], action=_ParsedFlag, parse=meta["parse"], dest=name,
                               default=argparse.SUPPRESS, metavar=meta["metavar"],
                               help=meta["help"])
        p.set_defaults(func=row.run)
    return parser


#: glibc's M_TOP_PAD (malloc.h) and the bytes ``main`` keeps mapped above the heap top.
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 1 << 20


@functools.cache
def _pad_heap_top() -> None:
    """Keep ``_HEAP_TOP_PAD`` bytes mapped when glibc trims the heap, once per process.

    Without the pad, every member block of the ensemble engine frees its
    arrays back to the system and faults their pages in again.  Skipped
    where the C library has no ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library, or one without mallopt
        return
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # One run path: flags over the config, then --output > config output > stdout.
        cfg = _effective_config(args)
        target = cfg.get("output", sys.stdout)
        _pad_heap_top()
        return args.func(args, cfg, target)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; usage and
        # validation problems are exit code 1 here.
        return 0 if exc.code in (0, None) else 1
    except (OSError, RuntimeError) as exc:
        print(f"donorsim: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"donorsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
