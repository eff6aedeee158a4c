"""Command-line interface.

``donorsim <subcommand> [flags]`` wires the physics modules together:
seeded ensemble experiments, spectra, level sweeps, fitting, and the
sequence-text tools.  Numeric results are emitted as CSV (see csvio);
everything is deterministic for a fixed seed and worker count.

Exit codes: 0 success, 1 validation/usage error (bad flag, bad config
value, malformed input data), 2 runtime error (I/O failure, integration
or convergence failure, fit that did not converge).  The exception class
decides the code: ``OSError`` and ``RuntimeError`` give 2, any other
``ValueError`` gives 1.  The integration and convergence errors of
``pump`` and ``pulse`` are both, and give 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import fields, replace
from typing import TYPE_CHECKING, Callable, Sequence, TextIO

import numpy as np

from . import fitkit
from .config import ConfigError, RunConfig, load_config, parse_int, parse_number, resolve_seed

if TYPE_CHECKING:
    from .noise import EnsembleSpec


def _effective_config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file (or defaults), then every given flag, read by its key's parser."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    flags = {}
    for f in fields(RunConfig):
        text = getattr(args, f.name, None)
        if text is not None:
            try:
                flags[f.name] = f.metadata["parse"](text)
            except ValueError as exc:
                raise ConfigError(f"{f.metadata['flag']}: {exc}") from None
    return replace(cfg, **flags)


def _ensemble_spec(args: argparse.Namespace, cfg: RunConfig) -> EnsembleSpec:
    from .noise import EnsembleSpec

    return EnsembleSpec(
        n_members=cfg.members,
        # a --seed flag is already parsed into cfg.seed
        seed=resolve_seed(cfg.seed if args.seed is not None else None, cfg),
        noise=cfg.noise_model(),
        transition=cfg.transition,
        b0_magnitude_ut=cfg.b0_ut,
        b0_orientation=cfg.b0_orientation,
        b1_amplitude_mt=cfg.b1_amplitude_mt,
    )


def _sweep(args: argparse.Namespace, start: float, stop: float) -> np.ndarray:
    """``--points`` values from start to stop, checked before any work is done."""
    if args.points < 2:
        raise ConfigError("--points must be >= 2")
    if not (np.all(np.isfinite([start, stop])) and start < stop):
        raise ConfigError(f"sweep needs a finite start below its end, got {start!r} to {stop!r}")
    return np.linspace(start, stop, args.points)


# --- subcommand implementations ---------------------------------------------
# Each takes the parsed flags, the effective config and the output target
# (a path or stdout) and returns the exit code.  Each imports the modules it
# runs, so a process loads only what its subcommand needs.

def _cmd_levels(args: argparse.Namespace, cfg: RunConfig, target: str | TextIO) -> int:
    from . import csvio, spincore

    b_mt = _sweep(args, args.bmin_mt, args.bmax_mt)
    if args.bmin_mt < 0.0:
        raise ConfigError("need 0 <= --bmin-mt")
    if not math.isfinite(args.bmax_mt * spincore.UT_PER_MT):
        raise ConfigError(f"--bmax-mt {args.bmax_mt!r} overflows when converted to µT")
    levels = spincore.breit_rabi_levels(cfg.spin_system(), b_mt * spincore.UT_PER_MT)
    data = np.column_stack([b_mt, levels["S"], levels["T-"], levels["T0"], levels["T+"]])
    csvio.emit_csv(target, [
        "b_mt", "energy_S_mhz", "energy_Tminus_mhz", "energy_T0_mhz", "energy_Tplus_mhz",
    ], data)
    return 0


def _cmd_rf_spectrum(args: argparse.Namespace, cfg: RunConfig, target: str | TextIO) -> int:
    from . import csvio
    from .pulse import rf_spectrum

    offsets = _sweep(args, args.offset_min_khz, args.offset_max_khz)
    curve = rf_spectrum(_ensemble_spec(args, cfg), cfg.spin_system(), offsets,
                        kernel_fwhm_khz=args.kernel_fwhm_khz)
    csvio.emit_csv(target, ["offset_khz", "response"], np.column_stack([curve.x, curve.values]))
    return 0


def _cmd_optical_spectrum(args: argparse.Namespace, cfg: RunConfig, target: str | TextIO) -> int:
    from . import csvio, pump

    line_s_invcm = args.line_s_invcm
    if line_s_invcm is None:  # the configured hyperfine splitting above the T line
        line_s_invcm = cfg.hyperfine_a_mhz / pump.MHZ_PER_INV_CM
    signal = pump.optical_spectrum(
        _sweep(args, args.scan_min_invcm, args.scan_max_invcm),
        line_s_inv_cm=line_s_invcm,
        line_t_inv_cm=args.line_t_invcm,
        cfg=cfg.pump_config(),
        pump_setting=args.pump,
        probe_peak_rate=args.probe_peak_rate,
        pump_peak_rate=args.pump_peak_rate,
        doublet_split_inv_cm=args.doublet_split_invcm,
    )
    csvio.emit_csv(target, ["detuning_invcm", "signal"],
                   np.column_stack([signal.x, signal.values]))
    return 0


def _cmd_rabi(args: argparse.Namespace, cfg: RunConfig, target: str | TextIO) -> int:
    from . import csvio
    from .pulse import rabi_experiment

    lengths_s = _sweep(args, 0.0, args.max_us * 1e-6)
    curve = rabi_experiment(_ensemble_spec(args, cfg), cfg.spin_system(), lengths_s)
    csvio.emit_csv(target, ["pulse_s", "p_transfer"], np.column_stack([curve.x, curve.values]))
    return 0


def _cmd_ramsey(args: argparse.Namespace, cfg: RunConfig, target: str | TextIO) -> int:
    from . import csvio
    from .pulse import ramsey_experiment

    taus_s = _sweep(args, args.tau_min_s, args.tau_max_s)
    curve = ramsey_experiment(_ensemble_spec(args, cfg), cfg.spin_system(), taus_s)
    csvio.emit_csv(target, ["tau_s", "p_transfer"], np.column_stack([curve.x, curve.values]))
    return 0


def _cmd_hahn(args: argparse.Namespace, cfg: RunConfig, target: str | TextIO) -> int:
    from . import csvio
    from .pulse import hahn_experiment

    # --workers starts no processes: per-member streams make every count give the same bytes
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    # a count below 1 is hahn_experiment's error under either detection
    if args.detection == "mean" and args.shots is not None and args.shots >= 1:
        raise ConfigError("--shots applies only to --detection max")
    series = hahn_experiment(
        _ensemble_spec(args, cfg),
        cfg.spin_system(),
        _sweep(args, args.tau_min_s, args.tau_max_s),
        detection=args.detection,
        shots_per_point=args.shots,
    )
    data = np.column_stack([series.x, series.values, np.full_like(series.x, series.shots)])
    csvio.emit_csv(target, ["tau_s", "echo", "shots"], data)
    return 0


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--peak needs 'center,width,amplitude', got {text!r}")
    try:
        center, width, amp = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--peak values must be numbers, got {text!r}") from None
    return center, width, amp


#: Each fit model's own flags, by ``args`` attribute; the other model rejects them.
_MODEL_FLAGS = {"stretched": ("initial", "fix_n"), "peaks": ("k", "shape", "peak", "baseline")}


def _cmd_fit(args: argparse.Namespace, cfg: RunConfig, target: str | TextIO) -> int:
    from . import csvio

    other = "peaks" if args.model == "stretched" else "stretched"
    for name in _MODEL_FLAGS[other]:
        if getattr(args, name) is not None:
            raise ConfigError(f"--{name.replace('_', '-')} applies only to --model {other}")
    columns, data = csvio.read_csv(args.input)
    if data.shape[0] < 3 or data.shape[1] < 2:
        raise ConfigError(f"{args.input}: need at least 3 rows and 2 columns to fit")
    x, y = data[:, 0], data[:, 1]
    if args.model == "stretched":
        initial = None
        if args.initial is not None:
            try:
                initial = [float(v) for v in args.initial.split(",")]
            except ValueError:
                raise ConfigError(
                    f"--initial values must be numbers, got {args.initial!r}") from None
        result = fitkit.fit_stretched_exp(x, y, initial=initial, fix_n=args.fix_n)
    else:
        k = 1 if args.k is None else args.k
        if k < 1:
            raise ConfigError("--k must be >= 1")
        peaks = [_parse_triple(p) for p in args.peak or []]
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
    csvio.write_text(target, "\n".join(lines) + "\n")
    return 0 if result.converged else 2


def _cmd_parse(args: argparse.Namespace, cfg: RunConfig, target: str | TextIO) -> int:
    from . import csvio, seqdsl

    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read {args.file!r}: {exc}") from exc
    ast = seqdsl.parse(text)
    diagnostics = seqdsl.validate(ast)
    for diag in diagnostics:
        print(f"{args.file}:{diag}", file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        return 1
    csvio.write_text(target, seqdsl.pretty_print(ast))
    return 0


def _cmd_estimate_field(args: argparse.Namespace, cfg: RunConfig, target: str | TextIO) -> int:
    from . import csvio, spincore

    field_ut = spincore.estimate_field_from_splitting(args.splitting_khz, cfg.spin_system())
    csvio.write_text(target, f"{field_ut:.3f} µT\n")
    return 0


# --- parser construction -----------------------------------------------------

#: ``pump.PUMP_SETTINGS``, written out so the parser loads no ``pump``;
#: tests/test_cli.py pins the two equal.
_PUMP_SETTINGS = ("off", "on_T", "on_S")


def _add_settings(p: argparse.ArgumentParser, *sections: str) -> None:
    """One text flag per flagged ``RunConfig`` field of these sections, in field order."""
    for f in fields(RunConfig):
        meta = f.metadata
        if meta["flag"] is not None and meta["section"] in sections:
            p.add_argument(meta["flag"], dest=f.name, metavar=meta["metavar"], help=meta["help"])


class _NumberFlag(argparse.Action):
    """A subcommand's own numeric flag, read by a ``config`` parser as setting flags are."""

    def __init__(self, option_strings, dest, *, parse: Callable[[str], float], **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.parse = parse

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            setattr(namespace, self.dest, self.parse(text))
        except ValueError as exc:
            raise ConfigError(f"{option_string}: {exc}") from None


def _add_number(p: argparse.ArgumentParser, flag: str, parse: Callable[[str], float],
                **kwargs) -> None:
    p.add_argument(flag, action=_NumberFlag, parse=parse, **kwargs)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="config file (key = value with [section]s)")
    _add_settings(p, "")


def _add_ensemble(p: argparse.ArgumentParser) -> None:
    _add_settings(p, "ensemble", "field", "noise")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``donorsim`` parser, built once per process and shared by every ``main`` call.

    Parsing leaves it unchanged: each call gets a fresh namespace and copies
    append defaults, and help text is laid out at print time.
    """
    parser = argparse.ArgumentParser(
        prog="donorsim",
        description="Donor electron-nuclear spin simulator: energy levels, "
                    "spectra, pulsed experiments, fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("levels", help="singlet/triplet energies vs field (CSV)")
    _add_common(p)
    _add_number(p, "--bmin-mt", parse_number, default=0.0, metavar="MT",
                help="sweep start in mT (default 0)")
    _add_number(p, "--bmax-mt", parse_number, default=5.0, metavar="MT",
                help="sweep end in mT (default 5)")
    _add_number(p, "--points", parse_int, default=500, metavar="N",
                help="number of field points (default 500)")
    p.set_defaults(func=_cmd_levels)

    p = sub.add_parser("rf-spectrum", help="ensemble RF response vs frequency offset (CSV)")
    _add_common(p)
    _add_ensemble(p)
    _add_number(p, "--offset-min-khz", parse_number, default=-150.0,
                metavar="KHZ", help="scan start, offset from the hyperfine frequency")
    _add_number(p, "--offset-max-khz", parse_number, default=150.0,
                metavar="KHZ", help="scan end (default 150)")
    _add_number(p, "--points", parse_int, default=601, metavar="N",
                help="number of scan points (default 601)")
    _add_number(p, "--kernel-fwhm-khz", parse_number, default=2.0,
                metavar="KHZ", help="display kernel width (default 2)")
    p.set_defaults(func=_cmd_rf_spectrum)

    p = sub.add_parser("optical-spectrum",
                       help="photoconductive signal vs probe detuning (CSV)")
    _add_common(p)
    p.add_argument("--pump", choices=_PUMP_SETTINGS, default="off",
                   help="hold a pump laser on one line while the probe scans")
    _add_number(p, "--scan-min-invcm", parse_number, default=-0.003,
                metavar="CM1", help="probe scan start, cm^-1 (default -0.003)")
    _add_number(p, "--scan-max-invcm", parse_number, default=0.007,
                metavar="CM1", help="probe scan end, cm^-1 (default 0.007)")
    _add_number(p, "--points", parse_int, default=801, metavar="N",
                help="number of scan points (default 801)")
    _add_number(p, "--line-s-invcm", parse_number, metavar="CM1",
                help="singlet line position (default: hyperfine splitting above T)")
    _add_number(p, "--line-t-invcm", parse_number, default=0.0,
                metavar="CM1", help="triplet line position (default 0)")
    _add_number(p, "--doublet-split-invcm", parse_number, default=0.0, metavar="CM1",
                help="split each line into an equal doublet (default 0 = single lines)")
    _add_number(p, "--probe-peak-rate", parse_number, default=1e3,
                metavar="RATE", help="probe pump rate at line center, 1/s (default 1e3)")
    _add_number(p, "--pump-peak-rate", parse_number, default=2e4,
                metavar="RATE", help="pump rate at line center, 1/s (default 2e4)")
    _add_settings(p, "pump")
    p.set_defaults(func=_cmd_optical_spectrum)

    p = sub.add_parser("rabi", help="transfer probability vs pulse length (CSV)")
    _add_common(p)
    _add_ensemble(p)
    _add_number(p, "--max-us", parse_number, default=200.0, metavar="US",
                help="longest pulse in µs (default 200)")
    _add_number(p, "--points", parse_int, default=201, metavar="N",
                help="number of pulse lengths (default 201)")
    p.set_defaults(func=_cmd_rabi)

    p = sub.add_parser("ramsey", help="two-pulse fringe signal vs free evolution (CSV)")
    _add_common(p)
    _add_ensemble(p)
    _add_number(p, "--tau-min-s", parse_number, default=0.0, metavar="S",
                help="shortest free-evolution time (default 0)")
    _add_number(p, "--tau-max-s", parse_number, default=2e-3, metavar="S",
                help="longest free-evolution time (default 2e-3)")
    _add_number(p, "--points", parse_int, default=101, metavar="N",
                help="number of delays (default 101)")
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("hahn", help="phase-cycled echo amplitude vs tau (CSV)")
    _add_common(p)
    _add_ensemble(p)
    _add_number(p, "--tau-min-s", parse_number, default=1e-3, metavar="S",
                help="shortest half-evolution time (default 1e-3)")
    _add_number(p, "--tau-max-s", parse_number, default=0.12, metavar="S",
                help="longest half-evolution time (default 0.12)")
    _add_number(p, "--points", parse_int, default=12, metavar="N",
                help="number of tau points (default 12)")
    p.add_argument("--detection", choices=("mean", "max"), default="mean",
                   help="ensemble-mean readout or max-magnitude over random-phase shots")
    _add_number(p, "--shots", parse_int, default=None, metavar="N",
                help="shots per point for max detection (default 100)")
    _add_number(p, "--workers", parse_int, default=1, metavar="N",
                help="worker count; results are identical for any value")
    p.set_defaults(func=_cmd_hahn)

    p = sub.add_parser("fit", help="fit a stretched exponential or peaks to a CSV file")
    _add_common(p)
    p.add_argument("input", metavar="CSV", help="input file (x in column 1, y in column 2)")
    p.add_argument("--model", choices=("stretched", "peaks"), default="stretched",
                   help="model family (default stretched)")
    p.add_argument("--initial", metavar="A,T2[,N]",
                   help="initial guesses for the stretched model")
    _add_number(p, "--fix-n", parse_number, metavar="N",
                help="hold the stretching exponent fixed")
    _add_number(p, "--k", parse_int, metavar="K",
                help="number of peaks for --model peaks (default 1)")
    p.add_argument("--shape", choices=fitkit.PEAK_SHAPES,
                   help="peak shape (default lorentzian)")
    p.add_argument("--peak", action="append", metavar="C,W,A",
                   help="initial center,width,amplitude; repeat k times")
    _add_number(p, "--baseline", parse_number, metavar="B",
                help="initial baseline (default: minimum of the data)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("parse", help="check a sequence file and print its canonical form")
    p.add_argument("file", metavar="FILE", help="sequence source path, or - for stdin")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("estimate-field", help="infer field magnitude from a line splitting")
    _add_common(p)
    _add_number(p, "--splitting-khz", parse_number, required=True,
                metavar="KHZ", help="measured splitting between the outer lines")
    p.set_defaults(func=_cmd_estimate_field)

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
    _pad_heap_top()
    try:
        args = build_parser().parse_args(argv)
        # One run path: flags over the config, then --output > config output > stdout.
        cfg = _effective_config(args)
        target = cfg.output if cfg.output is not None else sys.stdout
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
