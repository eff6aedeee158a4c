"""Run settings: the library's parameter types are the settings table.

``SpinSystem``, ``NoiseModel``, ``EnsembleSpec`` and ``PumpConfig`` hold the
parameters of the physics modules, which re-export them.  Each of their
fields is one row of the table: it declares its default and its bound and,
where a config file or flag can set it, its section, its key (the field's
name unless the row names another), its flag, metavar and help.  A bound is
stated once: a constructor checks every field against it, and a config value
or flag text is read and then checked by the same bound, so all three reject
a bad value with one message.  ``OUTPUT``, where a subcommand writes, is the
one row of no type.  The types need no numpy, so building the CLI parser and
reading a config file load only this module.

Files are ``key = value`` lines grouped under ``[section]`` headers, with
``#`` comments.  Every error names the offending key and line number — a
misspelled or repeated key is rejected, not ignored.  A file's settings come
back by field name; an empty file sets none.

``seed`` and ``output`` come before any section.  For example::

    seed = 42
    output = out.csv

    [field]
    b0_ut          = 23.0        # EnsembleSpec.b0_magnitude_ut, µT
    b0_orientation = perpendicular

    [noise]
    t2_s = none                  # NoiseModel.phenomenological_t2_s, s (none or off: no decay)

``build(cls, settings)`` makes a type of the settings.  A field they do not
set takes its row's run default where the row has one (1000 ensemble members
and a 4 µT field, where the library has no member count and a zero field),
else the library default.  Precedence for every setting: command-line flag >
config file > default; for the seed the ``DONORSIM_SEED`` environment
variable sits between flag and file: flag > ``DONORSIM_SEED`` > config file >
default.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Mapping, TextIO, TypeVar

DEFAULT_SEED = 0
SEED_ENV_VAR = "DONORSIM_SEED"

#: Reserved stream index for draws shared by the whole ensemble (e.g. the
#: shot-to-shot common-mode echo phase).  Seeds and member indices stay below it.
COMMON_STREAM_INDEX = 2**63

#: The name sets that the parser offers and the physics modules check against.
PEAK_SHAPES = ("lorentzian", "gaussian")
PUMP_SETTINGS = ("off", "on_T", "on_S")
TRIPLET_LABELS = ("T-", "T0", "T+")
#: The unit RF drive direction of each geometry, with B0 along z.
DRIVE_DIRECTIONS = {"parallel": (0.0, 0.0, 1.0), "perpendicular": (1.0, 0.0, 0.0)}

#: Conversion between wavenumbers and frequency, MHz per cm^-1.
MHZ_PER_INV_CM = 29979.2458


class ConfigError(ValueError):
    """Configuration problem; message carries key name and line number."""


# --- readers: text in, value out, ValueError on bad text -----------------------

def parse_number(text: str) -> float:
    """Any float, inf and nan included; the caller checks its range."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def parse_int(text: str) -> int:
    """Any base-10 integer; the caller checks its range."""
    try:
        value = int(text, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None
    return value


def _parse_optional(text: str) -> float | None:
    return None if text.lower() in ("none", "off") else parse_number(text)


# --- bounds: a value in, the same value out, ValueError on a value out of bounds --

def _bound(ok: Callable[[Any], bool], need: str) -> Callable[[Any], Any]:
    """The bound ``ok``; ``need`` is the failure message."""
    def check(value: Any) -> Any:
        if not ok(value):
            raise ValueError(need)
        return value
    return check


def _finite(ok: Callable[[float], bool], need: str) -> Callable[[Any], Any]:
    return _bound(lambda x: math.isfinite(x) and ok(x), need)


def _optional(check: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``check``, or None for no value."""
    return lambda value: value if value is None else check(value)


_positive = _finite(lambda x: x > 0, "must be a positive finite number")
_non_negative = _finite(lambda x: x >= 0, "must be a non-negative finite number")
_fraction = _finite(lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]")


def _setting(default: Any, check: Callable[[Any], Any], section: str | None = None, *,
             key: str | None = None, read: Callable[[str], Any] = parse_number,
             run_default: Any = MISSING, flag: str | None = None,
             metavar: str | None = None, help: str | None = None) -> Any:
    """One row of the settings table: a field, its bound ``check`` and, for a
    setting that files and flags set, its ``section`` and the rest.  ``read``
    turns a config value or flag text into the value that ``check`` takes."""
    return field(default=default, metadata={
        "check": check, "parse": lambda text: check(read(text)), "section": section,
        "key": key, "run_default": run_default, "flag": flag, "metavar": metavar,
        "help": help,
    })


class _Checked:
    """A settings type: construction checks every row against its bound, and a
    value out of bounds raises ValueError naming the field."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if "check" in f.metadata:
                try:
                    f.metadata["check"](getattr(self, f.name))
                except ValueError as exc:
                    raise ValueError(f"{f.name}: {exc}") from None


@dataclass(frozen=True)
class SpinSystem(_Checked):
    """Coupling constants of the electron-nuclear pair; the defaults are the
    31P donor in 28Si.

    Attributes:
        hyperfine_a: isotropic hyperfine constant a (MHz), > 0.
        gamma_s: electron gyromagnetic ratio (MHz/mT), > 0.
        gamma_i: nuclear gyromagnetic ratio (MHz/mT), >= 0 and < gamma_s.
    """

    hyperfine_a: float = _setting(117.53, _positive, "spin", key="hyperfine_a_mhz")
    gamma_s: float = _setting(27.972, _positive, "spin", key="gamma_s_mhz_per_mt")
    gamma_i: float = _setting(0.017251, _non_negative, "spin", key="gamma_i_mhz_per_mt")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gamma_s <= self.gamma_i:
            raise ValueError(
                "gamma_s must exceed gamma_i "
                f"(got gamma_s={self.gamma_s}, gamma_i={self.gamma_i})"
            )


@dataclass(frozen=True)
class NoiseModel(_Checked):
    """Noise and decoherence parameters for ensemble experiments.

    Attributes:
        static_detuning_khz: Gaussian sigma of a per-member frozen detuning.
        ou_sigma_khz: OU field-noise amplitude, quoted as the detuning sigma
            it produces on a maximally field-sensitive transition.
        ou_tau_c_s: OU correlation time (s).
        internal_fraction: fraction of members carrying an internal field.
        internal_field_ut: magnitude (uT) of that internal field; orientation
            is isotropic per member.
        phenomenological_t2_s: optional closed-form echo decay time; when set,
            exp(-(2 tau / T2)^n) multiplies the echo signal.
        stretching_n: stretching exponent n of the phenomenological decay.
    """

    static_detuning_khz: float = _setting(
        0.0, _non_negative, "noise", flag="--static-detuning-khz", metavar="KHZ",
        help="per-member static detuning spread (1 sigma)")
    ou_sigma_khz: float = _setting(
        0.0, _non_negative, "noise", flag="--ou-sigma-khz", metavar="KHZ",
        help="OU field-noise amplitude, quoted as detuning on the maximum-sensitivity line")
    ou_tau_c_s: float = _setting(1.0, _positive, "noise", flag="--ou-tau-c-s", metavar="S",
                                 help="OU noise correlation time in seconds")
    internal_fraction: float = _setting(
        0.0, _fraction, "noise", flag="--internal-fraction", metavar="F",
        help="fraction of members with a frozen internal field")
    internal_field_ut: float = _setting(6.0, _non_negative, "noise", flag="--internal-field-ut",
                                        metavar="UT", help="internal field magnitude in µT")
    phenomenological_t2_s: float | None = _setting(
        None, _optional(_positive), "noise", key="t2_s", read=_parse_optional, flag="--t2-s",
        metavar="S", help="phenomenological coherence time in seconds")
    stretching_n: float = _setting(1.0, _positive, "noise", flag="--stretching-n", metavar="N",
                                   help="stretching exponent for the phenomenological decay")


@dataclass(frozen=True)
class EnsembleSpec(_Checked):
    """Which transition is driven, at what field, over how many members.

    The static field B0 lies along z; ``b0_orientation`` names the RF
    drive direction in ``DRIVE_DIRECTIONS``.
    """

    n_members: int = _setting(MISSING, _bound(lambda n: n >= 1, "must be >= 1"),
                              "ensemble", key="members", read=parse_int, run_default=1000,
                              flag="--members", metavar="N", help="ensemble size")
    seed: int = _setting(MISSING, _bound(lambda n: 0 <= n < COMMON_STREAM_INDEX,
                                         "must lie in [0, 2**63)"),
                         "", read=parse_int, flag="--seed", metavar="N",
                         help="RNG seed; beats config file and DONORSIM_SEED")
    noise: NoiseModel = NoiseModel()
    transition: str = _setting(
        "T0", _bound(TRIPLET_LABELS.__contains__, "must be one of T0, T+, T-"), "field",
        read=str, flag="--transition", metavar="{T0,T+,T-}",
        help="driven transition (from the singlet)")
    b0_magnitude_ut: float = _setting(0.0, _non_negative, "field", key="b0_ut", run_default=4.0,
                                      flag="--b0-ut", metavar="UT",
                                      help="static field magnitude in µT")
    b0_orientation: str = _setting(
        "parallel", _bound(DRIVE_DIRECTIONS.__contains__, "must be 'parallel' or 'perpendicular'"),
        "field", read=str, flag="--orientation", metavar="{parallel,perpendicular}",
        help="B0 orientation relative to the drive field B1")
    b1_amplitude_mt: float = _setting(1e-3, _positive, "field", flag="--b1-amplitude-mt",
                                      metavar="MT", help="drive amplitude in mT")

    def __post_init__(self) -> None:
        super().__post_init__()
        # the largest components a member's field can take: B0 + B_int along z,
        # B_int across; their squares must sum without overflow
        across_ut = self.noise.internal_field_ut if self.noise.internal_fraction > 0.0 else 0.0
        reach_ut = self.b0_magnitude_ut + across_ut
        if not math.isfinite(reach_ut * reach_ut + 2.0 * (across_ut * across_ut)):
            raise ValueError(f"field magnitude up to {reach_ut!r} µT overflows its square")


@dataclass(frozen=True)
class PumpConfig(_Checked):
    """Rate-model parameters (rates in 1/s)."""

    pump_rate_s: float = _setting(0.0, _non_negative)
    pump_rate_t: float = _setting(0.0, _non_negative)
    auger_rate: float = _setting(1e6, _positive, "pump", flag="--auger-rate", metavar="RATE",
                                 help="Auger decay rate of the excited state, 1/s")
    branch_to_s: float = _setting(0.25, _fraction, "pump", flag="--branch-to-s", metavar="F",
                                  help="fraction of Auger decays landing in the singlet")
    randomization_rate: float = _setting(
        0.0, _non_negative, "pump", flag="--randomization-rate", metavar="RATE",
        help="singlet/triplet randomization rate, 1/s")
    gain: float = _setting(1.0, _finite(lambda x: True, "must be finite"), "pump",
                           flag="--gain", metavar="G", help="readout gain")
    optical_linewidth_mhz: float = _setting(
        0.001 * MHZ_PER_INV_CM, _positive, "pump",  # 0.001 cm^-1
        flag="--optical-linewidth-mhz", metavar="MHZ", help="optical line FWHM in MHz")

    def __post_init__(self) -> None:
        super().__post_init__()
        # a width whose cm^-1 value underflows to 0 would divide by zero
        if not self.optical_linewidth_mhz / MHZ_PER_INV_CM > 0:
            raise ValueError("optical_linewidth_mhz must be finite and > 0, also in cm^-1, "
                             f"got {self.optical_linewidth_mhz!r}")


#: The one setting of no library type: where a subcommand writes (else stdout).
OUTPUT = _setting(None, _bound(bool, "must be a non-empty path"), "", read=str, flag="--output",
                  metavar="PATH", help="write output here instead of stdout")
OUTPUT.name = "output"

#: The settings table: field name -> row, for every row that files and flags set.
SETTINGS = {f.name: f for f in (OUTPUT, *fields(EnsembleSpec), *fields(NoiseModel),
                                 *fields(PumpConfig), *fields(SpinSystem))
            if f.metadata.get("section") is not None}


def key_of(setting: Any) -> str:
    """A setting's config key: its field's name unless its row names another."""
    return setting.metadata["key"] or setting.name


_BY_KEY = {(f.metadata["section"], key_of(f)): f for f in SETTINGS.values()}

KNOWN_SECTIONS = sorted({section for section, _ in _BY_KEY})

_T = TypeVar("_T")


def build(cls: type[_T], settings: Mapping[str, Any]) -> _T:
    """A ``cls`` of ``settings`` (field name -> value).  A field they do not set
    takes its row's run default if it has one, else its library default; a
    field that holds a settings type is built from the same settings."""
    values = {}
    for f in fields(cls):
        if f.name in settings:
            values[f.name] = settings[f.name]
        elif isinstance(f.default, _Checked):
            values[f.name] = build(type(f.default), settings)
        elif f.metadata.get("run_default", MISSING) is not MISSING:
            values[f.name] = f.metadata["run_default"]
    return cls(**values)


def parse_config_text(text: str, *, source: str = "<config>") -> dict[str, Any]:
    """The settings that config text sets, by field name; every error names the
    key/section and line."""
    settings: dict[str, Any] = {}
    set_on: dict[str, int] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if name not in KNOWN_SECTIONS or name == "":
                raise ConfigError(
                    f"{source}:{lineno}: unknown section [{name}] "
                    f"(known: {', '.join(s for s in KNOWN_SECTIONS if s)})"
                )
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        setting = _BY_KEY.get((section, key))
        if setting is None:
            where = f"[{section}]" if section else "top level"
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in {where}")
        if key in set_on:
            raise ConfigError(f"{source}:{lineno}: {key}: repeated key, "
                              f"first set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            settings[setting.name] = setting.metadata["parse"](value_text.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from None
    # cross-field sanity: the spin constants must form a valid system
    try:
        build(SpinSystem, settings)
    except ValueError as exc:
        raise ConfigError(f"{source}: invalid spin constants: {exc}") from None
    return settings


def load_config(path: str) -> dict[str, Any]:
    """Load a config file; missing or unreadable files raise OSError (``read_text``)."""
    return parse_config_text(read_text(path), source=path)


def resolve_seed(flag_seed: int | None, file_seed: int | None) -> int:
    """Flag beats DONORSIM_SEED beats the config file beats the default of 0."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return SETTINGS["seed"].metadata["parse"](env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}: {exc}") from None
    return DEFAULT_SEED if file_seed is None else file_seed


def read_text(source: str | TextIO) -> str:
    """Read the text of a path (UTF-8) or of an open text stream.

    An unreadable path surfaces as an OSError naming the path.
    """
    if isinstance(source, (str, bytes)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise OSError(f"cannot read {source!r}: {exc}") from exc
    return source.read()


def write_text(target: str | TextIO, text: str) -> None:
    """Write text to a path (the ``output`` setting) or an open text stream.

    Paths are written as UTF-8 with LF terminators regardless of platform.
    An unwritable path surfaces as an OSError naming the path.
    """
    if isinstance(target, (str, bytes)):
        try:
            with open(target, "w", newline="\n", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {target!r}: {exc}") from exc
    else:
        target.write(text)
