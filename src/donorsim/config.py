"""Run settings: one table, read from config files and command-line flags.

Each ``RunConfig`` field is one setting and declares its default, section,
parser and, where it has one, its flag, metavar and help.  A flag's text
goes through its key's parser, so both reject a bad value with one message.

Files are ``key = value`` lines grouped under ``[section]`` headers, with
``#`` comments.  Every error names the offending key and line number — a
misspelled or repeated key is rejected, not ignored.  An empty file yields
all defaults.

A key is its field's name, under its field's section; ``seed`` and
``output`` come before any section.  For example::

    seed = 42
    output = out.csv

    [field]
    b0_ut          = 23.0        # static field magnitude, µT
    b0_orientation = perpendicular

    [noise]
    t2_s = none                  # phenomenological decay, seconds (none or off = no decay)

Precedence for every setting: command-line flag > config file > default;
for the seed the ``DONORSIM_SEED`` environment variable sits between flag
and file: flag > ``DONORSIM_SEED`` > config file > default.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # the builders import them on call, so the parser loads no physics
    from .noise import NoiseModel
    from .pump import PumpConfig
    from .spincore import SpinSystem

DEFAULT_SEED = 0
SEED_ENV_VAR = "DONORSIM_SEED"

#: The name sets that the parser offers and the physics modules check against,
#: stated here so that building the parser loads no numpy.
PEAK_SHAPES = ("lorentzian", "gaussian")
PUMP_SETTINGS = ("off", "on_T", "on_S")


class ConfigError(ValueError):
    """Configuration problem; message carries key name and line number."""


# --- value parsers: text in, checked value out, ValueError on bad text ---------

def parse_number(text: str) -> float:
    """Any float, inf and nan included; the caller checks its range."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _number(ok: Callable[[float], bool], need: str) -> Callable[[str], float]:
    """Parser for a finite float that satisfies ``ok``; ``need`` is the failure message."""
    def parse(text: str) -> float:
        value = parse_number(text)
        if not (math.isfinite(value) and ok(value)):
            raise ValueError(need)
        return value
    return parse


_positive = _number(lambda x: x > 0, "must be a positive finite number")
_non_negative = _number(lambda x: x >= 0, "must be a non-negative finite number")
_fraction = _number(lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]")
_finite = _number(lambda x: True, "must be finite")


def parse_int(text: str) -> int:
    """Any base-10 integer; the caller checks its range."""
    try:
        value = int(text, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None
    return value


def _parse_seed(text: str) -> int:
    value = parse_int(text)
    if not 0 <= value < 2 ** 63:
        raise ValueError("seed must lie in [0, 2**63)")
    return value


def _parse_output(text: str) -> str:
    if not text:
        raise ValueError("must be a non-empty path")
    return text


def _parse_members(text: str) -> int:
    value = parse_int(text)
    if value < 1:
        raise ValueError("members must be >= 1")
    return value


def _parse_orientation(text: str) -> str:
    if text not in ("parallel", "perpendicular"):
        raise ValueError("must be 'parallel' or 'perpendicular'")
    return text


def _parse_transition(text: str) -> str:
    if text not in ("T0", "T+", "T-"):
        raise ValueError("must be one of T0, T+, T-")
    return text


def _parse_optional_seconds(text: str) -> float | None:
    if text.lower() in ("none", "off"):
        return None
    return _positive(text)


def _setting(default: object, section: str, parse: Callable[[str], object],
             flag: str | None = None, metavar: str | None = None,
             help: str | None = None) -> Any:
    """One row of the settings table: a field whose metadata says how to read it."""
    return field(default=default, metadata={
        "section": section, "parse": parse, "flag": flag, "metavar": metavar, "help": help,
    })


@dataclass(frozen=True)
class RunConfig:
    """Validated settings shared by the experiment subcommands.

    The field order is the order of the flags in ``--help``.
    """

    seed: int | None = _setting(None, "", _parse_seed, "--seed", "N",
                                "RNG seed; beats config file and DONORSIM_SEED")
    output: str | None = _setting(None, "", _parse_output, "--output", "PATH",
                                  "write output here instead of stdout")
    # spincore.PHOSPHORUS's constants and, below, pump's default linewidth, written
    # out so the parser loads no physics module; tests/test_config.py pins them
    hyperfine_a_mhz: float = _setting(117.53, "spin", _positive)
    gamma_s_mhz_per_mt: float = _setting(27.972, "spin", _positive)
    gamma_i_mhz_per_mt: float = _setting(0.017251, "spin", _non_negative)
    members: int = _setting(1000, "ensemble", _parse_members, "--members", "N",
                            "ensemble size")
    b0_ut: float = _setting(4.0, "field", _non_negative, "--b0-ut", "UT",
                            "static field magnitude in µT")
    b0_orientation: str = _setting("parallel", "field", _parse_orientation, "--orientation",
                                   "{parallel,perpendicular}",
                                   "B0 orientation relative to the drive field B1")
    transition: str = _setting("T0", "field", _parse_transition, "--transition", "{T0,T+,T-}",
                               "driven transition (from the singlet)")
    b1_amplitude_mt: float = _setting(1e-3, "field", _positive, "--b1-amplitude-mt", "MT",
                                      "drive amplitude in mT")
    static_detuning_khz: float = _setting(0.0, "noise", _non_negative,
                                          "--static-detuning-khz", "KHZ",
                                          "per-member static detuning spread (1 sigma)")
    ou_sigma_khz: float = _setting(0.0, "noise", _non_negative, "--ou-sigma-khz", "KHZ",
                                   "OU field-noise amplitude, quoted as detuning on the "
                                   "maximum-sensitivity line")
    ou_tau_c_s: float = _setting(1.0, "noise", _positive, "--ou-tau-c-s", "S",
                                 "OU noise correlation time in seconds")
    internal_fraction: float = _setting(0.0, "noise", _fraction, "--internal-fraction", "F",
                                        "fraction of members with a frozen internal field")
    internal_field_ut: float = _setting(6.0, "noise", _non_negative, "--internal-field-ut",
                                        "UT", "internal field magnitude in µT")
    t2_s: float | None = _setting(None, "noise", _parse_optional_seconds, "--t2-s", "S",
                                  "phenomenological coherence time in seconds")
    stretching_n: float = _setting(1.0, "noise", _positive, "--stretching-n", "N",
                                   "stretching exponent for the phenomenological decay")
    auger_rate: float = _setting(1e6, "pump", _positive, "--auger-rate", "RATE",
                                 "Auger decay rate of the excited state, 1/s")
    branch_to_s: float = _setting(0.25, "pump", _fraction, "--branch-to-s", "F",
                                  "fraction of Auger decays landing in the singlet")
    randomization_rate: float = _setting(0.0, "pump", _non_negative, "--randomization-rate",
                                         "RATE", "singlet/triplet randomization rate, 1/s")
    gain: float = _setting(1.0, "pump", _finite, "--gain", "G", "readout gain")
    optical_linewidth_mhz: float = _setting(0.001 * 29979.2458, "pump",  # 0.001 cm^-1
                                            _positive, "--optical-linewidth-mhz", "MHZ",
                                            "optical line FWHM in MHz")

    def __post_init__(self) -> None:
        if self.seed is not None:
            _parse_seed(str(self.seed))

    def spin_system(self) -> SpinSystem:
        from .spincore import SpinSystem

        return SpinSystem(
            hyperfine_a=self.hyperfine_a_mhz,
            gamma_s=self.gamma_s_mhz_per_mt,
            gamma_i=self.gamma_i_mhz_per_mt,
        )

    def noise_model(self) -> NoiseModel:
        from .noise import NoiseModel

        return NoiseModel(
            static_detuning_khz=self.static_detuning_khz,
            ou_sigma_khz=self.ou_sigma_khz,
            ou_tau_c_s=self.ou_tau_c_s,
            internal_fraction=self.internal_fraction,
            internal_field_ut=self.internal_field_ut,
            phenomenological_t2_s=self.t2_s,
            stretching_n=self.stretching_n,
        )

    def pump_config(self) -> PumpConfig:
        from .pump import PumpConfig

        return PumpConfig(
            auger_rate=self.auger_rate,
            branch_to_s=self.branch_to_s,
            randomization_rate=self.randomization_rate,
            gain=self.gain,
            optical_linewidth_mhz=self.optical_linewidth_mhz,
        )


# (section, key) -> field; a config key is always its field's name
_SETTINGS = {(f.metadata["section"], f.name): f for f in fields(RunConfig)}

KNOWN_SECTIONS = sorted({section for section, _ in _SETTINGS})


def parse_config_text(text: str, *, source: str = "<config>") -> RunConfig:
    """Parse config text; every error names the key/section and line."""
    values: dict[str, object] = {}
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
        setting = _SETTINGS.get((section, key))
        if setting is None:
            where = f"[{section}]" if section else "top level"
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in {where}")
        if key in set_on:
            raise ConfigError(f"{source}:{lineno}: {key}: repeated key, "
                              f"first set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = setting.metadata["parse"](value_text.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from None
    cfg = RunConfig(**values)
    # cross-field sanity: the spin constants must form a valid system
    try:
        cfg.spin_system()
    except ValueError as exc:
        raise ConfigError(f"{source}: invalid spin constants: {exc}") from None
    return cfg


def load_config(path: str) -> RunConfig:
    """Load a config file; missing or unreadable files raise OSError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, source=path)


def resolve_seed(flag_seed: int | None, cfg: RunConfig) -> int:
    """Flag beats DONORSIM_SEED beats the config file beats the default of 0."""
    if flag_seed is not None:
        return _parse_seed(str(flag_seed))
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return _parse_seed(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}: {exc}") from None
    if cfg.seed is not None:
        return cfg.seed
    return DEFAULT_SEED
