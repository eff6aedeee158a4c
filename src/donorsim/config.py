"""Plain-text run configuration.

Files are ``key = value`` lines grouped under ``[section]`` headers, with
``#`` comments.  The parser is deliberately hand-written so every error
can name the offending key and line number — a misspelled key is rejected,
not ignored.  An empty file yields all defaults.

Sections and keys::

    seed = 42                     # bare keys before any section: seed, output
    output = out.csv

    [spin]
    hyperfine_a_mhz      = 117.53
    gamma_s_mhz_per_mt   = 27.972
    gamma_i_mhz_per_mt   = 0.017251

    [field]
    b0_ut            = 4.0        # static field magnitude, µT
    b0_orientation   = parallel   # parallel | perpendicular (relative to B1)
    b1_amplitude_mt  = 0.001      # drive amplitude, mT
    transition       = T0         # T0 | T+ | T-

    [pump]
    auger_rate  = 1e6             # rates in 1/s
    branch_to_s = 0.25
    randomization_rate = 0.0
    gain = 1.0
    optical_linewidth_mhz = 29.9792458

    [ensemble]
    members = 1000

    [noise]
    static_detuning_khz = 0.0
    ou_sigma_khz        = 0.0
    ou_tau_c_s          = 1.0
    internal_fraction   = 0.0
    internal_field_ut   = 6.0
    t2_s                = none    # phenomenological decay, seconds (none = off)
    stretching_n        = 1.0

Precedence for every setting: command-line flag > config file > default;
for the seed the ``DONORSIM_SEED`` environment variable sits between flag
and file: flag > ``DONORSIM_SEED`` > config file > default.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Callable

from . import pump as pumpmod
from . import spincore
from .noise import NoiseModel
from .pump import PumpConfig
from .spincore import SpinSystem

DEFAULT_SEED = 0
SEED_ENV_VAR = "DONORSIM_SEED"


class ConfigError(ValueError):
    """Configuration problem; message carries key name and line number."""


@dataclass(frozen=True)
class RunConfig:
    """Validated settings shared by the experiment subcommands."""

    hyperfine_a_mhz: float = spincore.HYPERFINE_A_MHZ
    gamma_s_mhz_per_mt: float = spincore.GAMMA_S_MHZ_PER_MT
    gamma_i_mhz_per_mt: float = spincore.GAMMA_I_MHZ_PER_MT
    b0_ut: float = 4.0
    b0_orientation: str = "parallel"
    b1_amplitude_mt: float = 1e-3
    transition: str = "T0"
    auger_rate: float = 1e6
    branch_to_s: float = 0.25
    randomization_rate: float = 0.0
    gain: float = 1.0
    optical_linewidth_mhz: float = pumpmod.DEFAULT_OPTICAL_LINEWIDTH_MHZ
    members: int = 1000
    static_detuning_khz: float = 0.0
    ou_sigma_khz: float = 0.0
    ou_tau_c_s: float = 1.0
    internal_fraction: float = 0.0
    internal_field_ut: float = 6.0
    t2_s: float | None = None
    stretching_n: float = 1.0
    seed: int | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        if self.seed is not None:
            _parse_seed(str(self.seed))

    def spin_system(self) -> SpinSystem:
        return SpinSystem(
            hyperfine_a=self.hyperfine_a_mhz,
            gamma_s=self.gamma_s_mhz_per_mt,
            gamma_i=self.gamma_i_mhz_per_mt,
        )

    def noise_model(self) -> NoiseModel:
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
        return PumpConfig(
            auger_rate=self.auger_rate,
            branch_to_s=self.branch_to_s,
            randomization_rate=self.randomization_rate,
            gain=self.gain,
            optical_linewidth_mhz=self.optical_linewidth_mhz,
        )


def _positive(x: float) -> float:
    if not (math.isfinite(x) and x > 0):
        raise ValueError("must be a positive finite number")
    return x


def _non_negative(x: float) -> float:
    if not (math.isfinite(x) and x >= 0):
        raise ValueError("must be a non-negative finite number")
    return x


def _fraction(x: float) -> float:
    if not (math.isfinite(x) and 0.0 <= x <= 1.0):
        raise ValueError("must lie in [0, 1]")
    return x


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _parse_float(text: str, check: Callable[[float], float] = _finite) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    return check(value)


def _parse_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None
    return value


def _parse_seed(text: str) -> int:
    value = _parse_int(text)
    if not 0 <= value < 2 ** 63:
        raise ValueError("seed must lie in [0, 2**63)")
    return value


def _parse_members(text: str) -> int:
    value = _parse_int(text)
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
    return _parse_float(text, _positive)


# (section, key) -> (RunConfig attribute, parser)
_KEY_TABLE: dict[tuple[str, str], tuple[str, Callable[[str], object]]] = {
    ("", "seed"): ("seed", _parse_seed),
    ("", "output"): ("output", str),
    ("spin", "hyperfine_a_mhz"): ("hyperfine_a_mhz", lambda t: _parse_float(t, _positive)),
    ("spin", "gamma_s_mhz_per_mt"): ("gamma_s_mhz_per_mt", lambda t: _parse_float(t, _positive)),
    ("spin", "gamma_i_mhz_per_mt"): ("gamma_i_mhz_per_mt", lambda t: _parse_float(t, _non_negative)),
    ("field", "b0_ut"): ("b0_ut", lambda t: _parse_float(t, _non_negative)),
    ("field", "b0_orientation"): ("b0_orientation", _parse_orientation),
    ("field", "b1_amplitude_mt"): ("b1_amplitude_mt", lambda t: _parse_float(t, _positive)),
    ("field", "transition"): ("transition", _parse_transition),
    ("pump", "auger_rate"): ("auger_rate", lambda t: _parse_float(t, _positive)),
    ("pump", "branch_to_s"): ("branch_to_s", lambda t: _parse_float(t, _fraction)),
    ("pump", "randomization_rate"): ("randomization_rate", lambda t: _parse_float(t, _non_negative)),
    ("pump", "gain"): ("gain", _parse_float),
    ("pump", "optical_linewidth_mhz"): ("optical_linewidth_mhz", lambda t: _parse_float(t, _positive)),
    ("ensemble", "members"): ("members", _parse_members),
    ("noise", "static_detuning_khz"): ("static_detuning_khz", lambda t: _parse_float(t, _non_negative)),
    ("noise", "ou_sigma_khz"): ("ou_sigma_khz", lambda t: _parse_float(t, _non_negative)),
    ("noise", "ou_tau_c_s"): ("ou_tau_c_s", lambda t: _parse_float(t, _positive)),
    ("noise", "internal_fraction"): ("internal_fraction", lambda t: _parse_float(t, _fraction)),
    ("noise", "internal_field_ut"): ("internal_field_ut", lambda t: _parse_float(t, _non_negative)),
    ("noise", "t2_s"): ("t2_s", _parse_optional_seconds),
    ("noise", "stretching_n"): ("stretching_n", lambda t: _parse_float(t, _positive)),
}

KNOWN_SECTIONS = sorted({section for section, _ in _KEY_TABLE})


def parse_config_text(text: str, *, source: str = "<config>") -> RunConfig:
    """Parse config text; every error names the key/section and line."""
    values: dict[str, object] = {}
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
        value_text = value_text.strip()
        entry = _KEY_TABLE.get((section, key))
        if entry is None:
            where = f"[{section}]" if section else "top level"
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in {where}")
        attr, parser = entry
        try:
            values[attr] = parser(value_text)
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


def override(cfg: RunConfig, **updates: object) -> RunConfig:
    """Apply non-None keyword overrides (CLI flags) on top of a config."""
    filtered = {k: v for k, v in updates.items() if v is not None}
    known = {f.name for f in fields(RunConfig)}
    unknown = set(filtered) - known
    if unknown:
        raise ConfigError(f"unknown config overrides: {sorted(unknown)}")
    return replace(cfg, **filtered)
