"""Run-configuration parsing, precedence, and validation."""

from __future__ import annotations

import inspect

import pytest

from donorsim import cli, pulse, pump, spincore
from donorsim.config import (
    DEFAULT_SEED,
    DRIVE_DIRECTIONS,
    SEED_ENV_VAR,
    SETTINGS,
    TRIPLET_LABELS,
    ConfigError,
    EnsembleSpec,
    NoiseModel,
    PumpConfig,
    SpinSystem,
    build,
    load_config,
    parse_config_text,
    resolve_seed,
)

FULL_TEXT = """\
# full example exercising every section
seed = 42
output = out.csv

[spin]
hyperfine_a_mhz    = 117.53
gamma_s_mhz_per_mt = 27.972
gamma_i_mhz_per_mt = 0.017251

[field]
b0_ut           = 23.0
b0_orientation  = perpendicular
b1_amplitude_mt = 0.002
transition      = T+

[pump]
auger_rate  = 1e6
branch_to_s = 0.25
randomization_rate = 10.0
gain = -2.0
optical_linewidth_mhz = 30.0

[ensemble]
members = 250

[noise]
static_detuning_khz = 1.5
ou_sigma_khz        = 0.05
ou_tau_c_s          = 0.2
internal_fraction   = 0.4
internal_field_ut   = 6.0
t2_s                = 10.0
stretching_n        = 1.8
"""


def test_empty_text_gives_defaults():
    assert parse_config_text("") == {}
    # the library defaults, but for the run defaults of the member count and the field
    assert build(SpinSystem, {}) == spincore.PHOSPHORUS
    assert build(PumpConfig, {}) == PumpConfig()
    assert build(EnsembleSpec, {"seed": 0}) == EnsembleSpec(n_members=1000, seed=0,
                                                            b0_magnitude_ut=4.0)
    assert EnsembleSpec(n_members=1, seed=0).b0_magnitude_ut == 0.0


def test_full_file_parses_every_section():
    cfg = parse_config_text(FULL_TEXT)
    assert cfg["seed"] == 42
    assert cfg["output"] == "out.csv"
    assert cfg["b0_magnitude_ut"] == 23.0
    assert cfg["b0_orientation"] == "perpendicular"
    assert cfg["transition"] == "T+"
    assert cfg["gain"] == -2.0
    assert cfg["n_members"] == 250
    assert cfg["phenomenological_t2_s"] == 10.0
    assert cfg["stretching_n"] == 1.8
    assert len(cfg) == len(SETTINGS)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# lone comment\n\nseed = 7   # trailing comment\n")
    assert cfg == {"seed": 7}


@pytest.mark.parametrize("text, lineno, fragment", [
    ("wibble = 3", 1, "unknown key 'wibble'"),
    ("[spin]\nwibble = 3", 2, "unknown key 'wibble'"),
    ("[warp]\n", 1, "unknown section [warp]"),
    ("[spin\n", 1, "malformed section header"),
    ("seed 42", 1, "expected 'key = value'"),
    ("seed = charm", 1, "expected an integer"),
    ("seed = -1", 1, "seed: must lie in"),
    ("[field]\nb0_ut = fast", 2, "expected a number"),
    ("[field]\nb0_ut = -1", 2, "non-negative"),
    ("[field]\nb0_orientation = diagonal", 2, "'parallel' or 'perpendicular'"),
    ("[field]\ntransition = T2", 2, "one of T0, T+, T-"),
    ("[pump]\nbranch_to_s = 1.5", 2, "[0, 1]"),
    ("[pump]\npump_rate_s = 1e3", 2, "unknown key 'pump_rate_s' in [pump]"),
    ("[pump]\npump_rate_t = 2e4", 2, "unknown key 'pump_rate_t' in [pump]"),
    ("[ensemble]\nmembers = 0", 2, "members: must be >= 1"),
    ("[noise]\nou_tau_c_s = 0", 2, "positive"),
    ("[noise]\nstatic_detuning_khz = -1", 2, "non-negative"),
    ("\n\n[noise]\nt2_s = -3", 4, "positive"),
    ("[field]\nb0_ut = 1\nb0_ut = 30", 3, "b0_ut: repeated key, first set on line 2"),
    ("[field]\nb0_ut = 1\n[noise]\n[field]\nb0_ut = 30", 5, "first set on line 2"),
    ("output =", 1, "output: must be a non-empty path"),
])
def test_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text, source="demo.cfg")
    message = str(exc.value)
    assert message.startswith(f"demo.cfg:{lineno}:")
    assert fragment in message


def test_keys_are_section_scoped():
    # a [noise] key under [field] is unknown there, not silently accepted
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[field]\nou_sigma_khz = 1.0")
    assert "unknown key 'ou_sigma_khz' in [field]" in str(exc.value)


def test_t2_none_and_off():
    for text, t2_s in (("none", None), ("off", None), ("0.5", 0.5)):
        assert parse_config_text(f"[noise]\nt2_s = {text}") == {"phenomenological_t2_s": t2_s}


def test_invalid_spin_constants_rejected_cross_field():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[spin]\ngamma_s_mhz_per_mt = 1e-300")
    assert "spin constants" in str(exc.value) or "gamma" in str(exc.value)


def test_derived_objects_mirror_settings():
    # each key sets its field, also where the key is not the field's name
    cfg = parse_config_text(FULL_TEXT)
    spin = parse_config_text("[spin]\nhyperfine_a_mhz = 100\ngamma_s_mhz_per_mt = 28\n"
                             "gamma_i_mhz_per_mt = 0.02\n")
    assert build(SpinSystem, spin) == SpinSystem(100.0, 28.0, 0.02)
    spec = build(EnsembleSpec, cfg)
    assert (spec.n_members, spec.seed, spec.b0_magnitude_ut) == (250, 42, 23.0)
    assert spec.noise == NoiseModel(1.5, 0.05, 0.2, 0.4, 6.0, 10.0, 1.8)
    assert build(PumpConfig, cfg).gain == -2.0


def test_defaults_are_the_physics_modules_defaults():
    # the geometries and lines a setting accepts, and names when it rejects a text
    candidates = {*DRIVE_DIRECTIONS, *spincore.LABELS, "antiparallel", "T2", ""}
    for parse, names in ((SETTINGS["b0_orientation"].metadata["parse"], DRIVE_DIRECTIONS),
                         (SETTINGS["transition"].metadata["parse"], TRIPLET_LABELS)):
        assert [parse(name) for name in names] == list(names)
        for text in candidates.difference(names):
            with pytest.raises(ValueError) as exc:
                parse(text)
            assert all(name in str(exc.value) for name in names)
    # the parser's defaults of the physics functions' keywords
    rf = inspect.signature(pulse.rf_spectrum).parameters
    optical = inspect.signature(pump.optical_spectrum).parameters
    args = cli.build_parser().parse_args(["rf-spectrum"])
    assert args.kernel_fwhm_khz == rf["kernel_fwhm_khz"].default
    args = cli.build_parser().parse_args(["optical-spectrum"])
    assert (args.probe_peak_rate, args.pump_peak_rate, args.doublet_split_invcm) == tuple(
        optical[name].default
        for name in ("probe_peak_rate", "pump_peak_rate", "doublet_split_inv_cm"))


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL_TEXT)
    assert load_config(str(path)) == parse_config_text(FULL_TEXT)
    with pytest.raises(OSError) as exc:
        load_config(str(tmp_path / "missing.cfg"))
    assert "missing.cfg" in str(exc.value)


def test_load_config_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = charm\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value).startswith(f"{path}:1:")


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert resolve_seed(None, None) == DEFAULT_SEED
    assert resolve_seed(None, 9) == 9
    assert resolve_seed(5, 9) == 5
    monkeypatch.setenv(SEED_ENV_VAR, "77")
    assert resolve_seed(None, None) == 77
    assert resolve_seed(None, 9) == 77  # env beats file
    assert resolve_seed(5, None) == 5   # flag beats env
    monkeypatch.setenv(SEED_ENV_VAR, "charm")
    with pytest.raises(ConfigError) as exc:
        resolve_seed(None, None)
    assert SEED_ENV_VAR in str(exc.value)

