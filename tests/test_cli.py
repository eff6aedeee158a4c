"""End-to-end CLI behaviour: help text, outputs, determinism, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from donorsim import cli, noise, pump, spincore
from donorsim.cli import build_parser, main
from donorsim.config import (SETTINGS, ConfigError, EnsembleSpec, NoiseModel, PumpConfig,
                             SpinSystem, build, key_of, parse_config_text)
from donorsim.csvio import emit_csv, read_csv
from donorsim.fitkit import peak_model, stretched_exp_model
from donorsim.seqdsl import HAHN_TEXT
from donorsim.spincore import PHOSPHORUS

GOLDEN = pathlib.Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def offered_flags(command: str) -> set[str]:
    return {option for action in subparsers()[command]._actions
            for option in action.option_strings}


# --- help text ---------------------------------------------------------------

@pytest.mark.parametrize("golden_name, argv", sorted(regen.HELP_COMMANDS.items()))
def test_help_matches_golden(monkeypatch, capsys, golden_name, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")


def test_every_flag_appears_in_its_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # every subcommand has a golden --help transcript
    assert sorted([name, "--help"] for name in subparsers()) == \
        sorted(argv for argv in regen.HELP_COMMANDS.values() if len(argv) == 2)
    for name, sub in subparsers().items():
        help_text = sub.format_help()
        for action in sub._actions:
            if action.help is argparse.SUPPRESS:
                continue
            for option in action.option_strings:
                assert option in help_text, (name, option)


# --- simple outputs -----------------------------------------------------------

def test_estimate_field_prints_documented_value(capsys):
    code, out, _ = run(capsys, ["estimate-field", "--splitting-khz", "111.819"])
    assert code == 0
    assert out == "4.000 µT\n"


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv, golden", [
    (["estimate-field", "--splitting-khz", "111.819"], None),
    (["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv")],
     "fit_stretched_hahn_mean_t0_parallel.txt"),
], ids=["estimate-field", "fit"])
def test_text_output_goes_to_output_target(tmp_path, capsys, argv, golden, via_config):
    target = tmp_path / "out.txt"
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output = {target}\n")
        argv = argv + ["--config", str(cfg)]
    else:
        argv = argv + ["--output", str(target)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == ""
    expected = "4.000 µT\n" if golden is None else (GOLDEN / golden).read_text(encoding="utf-8")
    assert target.read_text(encoding="utf-8") == expected


def test_levels_output_values(capsys):
    code, out, _ = run(capsys, ["levels", "--points", "6"])
    assert code == 0
    cols, data = read_csv(io.StringIO(out))
    assert cols == ["b_mt", "energy_S_mhz", "energy_Tminus_mhz",
                    "energy_T0_mhz", "energy_Tplus_mhz"]
    assert data.shape == (6, 5)
    # zero field: triplet degenerate at +A/4, singlet at -3A/4
    assert data[0, 0] == 0.0
    assert data[0, 1] == pytest.approx(-3 * 117.53 / 4, abs=1e-9)
    assert data[0, 2] == data[0, 3] == data[0, 4] == pytest.approx(117.53 / 4, abs=1e-9)
    # 5 mT endpoint
    assert data[-1, 0] == 5.0
    assert data[-1, 1] == pytest.approx(-120.758, abs=1e-3)
    assert data[-1, 2] == pytest.approx(-40.504, abs=1e-3)
    assert data[-1, 3] == pytest.approx(61.993, abs=1e-3)
    assert data[-1, 4] == pytest.approx(99.269, abs=1e-3)


def test_rf_spectrum_grid(capsys):
    code, out, _ = run(capsys, [
        "rf-spectrum", "--members", "3", "--points", "5",
        "--offset-min-khz", "-100", "--offset-max-khz", "100",
    ])
    assert code == 0
    cols, data = read_csv(io.StringIO(out))
    assert cols == ["offset_khz", "response"]
    assert data.shape == (5, 2)
    assert data[0, 0] == -100.0 and data[-1, 0] == 100.0


def test_optical_spectrum_runs(capsys):
    code, out, _ = run(capsys, ["optical-spectrum", "--points", "41", "--pump", "on_T"])
    assert code == 0
    cols, data = read_csv(io.StringIO(out))
    assert cols == ["detuning_invcm", "signal"]
    assert data.shape == (41, 2)
    assert np.all(np.isfinite(data))


def test_optical_spectrum_singlet_line_follows_the_configured_hyperfine(tmp_path, capsys):
    config = tmp_path / "spin.ini"
    config.write_text("[spin]\nhyperfine_a_mhz = 100.0\n", encoding="utf-8")
    scan = ["optical-spectrum", "--points", "41", "--pump", "on_S"]
    code, configured, _ = run(capsys, [*scan, "--config", str(config)])
    assert code == 0
    line_s = repr(100.0 / pump.MHZ_PER_INV_CM)
    assert run(capsys, [*scan, "--line-s-invcm", line_s]) == (0, configured, "")
    # the default line is A / MHZ_PER_INV_CM at the default A too
    _, default, _ = run(capsys, scan)
    assert default != configured
    line_s = repr(PHOSPHORUS.hyperfine_a / pump.MHZ_PER_INV_CM)
    assert run(capsys, [*scan, "--line-s-invcm", line_s]) == (0, default, "")


def test_parser_pump_settings_are_the_pump_modules():
    pump_flag = next(a for a in subparsers()["optical-spectrum"]._actions if a.dest == "pump")
    assert pump_flag.choices is pump.PUMP_SETTINGS


def test_parse_canonicalizes(tmp_path, capsys):
    messy = tmp_path / "h.seq"
    messy.write_text(
        "seq hahn{cycle p1[0,180];pulse p1 angle=90 phase=0;delay tau;\n"
        "pulse angle=180 phase=0;delay tau;pulse angle=90 phase=0;}"
    )
    code, out, err = run(capsys, ["parse", str(messy)])
    assert code == 0
    assert out == HAHN_TEXT
    assert err == ""


def test_parse_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("seq s { delay 1us; }"))
    code, out, _ = run(capsys, ["parse", "-"])
    assert code == 0
    assert out == "seq s {\n  delay 1us;\n}\n"


def test_parse_reports_warnings_but_succeeds(tmp_path, capsys):
    src = tmp_path / "w.seq"
    src.write_text(
        "seq s { pulse a angle=90 phase=0; pulse a angle=180 phase=0; }"
    )
    code, out, err = run(capsys, ["parse", str(src)])
    assert code == 0
    assert "warning" in err and "duplicate pulse label" in err
    assert out.startswith("seq s {")


def test_parse_validation_error_exits_1(tmp_path, capsys):
    src = tmp_path / "bad.seq"
    src.write_text("seq s { cycle p [0]; pulse angle=90 phase=0; }")
    code, out, err = run(capsys, ["parse", str(src)])
    assert code == 1
    assert "error" in err and "exactly one pulse" in err
    assert out == ""


def test_parse_syntax_error_exits_1(tmp_path, capsys):
    src = tmp_path / "syn.seq"
    src.write_text("seq s { pulse angle=90 phase=0 }")
    code, out, err = run(capsys, ["parse", str(src)])
    assert code == 1
    assert "donorsim: error" in err
    assert "1:32" in err


# --- fit subcommand -------------------------------------------------------------

def write_decay_csv(path):
    taus = np.linspace(0.5, 20.0, 30)
    y = stretched_exp_model(taus, 1.0, 10.0, 1.8)
    emit_csv(str(path), ["tau_s", "echo"], np.column_stack([taus, y]))


def write_fit_input(path, x):
    """A ``fit`` input with y = 1, 0.5, 0.2, 0.1 at ``x``."""
    emit_csv(str(path), ["tau_s", "echo"], np.column_stack([x, [1.0, 0.5, 0.2, 0.1][:len(x)]]))
    return str(path)


def parse_fit_output(out):
    values = {}
    for line in out.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        name, _, rest = line.partition(" = ")
        values[name.strip()] = rest.split("+-")[0].strip()
    return values


def test_fit_stretched_pipeline(tmp_path, capsys):
    path = tmp_path / "decay.csv"
    write_decay_csv(path)
    code, out, _ = run(capsys, ["fit", str(path)])
    assert code == 0
    values = parse_fit_output(out)
    assert float(values["t2_s"]) == pytest.approx(10.0, rel=1e-6)
    assert float(values["n"]) == pytest.approx(1.8, rel=1e-6)
    assert values["converged"] == "true"


def test_fit_peaks_pipeline_with_negative_center(tmp_path, capsys):
    x = np.linspace(-100.0, 100.0, 401)
    y = peak_model(x, np.array([-55.9, 4.0, 1.0, 55.9, 4.0, 0.8, 0.0]), 2, "lorentzian")
    path = tmp_path / "spec.csv"
    emit_csv(str(path), ["offset_khz", "response"], np.column_stack([x, y]))
    # the --flag=VALUE form; the space-separated form is checked below
    code, out, _ = run(capsys, [
        "fit", str(path), "--model", "peaks", "--k", "2",
        "--peak=-50,3,0.7", "--peak=50,3,0.7",
    ])
    assert code == 0
    values = parse_fit_output(out)
    assert float(values["center_1"]) == pytest.approx(-55.9, abs=1e-4)
    assert float(values["center_2"]) == pytest.approx(55.9, abs=1e-4)


_RF = ["rf-spectrum", "--members", "2", "--points", "3"]
_FIT_PEAKS = ["fit", str(GOLDEN / "rf_spectrum_internal_perpendicular.csv"), "--model", "peaks",
              "--k", "1"]


@pytest.mark.parametrize("argv, flag, value", [
    (["optical-spectrum", "--points", "3"], "--scan-min-invcm", "-3e-3"),
    (_RF, "--offset-min-khz", "-.5e2"),
    (_RF, "--offset-min-khz", "-NaN"),
    (_FIT_PEAKS, "--peak", "-50,3,0.7"),
])
def test_a_negative_value_reads_the_same_without_equals(capsys, argv, flag, value):
    assert run(capsys, [*argv, flag, value]) == run(capsys, [*argv, f"{flag}={value}"])


def test_every_parser_reads_negative_values_as_values():
    # the pattern replaces argparse's private ``_negative_number_matcher``, so pin that it exists
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
    assert all(p._negative_number_matcher is cli._NEGATIVE_VALUE
               for p in [build_parser(), *subparsers().values()])
    for text in ["-3", "-3e-3", "-.5", "-50,3,0.7", "-inf", "-Infinity", "-nan"]:
        assert cli._NEGATIVE_VALUE.match(text)
    for text in ["-h", "--points", "-x"]:
        assert not cli._NEGATIVE_VALUE.match(text)


def test_fit_writes_report_to_output_file(tmp_path, capsys):
    path = tmp_path / "decay.csv"
    write_decay_csv(path)
    report = tmp_path / "fit.txt"
    code, out, _ = run(capsys, ["fit", str(path), "--output", str(report)])
    assert code == 0
    assert out == ""
    assert "t2_s = " in report.read_text()


def test_a_fit_that_does_not_converge_writes_its_report_and_exits_2(tmp_path, capsys):
    report = tmp_path / "fit.txt"
    code, out, err = run(capsys, ["fit", str(GOLDEN / "fit_rescue_stretched.csv"),
                                  "--output", str(report)])
    assert (code, out) == (2, "")
    assert err == "donorsim: error: the fit did not converge in 200 iterations\n"
    assert "converged = false" in report.read_text()


# --- determinism & precedence ------------------------------------------------------

HAHN_SMALL = [
    "hahn", "--members", "25", "--points", "4",
    "--tau-min-s", "0.005", "--tau-max-s", "0.05",
    "--ou-sigma-khz", "0.08", "--ou-tau-c-s", "0.2",
    "--transition", "T+", "--orientation", "perpendicular",
]

#: A two-peak fit of the rescue input, before its ``--peak`` starts.
PEAKS_FIT = ["fit", str(GOLDEN / "fit_rescue_peaks.csv"), "--model", "peaks", "--k", "2"]


def test_same_seed_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(HAHN_SMALL + ["--seed", "11", "--output", str(a)]) == 0
    assert main(HAHN_SMALL + ["--seed", "11", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(HAHN_SMALL + ["--seed", "12", "--output", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    outs = []
    for workers in ("1", "4"):
        path = tmp_path / f"w{workers}.csv"
        argv = HAHN_SMALL + ["--seed", "11", "--workers", workers,
                             "--output", str(path)]
        assert main(argv) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_flag_beats_config_beats_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[ensemble]\nmembers = 3\n\n[field]\nb0_ut = 23.0\n")
    from_config = tmp_path / "cfg.csv"
    assert main(["rf-spectrum", "--config", str(cfg), "--points", "11",
                 "--seed", "0", "--output", str(from_config)]) == 0
    overridden = tmp_path / "flag.csv"
    assert main(["rf-spectrum", "--config", str(cfg), "--points", "11",
                 "--seed", "0", "--b0-ut", "4.0", "--output", str(overridden)]) == 0
    pure_flags = tmp_path / "pure.csv"
    assert main(["rf-spectrum", "--members", "3", "--points", "11",
                 "--seed", "0", "--b0-ut", "4.0", "--output", str(pure_flags)]) == 0
    assert overridden.read_bytes() == pure_flags.read_bytes()
    assert from_config.read_bytes() != overridden.read_bytes()


def test_env_seed_applies_without_a_seed_flag(tmp_path, monkeypatch):
    env_run, flag_run = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv("DONORSIM_SEED", "11")
    assert main(HAHN_SMALL + ["--output", str(env_run)]) == 0
    monkeypatch.delenv("DONORSIM_SEED")
    assert main(HAHN_SMALL + ["--seed", "11", "--output", str(flag_run)]) == 0
    assert env_run.read_bytes() == flag_run.read_bytes()


def test_seed_flag_beats_env_seed(tmp_path, monkeypatch):
    both, env_run, flag_run = (tmp_path / f"{name}.csv" for name in ("both", "env", "flag"))
    monkeypatch.setenv("DONORSIM_SEED", "11")
    assert main(HAHN_SMALL + ["--seed", "5", "--output", str(both)]) == 0
    assert main(HAHN_SMALL + ["--output", str(env_run)]) == 0
    monkeypatch.delenv("DONORSIM_SEED")
    assert main(HAHN_SMALL + ["--seed", "5", "--output", str(flag_run)]) == 0
    assert both.read_bytes() == flag_run.read_bytes()
    assert both.read_bytes() != env_run.read_bytes()


def test_env_seed_beats_config_seed(tmp_path, monkeypatch):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 5\n")
    both, flag_run = tmp_path / "both.csv", tmp_path / "flag.csv"
    monkeypatch.setenv("DONORSIM_SEED", "11")
    assert main(HAHN_SMALL + ["--config", str(cfg), "--output", str(both)]) == 0
    monkeypatch.delenv("DONORSIM_SEED")
    assert main(HAHN_SMALL + ["--seed", "11", "--output", str(flag_run)]) == 0
    assert both.read_bytes() == flag_run.read_bytes()
    config_only = tmp_path / "config.csv"
    assert main(HAHN_SMALL + ["--config", str(cfg), "--output", str(config_only)]) == 0
    assert config_only.read_bytes() != both.read_bytes()


@pytest.mark.parametrize("argv, code, err", [
    # the env seed is read only as the ensemble is built, after the sweep and --workers
    (["hahn", "--points", "1"], 1, "donorsim: error: --points must be >= 2\n"),
    (HAHN_SMALL + ["--workers", "0"], 1, "donorsim: error: workers must be >= 1\n"),
    (HAHN_SMALL, 1, "donorsim: error: DONORSIM_SEED: must lie in [0, 2**63)\n"),
    (["levels", "--points", "3"], 0, ""),  # a subcommand that draws no ensemble ignores it
])
def test_a_bad_env_seed_is_read_only_by_an_ensemble(monkeypatch, capsys, argv, code, err):
    monkeypatch.setenv("DONORSIM_SEED", "-1")
    assert run(capsys, argv)[::2] == (code, err)


def test_output_flag_beats_config_output(tmp_path, capsys):
    decoy = tmp_path / "decoy.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output = {decoy}\n")
    real = tmp_path / "real.csv"
    assert main(["levels", "--config", str(cfg), "--points", "3",
                 "--output", str(real)]) == 0
    assert real.exists() and not decoy.exists()


# --- exit codes ----------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["levels", "--no-such-flag"]) == 1
    assert main(["optical-spectrum", "--points", "5", "--pump-rate-s", "123"]) == 1
    assert main([]) == 1
    # a setting that a subcommand does not read is no flag of it
    assert main(["levels", "--points", "3", "--seed", "3"]) == 1
    assert main(["rf-spectrum", "--members", "2", "--points", "3", "--t2-s", "1"]) == 1
    assert main(["rabi", "--members", "2", "--points", "2", "--ou-sigma-khz", "1"]) == 1
    assert main(["hahn", "--members", "2", "--points", "2", "--b1-amplitude-mt", "2e-3"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err


@pytest.mark.parametrize("argv", [
    ["levels", "--points", "1"],
    ["levels", "--bmin-mt", "3", "--bmax-mt", "1"],
    ["hahn", "--tau-min-s", "0", "--tau-max-s", "0.1"],
    ["rf-spectrum", "--members", "0"],
    ["estimate-field", "--splitting-khz", "-5"],
    ["rf-spectrum", "--points", "3", "--seed", "-7"],
    ["rabi", "--points", "3", "--seed", "-7"],
    ["ramsey", "--points", "3", "--seed", "-7"],
    ["hahn", "--points", "3", "--seed", str(2**63)],
    ["hahn", "--t2-s", "nan"],
    ["hahn", "--t2-s", "inf"],
    ["rf-spectrum", "--kernel-fwhm-khz", "nan"],
    ["rf-spectrum", "--kernel-fwhm-khz", "inf"],
    ["optical-spectrum", "--points", "3", "--pump-peak-rate", "nan"],
    ["optical-spectrum", "--points", "3", "--pump-peak-rate", "inf"],
    ["optical-spectrum", "--points", "3", "--probe-peak-rate", "nan"],
    ["optical-spectrum", "--points", "3", "--doublet-split-invcm", "nan"],
    ["optical-spectrum", "--points", "3", "--doublet-split-invcm", "-0.001"],
    ["optical-spectrum", "--points", "3", "--line-t-invcm", "inf"],
    ["optical-spectrum", "--points", "3", "--line-s-invcm", "nan"],
    ["levels", "--points", "3", "--output", ""],
    ["hahn", "--workers", "0"],
    ["hahn", "--detection", "mean", "--shots", "5"],
    # a subcommand's own numeric flags: text that is no number is the flag's error
    ["levels", "--bmin-mt", "x"],
    ["levels", "--bmax-mt", "1e3x"],
    ["levels", "--points", "2.5"],
    ["rf-spectrum", "--offset-min-khz", "x"],
    ["rf-spectrum", "--offset-max-khz", ""],
    ["rf-spectrum", "--points", "x"],
    ["optical-spectrum", "--scan-min-invcm", "x"],
    ["optical-spectrum", "--scan-max-invcm", "x"],
    ["optical-spectrum", "--points", "1e3"],
    ["optical-spectrum", "--line-s-invcm", "x"],
    ["optical-spectrum", "--line-t-invcm", "x"],
    ["optical-spectrum", "--doublet-split-invcm", "x"],
    ["optical-spectrum", "--probe-peak-rate", "x"],
    ["optical-spectrum", "--pump-peak-rate", "x"],
    ["rabi", "--max-us", "x"],
    ["rabi", "--points", "x"],
    ["ramsey", "--tau-min-s", "x"],
    ["ramsey", "--tau-max-s", "x"],
    ["ramsey", "--points", "x"],
    ["hahn", "--tau-min-s", "x"],
    ["hahn", "--tau-max-s", "x"],
    ["hahn", "--detection", "max", "--shots", "x"],
    ["hahn", "--workers", "two"],
    ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv"), "--fix-n", "x"],
    ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv"), "--model", "peaks", "--k", "x"],
    ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv"), "--model", "peaks", "--baseline", "x"],
    ["estimate-field", "--splitting-khz", "x"],
    # a non-finite start peak, named before any fit
    PEAKS_FIT + ["--peak=nan,9.5,0.7", "--peak=19.5,8.3,0.6"],
    PEAKS_FIT + ["--peak=19.5,9.5,0.7", "--peak=19.5,nan,0.6"],
    PEAKS_FIT + ["--peak=19.5,9.5,nan", "--peak=19.5,8.3,0.6"],
    # a bad setting text is the flag's error, also when a later repeat is good
    ["hahn", "--t2-s", "banana", "--t2-s", "none"],
    ["hahn", "--members", "x", "--members", "3", "--points", "2"],
    # OU step constants that overflow, or come out inf or nan, before any member
    ["hahn", "--members", "2", "--points", "2", "--ou-sigma-khz", "1e160"],
    ["hahn", "--members", "2", "--points", "2", "--ou-sigma-khz", "1e100",
     "--ou-tau-c-s", "1e100"],
    ["hahn", "--members", "2", "--points", "2", "--ou-sigma-khz", "1", "--ou-tau-c-s", "1e-320"],
])
def test_validation_errors_exit_1(monkeypatch, capsys, argv):
    def draw(*args, **kwargs):
        raise AssertionError("the ensemble ran before its inputs were checked")

    monkeypatch.setattr(noise, "_restart", draw)  # every ensemble member's stream starts here
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "donorsim: error" in err


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would reach stderr
def test_overflowing_delay_phase_fails_the_norm_check_exit_2(capsys):
    code, out, err = run(capsys, [
        "ramsey", "--members", "2", "--points", "2", "--static-detuning-khz", "1e300",
        "--tau-min-s", "1e9", "--tau-max-s", "1e10",
    ])
    assert code == 2
    assert err == "donorsim: error: propagation lost norm: nan\n"
    assert out == ""


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would reach stderr
@pytest.mark.parametrize("argv, message", [
    (["levels", "--points", "3", "--bmax-mt", "1e308"],
     "--bmax-mt 1e+308 overflows when converted to µT"),
    (["levels", "--points", "3", "--bmax-mt", "1e200"],
     "field magnitude up to 1e+203 µT overflows the level energies"),
    (HAHN_SMALL + ["--detection", "mean", "--shots", "5"],
     "--shots applies only to --detection max"),
    # a width whose half (or cm^-1 value) underflows to 0 would divide by zero
    (["rf-spectrum", "--kernel-fwhm-khz", "5e-324", "--members", "3", "--points", "5"],
     "kernel_fwhm_khz must be finite and > 0, also when halved, got 5e-324"),
    (["optical-spectrum", "--points", "3", "--optical-linewidth-mhz", "5e-324"],
     "optical_linewidth_mhz must be finite and > 0, also in cm^-1, got 5e-324"),
    (["rf-spectrum", "--kernel-fwhm-khz", "x"],
     "--kernel-fwhm-khz: expected a number, got 'x'"),
    (["hahn", "--points", "x"], "--points: expected an integer, got 'x'"),
    (["rf-spectrum", "--b0-ut", "1e160", "--internal-fraction", "1", "--members", "3",
      "--points", "3"],
     "field magnitude up to 1e+160 µT overflows its square"),
    (["hahn", "--b0-ut", "1e200", "--members", "3", "--points", "3"],
     "field magnitude up to 1e+200 µT overflows its square"),
    (PEAKS_FIT + ["--peak=19.5,inf,0.7", "--peak=19.5,8.3,0.6"],
     "initial peak 1 (center, width, amplitude) must be finite, got (19.5, inf, 0.7)"),
    (["ramsey", "--transition", "T+", "--orientation", "parallel", "--members", "5",
      "--points", "3"],
     "S -> T+ is not driven in the parallel geometry (zero matrix element)"),
    (["hahn", "--transition", "T0", "--orientation", "perpendicular", "--members", "5",
      "--points", "3"],
     "S -> T0 is not driven in the perpendicular geometry (zero matrix element)"),
    # every CSV subcommand checks its sweep before its other inputs
    (["hahn", "--workers", "0", "--points", "1"], "--points must be >= 2"),
    (["hahn", "--b0-ut", "1e200", "--tau-min-s", "0.05", "--tau-max-s", "0.01"],
     "sweep needs a finite start below its end, got 0.05 to 0.01"),
    # a leading "-" and "inf" is a value, not a flag
    (["rf-spectrum", "--members", "2", "--points", "3", "--offset-min-khz", "-inf"],
     "sweep needs a finite start below its end, got -inf to 150.0"),
    # an OU step constant that overflows names the sigma, correlation time and delay
    (["hahn", "--members", "2", "--points", "2", "--ou-sigma-khz", "1", "--ou-tau-c-s", "1e160"],
     "OU step constants overflow: driven-line sigma 0.001907515204447196 kHz, "
     "correlation time 1e+160 s, delay 0.001 s"),
    # a stretched fit from a start or on taus its model cannot take; a tuple is the x of
    # an input written for the case
    (["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv"), "--initial", "1,0,1"],
     "initial t2_s must be finite and > 0, got 0.0"),
    (["fit", (0.0, 1.0, 2.0, 3.0), "--initial", "1,1,-1"],
     "initial n must be finite and > 0, got -1.0"),
    (["fit", (-1.0, -2.0, -3.0)], "taus must be >= 0, got -3.0"),
    (["fit", (-1.0, 0.0, 1.0, 2.0)], "taus must be >= 0, got -1.0"),
    # a drive amplitude whose Rabi frequency overflows, read by finite pulses only
    (["rabi", "--members", "3", "--points", "3", "--b1-amplitude-mt", "1e305"],
     "Rabi frequency 2 pi * coupling * RF amplitude must be finite"),
])
def test_rejected_run_prints_only_the_error_line(tmp_path, monkeypatch, capsys, argv, message):
    def draw(*args, **kwargs):
        raise AssertionError("the ensemble ran before its inputs were checked")

    monkeypatch.setattr(noise, "_restart", draw)  # every ensemble member's stream starts here
    argv = [write_fit_input(tmp_path / "in.csv", a) if isinstance(a, tuple) else a
            for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err == f"donorsim: error: {message}\n"
    assert "RuntimeWarning" not in err
    assert out == ""


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would reach stderr
@pytest.mark.parametrize("argv, want_code, want_err", [
    (["optical-spectrum", "--points", "3", "--optical-linewidth-mhz", "1e-300"],
     2, "donorsim: error: null space dimension 2, expected 1\n"),
    (["rf-spectrum", "--kernel-fwhm-khz", "1e-300", "--members", "3", "--points", "5"],
     0, ""),
])
def test_tiny_lorentzian_width_prints_no_overflow_warning(capsys, argv, want_code, want_err):
    # 1 / (1 + u*u) with an overflowing u*u is exactly 0, the Lorentzian's limit
    code, out, err = run(capsys, argv)
    assert (code, err) == (want_code, want_err)
    if code == 0:
        assert [row.split(",")[1] for row in out.splitlines()[2:]] == ["0.0"] * 5


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would reach stderr
@pytest.mark.parametrize("argv, want_code", [
    # exp(-(2 tau / T2)^n) with an overflowing power is exactly 0
    (["hahn", "--members", "3", "--points", "2", "--t2-s", "1e-300", "--stretching-n", "2"], 0),
    # a peak term whose u * u overflows is exactly 0, under either shape
    (["fit", str(GOLDEN / "rf_spectrum_internal_perpendicular.csv"), "--model", "peaks",
      "--k", "1", "--peak=0,1e-300,1", "--shape", "lorentzian"], 0),
    (["fit", str(GOLDEN / "rf_spectrum_internal_perpendicular.csv"), "--model", "peaks",
      "--k", "1", "--peak=0,1e-300,1", "--shape", "gaussian"], 2),
])
def test_overflowing_model_term_prints_no_warning(capsys, argv, want_code):
    code, _, err = run(capsys, argv)
    # the one stderr line of exit 2 is the fit's own
    want_err = "donorsim: error: the fit did not converge in 200 iterations\n" if code else ""
    assert (code, err) == (want_code, want_err)


@pytest.mark.parametrize("argv", [
    ["--detection", "max", "--shots", "0"],
    ["--detection", "mean", "--shots", "-5"],
])
def test_bad_shot_count_exits_1(capsys, argv):
    code, out, err = run(capsys, HAHN_SMALL + argv)
    assert code == 1
    assert "shots_per_point must be >= 1" in err
    assert out == ""


#: Small runs of the ensemble subcommands, with every detection.
SMALL_RUNS = [
    ["rabi", "--members", "2", "--points", "2"],
    ["ramsey", "--members", "2", "--points", "3"],
    ["hahn", "--members", "2", "--points", "2", "--detection", "mean"],
    ["hahn", "--members", "2", "--points", "3", "--detection", "max", "--shots", "2"],
    ["rf-spectrum", "--members", "2", "--points", "3"],
]
PHYSICS_FLAGS = ["--b0-ut", "--b1-amplitude-mt", "--static-detuning-khz", "--ou-sigma-khz",
                 "--ou-tau-c-s", "--internal-fraction", "--internal-field-ut", "--t2-s",
                 "--stretching-n"]
EXTREME_VALUES = st.one_of(
    st.floats(-1.7e308, 1.7e308),  # finite, subnormals included
    st.sampled_from([5e-324, 1e-320, 1e154, 1e160, 1e300]),
)


def settings_of(run_argv: list[str]) -> st.SearchStrategy:
    """The run with one to four of the physics flags its subcommand offers, at extreme values."""
    flags = sorted(offered_flags(run_argv[0]).intersection(PHYSICS_FLAGS))
    return st.tuples(st.just(run_argv), st.dictionaries(st.sampled_from(flags), EXTREME_VALUES,
                                                        min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(run=st.sampled_from(SMALL_RUNS).flatmap(settings_of))
@example(run=(SMALL_RUNS[2], {"--ou-sigma-khz": 1e160}))
@example(run=(SMALL_RUNS[1], {"--ou-sigma-khz": 1.0, "--ou-tau-c-s": 1e160}))
def test_no_finite_setting_crashes_the_cli(run):
    run_argv, values = run
    argv = run_argv + [text for flag, value in values.items() for text in (flag, repr(value))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code != 0:
        assert err.getvalue().count("donorsim: error: ") == 1
        assert err.getvalue().startswith("donorsim: error: ")
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1


# One bad value per setting flag, by config key: a flagged setting missing here fails its case.
BAD_SETTING_TEXT = {
    "seed": "-1",
    "output": "",
    "members": "0",
    "b0_ut": "-1",
    "b0_orientation": "diagonal",
    "transition": "T2",
    "b1_amplitude_mt": "0",
    "static_detuning_khz": "-1",
    "ou_sigma_khz": "nan",
    "ou_tau_c_s": "0",
    "internal_fraction": "1.5",
    "internal_field_ut": "-1",
    "t2_s": "-3",
    "stretching_n": "fast",
    "auger_rate": "0",
    "branch_to_s": "1.5",
    "randomization_rate": "-1",
    "gain": "inf",
    "optical_linewidth_mhz": "0",
}
FLAGGED_SETTINGS = [f for f in SETTINGS.values() if f.metadata["flag"]]


@pytest.mark.parametrize("setting", FLAGGED_SETTINGS, ids=key_of)
def test_flag_and_config_key_reject_the_same_text(tmp_path, capsys, setting):
    name, section, flag = key_of(setting), setting.metadata["section"], setting.metadata["flag"]
    command = next(cmd for cmd in subparsers() if flag in offered_flags(cmd))
    argv = [command, "--points", "3"]
    text = BAD_SETTING_TEXT[name]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{name} = {text}\n" if section else f"{name} = {text}\n")

    code, out, flag_err = run(capsys, argv + [flag, text])
    assert (code, out) == (1, "")
    assert flag_err.startswith(f"donorsim: error: {flag}: ")
    code, out, cfg_err = run(capsys, argv + ["--config", str(cfg)])
    assert (code, out) == (1, "")
    line = 2 if section else 1
    assert cfg_err.startswith(f"donorsim: error: {cfg}:{line}: {name}: ")
    assert flag_err.split(f"{flag}: ", 1)[1] == cfg_err.split(f"{name}: ", 1)[1]


#: A value out of bounds of each bounded field, by field name.
OUT_OF_BOUNDS = {
    "hyperfine_a": 0.0, "gamma_s": -1.0, "gamma_i": math.inf,
    "static_detuning_khz": -1.0, "ou_sigma_khz": math.nan, "ou_tau_c_s": 0.0,
    "internal_fraction": 1.5, "internal_field_ut": -1.0, "phenomenological_t2_s": -3.0,
    "stretching_n": 0.0, "n_members": 0, "seed": -1, "transition": "T2",
    "b0_magnitude_ut": math.inf, "b0_orientation": "diagonal", "b1_amplitude_mt": 0.0,
    "pump_rate_s": -1.0, "pump_rate_t": math.nan, "auger_rate": 0.0, "branch_to_s": -0.5,
    "randomization_rate": -1.0, "gain": math.inf, "optical_linewidth_mhz": -2.0, "output": "",
}
#: (type, row) of each bounded field; ``output`` belongs to no type.
BOUNDED = [pytest.param(cls, f, id=f.name)
           for cls in (SpinSystem, NoiseModel, EnsembleSpec, PumpConfig)
           for f in dataclasses.fields(cls) if "check" in f.metadata]
BOUNDED.append(pytest.param(None, SETTINGS["output"], id="output"))


@pytest.mark.parametrize("cls, setting", BOUNDED)
def test_one_bound_rejects_with_one_message(capsys, cls, setting):
    """The config reader, the flag and the constructor share each bound and its message."""
    meta, value = setting.metadata, OUT_OF_BOUNDS[setting.name]
    text = str(value)
    with pytest.raises(ValueError) as exc:
        meta["check"](value)
    need = str(exc.value)
    if meta["section"] is not None:
        header = f"[{meta['section']}]\n" if meta["section"] else ""
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"{header}{key_of(setting)} = {text}\n", source="run.cfg")
        assert str(exc.value) == f"run.cfg:{1 + bool(header)}: {key_of(setting)}: {need}"
    if meta["flag"] is not None:
        command = next(cmd for cmd in subparsers() if meta["flag"] in offered_flags(cmd))
        assert run(capsys, [command, meta["flag"], text]) == (
            1, "", f"donorsim: error: {meta['flag']}: {need}\n")
    if cls is not None:
        with pytest.raises(ValueError) as exc:
            build(cls, {"seed": 0, setting.name: value})
        assert str(exc.value) == f"{setting.name}: {need}"


#: A small run of each subcommand that takes settings (all but ``parse``), before its
#: noise is switched on.
PROBE_RUNS = {
    "levels": ["--points", "3"],
    "rf-spectrum": ["--members", "3", "--points", "5"],
    "optical-spectrum": ["--points", "5", "--pump", "on_T"],
    "rabi": ["--members", "3", "--points", "3"],
    "ramsey": ["--members", "3", "--points", "3"],
    "hahn": ["--members", "3", "--points", "2"],
    "fit": [str(GOLDEN / "hahn_mean_t0_parallel.csv")],
    "estimate-field": ["--splitting-khz", "111.819"],
}
#: The noise of every base run, each setting (by field name) where it is offered.
NOISE_ON = {"static_detuning_khz": "1.5", "ou_sigma_khz": "0.05", "ou_tau_c_s": "0.2",
            "internal_fraction": "0.5", "phenomenological_t2_s": "0.05"}
#: A good value of each setting flag, other than its value in the base runs.
PROBE_TEXT = {
    "seed": "3", "n_members": "4", "b0_magnitude_ut": "6", "b0_orientation": "perpendicular",
    "transition": "T+", "b1_amplitude_mt": "2e-3", "static_detuning_khz": "3",
    "ou_sigma_khz": "0.5", "ou_tau_c_s": "0.01", "internal_fraction": "0",
    "internal_field_ut": "20", "phenomenological_t2_s": "0.01", "stretching_n": "2",
    "auger_rate": "1e5",
    "branch_to_s": "0.5", "randomization_rate": "100", "gain": "2",
    "optical_linewidth_mhz": "60",
}
#: A value of a setting that the subcommands reading it reject; every other
#: subcommand runs as without it.
REJECTED_TEXT = {"b1_amplitude_mt": "1e305"}


def config_text(values: dict[str, str]) -> str:
    """A config file setting ``values`` (by field name), each key under its section."""
    lines: dict[str, list[str]] = {}
    for f in SETTINGS.values():
        if f.name in values:
            lines.setdefault(f.metadata["section"], []).append(f"{key_of(f)} = {values[f.name]}\n")
    return "".join(f"[{section}]\n" * bool(section) + "".join(keys)
                   for section, keys in sorted(lines.items()))


@pytest.mark.parametrize("command", sorted(PROBE_RUNS))
def test_each_subcommand_offers_exactly_the_settings_it_reads(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv("DONORSIM_SEED", raising=False)
    assert set(PROBE_RUNS) == {cmd for cmd in subparsers() if "--output" in offered_flags(cmd)}
    flags = offered_flags(command)
    offered = [f for f in FLAGGED_SETTINGS if f.metadata["flag"] in flags]
    others = [f for f in FLAGGED_SETTINGS if f not in offered]
    base = [command, *PROBE_RUNS[command]]
    for f in offered:
        if f.name in NOISE_ON:
            base += [f.metadata["flag"], NOISE_ON[f.name]]
    want = run(capsys, base)[:2]
    assert want[0] == 0
    # every offered setting flag but --output moves stdout or the exit status
    unread = [f.metadata["flag"] for f in offered if f.name != "output"
              and run(capsys, [*base, f.metadata["flag"], PROBE_TEXT[f.name]])[:2] == want]
    # and no setting that is not offered does, given in a config file with the other
    # settings not offered switched on
    config = tmp_path / "others.ini"
    other_noise = {f.name: NOISE_ON[f.name] for f in others if f.name in NOISE_ON}
    probes = [(f.name, PROBE_TEXT[f.name]) for f in others]
    probes += [(f.name, REJECTED_TEXT[f.name]) for f in others if f.name in REJECTED_TEXT]
    read = []
    for name, text in probes:
        config.write_text(config_text({**other_noise, name: text}))
        if run(capsys, [*base, "--config", str(config)])[:2] != want:
            read.append(name)
    assert (unread, read) == ([], []), f"{command}: flags unread {unread}, keys read {read}"


def test_t2_none_flag_runs_like_the_config_key(tmp_path):
    cfg = tmp_path / "t2.cfg"
    cfg.write_text("[noise]\nt2_s = none\n")
    by_flag, by_key = tmp_path / "flag.csv", tmp_path / "key.csv"
    assert main(HAHN_SMALL + ["--seed", "3", "--t2-s", "none", "--output", str(by_flag)]) == 0
    assert main(HAHN_SMALL + ["--seed", "3", "--config", str(cfg),
                              "--output", str(by_key)]) == 0
    assert by_flag.read_bytes() == by_key.read_bytes()


@pytest.mark.parametrize("extra, message", [
    (["--model", "peaks", "--k", "-1"], "--k must be >= 1"),
    (["--model", "peaks", "--k", "0", "--peak", "1,2,3"], "--k must be >= 1"),
    (["--initial", "x"], "--initial: values must be numbers, got 'x'"),
    (["--initial", "1.0,,2"], "--initial: values must be numbers, got '1.0,,2'"),
    # a flag of the other model, even at its default value
    (["--model", "peaks", "--peak=1,2,3", "--initial", "1,2"],
     "--initial applies only to --model stretched"),
    (["--model", "peaks", "--peak=1,2,3", "--fix-n", "3"],
     "--fix-n applies only to --model stretched"),
    (["--k", "1"], "--k applies only to --model peaks"),
    (["--model", "stretched", "--shape", "lorentzian"], "--shape applies only to --model peaks"),
    (["--peak=1,2,3"], "--peak applies only to --model peaks"),
    (["--baseline", "4"], "--baseline applies only to --model peaks"),
    (["--model", "peaks", "--peak=1,x,3"], "--peak: values must be numbers, got '1,x,3'"),
    # each text is read where argparse meets it: a later valid repeat or --help hides no error
    (["--initial", "banana", "--initial", "1,0.05,1.5"],
     "--initial: values must be numbers, got 'banana'"),
    (["--initial", "x", "--help"], "--initial: values must be numbers, got 'x'"),
    (["--model", "peaks", "--peak=1,2", "--help"],
     "--peak: needs 'center,width,amplitude', got '1,2'"),
])
def test_fit_flag_errors_name_the_flag(capsys, extra, message):
    code, out, err = run(capsys, ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv")] + extra)
    assert (code, out) == (1, "")
    assert err == f"donorsim: error: {message}\n"


def cannot_read(path):
    """The one error line of an unreadable input path."""
    return re.compile(f"donorsim: error: cannot read {re.escape(repr(path))}: [^\n]*\n")


def test_missing_config_file_exits_2(capsys):
    for argv in (["levels"], ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv")]):
        code, out, err = run(capsys, argv + ["--config", "/no/such/file.cfg"])
        assert code == 2, argv
        assert cannot_read("/no/such/file.cfg").fullmatch(err)
        assert out == ""


# the reversed spans are in test_every_csv_subcommand_checks_its_sweep_before_any_member
@pytest.mark.parametrize("argv", [
    ["rf-spectrum", "--members", "2000", "--offset-max-khz", "inf"],
    # finite ends whose span overflows
    ["rf-spectrum", "--offset-min-khz=-1.7e308", "--offset-max-khz", "1.7e308", "--points", "3",
     "--members", "2"],
    ["optical-spectrum", "--scan-min-invcm=-1.7e308", "--scan-max-invcm", "1.7e308",
     "--points", "3"],
])
def test_bad_sweep_exits_1_before_any_member_is_drawn(monkeypatch, capsys, argv):
    def draw(*args, **kwargs):
        raise AssertionError("the ensemble ran before the sweep was checked")

    monkeypatch.setattr(noise, "_restart", draw)  # every ensemble member's stream starts here
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "sweep needs a finite start below its end" in err


#: A reversed span of each CSV subcommand's sweep; every CSV row of the table has one.
REVERSED_SPAN = {
    "levels": ["--bmin-mt", "3", "--bmax-mt", "1"],
    "rf-spectrum": ["--offset-min-khz", "50", "--offset-max-khz", "-50"],
    "optical-spectrum": ["--scan-min-invcm", "0.007", "--scan-max-invcm", "-0.003"],
    "rabi": ["--max-us", "-10"],
    "ramsey": ["--tau-min-s", "0.002", "--tau-max-s", "0.001"],
    "hahn": ["--tau-min-s", "0.05", "--tau-max-s", "0.01"],
}


@pytest.mark.parametrize("flags, message", [
    (["--points", "1"], "--points must be >= 2"),
    (None, "sweep needs a finite start below its end"),
], ids=["one-point", "reversed"])
@pytest.mark.parametrize("command", [name for name, row in cli._COMMANDS.items()
                                     if row.compute is not None])
def test_every_csv_subcommand_checks_its_sweep_before_any_member(
        monkeypatch, capsys, command, flags, message):
    def draw(*args, **kwargs):
        raise AssertionError("the ensemble ran before the sweep was checked")

    monkeypatch.setattr(noise, "_restart", draw)  # every ensemble member's stream starts here
    code, out, err = run(capsys, [command, *(REVERSED_SPAN[command] if flags is None else flags)])
    assert (code, out) == (1, "")
    assert message in err


def test_bad_config_value_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[spin]\ngamma_s_mhz_per_mt = -1\n")
    code, _, err = run(capsys, ["levels", "--config", str(cfg)])
    assert code == 1
    assert "gamma_s_mhz_per_mt" in err


def test_unwritable_output_exits_2(capsys):
    code, _, err = run(capsys, [
        "levels", "--points", "3", "--output", "/no/such/dir/out.csv",
    ])
    assert code == 2
    assert "out.csv" in err


def test_fit_missing_input_exits_2(capsys):
    code, _, err = run(capsys, ["fit", "/no/such/data.csv"])
    assert code == 2
    assert cannot_read("/no/such/data.csv").fullmatch(err)


def test_fit_foreign_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "foreign.csv"
    path.write_text("x,y\n1,2\n")
    code, _, err = run(capsys, ["fit", str(path)])
    assert code == 1
    assert "donorsim: error" in err


def test_parse_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["parse", "/no/such/file.seq"])
    assert code == 2
    assert cannot_read("/no/such/file.seq").fullmatch(err)


@pytest.mark.parametrize("error, code", [
    (pump.NoUniqueSteadyStateError, 2),
    (ValueError, 1),
])
def test_the_exception_class_decides_the_exit_code(capsys, monkeypatch, error, code):
    # the convergence error stays a ValueError for library callers
    assert issubclass(error, ValueError)
    assert issubclass(error, RuntimeError) == (code == 2)

    def fail(*args):
        raise error("did not settle")

    monkeypatch.setattr(spincore, "estimate_field_from_splitting", fail)
    assert run(capsys, ["estimate-field", "--splitting-khz", "111.819"]) == (
        code, "", "donorsim: error: did not settle\n")


# --- one parser per process --------------------------------------------------------

def test_repeated_calls_share_one_parser_and_match_fresh_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    x = np.linspace(-100.0, 100.0, 401)
    y = peak_model(x, np.array([-55.9, 4.0, 1.0, 55.9, 4.0, 0.8, 0.0]), 2, "lorentzian")
    path = tmp_path / "spec.csv"
    emit_csv(str(path), ["offset_khz", "response"], np.column_stack([x, y]))
    two_peaks = ["fit", str(path), "--model", "peaks", "--k", "2",
                 "--peak=-50,3,0.7", "--peak=50,3,0.7"]
    calls = [
        two_peaks,
        two_peaks,  # the append action must not carry the first call's peaks over
        ["fit", str(path), "--model", "peaks", "--peak=-50,3,0.7"],
        ["levels", "--no-such-flag"],
        ["rf-spectrum", "--members", "x"],
        ["estimate-field", "--splitting-khz", "111.819"],
        ["fit", "--help"],
        ["--help"],
    ]

    def fresh(argv):
        build_parser.cache_clear()
        return run(capsys, argv)

    want = [fresh(argv) for argv in calls]
    build_parser.cache_clear()
    got = [run(capsys, argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert got == want
    assert [code for code, _, _ in got] == [0, 0, 0, 1, 1, 0, 0, 0]
    assert got[0][1] != got[2][1]
