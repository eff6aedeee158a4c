"""End-to-end CLI behaviour: help text, outputs, determinism, exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import io
import pathlib

import numpy as np
import pytest

from donorsim import cli, noise, pulse, pump, spincore
from donorsim.cli import build_parser, main
from donorsim.config import RunConfig
from donorsim.csvio import emit_csv, read_csv
from donorsim.fitkit import peak_model, stretched_exp_model
from donorsim.seqdsl import HAHN_TEXT
from donorsim.spincore import PHOSPHORUS

GOLDEN = pathlib.Path(__file__).parent / "golden"

HELP_CASES = {
    "help_main.txt": ["--help"],
    "help_levels.txt": ["levels", "--help"],
    "help_rf_spectrum.txt": ["rf-spectrum", "--help"],
    "help_optical_spectrum.txt": ["optical-spectrum", "--help"],
    "help_rabi.txt": ["rabi", "--help"],
    "help_ramsey.txt": ["ramsey", "--help"],
    "help_hahn.txt": ["hahn", "--help"],
    "help_fit.txt": ["fit", "--help"],
    "help_parse.txt": ["parse", "--help"],
    "help_estimate_field.txt": ["estimate-field", "--help"],
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- help text ---------------------------------------------------------------

@pytest.mark.parametrize("golden_name, argv", sorted(HELP_CASES.items()))
def test_help_matches_golden(monkeypatch, capsys, golden_name, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")


def test_every_flag_appears_in_its_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    subactions = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(subactions.choices) == {
        "levels", "rf-spectrum", "optical-spectrum", "rabi", "ramsey", "hahn",
        "fit", "parse", "estimate-field",
    }
    for name, sub in subactions.choices.items():
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
    assert cli._PUMP_SETTINGS == pump.PUMP_SETTINGS


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
    # leading-dash values must use the --peak=... form
    code, out, _ = run(capsys, [
        "fit", str(path), "--model", "peaks", "--k", "2",
        "--peak=-50,3,0.7", "--peak=50,3,0.7",
    ])
    assert code == 0
    values = parse_fit_output(out)
    assert float(values["center_1"]) == pytest.approx(-55.9, abs=1e-4)
    assert float(values["center_2"]) == pytest.approx(55.9, abs=1e-4)


def test_fit_writes_report_to_output_file(tmp_path, capsys):
    path = tmp_path / "decay.csv"
    write_decay_csv(path)
    report = tmp_path / "fit.txt"
    code, out, _ = run(capsys, ["fit", str(path), "--output", str(report)])
    assert code == 0
    assert out == ""
    assert "t2_s = " in report.read_text()


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


def test_env_seed_is_lowest_precedence(tmp_path, monkeypatch):
    env_run, flag_run = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv("DONORSIM_SEED", "11")
    assert main(HAHN_SMALL + ["--output", str(env_run)]) == 0
    monkeypatch.delenv("DONORSIM_SEED")
    assert main(HAHN_SMALL + ["--seed", "11", "--output", str(flag_run)]) == 0
    assert env_run.read_bytes() == flag_run.read_bytes()


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
    err = capsys.readouterr().err
    assert "usage:" in err


@pytest.mark.parametrize("argv", [
    ["levels", "--points", "1"],
    ["levels", "--bmin-mt", "3", "--bmax-mt", "1"],
    ["hahn", "--tau-min-s", "0", "--tau-max-s", "0.1"],
    ["rf-spectrum", "--members", "0"],
    ["estimate-field", "--splitting-khz", "-5"],
    ["levels", "--points", "3", "--seed", "-7"],
    ["optical-spectrum", "--points", "3", "--seed", "-7"],
    ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv"), "--seed", "-7"],
    ["estimate-field", "--splitting-khz", "111.819", "--seed", str(2**63)],
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
    ["rabi", "--members", "3", "--points", "3", "--b1-amplitude-mt", "1e306", "--max-us", "1"],
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
    ["rf-spectrum", "--kernel-fwhm-khz", "x"],
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
    ["hahn", "--points", "x"],
    ["hahn", "--detection", "max", "--shots", "x"],
    ["hahn", "--workers", "two"],
    ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv"), "--fix-n", "x"],
    ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv"), "--model", "peaks", "--k", "x"],
    ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv"), "--model", "peaks", "--baseline", "x"],
    ["estimate-field", "--splitting-khz", "x"],
    # a field whose squared components overflow, nominal or with the internal field
    ["rf-spectrum", "--b0-ut", "1e160", "--internal-fraction", "1", "--members", "3",
     "--points", "3"],
    ["hahn", "--b0-ut", "1e200", "--members", "3", "--points", "3"],
    # a non-finite start peak, named before any fit
    PEAKS_FIT + ["--peak=19.5,inf,0.7", "--peak=19.5,8.3,0.6"],
    PEAKS_FIT + ["--peak=nan,9.5,0.7", "--peak=19.5,8.3,0.6"],
    PEAKS_FIT + ["--peak=19.5,9.5,0.7", "--peak=19.5,nan,0.6"],
    PEAKS_FIT + ["--peak=19.5,9.5,nan", "--peak=19.5,8.3,0.6"],
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
])
def test_rejected_run_prints_only_the_error_line(capsys, argv, message):
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


@pytest.mark.parametrize("argv", [
    ["--detection", "max", "--shots", "0"],
    ["--detection", "mean", "--shots", "-5"],
])
def test_bad_shot_count_exits_1(capsys, argv):
    code, out, err = run(capsys, HAHN_SMALL + argv)
    assert code == 1
    assert "shots_per_point must be >= 1" in err
    assert out == ""


# One bad value per setting flag: a flagged RunConfig field missing here fails its case.
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
FLAGGED_SETTINGS = [f for f in dataclasses.fields(RunConfig) if f.metadata["flag"]]


@pytest.mark.parametrize("setting", FLAGGED_SETTINGS, ids=lambda f: f.name)
def test_flag_and_config_key_reject_the_same_text(tmp_path, capsys, setting):
    name, section, flag = setting.name, setting.metadata["section"], setting.metadata["flag"]
    command = {"": "levels", "pump": "optical-spectrum"}.get(section, "rabi")
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
    (["--initial", "x"], "--initial values must be numbers, got 'x'"),
    (["--initial", "1.0,,2"], "--initial values must be numbers, got '1.0,,2'"),
    # a flag of the other model, even at its default value
    (["--model", "peaks", "--peak=1,2,3", "--initial", "1,2"],
     "--initial applies only to --model stretched"),
    (["--model", "peaks", "--peak=1,2,3", "--fix-n", "3"],
     "--fix-n applies only to --model stretched"),
    (["--k", "1"], "--k applies only to --model peaks"),
    (["--model", "stretched", "--shape", "lorentzian"], "--shape applies only to --model peaks"),
    (["--peak=1,2,3"], "--peak applies only to --model peaks"),
    (["--baseline", "4"], "--baseline applies only to --model peaks"),
])
def test_fit_flag_errors_name_the_flag(capsys, extra, message):
    code, out, err = run(capsys, ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv")] + extra)
    assert (code, out) == (1, "")
    assert err == f"donorsim: error: {message}\n"


def test_missing_config_file_exits_2(capsys):
    for argv in (["levels"], ["fit", str(GOLDEN / "hahn_mean_t0_parallel.csv")]):
        code, out, err = run(capsys, argv + ["--config", "/no/such/file.cfg"])
        assert code == 2, argv
        assert "file.cfg" in err
        assert out == ""


@pytest.mark.parametrize("argv", [
    ["ramsey", "--members", "3000", "--tau-min-s", "0.002", "--tau-max-s", "0.001"],
    ["rf-spectrum", "--members", "2000", "--offset-min-khz", "50", "--offset-max-khz", "-50"],
    ["rf-spectrum", "--members", "2000", "--offset-max-khz", "inf"],
    ["rabi", "--max-us", "-10"],
    ["hahn", "--tau-min-s", "0.05", "--tau-max-s", "0.01"],
])
def test_bad_sweep_exits_1_before_any_member_is_drawn(monkeypatch, capsys, argv):
    def draw(*args, **kwargs):
        raise AssertionError("the ensemble ran before the sweep was checked")

    monkeypatch.setattr(noise, "_restart", draw)  # every ensemble member's stream starts here
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "sweep needs a finite start below its end" in err


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


def test_fit_foreign_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "foreign.csv"
    path.write_text("x,y\n1,2\n")
    code, _, err = run(capsys, ["fit", str(path)])
    assert code == 1
    assert "donorsim: error" in err


def test_parse_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["parse", "/no/such/file.seq"])
    assert code == 2


@pytest.mark.parametrize("error, code", [
    (pump.StepSizeError, 2),
    (pump.ConvergenceError, 2),
    (pump.NoUniqueSteadyStateError, 2),
    (pulse.IntegrationStepError, 2),
    (ValueError, 1),
])
def test_the_exception_class_decides_the_exit_code(capsys, monkeypatch, error, code):
    # the integration and convergence errors stay ValueErrors for library callers
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
