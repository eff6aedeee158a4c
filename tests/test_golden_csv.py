"""Byte-for-byte comparison of seeded experiment outputs with tests/golden/.

The golden files are written by ``tests/golden/regen.py``; see its
docstring for when to rewrite them.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.CLI_CSVS))
def test_cli_csv_matches_golden(tmp_path, name):
    text = regen.cli_csv(regen.CLI_CSVS[name], tmp_path / name)
    assert text.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(regen.LIBRARY_CSVS))
def test_library_csv_matches_golden(name):
    text = regen.LIBRARY_CSVS[name]()
    assert text.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_writer():
    # a writer deleted from regen.py must take its golden file with it
    inputs = {path.name for path in GOLDEN.glob("fit_rescue_*.csv")}
    written = {*regen.HELP_COMMANDS, *regen.CLI_CSVS, *regen.LIBRARY_CSVS}
    on_disk = {path.name for path in GOLDEN.iterdir() if path.is_file()}
    assert on_disk == {"regen.py", *inputs, *written}
