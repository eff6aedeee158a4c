"""Byte-for-byte comparison of seeded experiment outputs with tests/golden/.

The golden files are written by ``tests/golden/regen.py``; see its
docstring for when to rewrite them.  The benchmark's ``drive-4level``
populations are compared with its seed-0 reference in ``perfbench/``,
which these tests only read.
"""

from __future__ import annotations

import gzip
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DRIVE_4LEVEL_REFERENCE = ROOT / "perfbench" / "reference" / "seed0" / "drive-4level"


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


regen = _load("golden_regen", GOLDEN / "regen.py")
workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


@pytest.mark.parametrize("name", sorted(regen.CLI_CSVS))
def test_cli_csv_matches_golden(tmp_path, name):
    text = regen.cli_csv(*regen.CLI_CSVS[name], tmp_path / name)
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


def test_drive_4level_populations_equal_the_seed0_reference(tmp_path):
    # the benchmark's own operations: compile its pi-pulse text, then run its
    # drive() pulse at (0.4, 0, 23) and (0.4, 0, 0) uT; about 1 s
    for op in workloads.plan_drive_4level(workloads.DEFAULT_SEED, str(tmp_path), None):
        assert op.run() == 0, op.name
    for tag in workloads.DRIVE_FIELDS_UT:
        want = gzip.decompress((DRIVE_4LEVEL_REFERENCE / f"pops_{tag}.json.gz").read_bytes())
        assert (tmp_path / f"pops_{tag}.json").read_bytes() == want, tag
