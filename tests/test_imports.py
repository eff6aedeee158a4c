"""The package's lint step: imports are used, and numpy is the only third party.

Every module-level import in the package is used.  Every import anywhere in
the package names the standard library, numpy or the package itself, and a
fit that takes the Nelder-Mead rescue loads no scipy, so no lazy import of it
can come back unnoticed.  A peak fit loads no ``numpy.ma``, which the first
``np.median`` call of a process imports.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "donorsim"
# __init__.py imports only to re-export.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "donorsim"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def foreign_imports(source: str) -> list[str]:
    """Imports, at any depth, of anything but the stdlib, numpy and the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in ALLOWED_TOP_LEVEL]
    return found


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport cmath\nimport math\nmath.pi\n"
    assert unused_imports(source) == ["line 2: cmath"]


def test_checker_flags_a_foreign_import_at_any_depth():
    source = ("import numpy as np\nfrom . import csvio\nimport os.path\n"
              "def f():\n    from scipy.optimize import minimize\n    import yaml, json\n")
    assert foreign_imports(source) == ["line 5: scipy.optimize", "line 6: yaml"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def _fit_loading(argv: list[str], package: str) -> str:
    """``donorsim.cli.main(argv)`` in a fresh process: its exit code and the
    modules of ``package`` (itself included) that it loaded."""
    script = (
        "import sys\n"
        "import donorsim.cli\n"
        f"code = donorsim.cli.main({argv!r})\n"
        f"print(code, sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True).stdout


def test_a_rescued_fit_loads_no_scipy(tmp_path):
    report = tmp_path / "fit.txt"
    argv = ["fit", str(ROOT / "tests/golden/fit_rescue_stretched.csv"), "--output", str(report)]
    assert _fit_loading(argv, "scipy") == "0 []\n"
    assert "# note: simplex-fallback" in report.read_text(encoding="utf-8")


def test_a_peak_fit_loads_no_numpy_ma(tmp_path):
    # fitkit._extrema_start takes its median without np.median
    report = tmp_path / "fit.txt"
    argv = ["fit", str(ROOT / "tests/golden/fit_rescue_peaks.csv"), "--model", "peaks",
            "--k", "2", "--peak=19.5,9.5,0.7", "--peak=19.5,8.3,0.6", "--output", str(report)]
    assert _fit_loading(argv, "numpy.ma") == "0 []\n"
    assert "width_1 = " in report.read_text(encoding="utf-8")
