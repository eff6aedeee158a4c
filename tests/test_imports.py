"""The package's lint step: imports are used, and numpy is the only third party.

Every import in the package is used in its scope: the module, or the
function whose body holds it.  Every import anywhere in the package names
the standard library, numpy or the package itself, and a fit that takes the
Nelder-Mead rescue loads no scipy, so no lazy import of it can come back
unnoticed.  A peak fit loads no ``numpy.ma``, which the first ``np.median``
call of a process imports.

Start-up is lazy: ``import donorsim`` loads no submodule, building the CLI
parser loads only the modules the parser needs, and a subcommand loads only
the modules it runs.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import donorsim
from donorsim import seqdsl, spincore

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "donorsim"
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "donorsim"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unused_in(scope: ast.AST, imports: list[ast.stmt]) -> list[str]:
    """Names that these imports bind and that ``scope`` never reads."""
    bound = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def _is_import(node: ast.AST) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom))


def unused_imports(source: str) -> list[str]:
    """Unused imports among the module's top-level statements."""
    tree = ast.parse(source)
    return _unused_in(tree, [node for node in tree.body if _is_import(node)])


def unused_local_imports(source: str) -> list[str]:
    """Imports in a function body, at any depth, that the function never uses."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, _FUNCTIONS):
            found += _unused_in(fn, [node for node in ast.walk(fn) if _is_import(node)])
    return found


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


def test_checker_flags_an_unused_import_in_a_function_body():
    source = ("import math\nmath.pi\n"
              "def f(x):\n    from . import csvio, pump\n    if x:\n        import cmath\n"
              "    return pump.MHZ_PER_INV_CM\n"
              "def g():\n    import math\n    return 1\n")
    assert unused_local_imports(source) == ["line 4: csvio", "line 6: cmath", "line 9: math"]
    assert unused_imports(source) == []


def test_checker_flags_a_foreign_import_at_any_depth():
    source = ("import numpy as np\nfrom . import csvio\nimport os.path\n"
              "def f():\n    from scipy.optimize import minimize\n    import yaml, json\n")
    assert foreign_imports(source) == ["line 5: scipy.optimize", "line 6: yaml"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports_in_function_bodies(path):
    assert unused_local_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def _fresh_process(script: str) -> str:
    """The standard output of ``script`` run in a fresh interpreter on the checkout."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True).stdout


def _loaded(package: str) -> str:
    """A statement printing the loaded modules of ``package``, itself included."""
    return f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))\n"


def _main_loading(argv: list[str], package: str) -> str:
    """``donorsim.cli.main(argv)`` in a fresh process: its exit code and the
    modules of ``package`` (itself included) that it loaded."""
    return _fresh_process(
        "import sys\n"
        "import donorsim.cli\n"
        f"print(donorsim.cli.main({argv!r}), end=' ')\n" + _loaded(package))


def test_import_donorsim_loads_no_submodule():
    assert _fresh_process("import sys\nimport donorsim\n" + _loaded("donorsim")) \
        == "['donorsim']\n"


def test_star_import_binds_every_exported_name():
    script = ("import donorsim\n"
              "names = {}\n"
              "exec('from donorsim import *', names)\n"
              "print(sorted(set(donorsim.__all__) - set(names)), len(donorsim.__all__))\n")
    assert _fresh_process(script) == f"[] {len(donorsim.__all__)}\n"


def test_exported_names_are_their_submodules_objects():
    assert donorsim.compile_sequence is seqdsl.compile
    assert donorsim.PHOSPHORUS is spincore.PHOSPHORUS
    assert set(donorsim.__all__) <= set(dir(donorsim))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        donorsim.no_such_name  # noqa: B018


@pytest.mark.parametrize("call", ["donorsim.cli.build_parser()",
                                  "donorsim.cli.main(['--help'])",
                                  "donorsim.cli.main(['hahn', '--no-such-flag'])"])
def test_the_parser_loads_only_config_and_fitkit(call):
    script = ("import contextlib, io, sys\n"
              "import donorsim.cli\n"
              f"with contextlib.redirect_stdout(io.StringIO()), "
              f"contextlib.redirect_stderr(io.StringIO()):\n    {call}\n" + _loaded("donorsim"))
    assert _fresh_process(script) == \
        "['donorsim', 'donorsim.cli', 'donorsim.config', 'donorsim.fitkit']\n"


def test_hahn_loads_no_sequence_text_or_pump_module(tmp_path):
    argv = ["hahn", "--members", "3", "--points", "3", "--output", str(tmp_path / "echo.csv")]
    code, loaded = _main_loading(argv, "donorsim").split(" ", 1)
    assert code == "0"
    assert "donorsim.pulse" in loaded
    assert "donorsim.seqdsl" not in loaded and "donorsim.pump" not in loaded


def test_a_rescued_fit_loads_no_scipy(tmp_path):
    report = tmp_path / "fit.txt"
    argv = ["fit", str(ROOT / "tests/golden/fit_rescue_stretched.csv"), "--output", str(report)]
    assert _main_loading(argv, "scipy") == "0 []\n"
    assert "# note: simplex-fallback" in report.read_text(encoding="utf-8")


def test_a_peak_fit_loads_no_numpy_ma(tmp_path):
    # fitkit._extrema_start takes its median without np.median
    report = tmp_path / "fit.txt"
    argv = ["fit", str(ROOT / "tests/golden/fit_rescue_peaks.csv"), "--model", "peaks",
            "--k", "2", "--peak=19.5,9.5,0.7", "--peak=19.5,8.3,0.6", "--output", str(report)]
    assert _main_loading(argv, "numpy.ma") == "0 []\n"
    assert "width_1 = " in report.read_text(encoding="utf-8")
