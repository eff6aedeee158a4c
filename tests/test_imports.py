"""The package's lint steps: imports are used, numpy is the only third party,
and every definition is reachable.

Every import in the package is used in its scope: the module, or the
function whose body holds it; ``from m import x as x`` re-exports ``x`` and
counts as used.  Every import anywhere in the package names the standard
library, numpy or the package itself, and a fit that takes the Nelder-Mead
rescue loads no scipy, so no lazy import of it can come back unnoticed.
A peak fit loads no ``numpy.ma``, which the first ``np.median`` call of a
process imports.

Start-up is lazy: ``import donorsim`` loads no submodule, building the CLI
parser loads only ``config``, a run rejected before any work and ``parse``
load no numpy, and a subcommand loads only the modules it runs.

Reachability: every module-level function and class of the package, and
every method of those classes, is reached from a root by a chain of
references.  The roots are the real entry points: ``cli.main``, the
package names that the benchmark's ``perfbench/workloads.py`` reads (found
from its AST), the public methods of the classes among them, and the
module-level code of every module; an export alone keeps nothing alive.
Reached code references a function or class through a ``Name`` or an
attribute of that name, and a method of a reached class only through an
attribute; ``self.<name>`` in a method references the ``<name>`` of that
method's class only.  An ``import ... as`` alias references the name it
renames.  Dunders of a class or module count as reached with it.  The check
reads the AST, so a reference in a branch that never runs still counts, and
code that only tests call does not.  ``UNREACHED_ALLOWED`` names the
unreached code that an open ROADMAP item will call or delete, with that
item; an entry that is reached or no longer defined fails, so the list
cannot go stale.

Values: every parameter with a default, on a reached function or dataclass
constructor, is passed by at least one reached call (by keyword, by
position, or through ``*`` or ``**``), and every field of a reached
dataclass is read by reached code other than its own class's
``__post_init__``.  Calls and reads match by name, as references do, and
the benchmark's workload code counts as reached.  A field that
``config.build`` fills from a run's settings (``BUILT``) counts as passed,
since that call names no class.  Dunder methods are not checked, since the
runtime calls them.  ``VALUES_ALLOWED`` names the values that an open
ROADMAP item will set, read or delete, and it cannot go stale either.

Names: every name that a module's top level assigns is read by reached
code or by the benchmark's workload code, matched by name; dunders are
exempt.  ``NAMES_ALLOWED`` names the ones an open ROADMAP item will read or
delete, and it cannot go stale either.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import donorsim
from donorsim import cli, config, seqdsl, spincore

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "donorsim"
MODULES = sorted(PACKAGE.glob("*.py"))
WORKLOADS = ROOT / "perfbench" / "workloads.py"
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "donorsim"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)

#: Qualified name -> the open ROADMAP item that will call or delete it.
UNREACHED_ALLOWED = {
    # the one public way to run a user program until ``donorsim run`` lands
    "noise.MemberEnvironment": "ROADMAP items 2 and 14",
    "pulse.run_sequence": "ROADMAP items 2 and 14",
    # the pump populations and closed forms, which the optical readout chain will call
    "pump.PopulationState": "ROADMAP item 12",
    "pump.PopulationState.__post_init__": "ROADMAP item 12",
    "pump.PopulationState.as_array": "ROADMAP item 12",
    "pump.rate_matrix": "ROADMAP item 12",
    "pump.steady_state": "ROADMAP item 12",
    "pump.transient_area": "ROADMAP item 12",
}

#: ``module.function(parameter)`` or ``module.Class.field`` -> the open
#: ROADMAP item that will set, read or delete that value.
VALUES_ALLOWED = {
    # the pump rates of a readout; optical_spectrum passes its rates apart
    "config.PumpConfig.pump_rate_s": "ROADMAP item 12",
    "config.PumpConfig.pump_rate_t": "ROADMAP item 12",
    # the health line of the stats report
    "fitkit.FitResult.rss_trace": "ROADMAP item 4",
    # documented library results, read by library callers; the CLI writes
    # its own sweep axis and the benchmark reads one element
    "csvio.Series.x": "ROADMAP item 14",
    "spincore.TransitionLine.frequency_mhz": "ROADMAP item 14",
    "spincore.TransitionLine.element_perpendicular_mhz_per_mt": "ROADMAP item 14",
}

#: ``module.Class.field`` of each field that ``config.build`` passes through
#: ``**``: every row of the settings table, and a field that holds a settings type.
BUILT = frozenset(
    f"config.{cls.__name__}.{f.name}"
    for cls in (config.EnsembleSpec, config.NoiseModel, config.PumpConfig, config.SpinSystem)
    for f in dataclasses.fields(cls)
    if f.name in config.SETTINGS or dataclasses.is_dataclass(f.default))

#: ``module.NAME`` of a module-level name -> the open ROADMAP item that will read
#: or delete it.
NAMES_ALLOWED: dict[str, str] = {}


def _unused_in(scope: ast.AST, imports: list[ast.stmt]) -> list[str]:
    """Names that these imports bind and that ``scope`` never reads."""
    bound = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif node.module != "__future__":
            for alias in node.names:
                if alias.asname != alias.name:  # ``x as x`` re-exports x
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _runs_when_reached(node: ast.AST) -> list[ast.AST]:
    """The code a definition brings along: a function's whole node, or a
    class's decorators, bases and body without its methods."""
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords,
                *(item for item in node.body if not isinstance(item, _FUNCTIONS))]
    return [node]


#: A piece of reached code: its node, the class whose method it is (else
#: None) and the qualified name of the function it is (else None).
_Code = tuple[ast.AST, "str | None", "str | None"]


def _reference(node: ast.Attribute, owner: str | None) -> tuple[str, ...]:
    """What an attribute names: ``self.<name>`` in a method of ``owner`` is
    ``(owner, name)``, any other ``<x>.<name>`` is ``(name,)``."""
    if owner is not None and isinstance(node.value, ast.Name) and node.value.id == "self":
        return owner, node.attr
    return (node.attr,)


def _reach(sources: dict[str, str], roots: set[str]):
    """The reachability walk of the module docstring over ``sources``.

    Returns ``(defs, reached, code)``: qualified name -> (node, its class)
    for every definition, the reached qualified names, and the reached code
    as ``_Code`` pieces.
    """
    defs: dict[str, tuple[ast.AST, str | None]] = {}  # qualname -> (node, its class)
    pending: list[_Code] = []  # reached code whose references are not read yet
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, _DEFINITIONS):
                pending.append((node, None, None))
                continue
            qualname = f"{module}.{node.name}"
            defs[qualname] = (node, None)
            if isinstance(node, ast.ClassDef):
                defs.update((f"{qualname}.{item.name}", (item, qualname))
                            for item in node.body if isinstance(item, _FUNCTIONS))

    def is_root(qualname: str, name: str, owner: str | None) -> bool:
        if owner is None:
            return qualname in roots or _is_dunder(name)
        return owner in roots and not name.startswith("_")

    names: set[str] = set()
    attributes: set[tuple[str, ...]] = set()
    reached: set[str] = set()
    code: list[_Code] = []
    while True:  # roots are reached even where no module-level code is pending
        for top, owner, _ in pending:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(_reference(node, owner))
                elif isinstance(node, ast.alias) and node.asname:
                    names.add(node.name)
        code += pending
        pending = []
        for qualname, (node, owner) in defs.items():
            if qualname not in reached and (
                    is_root(qualname, node.name, owner)
                    or (owner is None and (node.name in names or (node.name,) in attributes))
                    or (owner in reached and (_is_dunder(node.name)
                                              or (node.name,) in attributes
                                              or (owner, node.name) in attributes))):
                reached.add(qualname)
                function = qualname if isinstance(node, _FUNCTIONS) else None
                pending += [(part, owner, function) for part in _runs_when_reached(node)]
        if not pending:
            return defs, reached, code


def unreached(sources: dict[str, str], roots: set[str]) -> dict[str, int]:
    """The definitions of ``sources`` (module name -> source) that no root
    reaches, as qualified name -> line, by the rule in the module docstring.

    ``roots`` are qualified names such as ``"cli.main"``; a root class's
    public methods are roots too, and module-level code always is.
    """
    defs, reached, _ = _reach(sources, roots)
    return {qualname: node.lineno for qualname, (node, _) in defs.items()
            if qualname not in reached}


def _is_dataclass(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(d).partition("(")[0] == "dataclass" for d in node.decorator_list)


def _fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """A dataclass's fields, in constructor order."""
    return [item for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def _parameters(node: ast.AST, owner: str | None) -> list[tuple[str, int | None, bool, int]]:
    """A callable's parameters as (name, position in a call or None when
    keyword-only, whether it has a default, line).  A method's first
    parameter is bound by the attribute it is called through, so it is not
    listed; a dataclass's parameters are its fields."""
    if isinstance(node, ast.ClassDef):
        return [(item.target.id, i, item.value is not None, item.lineno)
                for i, item in enumerate(_fields(node))]
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    defaulted = len(positional) - len(args.defaults)
    listed = [(a.arg, i, i >= defaulted, a.lineno) for i, a in enumerate(positional)]
    if owner is not None:
        listed = [(name, i - 1, default, line) for name, i, default, line in listed[1:]]
    return listed + [(a.arg, None, d is not None, a.lineno)
                     for a, d in zip(args.kwonlyargs, args.kw_defaults)]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name`` at ``position``:
    by keyword, by position, or through ``*`` or ``**``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and any(isinstance(arg, ast.Starred) or i == position
                                        for i, arg in enumerate(call.args))


def _reached_code(sources: dict[str, str], roots: set[str], extra: dict[str, str] | None):
    """``_reach`` on ``sources``, with the whole code of ``extra`` (name ->
    source) reached as well."""
    defs, reached, code = _reach(sources, roots)
    return defs, reached, code + [(ast.parse(text), None, None) for text in (extra or {}).values()]


def unused_values(sources: dict[str, str], roots: set[str],
                  extra: dict[str, str] | None = None,
                  passed: frozenset[str] = frozenset()) -> dict[str, int]:
    """The values of reached definitions that no reached code sets or reads,
    as name -> line, by the value rule of the module docstring.

    ``sources`` and ``roots`` are those of ``unreached``.  The code of
    ``extra`` (name -> source) is reached as a whole: its calls and reads
    count.  A parameter is named ``module.function(parameter)`` and a
    dataclass field ``module.Class.field``; the fields named in ``passed``
    count as passed.
    """
    defs, reached, code = _reached_code(sources, roots, extra)
    calls: dict[tuple[str, ...], list[ast.Call]] = {}  # callee -> reached calls of it
    reads: dict[tuple[str, ...], set[str | None]] = {}  # attribute -> functions reading it
    for top, owner, function in code:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                callee = (_reference(func, owner) if isinstance(func, ast.Attribute)
                          else (func.id,) if isinstance(func, ast.Name) else None)
                calls.setdefault(callee, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(_reference(node, owner), set()).add(function)

    found = {}
    for qualname in sorted(reached):
        node, owner = defs[qualname]
        if isinstance(node, ast.ClassDef):
            if not _is_dataclass(node):
                continue
            callers = calls.get((node.name,), [])
            for item in _fields(node):
                field = item.target.id
                readers = reads.get((field,), set()) | reads.get((qualname, field), set())
                if not readers - {f"{qualname}.__post_init__"}:
                    found[f"{qualname}.{field}"] = item.lineno
        elif _is_dunder(node.name):  # the runtime calls these, not the package's code
            continue
        else:
            callers = calls.get((node.name,), []) + calls.get((owner, node.name), [])
        for name, position, default, line in _parameters(node, owner):
            if default and f"{qualname}.{name}" not in passed and not any(
                    _passes(call, name, position) for call in callers):
                found.setdefault(f"{qualname}.{name}" if isinstance(node, ast.ClassDef)
                                 else f"{qualname}({name})", line)
    return found


def unread_names(sources: dict[str, str], roots: set[str],
                 extra: dict[str, str] | None = None) -> dict[str, int]:
    """The names that a module's top level assigns and no reached code reads,
    as ``module.NAME`` -> line, by the name rule of the module docstring.

    ``sources``, ``roots`` and ``extra`` are those of ``unused_values``.
    """
    _, _, code = _reached_code(sources, roots, extra)
    read = set()
    for top, _, _ in code:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    found = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found.update((f"{module}.{target.id}", node.lineno) for target in targets
                         if isinstance(target, ast.Name) and not _is_dunder(target.id)
                         and target.id not in read)
    return found


def workload_roots(source: str) -> set[str]:
    """The package names a benchmark script reads, as ``module.name``: the
    attributes of the modules it imports ``from donorsim`` and the names it
    imports from a ``donorsim.<module>``."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> package module
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "donorsim":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("donorsim."):
            roots.update(f"{node.module.removeprefix('donorsim.')}.{alias.name}"
                         for alias in node.names)
    return roots | {f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules}


def value_failures(found: dict[str, int], allowed: dict[str, str]) -> list[str]:
    """The value rule's failures: each found value that ``allowed`` does not
    name, and each entry of ``allowed`` that is no longer found."""
    return ([f"line {line}: {name} is never passed or never read by reached code"
             for name, line in found.items() if name not in allowed]
            + [f"{name} is set and read, or gone; delete its VALUES_ALLOWED entry"
               for name in allowed if name not in found])


def _package() -> tuple[dict[str, str], set[str], str]:
    """The package's sources, its roots (``cli.main`` and the names the
    benchmark's workloads read) and the workloads' source."""
    workloads = WORKLOADS.read_text(encoding="utf-8")
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    return sources, {"cli.main"} | workload_roots(workloads), workloads


def _package_unreached() -> dict[str, int]:
    """``unreached`` on the package."""
    sources, roots, _ = _package()
    return unreached(sources, roots)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport cmath\nimport math\nmath.pi\n"
              "from os import sep as sep\nfrom os import linesep as newline\n")
    assert unused_imports(source) == ["line 2: cmath", "line 6: newline"]


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


def test_checker_follows_names_attributes_and_dunders():
    sources = {
        "a": ("from b import helper as renamed\n"
              "def api():\n    return Box().size, renamed()\n"
              "class Box:\n    def __init__(self):\n        self.n = _count()\n"
              "    @property\n    def size(self):\n        return self.n\n"
              "    def unused(self):\n        return _orphan()\n"
              "def _count():\n    return 1\n"
              "def _orphan():\n    return 2\n"),
        "b": ("def helper():\n    return 3\n"
              "class Public:\n    def shown(self):\n        return 4\n"
              "    def _hidden(self):\n        return 5\n"
              "def size():\n    return 6\n"
              "def __getattr__(name):\n    return name\n"),
    }
    assert unreached(sources, {"a.api", "b.Public"}) == {
        "a.Box.unused": 10, "a._orphan": 14, "b.Public._hidden": 6}


def test_checker_reads_self_attributes_on_their_own_class():
    # B.close is read only as self.close inside A, which names A.close
    source = ("def api():\n    return A().run(), B()\n"
              "class A:\n    def run(self):\n        return self.close()\n"
              "    def close(self):\n        return 1\n"
              "class B:\n    def close(self):\n        return 2\n")
    assert unreached({"a": source}, {"a.api"}) == {"a.B.close": 9}


def test_value_checker_flags_unpassed_parameters_and_unread_fields():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\n"
              "class Box:\n"
              "    width: int\n"
              "    size: int = 1\n"
              "    color: str = 'red'\n"
              "    tag: str = field(default='')\n"
              "    def __post_init__(self):\n"
              "        if self.color not in ('red', 'blue'):\n"
              "            raise ValueError(self.tag)\n"
              "    def grow(self, by=1, *, twice=False):\n"
              "        return self.size + by\n"
              "def scale(x, factor=2.0):\n    return x * factor\n"
              "def shift(x, dx=0.0, dy=0.0):\n    return x + dx + dy\n"
              "def pad(x=0, *, margin=1):\n    return x + margin\n"
              "def api(args, kwargs):\n"
              "    box = Box(1, 2, tag='t')\n"
              "    return box.width, box.grow(3), scale(1.0), shift(*args), pad(**kwargs)\n")
    found = unused_values({"a": source}, {"a.api"})
    assert found == {"a.Box.color": 6, "a.Box.tag": 7, "a.Box.grow(twice)": 11,
                     "a.scale(factor)": 13}
    # a caller in the extra code passes factor
    assert "a.scale(factor)" not in unused_values({"a": source}, {"a.api"},
                                                  {"bench": "a.scale(1.0, 3.0)\n"})
    allowed = {"a.Box.color": "item 1", "a.Box.tag": "item 1", "a.shift(dx)": "item 2"}
    assert value_failures(found, allowed) == [
        "line 11: a.Box.grow(twice) is never passed or never read by reached code",
        "line 13: a.scale(factor) is never passed or never read by reached code",
        "a.shift(dx) is set and read, or gone; delete its VALUES_ALLOWED entry",
    ]


def test_workload_roots_read_module_attributes_and_from_imports():
    source = ("from donorsim import cli, pulse as p\nfrom donorsim.spincore import PHOSPHORUS\n"
              "import math\n"
              "def op():\n    return cli.main([]), p.simulate_4level, math.pi, p.x.y\n")
    assert workload_roots(source) == {"cli.main", "pulse.simulate_4level", "pulse.x",
                                      "spincore.PHOSPHORUS"}


def test_every_definition_is_reached_or_waits_on_an_open_item():
    found = [f"src/donorsim/{qualname.split('.')[0]}.py:{line}: {qualname}"
             for qualname, line in _package_unreached().items()
             if qualname not in UNREACHED_ALLOWED]
    assert not found, "reached from no root:\n" + "\n".join(found)


@pytest.mark.parametrize("qualname", sorted(UNREACHED_ALLOWED))
def test_every_allowed_definition_is_still_defined_and_unreached(qualname):
    assert qualname in _package_unreached(), \
        f"{qualname} is reached or gone; delete its UNREACHED_ALLOWED entry"


def test_every_value_is_passed_and_read_or_waits_on_an_open_item():
    sources, roots, workloads = _package()
    failures = value_failures(unused_values(sources, roots, {"workloads": workloads}, BUILT),
                              VALUES_ALLOWED)
    assert not failures, "values of reached code:\n" + "\n".join(failures)


def test_name_checker_flags_module_level_names_no_reached_code_reads():
    source = ("import math\n__version__ = '1'\nSCALE = 2.0\nLIMIT: float = 3.0\n"
              "UNUSED = 4\nOTHER = SCALE * 2\nORPHAN = 5\nBENCH = 6\n"
              "def api():\n    return LIMIT, math.pi\n"
              "def _unreached():\n    return ORPHAN\n")
    assert unread_names({"a": source}, {"a.api"}, {"bench": "import a\na.BENCH\n"}) == {
        "a.UNUSED": 5, "a.OTHER": 6, "a.ORPHAN": 7}


def test_every_module_level_name_is_read_or_waits_on_an_open_item():
    sources, roots, workloads = _package()
    found = unread_names(sources, roots, {"workloads": workloads})
    failures = ([f"src/donorsim/{name.split('.')[0]}.py:{line}: {name} is read by no reached "
                 "code" for name, line in found.items() if name not in NAMES_ALLOWED]
                + [f"{name} is read, or gone; delete its NAMES_ALLOWED entry"
                   for name in NAMES_ALLOWED if name not in found])
    assert not failures, "module-level names:\n" + "\n".join(failures)


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
    modules of ``package`` (itself included) that it loaded.  What the run
    writes to stdout is dropped."""
    return _fresh_process(
        "import contextlib, io, sys\n"
        "import donorsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = donorsim.cli.main({argv!r})\n"
        "print(code, end=' ')\n" + _loaded(package))


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
def test_the_parser_loads_only_config(call):
    script = ("import contextlib, io, sys\n"
              "import donorsim.cli\n"
              f"with contextlib.redirect_stdout(io.StringIO()), "
              f"contextlib.redirect_stderr(io.StringIO()):\n    {call}\n" + _loaded("donorsim"))
    assert _fresh_process(script) == "['donorsim', 'donorsim.cli', 'donorsim.config']\n"


#: Runs that ``main`` rejects before any work, by the exit code they give;
#: ``BAD_CONFIG`` and ``CONFIG`` stand for a config file with an unknown key and
#: a valid one.
REJECTED_RUNS = {
    "help": (["--help"], 0),
    "unknown flag": (["hahn", "--no-such-flag"], 1),
    "unknown config key": (["hahn", "--config", "BAD_CONFIG"], 1),
    "one point": (["hahn", "--points", "1"], 1),
    "valid config, one point": (["hahn", "--config", "CONFIG", "--points", "1"], 1),
}


@pytest.mark.parametrize("run", sorted(REJECTED_RUNS))
def test_a_run_rejected_before_any_work_loads_no_numpy(tmp_path, run):
    files = {"BAD_CONFIG": "no_such_key = 1\n", "CONFIG": "seed = 3\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv, code = REJECTED_RUNS[run]
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    assert _main_loading(argv, "numpy") == f"{code} []\n"


@pytest.mark.parametrize("text, code", [(seqdsl.HAHN_TEXT, 0), ("seq s {", 1)])
def test_parse_loads_no_numpy(tmp_path, text, code):
    sequence = tmp_path / "s.seq"
    sequence.write_text(text, encoding="utf-8")
    assert _main_loading(["parse", str(sequence)], "numpy") == f"{code} []\n"


def test_help_loads_no_ctypes():
    # the heap-top pad is set only for a run that computes
    assert _main_loading(["--help"], "ctypes") == "0 []\n"


#: Subcommand -> the flags of a small run of it, and the package modules
#: besides ``cli`` and ``config`` that the run loads; ``pulse`` loads
#: ``fitkit`` for its stretched-exponential envelope, and ``ramsey`` and ``hahn``
#: load ``seqdsl`` to compile their sequence texts.
#: ``SEQUENCE`` stands for a file holding ``seqdsl.HAHN_TEXT``.
_ENSEMBLE_RUN = ["--members", "3", "--points", "3"]
_ENSEMBLE_MODULES = ["csvio", "fitkit", "noise", "program", "pulse", "spincore"]
SUBCOMMAND_RUNS = {
    "levels": (["--points", "3"], ["csvio", "spincore"]),
    "rf-spectrum": (_ENSEMBLE_RUN, _ENSEMBLE_MODULES),
    "optical-spectrum": (["--points", "3"], ["csvio", "pump"]),
    "rabi": (_ENSEMBLE_RUN, _ENSEMBLE_MODULES),
    "ramsey": (_ENSEMBLE_RUN, [*_ENSEMBLE_MODULES, "seqdsl"]),
    "hahn": (_ENSEMBLE_RUN, [*_ENSEMBLE_MODULES, "seqdsl"]),
    "fit": ([str(ROOT / "tests/golden/hahn_mean_t0_parallel.csv")], ["csvio", "fitkit"]),
    "parse": (["SEQUENCE"], ["program", "seqdsl"]),
    "estimate-field": (["--splitting-khz", "111.819"], ["spincore"]),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, command):
    sequence = tmp_path / "hahn.seq"
    sequence.write_text(seqdsl.HAHN_TEXT, encoding="utf-8")
    flags, modules = SUBCOMMAND_RUNS[command]
    argv = [command, *(str(sequence) if flag == "SEQUENCE" else flag for flag in flags)]
    want = sorted(["donorsim", *(f"donorsim.{m}" for m in ["cli", "config", *modules])])
    assert _main_loading(argv, "donorsim") == f"0 {want}\n"


def test_every_subcommand_has_a_pinned_run():
    assert set(SUBCOMMAND_RUNS) == set(cli._COMMANDS)


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
