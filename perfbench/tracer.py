"""Outside-in tracer for the ``donorsim`` modules.

The tracer wraps every public function of each module, and every public
plain method of the classes a module defines, without touching the package
source.  A wrapper is patched into every namespace that holds the original
object, because callers look functions up where they imported them: the
echo loop reaches ``ou_step`` as ``donorsim.pulse.ou_step`` and ``bind`` as
``PulseProgram.bind``.

Per traced name it records calls, inclusive seconds and self seconds.  Self
time is inclusive time minus the inclusive time of traced callees.  Optional
hooks record the distinct argument keys a function saw (its
``distinct_ratio``) or inspect each result (fit iterations, CSV bytes).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

KeyFn = Callable[[tuple, dict], object]
Observer = Callable[[tuple, dict, object], None]


class Tracer:
    """Wraps callables of the given modules; ``restore`` undoes the patching."""

    def __init__(self, keys: dict[str, KeyFn] | None = None,
                 observers: dict[str, Observer] | None = None) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.distinct: dict[str, set] = {}
        self._keys = keys or {}
        self._observers = observers or {}
        self._stack = [0.0]  # inclusive time of traced callees, per open frame
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        key_fn = self._keys.get(name)
        observer = self._observers.get(name)
        seen = self.distinct.setdefault(name, set()) if key_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                callees = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - callees
            if seen is not None:
                seen.add(key_fn(args, kwargs))
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def install(self, module_names: list[str]) -> None:
        """Wrap the public callables of each module, patching every importer."""
        modules = [sys.modules[m] for m in module_names]
        originals: dict[int, Callable] = {}  # id(original) -> wrapper
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    originals[id(value)] = self._wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth_name, meth in list(vars(value).items()):
                        if meth_name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        name = f"{short}.{meth_name}"
                        if name in self.stats:
                            name = f"{short}.{value.__name__}.{meth_name}"
                        self._patch(value, meth_name, self._wrap(name, meth))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "donorsim" or n.startswith("donorsim.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(namespace, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
