"""In-memory span recorder wrapped around biharm's public functions.

Every public function of the traced modules, three class members and
the numpy/scipy FFT entry points are replaced, in every namespace that
holds them, by a wrapper that records one span: name, start, end and
parent span.  Spans are kept in flat arrays and written out once, at
the end of the run, so tracing does no I/O while the program runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "geometry", "expressions", "problem", "minimizer",
    "mountainpass", "certifier", "continuation", "serialize",
)
# (module, class, member); the constructor counts fields, the classmethod
# times problem set-up, and __call__ counts coefficient evaluations
MEMBERS = (
    ("geometry", "SpectralField", "__init__"),
    ("problem", "ProblemData", "from_expressions"),
    ("expressions", "Expression", "__call__"),
)
FFT_NAMESPACES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft")


class Tracer:
    """Records spans of one traced run; ``run_id`` tags all of them."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []          # span name table
        self._ids: dict[str, int] = {}
        self.name = array("i")              # per span: index into names
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict = {}

    def wrap(self, func, name: str, hook=None):
        """Wrapper of ``func`` that records a span named ``name``.

        ``hook(counters, func, args, kwargs, result)`` runs after a call
        that returned, outside the span.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, func, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            run_id=np.full(len(self.name), self.run_id, dtype=np.int64),
        )


def install(tracer: Tracer, hooks: dict) -> None:
    """Wrap the traced functions wherever biharm or the FFT namespaces bind them.

    ``hooks`` maps a span name to its hook.  Modules that bind a function
    by name (``from .minimizer import first_solution``) get the wrapper
    too, so a span nests under its real caller; imports made lazily
    inside functions read the patched module attribute.
    """
    wrappers: dict[int, object] = {}
    for short in MODULES:
        mod = importlib.import_module(f"biharm.{short}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{short}.{attr}"
                wrappers[id(obj)] = tracer.wrap(obj, name, hooks.get(name))
    namespaces = [importlib.import_module(ns) for ns in FFT_NAMESPACES]
    for ns_name, ns in zip(FFT_NAMESPACES, namespaces):
        for attr in FFT_FUNCTIONS:
            obj = getattr(ns, attr)
            wrappers[id(obj)] = tracer.wrap(obj, f"{ns_name}.{attr}", hooks.get("fft"))

    holders = [
        mod for modname, mod in list(sys.modules.items())
        if modname == "biharm" or modname.startswith("biharm.")
    ] + namespaces
    for mod in holders:
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)

    for short, cls_name, member in MEMBERS:
        cls = getattr(importlib.import_module(f"biharm.{short}"), cls_name)
        raw = cls.__dict__[member]
        name = f"{short}.{cls_name}.{member}"
        if isinstance(raw, classmethod):
            setattr(cls, member, classmethod(tracer.wrap(raw.__func__, name, hooks.get(name))))
        else:
            setattr(cls, member, tracer.wrap(raw, name, hooks.get(name)))
