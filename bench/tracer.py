"""Span tracer that wraps bellcheck's public functions from outside the package.

The tracer replaces every public function of the layer modules by a
wrapper that records a span (name, start, end, parent).  A function can be
bound in several namespaces -- ``from .realworld import stream_uniforms``
binds it again in ``chsh_operator``, and the package re-exports most
functions -- so every loaded ``bellcheck`` module that binds one gets the
wrapper.  Modules are looked up through ``importlib`` because
``bellcheck.chsh_operator`` as a package attribute is the function of that
name, not the module.

Spans are kept in flat in-memory arrays while the workload runs and are
turned into per-function self time (duration minus the time covered by
child spans) and call counts only at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np


def _add(counts: dict, key: str, amount: int) -> None:
    counts[key] = counts.get(key, 0) + amount


# Work counts taken at the same boundaries as the spans: hook(counts, result).
COUNTERS = {
    "realworld.stream_uniforms": lambda counts, result: _add(counts, "realworld.stream_uniforms.draws", len(result)),
    "quasiprob.find_negativity": lambda counts, result: _add(counts, "quasiprob.find_negativity.witnesses", len(result)),
    "counterfactual.fine_feasibility": lambda counts, result: _add(
        counts, "counterfactual.fine_feasibility.feasible", int(result.feasible)
    ),
    "cli.canonical_json": lambda counts, result: _add(counts, "cli.canonical_json.out_bytes", len(result.encode("utf-8"))),
}

# Functions whose tracemalloc peak inside the call is recorded, as the
# largest over all calls, in MB.  numpy reports its buffers to tracemalloc.
ALLOC_PEAK = ("realworld.run_experiments",)


class Tracer:
    """Records spans of the public functions of ``package.<layer>`` modules."""

    def __init__(self, package: str, layers: tuple[str, ...]):
        self.package = package
        self.layers = layers
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counts."""
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code that is not a wrapped function, such as one benchmark operation."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _alloc_peak(self, qualname: str, fn):
        key = f"{qualname}.alloc_peak_mb"

        def measured(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                if started:
                    tracemalloc.stop()
                self.counts[key] = max(self.counts.get(key, 0.0), peak_mb)

        return measured

    def _wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        hook = COUNTERS.get(qualname)
        inner = self._alloc_peak(qualname, fn) if qualname in ALLOC_PEAK else fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every public layer function by its wrapper."""
        wrappers = {}
        for layer in self.layers:
            module = importlib.import_module(f"{self.package}.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
                    self._patched.append((module, name, value))

    def uninstall(self) -> None:
        """Restore every binding that install() replaced."""
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s (duration minus child spans) and total_s."""
        s = self.spans()
        dur = s["end"] - s["start"]
        covered = np.zeros_like(dur)
        child = s["parent"] >= 0
        np.add.at(covered, s["parent"][child], dur[child])
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        self_s = np.bincount(s["name"], weights=dur - covered, minlength=k)
        total_s = np.bincount(s["name"], weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }
