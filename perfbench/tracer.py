"""Span tracer for the traced benchmark run.

Each listed public netbell function is wrapped, and every netbell module
attribute that refers to it is rebound to the wrapper, including names a
module took with ``from .x import y``. A wrapped call records one span
(name, start, end, parent span, job id). Spans stay in memory and are
written when the run ends. Leaving the ``active`` block restores the
original functions, so untraced passes in the same process pay nothing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from contextlib import contextmanager

# Layer (module) -> wrapped public functions.
LAYERS = {
    "optimize": ("seesaw_optimize", "vector_model_optimize", "optimal_assignment"),
    "functionals": ("build_functional", "eval_functional", "combine"),
    "qcore": ("tensor_product", "expectation"),
    "certify": (
        "sos_certificate",
        "correspondence_scan",
        "horodecki_chsh_max",
        "bilocal_max_pair",
        "correlation_matrix",
    ),
    "classical": (
        "enumerate_deterministic_max",
        "sample_nlocal_value",
        "random_model",
        "eval_model",
    ),
    "states": ("network_product_state", "random_two_qubit_density"),
    "serialize": ("dumps", "state_to_json", "assignment_to_json", "settings_from_json"),
    "cli": ("main",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class MissingLayer(RuntimeError):
    """A listed function no longer exists."""


def _netbell_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "netbell" or name.startswith("netbell."))
    ]


class Tracer:
    def __init__(self) -> None:
        # Span: [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        self.job = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> dict[str, list[str]]:
        """Rebind every listed function in every netbell module that holds
        it. Returns the rebound attributes per function."""
        for mod in LAYERS:
            importlib.import_module(f"netbell.{mod}")
        modules = _netbell_modules()
        bound: dict[str, list[str]] = {}
        for qualified in TRACED:
            mod_name, fn_name = qualified.split(".")
            owner = sys.modules[f"netbell.{mod_name}"]
            original = getattr(owner, fn_name, None)
            if not callable(original):
                self.uninstall()
                raise MissingLayer(f"netbell.{qualified} does not exist")
            wrapper = self._wrap(qualified, original)
            bound[qualified] = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
                        bound[qualified].append(f"{module.__name__}.{attr}")
        return bound

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def active(self):
        bound = self.install()
        try:
            yield bound
        finally:
            self.uninstall()

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, dict]:
        """Per function: calls, busy time (time inside the function, nested
        calls of the same function counted once) and self time (duration
        minus the time covered by child spans), over spans[first:last]."""
        spans = self.spans
        last = len(spans) if last is None else last
        child_time = [0.0] * (last - first)
        for span in spans[first:last]:
            parent = span[3]
            if parent >= first:
                child_time[parent - first] += span[2] - span[1]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in TRACED}
        for i, span in enumerate(spans[first:last]):
            name, start, end = span[0], span[1], span[2]
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            parent = span[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry["busy_s"] += end - start
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(f"{i},{name},{start!r},{end!r},{parent},{job}\n")
