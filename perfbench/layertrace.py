"""Spans around calls into the package, recorded from the benchmark's side.

:class:`Tracer` replaces each public function of the package's modules,
in every module namespace that binds it (``hat_center`` is bound in both
``gradedbrauer.algebra`` and ``gradedbrauer.invariants``), plus a few
``GradedAlgebra`` methods and the private ``_calibration`` cache, with a
wrapper that records a span ``(name, start, end, parent)``.  Spans stay
in memory and are written as JSON lines when the run ends; self time is
a span's duration minus the durations of its direct children.

Scalar dunders are deliberately not wrapped: a wrapper would cost more
than the arithmetic it measures, and their cost shows up as self time of
the ``algebra`` and ``linalg`` functions that call them.  Untraced runs
never construct a :class:`Tracer`, so they patch nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("scalars", "linalg", "algebra", "clifford", "invariants", "groups",
          "spaces", "selftest", "cli")
METHODS = ("__init__", "mul", "validate", "even_part", "to_json", "from_json")
PRIVATE = {"invariants": ("_calibration",)}


def modules() -> list:
    return [importlib.import_module(f"gradedbrauer.{name}") for name in LAYERS]


def public_functions(mod) -> dict:
    """Functions defined in ``mod`` whose names are public."""
    found = {}
    for name, value in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == mod.__name__):
            found[name] = value
    for name in PRIVATE.get(mod.__name__.rsplit(".", 1)[1], ()):
        if name in vars(mod):
            found[name] = vars(mod)[name]
    return found


def bind_everywhere(original, replacement, undo: list) -> None:
    """Rebind every package-module attribute that is ``original``."""
    for mod in [sys.modules["gradedbrauer"], *modules()]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)


class Tracer:
    """Wraps the package's layers and records one span per call."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self.counters: dict = defaultdict(float)
        self._first_rank_seen: set = set()

    # ------------------------------------------------------------ recording

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(idx, args, result)
            return result
        return traced

    # -------------------------------------------------------------- patches

    def install(self) -> None:
        """Wrap every public function of every layer, and the methods."""
        hooks = {"linalg.rank_mod_prime": self._after_rank_mod_prime}
        for mod in modules():
            short = mod.__name__.rsplit(".", 1)[1]
            for fname, fn in public_functions(mod).items():
                name = f"{short}.{fname}"
                bind_everywhere(fn, self.wrap(name, fn, hooks.get(name)),
                                self._undo)
        cls = importlib.import_module("gradedbrauer.algebra").GradedAlgebra
        for meth in METHODS:
            raw = cls.__dict__[meth]
            name = f"algebra.GradedAlgebra.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _after_rank_mod_prime(self, idx, args, result) -> None:
        rows, cols = args[0].shape
        self.counters["linalg.rank_mod_prime.matrix_bytes"] += rows * cols * 8
        parent = self.spans[idx][3]
        if parent not in self._first_rank_seen:
            self._first_rank_seen.add(parent)
            if result == rows:
                self.counters["algebra.is_azumaya.first_prime_full"] += 1

    # ------------------------------------------------------------- results

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def read_spans(path):
    """Spans and counters from a file written by :meth:`Tracer.dump`."""
    spans, counters = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if isinstance(item, dict):
                counters = item["counters"]
            else:
                spans.append(item)
    return spans, counters


def self_times(spans) -> dict:
    """``{name: [calls, self seconds]}`` from one process's spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, parent) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += end - start - child[i]
    return out


def inject_fault(kind: str, undo: list) -> None:
    """Bind a deliberately wrong function everywhere the real one is bound.

    ``bw_class`` answers the class plus one; ``is_azumaya`` answers the
    opposite verdict.  Used only to show that the oracle catches wrong
    answers.
    """
    if kind == "bw_class":
        inv = importlib.import_module("gradedbrauer.invariants")
        real = inv.bw_class

        def wrong(a):
            return (real(a) + 1) % inv.group_order(a.field)
    elif kind == "is_azumaya":
        real = importlib.import_module("gradedbrauer.algebra").is_azumaya

        def wrong(a):
            return not real(a)
    else:
        raise ValueError(f"unknown fault {kind!r}")
    bind_everywhere(real, wrong, undo)
