"""In-memory span tracer that wraps library functions from outside.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent) and the request it belongs to
(the outermost span of the benchmark operation that caused it).  Spans
are kept in a list while the run lasts and written out once at the end.

Wrapping replaces a module attribute with a timing wrapper.  A function
is often bound under several names — ``from .conditions import check_all``
binds it again in ``purify`` — and a call through an unpatched binding
would never be counted, so every loaded module of the package is scanned
and each binding of the same function object is replaced.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str, names) -> None:
        """``names`` are "module.function" paths relative to ``package``."""
        self.package = package
        self.names = tuple(names)
        self.spans: list[list] = []   # [name, parent, request, start, end]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._roots: dict[str, object] = {}
        self._excluded: dict[int, float] = {}

    # -- installation --

    def _namespaces(self):
        prefix = self.package + "."
        return [mod for key, mod in sorted(sys.modules.items())
                if mod is not None and (key == self.package or key.startswith(prefix))]

    def install(self) -> None:
        """Wrap every binding of every named function that still exists.

        A name whose module or function is gone is recorded in ``absent``
        and its counts read zero; it is not an error.
        """
        found = []
        for name in self.names:
            module_name, _, func_name = name.rpartition(".")
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, func_name, None)
            if callable(fn):
                found.append((name, fn))
            else:
                self.absent.append(name)
        # scan only after every module above is imported, so none is missed
        namespaces = self._namespaces()
        for name, fn in found:
            wrapper = self._wrap(name, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patches.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            request = spans[parent][2] if parent >= 0 else len(spans)
            rec = [name, parent, request, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return wrapper

    def run(self, name: str, op):
        """Call ``op()`` inside a root span ``name``: one benchmark operation."""
        if name not in self._roots:
            self._roots[name] = self._wrap(name, _call)
        return self._roots[name](op)

    def exclude(self, seconds: float) -> None:
        """Take time the benchmark spent on itself out of the innermost open span."""
        if self._stack:
            i = self._stack[-1]
            self._excluded[i] = self._excluded.get(i, 0.0) + seconds

    # -- analysis --

    def layer_totals(self):
        """Per span name: call count and self time.

        Self time is the span's duration minus the durations of its
        direct children and minus any time given to ``exclude`` while it
        was the innermost span; calls are nested and single-threaded, so
        children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, _, _, start, end) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["self_s"] += end - start - child[i] - self._excluded.get(i, 0.0)
        return totals

    def calls_by_request(self):
        """Per request-span name: call counts of every span name beneath it."""
        out = defaultdict(lambda: defaultdict(int))
        for name, _, request, _, _ in self.spans:
            out[self.spans[request][0]][name] += 1
        return {req: dict(counts) for req, counts in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, request, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")


def _call(op):
    return op()
