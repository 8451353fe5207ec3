"""In-memory span recorder for the traced benchmark run.

Spans are installed from the outside: a traced function is replaced, in every
``arnoldstab`` module that binds it, by a wrapper that records a span around
the call.  No source file of the package is touched, and a target that a
later refactor renamed or removed is recorded as missing instead of failing.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Span and counter store; ``enabled`` gates recording by installed wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self.enabled = False
        self._open = []
        self._undo = []

    # -- recording -------------------------------------------------------------

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = self.clock()

    def unwind(self):
        """Close spans left open by a call that raised."""
        while self._open:
            self.end()

    def count(self, key, n=1):
        if self.enabled:
            self.counts[key] += n

    # -- installation ----------------------------------------------------------

    def _wrap(self, fn, name, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            return on_result(out) if on_result is not None else out

        return traced

    def wrap_function(self, owner, attr, name, on_result=None, package="arnoldstab"):
        """Trace ``owner.attr`` at every module of ``package`` that binds it."""
        target = getattr(owner, attr, None)
        if not callable(target):
            self.missing.append(name)
            return
        wrapper = self._wrap(target, name, on_result)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is target:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, val))

    def wrap_method(self, cls, attr, name, on_result=None):
        """Trace a method where it is looked up: on the class."""
        target = cls.__dict__.get(attr) if cls is not None else None
        if not callable(target):
            self.missing.append(name)
            return
        setattr(cls, attr, self._wrap(target, name, on_result))
        self._undo.append((cls, attr, target))

    def restore(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # -- statistics ------------------------------------------------------------

    def durations(self, first=0, last=None):
        """name -> (inclusive durations, self durations), one entry per call,
        for the spans with index in [first, last)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = defaultdict(lambda: ([], []))
        for i, (name, start, end, _) in enumerate(self.spans[first:last], first):
            if end is None:
                continue
            incl, excl = out[name]
            incl.append(end - start)
            excl.append(end - start - child[i])
        return out

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "missing": self.missing,
                    **extra,
                },
                fh,
            )


class CountingLU:
    """Factorization proxy that counts triangular solves on a tracer."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        self._tracer.count("solves")
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)
