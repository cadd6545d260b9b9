"""In-memory span tracer that wraps a package's functions from outside.

A function is wrapped wherever a module of the package holds a reference
to it. `from .optimize import nelder_mead` copies the function object into
the importing module's namespace, so patching the defining module alone
would miss every call made through the copy. Each wrapped call records a
span (name, start, end, parent, id) in memory when it ends; the caller
folds the spans of one operation into per-name totals with `fold()` and
clears them, so memory stays bounded by one operation's spans. Spans are
tuples of atoms, which the garbage collector stops tracking, so an
operation with 10^5 spans does not slow collections.

A name that does not exist (a later refactor deleted it) is reported in
`missing` and simply gets no calls; `totals()` then yields zeros for it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Totals:
    """Aggregate of every span with one name."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Records spans for wrapped functions of one package.

    A wrapper may have a `before(tracer, args, kwargs)` hook returning new
    (args, kwargs) and an `after(tracer, result)` hook; they let the
    benchmark wrap a callback argument or count outcomes.
    """

    def __init__(self, package: str):
        self.package = package
        self.spans: list[tuple] = []  # (name, start, end, parent id or -1, id), in end order
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[tuple] = []  # open spans: (id, name, start, parent id)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._totals: dict[str, Totals] = {}
        self._recording = True

    # ---------- spans ----------

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((self._next_id, name, time.perf_counter(), parent))
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, parent = self._stack.pop()
        self.spans.append((name, start, end, parent, span_id))

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped so that each call records a span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(self, result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span called name (for the benchmark's own root spans)."""
        self._open(name)
        try:
            return fn(*args)
        finally:
            self._close()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside pass through unrecorded (the benchmark's checks)."""
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    # ---------- patching ----------

    def _package_modules(self):
        prefix = self.package + "."
        return [m for n, m in list(sys.modules.items()) if m is not None and (n == self.package or n.startswith(prefix))]

    def install(self, targets: dict[str, tuple]) -> None:
        """Wrap each `module.attr` in targets (relative to the package).

        targets maps "optimize.nelder_mead" to (before, after) hooks. Every
        attribute of every loaded package module that is the same function
        object is rebound to the wrapper.
        """
        modules = self._package_modules()
        for name, (before, after) in targets.items():
            mod_name, attr = name.rsplit(".", 1)
            home = sys.modules.get(f"{self.package}.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        """Restore every rebound attribute."""
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    # ---------- aggregation ----------

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and clear them.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap in a single thread, and
        they end before it, so one pass in end order sees them first.
        """
        if self._stack:
            raise RuntimeError("fold() called with open spans")
        covered: dict[int, float] = {}
        for name, start, end, parent, span_id in self.spans:
            duration = end - start
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + duration
            t = self._totals.get(name)
            if t is None:
                t = self._totals[name] = Totals()
            t.calls += 1
            t.total_s += duration
            t.self_s += duration - covered.pop(span_id, 0.0)
        self.spans.clear()

    def totals(self, name: str) -> Totals:
        """Totals for name; zeros when it was never called or is missing."""
        return self._totals.get(name, Totals())

    def all_totals(self) -> dict[str, Totals]:
        return dict(self._totals)
