"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the benchmark's own calls and around public
functions of the package that the benchmark wraps from the outside, by
rebinding module attributes for the life of the run. Nothing inside the
package is edited. Each span keeps its name, start, end, parent and the
phase it ran in ("setup", "timed" or "post"); self time is a span's
duration minus the time its child spans cover. Counts and floating-point
operation tallies are kept per phase alongside the spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class NullTracer:
    """Stand-in for untraced runs: every hook does nothing."""

    enabled = False
    phase = "setup"

    def span(self, name):
        return contextlib.nullcontext()

    def wrap(self, name, fn):
        return fn

    def count(self, name, n=1):
        pass

    def restore(self):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase]
        self.phase = "setup"
        self._stack: list[int] = []
        self._counts = defaultdict(float)
        self._flops = defaultdict(float)
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n=1) -> None:
        self._counts[(self.phase, name)] += n

    def flops(self, name: str, n: float) -> None:
        self._flops[(self.phase, name)] += n

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Rebind owner.attr for the life of the run, if it exists."""
        if not hasattr(owner, attr):
            return
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_call(self, owner, attr: str, name: str) -> None:
        if hasattr(owner, attr):
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summary

    def totals(self, phase: str) -> dict[str, float]:
        """Inclusive seconds per span name within one phase."""
        out = defaultdict(float)
        for name, start, end, _, ph in self.spans:
            if ph == phase and end is not None:
                out[name] += end - start
        return dict(out)

    def self_totals(self, phase: str) -> dict[str, float]:
        """Seconds per span name not covered by its child spans."""
        child = defaultdict(float)
        for name, start, end, parent, ph in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, ph) in enumerate(self.spans):
            if ph == phase and end is not None:
                out[name] += end - start - child[i]
        return dict(out)

    def counts(self, phase: str) -> dict[str, float]:
        return {k: v for (ph, k), v in self._counts.items() if ph == phase}

    def flop_totals(self, phase: str) -> dict[str, float]:
        return {k: v for (ph, k), v in self._flops.items() if ph == phase}

    def dump(self, path: str, extra: dict) -> None:
        phases = sorted({s[4] for s in self.spans})
        doc = {
            **extra,
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "phase": ph}
                      for n, s, e, p, ph in self.spans],
            "inclusive_s": {ph: self.totals(ph) for ph in phases},
            "self_s": {ph: self.self_totals(ph) for ph in phases},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
