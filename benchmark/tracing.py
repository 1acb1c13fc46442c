"""Span tracer for the traced benchmark run.

Wrappers are installed on the namespace each caller looks a name up in
(``from .passes import value_pass`` binds the name inside ``pintoc.newton``,
so that is where the wrapper must go) and restored afterwards.  A span
records its layer's call and its self time: the span's duration minus the
time covered by its child spans.  Nothing is recorded while the tracer is
inactive, so set-up and the correctness gate stay out of the layer counts.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls: Counter[str] = Counter()       # spans closed, per layer
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)  # inclusive
        self.counts: Counter[str] = Counter()      # counters without a span
        self._stack: list[list] = []               # [name, start, child_s]
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def active(self):
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call while active is a span named ``name``.

        ``on_result`` receives the return value of each traced call, for
        counts that come from the library's own reports.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][2] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call while active increments ``name``.

        Used where a span per call would cost more than the call itself; the
        time stays with the enclosing span.
        """
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by ``wrapper``."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def per_call_cost(calls: int = 20000) -> tuple[float, float]:
    """Measured extra seconds per traced call: (span wrapper, counter wrapper).

    Times a no-op called bare and through each wrapper kind on a scratch
    tracer, taking the best of three rounds of ``calls`` calls each.
    """
    def noop():
        return None

    scratch = Tracer()
    spanned = scratch.span("calibration", noop)
    counted = scratch.counter("calibration", noop)

    def best(fn):
        rounds = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            rounds.append(time.perf_counter() - start)
        return min(rounds) / calls

    with scratch.active():
        bare = best(noop)
        return max(0.0, best(spanned) - bare), max(0.0, best(counted) - bare)
