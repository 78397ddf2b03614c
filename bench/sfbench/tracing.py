"""Spans and counts recorded from outside the program under test.

The tracer wraps public functions of sessionforge modules, so each call
becomes a span with a name, start, end, parent span and the trial or
recording it belongs to. Spans stay in memory and are written out when the
run ends. A span's self time is its duration minus the part of it covered by
its child spans; a layer's self time is the sum over its spans. The layer is
the part of the span name before the first dot, which is the module name.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; a thread's first span nests under the
    outermost span open at the time, so pool workers attach to the command
    that started them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, trial: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if trial is None and parent is not None:
            trial = parent.trial
        parent_id = parent.id if parent is not None else None
        sp = Span(next(self._ids), name, time.monotonic(), 0.0, parent_id, trial)
        if parent is None:
            self._root = sp
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.monotonic()
            stack.pop()
            if self._root is sp:
                self._root = None
            with self._lock:
                self.spans.append(sp)

    def add_span(self, name: str, start: float, end: float, trial: str | None) -> None:
        """Record an interval measured elsewhere, such as across processes."""
        sp = Span(next(self._ids), name, start, end, None, trial)
        with self._lock:
            self.spans.append(sp)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn, name: str, trial_of=None, after=None):
        """``fn`` run inside a span; ``after(result, *args)`` records counts
        once the span has closed."""

        def wrapper(*args, **kwargs):
            trial = trial_of(*args) if trial_of else None
            with self.span(name, trial):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return wrapper


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(module, attribute, value)`` triples."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        kids = [
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children.get(sp.id, ())
            if c.end > sp.start and c.start < sp.end
        ]
        out[sp.id] = sp.duration - covered(kids)
    return out


def layer_self_times(spans) -> dict[str, float]:
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        out[sp.layer] += selfs[sp.id]
    return dict(out)
