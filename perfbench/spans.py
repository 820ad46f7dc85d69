"""Span recording by wrapping module attributes, and self-time arithmetic.

A `Tracer` replaces attributes such as ``ffgas.kernels.cn_sweep`` with
wrappers that record one span per call (name, start, end, parent) and
optional counts read from the call's arguments and result. Callers look
the attribute up at call time, so the program itself is unchanged; the
original attributes are put back when the `installed` block exits, also
when the block raises.

Self time of a span is its duration minus the part of its interval that
its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list


@dataclass(frozen=True)
class Patch:
    """Wrap ``getattr(owner, attr)`` as span `name`.

    `count`, when given, maps (args, kwargs, result) to a dict of counter
    increments, e.g. grid points times steps for a propagator sweep. With
    `items`, the attribute is a sequence of (key, function) pairs, such as a
    table of checks, and each function becomes span ``name.key``.
    """

    owner: object
    attr: str
    name: str
    count: object = None
    items: bool = False


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    self.counts[key] += inc
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, patches):
        """Install a wrapper for every patch; restore all originals on exit."""
        sites = [(p.owner, p.attr) for p in patches]
        if len(set((id(o), a) for o, a in sites)) != len(sites):
            raise ValueError("an attribute is patched twice")
        saved = []
        try:
            for p in patches:
                original = getattr(p.owner, p.attr)
                if p.items:
                    wrapped = tuple(
                        (key, self.wrap(fn, f"{p.name}.{key}", p.count))
                        for key, fn in original)
                else:
                    wrapped = self.wrap(original, p.name, p.count)
                setattr(p.owner, p.attr, wrapped)
                saved.append((p.owner, p.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: duration minus the coverage of its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def summarize(spans):
    """Per span name: self time, inclusive time and call count.

    Inclusive time counts only the outermost span of a name, so a name that
    recurses into itself is not counted twice.
    """
    selfs = self_times(spans)
    out = defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
    for i, s in enumerate(spans):
        agg = out[s.name]
        agg["self_s"] += selfs[i]
        agg["calls"] += 1
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            agg["incl_s"] += s.end - s.start
    return dict(out)
