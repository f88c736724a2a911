"""In-memory span tracer for the traced benchmark run, and self-time arithmetic.

A span records one call across a layer boundary: name (``<layer>.<function>``),
start, end, parent span and job id.  Functions called about 10^4 times or
more per job are wrapped as aggregates instead: one count and one busy time
per (parent span, name), so the trace stays small and its overhead bounded.
Aggregated functions must be leaves: nothing they call is traced.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)  # (aggregated child, thread) -> [count, busy]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    name: str
    job: int
    parent: int
    count: int = 0
    busy: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans and aggregates for the jobs run inside :meth:`job`.

    Worker threads that a job starts have no span of their own open, so
    their calls are parented to the innermost span open in the thread that
    runs the job, which is blocked waiting for them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job_stack: list[Span] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> Span | None:
        stack = self._stack() or self._job_stack
        return stack[-1] if stack else None

    @contextmanager
    def job(self, job_id: int, name: str = "cli.main"):
        """Open the root span of one job; yields it."""
        self._job_stack = self._stack()
        root = Span(next(self._ids), name, job_id, None, time.perf_counter())
        self._job_stack.append(root)
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            self._job_stack.pop()
            self.spans.append(root)

    def span(self, name: str, func, attrs=None):
        """Wrap ``func`` so each call inside a job records a span.

        ``attrs(args, kwargs, result)`` may add attributes; it runs after the
        span has ended, so its cost is not charged to the layer.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._parent()
            if parent is None:
                return func(*args, **kwargs)
            span = Span(next(self._ids), name, parent.job, parent.id, time.perf_counter())
            stack = self._stack()
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def aggregate(self, name: str, func):
        """Wrap a leaf ``func`` so calls add to a count and busy time on the parent span.

        Entries are kept per calling thread, so each is updated by one thread
        only and the hot path takes no lock.
        """
        local, clock, get_ident = self._local, time.perf_counter, threading.get_ident

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None) or self._job_stack
            if not stack:
                return func(*args, **kwargs)
            calls = stack[-1].calls
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                busy = clock() - started
                key = (name, get_ident())
                entry = calls.get(key)
                if entry is None:
                    calls[key] = [1, busy]
                else:
                    entry[0] += 1
                    entry[1] += busy

        return wrapper

    def aggregates(self) -> list:
        """One :class:`Aggregate` per (parent span, name), summed over threads."""
        result = []
        for s in self.spans:
            merged = {}
            for (name, _), (count, busy) in s.calls.items():
                entry = merged.setdefault(name, Aggregate(name, s.job, s.id))
                entry.count += count
                entry.busy += busy
            result += merged.values()
        return result

    def by_job(self) -> dict:
        """Map job id -> (spans, aggregates) of that job."""
        jobs = defaultdict(lambda: ([], []))
        for s in self.spans:
            jobs[s.job][0].append(s)
        for a in self.aggregates():
            jobs[a.job][1].append(a)
        return dict(jobs)

    def to_json(self) -> dict:
        return {
            "spans": [{k: v for k, v in asdict(s).items() if k != "calls"} for s in self.spans],
            "aggregates": [asdict(a) for a in self.aggregates()],
        }


@contextmanager
def patched(patches):
    """Set each ``(object, attribute, value)`` for the duration of the block."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current = None
    for start, end in sorted(intervals):
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


def self_times(spans, aggregates) -> tuple:
    """Self time of every span, and the overlap among siblings.

    A span's self time is its duration minus the part of it that its
    children cover: the union of the explicit children's intervals plus the
    busy time of its aggregated children, which run one at a time in the
    parent's own thread.  Children that run in parallel threads overlap;
    ``overlap`` is the sum, over parents, of child durations minus their
    union.  The identity ``sum(self) == root duration + overlap`` then holds
    for a tree with one root.

    Returns ``({span id: self seconds}, overlap seconds)``.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    aggregated = defaultdict(float)
    for a in aggregates:
        aggregated[a.parent] += a.busy
    result = {}
    overlap = 0.0
    for s in spans:
        kids = children[s.id]
        covered = union_length((k.start, k.end) for k in kids)
        overlap += sum(k.duration for k in kids) - covered
        result[s.id] = s.duration - covered - aggregated[s.id]
    return result, overlap


def layer_self_times(spans, aggregates) -> dict:
    """Self time summed by layer; aggregated calls are leaves, so all their busy time is self."""
    own, _ = self_times(spans, aggregates)
    layers = defaultdict(float)
    for s in spans:
        layers[s.layer] += own[s.id]
    for a in aggregates:
        layers[a.layer] += a.busy
    return dict(layers)
