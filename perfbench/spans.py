"""Span tracing for the etk benchmark, kept outside the program.

`patched(tracer)` wraps the public functions of each etk module and
replaces every reference to them in the `etk` package and its
submodules, so calls made through `from .ingest import ...` names are
traced too. Each wrapped call records a span (name, start, end, parent,
thread) and, for the functions listed in `COUNTERS`, counts of the work
it did, taken at the same boundary.

Spans keep a stack per thread. Work that `etk.cli` hands to its thread
pool is parented to the span that submitted it, so a worker's spans are
children of `cli.cmd_analyze` and self time stays additive.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

# The etk modules traced, named by their layer. `rng` and `errors` are
# left out: `rng` holds per-draw helpers and `errors` holds no functions.
LAYERS = ("cli", "ingest", "model", "synth", "preprocess", "zones",
          "input_features", "numerics")

# Helpers called once per value or sample written. A wrapper costs more
# than their body, so their time stays in the caller's self time.
UNWRAPPED = frozenset({"ingest.fmt_num", "model.canonical_key_order"})


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    error: bool


class Tracer:
    """Collects spans and counts in memory; safe to use from many threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, key: str, n: int | float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str, fn, counter=None):
        """Return `fn` wrapped so each call records a span named `name`."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end,
                                       threading.get_ident(), True))
                self.count(f"{layer}.errors")
                raise
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   threading.get_ident(), False))
            self.count(f"{name}.calls")
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def adopt(self, parent: int | None, fn, /, *args, **kwargs):
        """Run `fn` on this thread as if called inside span `parent`."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitter's span."""
        tracer = self

        class TracedThreadPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        return TracedThreadPool


# ---------------------------------------------------------------------------
# self time

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: (s.end - s.start) - union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
        for s in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.id]
    return dict(totals)


# ---------------------------------------------------------------------------
# counters taken at the layer boundary, after the span has ended

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_parse(tracer: Tracer, args, kwargs, result) -> None:
    rows = len(result) if hasattr(result, "__len__") else \
        len(result.rounds) + len(result.events)
    tracer.count("ingest.rows_parsed", rows)
    source = _arg(args, kwargs, 0, "source")
    if isinstance(source, (str, os.PathLike)):
        tracer.count("ingest.bytes_read", os.path.getsize(source))
    elif isinstance(source, (bytes, bytearray)):
        tracer.count("ingest.bytes_read", len(source))


def _count_write(tracer: Tracer, args, kwargs, result) -> None:
    path = _arg(args, kwargs, 1, "path")
    if isinstance(path, (str, os.PathLike)):
        tracer.count("ingest.bytes_written", os.path.getsize(path))


def _count_slices(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("preprocess.segments", len(result))
    tracer.count("preprocess.samples_sliced", sum(len(seg) for seg in result))


def _count_windows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("zones.windows", len(result))


COUNTERS = {
    **{f"ingest.{fn}": _count_parse for fn in
       ("parse_gaze_log", "parse_input_log", "parse_hrm_log", "parse_demo_events")},
    **{f"ingest.{fn}": _count_write for fn in
       ("write_gaze_csv", "write_input_csv", "write_hrm_txt", "write_demo_events",
        "write_meta_json")},
    "preprocess.slice_by_intervals": _count_slices,
    "zones.window_distributions": _count_windows,
}


# ---------------------------------------------------------------------------
# patching

def _public_functions(module):
    for attr, value in vars(module).items():
        if (inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__ == module.__name__):
            yield attr, value


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Trace etk's layers for the duration of the block.

    `etk` and its layer modules must already be imported.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "etk" or name.startswith("etk."))]
    replacements: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = sys.modules[f"etk.{layer}"]
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            if name not in UNWRAPPED:
                replacements[id(fn)] = (fn, tracer.wrap(name, fn, COUNTERS.get(name)))
    replacements[id(ThreadPoolExecutor)] = (ThreadPoolExecutor, tracer.pool_class())

    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)
