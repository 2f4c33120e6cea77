"""Outside-in tracer: wraps the public functions of each `gpl` module.

A function is patched in its defining module and in every other loaded
`gpl` module that bound the same object by name (`from .graph import
propagation_operator` in `gpl.trainer`, say). Patching only the defining
module would silently miss every call made through such an imported name.

Each call becomes a span: name, id, parent id, thread id, start, end and
self time. A span opened on a thread with no open span of its own, such as
a sweep job in the CLI thread pool, takes as parent the innermost span open
on the thread that installed the tracer (the home thread). Self time is
the duration minus the time covered by direct children: the sum of the
children on the span's own thread, plus the union of the intervals of its
children on other threads, so that a parent waiting for a thread pool is
not charged for the jobs' time. It is clamped at 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass

PACKAGE = "gpl"
LAYERS = ("synth", "graph", "propagation", "gnn", "cpe", "trainer", "metrics", "cli")

# estimate_prior's peak allocation is taken with tracemalloc running around
# that call only; tracing the whole run slows it several-fold. tracemalloc
# counts every thread's allocations, so the peak is taken on the home
# thread only, never while traced pool threads may be allocating too.
MEMORY_SPANS = ("cpe.estimate_prior",)


@dataclass(frozen=True)
class Span:
    name: str
    id: int
    parent: int | None
    thread: int
    start: float
    end: float
    self_s: float
    peak_mb: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("id", "child_s", "remote")

    def __init__(self, span_id):
        self.id = span_id
        self.child_s = 0.0  # direct children on the same thread, summed
        self.remote = []    # (start, end) of direct children on other threads


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def public_functions(module):
    """Public functions defined in `module` itself, by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans for calls into the layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[_Frame]] = {}
        self._home = None
        self._patched = []  # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        self._home = threading.get_ident()
        loaded = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        holders = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, module in zip(LAYERS, loaded):
            for name, fn in public_functions(module).items():
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, fn))
        return self

    def uninstall(self):
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _stack(self):
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        return tid, stack

    def _parent(self, stack):
        """The parent frame: innermost on this thread, else on the home thread."""
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        try:
            return home[-1] if home else None
        except IndexError:  # the home thread closed its span meanwhile
            return None

    def _wrap(self, name, fn):
        measure_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid, stack = self._stack()
            frame = _Frame(next(self._ids))
            parent = self._parent(stack)
            remote = not stack
            stack.append(frame)
            peak_mb = None
            memory = measure_memory and tid == self._home
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                stack.pop()
                dur = end - start
                if parent is not None:
                    if remote:
                        parent.remote.append((start, end))
                    else:
                        parent.child_s += dur
                self_s = max(0.0, dur - frame.child_s - covered(frame.remote))
                parent_id = parent.id if parent is not None else None
                self.spans.append(Span(name, frame.id, parent_id, tid, start, end, self_s, peak_mb))

        return traced

    def mark(self) -> int:
        """Position in the span log, for selecting the spans of one phase."""
        return len(self.spans)
