"""Outside-in span recorder for the softhand benchmark.

The recorder wraps public callables of the program from the outside: module
attributes such as ``physics.hand_step`` and class methods such as
``FrameDecoder.feed``. Each call records a span (name, start, end, parent
span, item id) in flat in-memory arrays; self time and call counts per name
are aggregated only at the end. Nothing under ``src/`` changes, and the
wrappers pass arguments and results through untouched, so tracing cannot
change a telemetry byte (the benchmark checks this by digest).

Intra-module calls go through module globals (``hand_step`` calls ``step``
by its global name), so wrapping the module attribute catches them too.
Only the process running the benchmark is measured; nothing machine-wide is
traced.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np


PACKAGE = "softhand"


def _resolve(name: str):
    """Owner object, attribute name and raw attribute for ``module.Class.attr`` or ``module.attr``."""
    parts = name.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if inspect.isclass(owner):
        raw = inspect.getattr_static(owner, attr)
    else:
        raw = getattr(owner, attr)
    return owner, attr, raw


class SpanRecorder:
    """Counts calls per name and, with ``spans=True``, records one span per call.

    ``item`` is the id of the workload item in progress; every span opened
    while it is set carries it, so the spans of one item share an id.
    """

    def __init__(self, names: list[str], spans: bool = True):
        self.names = list(names)
        self.spans = spans
        self.calls = [0] * len(self.names)
        self.item = -1
        self.name = array("i")
        self.parent = array("q")
        self.item_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _wrap(self, index: int, fn):
        calls = self.calls
        if not self.spans:
            def counted(*args, **kwargs):
                calls[index] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        name_append, parent_append = self.name.append, self.parent.append
        item_append, start, end = self.item_of.append, self.start, self.end
        recorder = self

        def traced(*args, **kwargs):
            calls[index] += 1
            span = len(start)
            name_append(index)
            parent_append(stack[-1] if stack else -1)
            item_append(recorder.item)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            start[span] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every named callable; returns a function that restores the originals."""
        originals = []

        def restore():
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

        try:
            for index, name in enumerate(self.names):
                owner, attr, raw = _resolve(name)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(index, raw.__func__))
                else:
                    wrapped = self._wrap(index, raw)
                originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        except AttributeError:
            restore()
            raise
        return restore

    def span_count(self) -> int:
        return len(self.start)

    def self_seconds(self) -> list[float]:
        """Per-name self time: each span's duration minus the time its child spans cover."""
        n = len(self.start)
        if n == 0:
            return [0.0] * len(self.names)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
        names = np.frombuffer(self.name, dtype=np.int32)
        per_name = np.bincount(names, weights=duration - children, minlength=len(self.names))
        return [float(v) for v in per_name]
