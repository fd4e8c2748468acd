"""Spans around calls into mmtopic, recorded from outside the package.

The tracer replaces each wrapped function under every name the package
looks it up by: ``models`` binds ``adam_step`` and ``inference_forward``
from ``nncore`` in its own namespace, ``harness`` binds ``train`` and
``compute_metric_report``, and so on. Replacing only the defining module's
attribute would miss those calls.

Span stacks are per thread. A span opened on a worker thread with an empty
stack is caused by the outermost span open on the installing thread (a
sweep's ``run_plan``), so the parent's self time excludes work its pool did.
Self time is a span's duration minus the union of its children's intervals.
Spans are folded into per-name totals as they close; nothing is written
until the benchmark reads the totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class _Span:
    __slots__ = ("layer", "name", "phase", "start", "parent", "children")

    def __init__(self, layer, name, phase, start, parent):
        self.layer = layer
        self.name = name
        self.phase = phase
        self.start = start
        self.parent = parent
        self.children = []


class Tracer:
    """Install with :meth:`install`, run the traced code, then
    :meth:`uninstall`. ``stats[(phase, layer, name)]`` holds
    ``[calls, total_s, self_s]``; ``counts[(phase, name)]`` holds what hooks
    add and ``records`` what they keep. ``phase`` labels spans opened from
    then on."""

    def __init__(self):
        self.phase = "section"
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)
        self.records = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner = None
        self._root = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer, name):
        stack = self._stack()
        on_owner = threading.get_ident() == self._owner
        if stack:
            parent = stack[-1]
        else:
            parent = None if on_owner else self._root
        span = _Span(layer, name, self.phase, time.perf_counter(), parent)
        if not stack and on_owner:
            self._root = span
        stack.append(span)
        return span

    def _close(self, span):
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            own = (end - span.start) - covered(span.children, span.start, end)
            row = self.stats[(span.phase, span.layer, span.name)]
            row[0] += 1
            row[1] += end - span.start
            row[2] += own
            if span.parent is not None:
                span.parent.children.append((span.start, end))
        if span is self._root:
            self._root = None

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += value

    def _wrap(self, layer, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, package: str, layers, extra=(), hooks=None) -> None:
        """Wrap every public function defined in each ``package.<layer>``
        module, plus ``extra`` (layer, owner, attribute) triples such as
        methods or private entry points. ``hooks`` maps a span name to
        ``hook(tracer, args, kwargs, result)``, run after the span closes."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = hooks or {}
        self._owner = threading.get_ident()
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == package or n.startswith(package + "."))]
        for layer in layers:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(layer, attr, fn, hooks.get(attr))
                for ns in namespaces:
                    if ns.__dict__.get(attr) is fn:
                        self._patch(ns, attr, wrapped)
        for layer, owner, attr in extra:
            fn = getattr(owner, attr, None)
            if fn is not None:
                self._patch(owner, attr, self._wrap(layer, attr, fn, hooks.get(attr)))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._owner = None
