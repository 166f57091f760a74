"""In-memory spans around the public callables of each layer.

The tracer patches callables from outside the program, for as long as a
:meth:`SpanTracer.recording` block lasts, and restores them afterwards.
It never attaches a :mod:`repro.obs` collector: that would switch on the
program's own counters and change what is being timed.

A span is ``(id, parent_id, name, phase, start, end, count)``.  ``parent_id``
is the span that was open when this one started (-1 at the top), so a
layer's self time is its duration minus the durations of its children.
``count`` is an optional work count taken from the call (rows hashed,
entries expired).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

__all__ = ["Layer", "LayerTotals", "SpanTracer"]


@dataclass(frozen=True)
class Layer:
    """One public callable to time, recorded as ``name``."""

    #: ``"package.module:function"`` or ``"package.module:Class.method"``.
    target: str
    name: str
    #: ``count(args, result)`` -> work units done by one call, or None.
    count: Callable[[tuple, Any], int] | None = None

    def resolve(self) -> tuple[Any, str] | None:
        """``(owner, attribute)``, or None once the program no longer has it."""
        module, _, qualname = self.target.partition(":")
        *path, attr = qualname.split(".")
        try:
            owner = importlib.import_module(module)
            for part in path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            return None
        return (owner, attr) if hasattr(owner, attr) else None


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    count: int = 0


class SpanTracer:
    """Records nested spans for a fixed set of layers.

    A layer the program no longer has is skipped, and its metrics read 0.
    """

    def __init__(self, layers: Sequence[Layer]):
        self.layers = [(layer, found) for layer in layers if (found := layer.resolve())]
        self.spans: list[tuple] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple[Any, str, Any]] = []

    @contextmanager
    def recording(self, phase: str) -> Iterator[None]:
        """Patch every layer, tag new spans with ``phase``, then restore."""
        if self._saved:
            raise RuntimeError("recording blocks do not nest")
        self.phase = phase
        for layer, (owner, attr) in self.layers:
            raw = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap_static(raw, layer))
        try:
            yield
        finally:
            for owner, attr, raw in reversed(self._saved):
                setattr(owner, attr, raw)
            self._saved.clear()
            self.phase = None

    def _wrap_static(self, raw: Any, layer: Layer) -> Any:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, layer))
        return self._wrap(raw, layer)

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        spans = self.spans
        stack = self._stack
        ids = self._ids
        name = layer.name
        count = layer.count
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            n = 0
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, out)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, tracer.phase, start, end, n))

        return traced

    def totals(self, phase: str) -> dict[str, LayerTotals]:
        """Calls, self time and work count per layer name."""
        picked = [s for s in self.spans if s[3] == phase]
        child_s: dict[int, float] = {}
        for _, parent, _, _, start, end, _ in picked:
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        out: dict[str, LayerTotals] = {}
        for sid, _, name, _, start, end, n in picked:
            agg = out.setdefault(name, LayerTotals())
            agg.calls += 1
            agg.self_s += (end - start) - child_s.get(sid, 0.0)
            agg.count += n
        return out

    def write_jsonl(self, path: str) -> None:
        """One JSON array per span, in completion order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
