"""In-memory collection and aggregation of trace events.

:class:`MemoryCollector` is the workhorse: the pipeline attaches one per
``Maestro.analyze`` run (so every result carries its own trace), tests
attach one to make assertions, and the report CLI replays a JSONL file
into one to aggregate it.

Counters and histograms are aggregated *on ingest* keyed by
``(name, attrs)`` — a long simulation emitting one counter increment per
stateful operation stays O(distinct streams) in memory, not O(events).
Spans are kept as a list (completion-ordered) because per-span wall times
are exactly what ``summary()`` distills into p50/p95/max.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

from repro.obs.trace import SpanRecord

__all__ = ["MemoryCollector", "percentile"]

#: Hashable key identifying one counter/histogram stream.
_StreamKey = tuple[str, tuple[tuple[str, Any], ...]]


def _stream_key(name: str, attrs: dict[str, Any]) -> _StreamKey:
    return name, tuple(sorted(attrs.items()))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


class MemoryCollector:
    """Buffer events in memory and aggregate them on demand."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._counters: dict[_StreamKey, int] = {}
        self._histograms: dict[_StreamKey, list[float]] = {}

    # ---------------------------------------------------------- #
    # Collector protocol
    # ---------------------------------------------------------- #
    def on_span(self, record: SpanRecord) -> None:
        self.spans.append(record)

    def on_counter(self, name: str, value: int, attrs: dict[str, Any]) -> None:
        key = _stream_key(name, attrs)
        self._counters[key] = self._counters.get(key, 0) + int(value)

    def on_histogram(self, name: str, value: float, attrs: dict[str, Any]) -> None:
        self._histograms.setdefault(_stream_key(name, attrs), []).append(
            float(value)
        )

    # ---------------------------------------------------------- #
    # Queries
    # ---------------------------------------------------------- #
    def spans_named(self, name: str) -> list[SpanRecord]:
        return [record for record in self.spans if record.name == name]

    def counters(self) -> Iterator[tuple[str, dict[str, Any], int]]:
        """Every counter stream as ``(name, attrs, total)``."""
        for (name, attr_items), total in self._counters.items():
            yield name, dict(attr_items), total

    def histograms(self) -> Iterator[tuple[str, dict[str, Any], list[float]]]:
        for (name, attr_items), values in self._histograms.items():
            yield name, dict(attr_items), list(values)

    def counter_total(self, name: str, **match: Any) -> int:
        """Sum of every ``name`` stream whose attrs contain ``match``."""
        total = 0
        for stream_name, attrs, value in self.counters():
            if stream_name != name:
                continue
            if all(attrs.get(k) == v for k, v in match.items()):
                total += value
        return total

    def __len__(self) -> int:
        return len(self.spans) + len(self._counters) + len(self._histograms)

    # ---------------------------------------------------------- #
    # Aggregation
    # ---------------------------------------------------------- #
    def summary(self) -> dict[str, Any]:
        """Distill the trace: per-span-name p50/p95/max, counter totals,
        histogram digests."""
        span_stats: dict[str, dict[str, float]] = {}
        by_name: dict[str, list[float]] = {}
        for record in self.spans:
            by_name.setdefault(record.name, []).append(record.duration_s)
        for name, durations in by_name.items():
            span_stats[name] = {
                "count": len(durations),
                "total_s": sum(durations),
                "p50_s": percentile(durations, 50),
                "p95_s": percentile(durations, 95),
                "max_s": max(durations),
            }

        counter_totals: dict[str, int] = {}
        for name, _attrs, total in self.counters():
            counter_totals[name] = counter_totals.get(name, 0) + total

        histogram_stats: dict[str, dict[str, float]] = {}
        merged: dict[str, list[float]] = {}
        for name, _attrs, values in self.histograms():
            merged.setdefault(name, []).extend(values)
        for name, values in merged.items():
            histogram_stats[name] = {
                "count": len(values),
                "mean": sum(values) / len(values),
                "p50": percentile(values, 50),
                "p95": percentile(values, 95),
                "max": max(values),
            }

        return {
            "spans": span_stats,
            "counters": counter_totals,
            "histograms": histogram_stats,
        }
