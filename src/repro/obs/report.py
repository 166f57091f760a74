"""Render a human-readable report from a JSONL trace.

Backs ``python -m repro.obs report <trace.jsonl>``: spans grouped per
stage and per NF (the ``nf`` attribute, when present), then counter and
histogram digests.  Table formatting is local — ``repro.obs`` must stay
stdlib-only, so it cannot borrow ``repro.eval.runner.format_table``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.obs.collect import MemoryCollector, percentile
from repro.obs.export import load_trace
from repro.obs.telemetry import METRICS, TelemetrySink

__all__ = [
    "format_table",
    "render_collector",
    "render_trace",
    "render_top",
    "render_timeline",
]


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain-text aligned table (left-aligned names, right-aligned data)."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def line(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            text = str(cell)
            parts.append(text.ljust(widths[i]) if i == 0 else text.rjust(widths[i]))
        return "  ".join(parts).rstrip()

    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _attrs_label(attrs: dict[str, Any], *, skip: tuple[str, ...] = ()) -> str:
    parts = [f"{k}={v}" for k, v in sorted(attrs.items()) if k not in skip]
    return ",".join(parts) if parts else "-"


def _span_section(collector: MemoryCollector) -> str:
    groups: dict[tuple[str, str], list[float]] = {}
    for record in collector.spans:
        key = (record.name, str(record.attrs.get("nf", "-")))
        groups.setdefault(key, []).append(record.duration_s)
    rows = []
    for (name, nf), durations in sorted(groups.items()):
        rows.append(
            [
                name,
                nf,
                str(len(durations)),
                f"{sum(durations) * 1e3:.2f}",
                f"{percentile(durations, 50) * 1e3:.2f}",
                f"{percentile(durations, 95) * 1e3:.2f}",
                f"{max(durations) * 1e3:.2f}",
            ]
        )
    if not rows:
        return "(no spans)"
    header = ["span", "nf", "count", "total_ms", "p50_ms", "p95_ms", "max_ms"]
    return format_table(header, rows)


def _counter_section(collector: MemoryCollector) -> str:
    rows = []
    for name, attrs, total in sorted(
        collector.counters(), key=lambda item: (item[0], sorted(item[1].items()))
    ):
        nf = str(attrs.get("nf", "-"))
        rows.append([name, nf, _attrs_label(attrs, skip=("nf",)), str(total)])
    if not rows:
        return "(no counters)"
    return format_table(["counter", "nf", "attrs", "total"], rows)


def _histogram_section(collector: MemoryCollector) -> str:
    rows = []
    for name, attrs, values in sorted(
        collector.histograms(), key=lambda item: (item[0], sorted(item[1].items()))
    ):
        nf = str(attrs.get("nf", "-"))
        rows.append(
            [
                name,
                nf,
                _attrs_label(attrs, skip=("nf",)),
                str(len(values)),
                f"{sum(values) / len(values):.2f}",
                f"{percentile(values, 50):.2f}",
                f"{percentile(values, 95):.2f}",
                f"{max(values):.2f}",
            ]
        )
    if not rows:
        return "(no histograms)"
    header = ["histogram", "nf", "attrs", "count", "mean", "p50", "p95", "max"]
    return format_table(header, rows)


def render_collector(collector: MemoryCollector, *, title: str = "trace") -> str:
    """Render the report sections for an aggregated trace."""
    sections = [
        f"== {title}: spans ==",
        _span_section(collector),
        "",
        f"== {title}: counters ==",
        _counter_section(collector),
        "",
        f"== {title}: histograms ==",
        _histogram_section(collector),
    ]
    return "\n".join(sections)


def render_trace(path: str) -> str:
    """Load a JSONL trace file and render the full report."""
    return render_collector(load_trace(path), title=path)


# ------------------------------------------------------------------ #
# Telemetry renderers (``python -m repro.obs top`` / ``timeline``)
# ------------------------------------------------------------------ #
def render_top(sink: TelemetrySink) -> str:
    """Per-core summary table over a captured run — the ``top(1)`` view."""
    if not sink.n_cores:
        return "(no telemetry windows)"
    packet_series = sink.series("packets")
    total_packets = sink.total("packets") or 1
    rows = []
    for core in range(sink.n_cores):
        per_window = [float(row[core]) for row in packet_series]
        packets = sink.core_totals("packets")[core]
        rows.append(
            [
                f"core{core}",
                str(packets),
                f"{100.0 * packets / total_packets:.1f}%",
                f"{percentile(per_window, 50):.0f}",
                f"{percentile(per_window, 95):.0f}",
                str(sink.core_totals("reads")[core]),
                str(sink.core_totals("writes")[core]),
                str(sink.core_totals("new_flows")[core]),
                str(sink.core_totals("lock_waits")[core]),
            ]
        )
    header = [
        "core", "packets", "share", "p50/win", "p95/win",
        "reads", "writes", "new_flows", "lock_waits",
    ]
    label = f" [{sink.label}]" if sink.label else ""
    head = (
        f"== telemetry{label}: {sink.windows_recorded} window(s) × "
        f"{sink.window_packets} pkts, {sink.total_packets} packets =="
    )
    return "\n".join([head, format_table(header, rows)])


def render_timeline(sink: TelemetrySink, *, metric: str = "packets") -> str:
    """Window-by-window per-core series of one metric."""
    if metric not in METRICS:
        raise ValueError(
            f"unknown metric {metric!r} (choose from {', '.join(METRICS)})"
        )
    if not len(sink):
        return "(no telemetry windows)"
    rows = []
    for window in sink.windows:
        values = list(window.metric(metric))
        values.extend(0 for _ in range(sink.n_cores - len(values)))
        total = sum(values)
        fair = total / sink.n_cores if sink.n_cores else 0.0
        imbalance = f"{max(values) / fair:.2f}" if fair else "-"
        rows.append(
            [f"w{window.index}", f"{window.start_packet}..{window.end_packet}"]
            + [str(v) for v in values]
            + [imbalance]
        )
    header = (
        ["window", "packets"]
        + [f"c{core}" for core in range(sink.n_cores)]
        + ["imbalance"]
    )
    head = f"== timeline: {metric} per window per core =="
    return "\n".join([head, format_table(header, rows)])
