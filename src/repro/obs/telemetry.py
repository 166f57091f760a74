"""Per-core windowed time-series: the runtime telemetry plane.

Run-scoped aggregate counters (PR 1) answer *how much*; this module
answers *when*.  A :class:`TelemetrySink` collects fixed-size windows of
per-core activity — packets, stateful reads/writes, new flows, lock-wait
events — over **virtual time**: a window
closes every ``window_packets`` processed packets, not every N wall-clock
seconds, so series from deterministic replays are themselves
deterministic and comparable across machines.

Windows land in a bounded ring (``max_windows``), keeping memory at
O(cores × windows) regardless of trace length.  The simulator feeds the
sink in *window-sized batches* (one ``record_window`` call per chunk of
the trace) rather than per packet, which is what keeps the
telemetry-enabled path inside the <5% overhead gate
(``benchmarks/bench_obs_overhead.py``).

Attachment mirrors the tracer: a module-level stack with a no-op fast
path.  Producers ask :func:`active_telemetry` once per run and skip all
telemetry work when it returns ``None``:

>>> from repro import obs
>>> sink = obs.TelemetrySink(window_packets=256)
>>> with obs.telemetry(sink):
...     run_functional(parallel, trace)          # doctest: +SKIP
>>> sink.summary()["metrics"]["packets"]["total"]  # doctest: +SKIP

Like everything in ``repro.obs`` this module is stdlib-only (enforced by
the lint-guard test): producers hand in plain sequences of ints.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.obs.collect import percentile

__all__ = [
    "METRICS",
    "Window",
    "TelemetrySink",
    "attach_telemetry",
    "detach_telemetry",
    "telemetry",
    "active_telemetry",
    "telemetry_enabled",
]

#: Per-core metrics tracked in every window, in storage order.
#: ``lock_waits`` counts write-lock acquisitions (writes to objects the
#: :class:`~repro.core.codegen.LockPlan` guards — the contended operation
#: under LOCKS/TM).
METRICS: tuple[str, ...] = (
    "packets",
    "reads",
    "writes",
    "new_flows",
    "lock_waits",
)

_METRIC_INDEX = {name: i for i, name in enumerate(METRICS)}


@dataclass(frozen=True)
class Window:
    """One closed window: per-core counts over ``window_packets`` of
    virtual time (the final window of a run may be shorter)."""

    index: int
    start_packet: int
    end_packet: int  #: exclusive
    cores: tuple[tuple[int, ...], ...]  #: cores[core_id][metric_index]

    @property
    def n_packets(self) -> int:
        return self.end_packet - self.start_packet

    def metric(self, name: str) -> tuple[int, ...]:
        """Per-core values of one metric in this window."""
        i = _METRIC_INDEX[name]
        return tuple(core[i] for core in self.cores)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start_packet": self.start_packet,
            "end_packet": self.end_packet,
            "cores": [list(core) for core in self.cores],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Window":
        return cls(
            index=int(data["index"]),
            start_packet=int(data["start_packet"]),
            end_packet=int(data["end_packet"]),
            cores=tuple(tuple(int(v) for v in core) for core in data["cores"]),
        )


class TelemetrySink:
    """Ring-buffered per-core time-series over packet-count windows."""

    def __init__(
        self,
        window_packets: int = 1024,
        max_windows: int = 256,
        label: str = "",
    ) -> None:
        if window_packets <= 0:
            raise ValueError(f"window_packets must be positive: {window_packets}")
        if max_windows <= 0:
            raise ValueError(f"max_windows must be positive: {max_windows}")
        self.window_packets = int(window_packets)
        self.max_windows = int(max_windows)
        self.label = label
        self.windows: deque[Window] = deque(maxlen=self.max_windows)
        #: Virtual-time cursor: total packets recorded, including windows
        #: already evicted from the ring.
        self.total_packets = 0
        self._next_index = 0
        self.n_cores = 0
        #: Lifetime per-core totals (survive ring eviction), so the
        #: conservation property — window sums equal run aggregates —
        #: holds even when a long run overflows ``max_windows``.
        self._totals: list[list[int]] = []

    # ---------------------------------------------------------- #
    # Ingest
    # ---------------------------------------------------------- #
    def record_window(self, per_core: Sequence[Sequence[int]]) -> Window:
        """Close one window from per-core metric rows.

        ``per_core[core_id]`` is a row of :data:`METRICS` counts for the
        chunk of trace this window covers; the window's packet extent is
        derived from the rows' ``packets`` entries.  Rows shorter than
        ``METRICS`` are zero-padded (callers that don't track every
        metric stay compatible if the list grows).
        """
        rows: list[tuple[int, ...]] = []
        for row in per_core:
            values = [int(v) for v in row]
            if len(values) > len(METRICS):
                raise ValueError(
                    f"window row has {len(values)} values for "
                    f"{len(METRICS)} metrics"
                )
            values.extend(0 for _ in range(len(METRICS) - len(values)))
            rows.append(tuple(values))
        n_packets = sum(row[_METRIC_INDEX["packets"]] for row in rows)
        window = Window(
            index=self._next_index,
            start_packet=self.total_packets,
            end_packet=self.total_packets + n_packets,
            cores=tuple(rows),
        )
        self._next_index += 1
        self.total_packets = window.end_packet
        self.n_cores = max(self.n_cores, len(rows))
        while len(self._totals) < len(rows):
            self._totals.append([0] * len(METRICS))
        for core_id, row in enumerate(rows):
            totals = self._totals[core_id]
            for i, value in enumerate(row):
                totals[i] += value
        self.windows.append(window)
        return window

    # ---------------------------------------------------------- #
    # Queries
    # ---------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self.windows)

    @property
    def windows_recorded(self) -> int:
        """Lifetime window count, including evicted windows."""
        return self._next_index

    def series(self, metric: str) -> list[list[int]]:
        """Per-window per-core values (windows still in the ring),
        zero-padded to ``n_cores`` columns."""
        i = _METRIC_INDEX[metric]
        out: list[list[int]] = []
        for window in self.windows:
            row = [core[i] for core in window.cores]
            row.extend(0 for _ in range(self.n_cores - len(row)))
            out.append(row)
        return out

    def core_totals(self, metric: str) -> list[int]:
        """Lifetime per-core totals of one metric (eviction-proof)."""
        i = _METRIC_INDEX[metric]
        return [totals[i] for totals in self._totals]

    def total(self, metric: str) -> int:
        return sum(self.core_totals(metric))

    def core_shares(self) -> list[float]:
        """Lifetime fraction of packets each core processed."""
        totals = self.core_totals("packets")
        whole = sum(totals)
        if not whole:
            return [0.0] * len(totals)
        return [t / whole for t in totals]

    def summary(self) -> dict[str, Any]:
        """Distilled series: per-metric totals plus per-core p50/p95/max
        over the windows still in the ring."""
        metrics: dict[str, Any] = {}
        for metric in METRICS:
            series = self.series(metric)
            per_core_windows: list[list[float]] = [
                [float(row[c]) for row in series] for c in range(self.n_cores)
            ]
            metrics[metric] = {
                "total": self.total(metric),
                "per_core_total": self.core_totals(metric),
                "p50": [percentile(vs, 50) for vs in per_core_windows],
                "p95": [percentile(vs, 95) for vs in per_core_windows],
                "max": [max(vs) if vs else 0.0 for vs in per_core_windows],
            }
        return {
            "label": self.label,
            "window_packets": self.window_packets,
            "max_windows": self.max_windows,
            "n_windows": len(self.windows),
            "windows_recorded": self._next_index,
            "total_packets": self.total_packets,
            "n_cores": self.n_cores,
            "metrics": metrics,
        }

    # ---------------------------------------------------------- #
    # Serialization (see repro.obs.export for the JSONL file format)
    # ---------------------------------------------------------- #
    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "window_packets": self.window_packets,
            "max_windows": self.max_windows,
            "total_packets": self.total_packets,
            "windows_recorded": self._next_index,
            "n_cores": self.n_cores,
            "totals": [list(row) for row in self._totals],
            "windows": [w.to_dict() for w in self.windows],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TelemetrySink":
        sink = cls(
            window_packets=int(data["window_packets"]),
            max_windows=int(data["max_windows"]),
            label=data.get("label", ""),
        )
        sink.total_packets = int(data["total_packets"])
        sink._next_index = int(data["windows_recorded"])
        sink.n_cores = int(data["n_cores"])
        sink._totals = [[int(v) for v in row] for row in data["totals"]]
        for raw in data["windows"]:
            sink.windows.append(Window.from_dict(raw))
        return sink


# ---------------------------------------------------------------- #
# Module-level attachment (mirrors the tracer's collector stack)
# ---------------------------------------------------------------- #
_SINKS: list[TelemetrySink] = []


def attach_telemetry(sink: TelemetrySink) -> None:
    """Make ``sink`` the active telemetry sink until :func:`detach_telemetry`.

    Attachment is a stack: a nested attach shadows the outer sink (only
    the innermost receives windows), and detaching restores it.
    """
    _SINKS.append(sink)


def detach_telemetry(sink: TelemetrySink) -> None:
    _SINKS.remove(sink)


@contextmanager
def telemetry(sink: TelemetrySink) -> Iterator[TelemetrySink]:
    """``with obs.telemetry(sink):`` — scoped attach/detach."""
    attach_telemetry(sink)
    try:
        yield sink
    finally:
        detach_telemetry(sink)


def active_telemetry() -> TelemetrySink | None:
    """The innermost attached sink, or ``None`` (the no-op fast path)."""
    return _SINKS[-1] if _SINKS else None


def telemetry_enabled() -> bool:
    return bool(_SINKS)
