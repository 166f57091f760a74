"""Functional multicore simulation: real packets, real RSS, real state.

Where :mod:`repro.sim.perf` predicts *rates*, this module executes the
generated parallel NF packet-by-packet: every packet is hashed by the
actual Toeplitz keys, steered through the actual indirection table, and
processed against the core's actual state shard.  It is the substrate for
semantic-equivalence checking and for measuring per-core load under skew.

Two execution paths produce bit-identical results:

* the **batched path** (default) reads the trace column-wise: one pass
  per needed header field (:class:`~repro.traffic.TraceColumns`), then
  :meth:`~repro.rs3.config.RssConfiguration.steer_trace` hashes *every*
  packet with the batched Toeplitz path and reads each port's
  indirection table, exactly as the NIC does — no flow cache, no memo,
  so steering is a pure function of the header bits and the current
  tables.  One :class:`~repro.sim.compiled.CompiledDispatcher` then
  executes the trace chunk by chunk: lanes on compiled paths run as
  vectorized kernels, every other lane on the per-packet interpreter,
  grouped by core where state shards are independent.  ``kernels=False``
  is the same executor with a dispatcher that holds no programs;
* the **reference path** (``fastpath=False``) is the original
  packet-at-a-time loop through :meth:`ParallelNF.process`, kept as the
  oracle the batched path is benchmarked and property-tested against
  (``benchmarks/bench_fastpath.py``, ``tests/sim/test_fastpath.py``).

Each piece of run accounting has one owner.  Both paths hand
:func:`_run_windows` a function that runs a packet range and returns its
core ids; it splits the trace at telemetry window edges (one range when
no sink is attached) and records each window from context snapshot
deltas.  Each path then builds its :class:`FunctionalRun` once, from the
finished core-id array and result list.  Per-core read, write and
new-flow counts live only in each core's
:class:`~repro.nf.runtime.ConcreteContext` (``stat_snapshot``).
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.codegen import ParallelNF
from repro.nf.api import ActionKind
from repro.nf.runtime import PacketResult
from repro.sim.compiled import CompiledDispatcher, compile_parallel
from repro.traffic.generator import Trace, TraceColumns

__all__ = [
    "FunctionalRun",
    "run_functional",
]

#: Stable small-int code per action, backing FunctionalRun's action array.
ACTION_CODES: dict[ActionKind, int] = {
    kind: code for code, kind in enumerate(ActionKind)
}
_KIND_FOR_CODE: tuple[ActionKind, ...] = tuple(ActionKind)

#: Ops that touch state without being a "hard" write (see write_fraction).
_SOFT_WRITE_OPS = frozenset({"dchain_rejuvenate", "expire"})


class _ResultsView(Sequence):
    """The classic ``[(core_id, PacketResult), ...]`` list, as a view.

    FunctionalRun stores core ids in a NumPy array and the PacketResults
    in a flat list; this view zips them on demand so existing callers
    (tests, examples, the equivalence checker) keep their list API
    without the run paying for tuple materialization per packet.
    """

    __slots__ = ("_run",)

    def __init__(self, run: "FunctionalRun") -> None:
        self._run = run

    def __len__(self) -> int:
        return self._run.n_packets

    def __getitem__(self, index):
        run = self._run
        if isinstance(index, slice):
            indices = range(*index.indices(run.n_packets))
            return [
                (int(run.core_ids[i]), run.packet_results[i])
                for i in indices
            ]
        if index < 0:
            index += run.n_packets
        if not 0 <= index < run.n_packets:
            raise IndexError("results index out of range")
        return (int(run.core_ids[index]), run.packet_results[index])

    def __iter__(self) -> Iterator[tuple[int, PacketResult]]:
        run = self._run
        return zip(map(int, run.core_ids), run.packet_results)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_ResultsView, list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented


@dataclass(frozen=True)
class FunctionalRun:
    """Results of pushing one trace through a parallel NF.

    Built once, from a finished run: ``core_ids`` (read-only, trace
    order) and the per-packet :class:`PacketResult` list.  ``results``
    exposes the familiar ``[(core_id, result), ...]`` sequence as a
    zero-copy view.  The aggregate metrics are vectorized
    (``np.bincount``) and each is computed once, on first use.
    ``compiled`` (the dispatcher's per-run accounting) and
    ``compiled_path_ids`` (the kernel path per packet, -1 on the
    interpreter) are ``None`` on reference runs.
    """

    parallel: ParallelNF
    core_ids: np.ndarray
    packet_results: list[PacketResult]
    compiled: dict | None = None
    compiled_path_ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.core_ids.flags.writeable = False

    @property
    def results(self) -> _ResultsView:
        return _ResultsView(self)

    @property
    def n_packets(self) -> int:
        return len(self.packet_results)

    @cached_property
    def action_codes(self) -> np.ndarray:
        """Per-packet :data:`ACTION_CODES` value (read-only array)."""
        codes = np.fromiter(
            (ACTION_CODES[r.kind] for r in self.packet_results),
            dtype=np.int8,
            count=self.n_packets,
        )
        codes.flags.writeable = False
        return codes

    # -------------------------------------------------------------- #
    # Metrics (vectorized, computed once)
    # -------------------------------------------------------------- #
    @cached_property
    def _core_counts(self) -> np.ndarray:
        return np.bincount(
            self.core_ids, minlength=self.parallel.n_cores
        ).astype(np.int64)

    def core_counts(self) -> np.ndarray:
        return self._core_counts.copy()

    def core_shares(self) -> np.ndarray:
        counts = self.core_counts().astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts

    def imbalance(self) -> float:
        """max-share / fair-share: 1.0 is perfect balance."""
        shares = self.core_shares()
        return float(shares.max() * self.parallel.n_cores)

    @cached_property
    def _action_counts(self) -> dict[ActionKind, int]:
        counts = np.bincount(self.action_codes, minlength=len(_KIND_FOR_CODE))
        return {
            _KIND_FOR_CODE[code]: int(count)
            for code, count in enumerate(counts)
            if count
        }

    def action_counts(self) -> dict[ActionKind, int]:
        return dict(self._action_counts)

    @cached_property
    def _hard_writes(self) -> int:
        soft = _SOFT_WRITE_OPS
        return sum(
            any(op.write and op.op not in soft for op in result.ops)
            for result in self.packet_results
        )

    def write_fraction(self) -> float:
        """Fraction of packets performing a hard (non-aging) state write."""
        if not self.n_packets:
            return 0.0
        return self._hard_writes / self.n_packets


def _window_rows(
    parallel: ParallelNF,
    before: list[tuple[int, int, int, int]],
    packets: Sequence[int],
    locked: frozenset,
) -> list[list[int]]:
    """Per-core telemetry rows for one window, from ctx snapshot deltas.

    Row order matches :data:`repro.obs.telemetry.METRICS`.  Because the
    rows are deltas of the same lifetime counters the aggregate metrics
    read, window sums telescope exactly to the run totals (the
    conservation property the telemetry tests pin down).
    """
    rows: list[list[int]] = []
    for core_id, core in enumerate(parallel.cores):
        r0, w0, nf0, lw0 = before[core_id]
        r1, w1, nf1, lw1 = core.ctx.stat_snapshot(locked)
        rows.append(
            [
                int(packets[core_id]),
                r1 - r0,
                w1 - w0,
                nf1 - nf0,
                lw1 - lw0,
            ]
        )
    return rows


def _run_windows(
    parallel: ParallelNF, n: int, run_range: Callable[[int, int], Sequence[int]]
) -> None:
    """Run packets ``[0, n)`` through ``run_range``, one telemetry window
    at a time.

    ``run_range(start, end)`` processes packets ``[start, end)`` and
    returns their core ids.  With a telemetry sink attached, every
    ``window_packets`` packets become one range whose per-core rows are
    recorded from context snapshot deltas; without one, ``[0, n)`` is a
    single range.
    """
    sink = obs.active_telemetry()
    if sink is None:
        run_range(0, n)
        return
    locked = parallel.lock_plan.locked
    for start in range(0, n, sink.window_packets):
        end = min(start + sink.window_packets, n)
        before = [core.ctx.stat_snapshot(locked) for core in parallel.cores]
        packets = np.bincount(run_range(start, end), minlength=parallel.n_cores)
        sink.record_window(_window_rows(parallel, before, packets, locked))


def _run_reference(parallel: ParallelNF, trace: Trace) -> FunctionalRun:
    """The seed packet-at-a-time path: scalar RSS per packet (the oracle)."""
    core_ids: list[int] = []
    results: list[PacketResult] = []

    def run_range(start: int, end: int) -> list[int]:
        for port, pkt in trace[start:end]:
            core_id, result = parallel.process(port, pkt)
            core_ids.append(core_id)
            results.append(result)
        return core_ids[start:end]

    _run_windows(parallel, len(trace), run_range)
    return FunctionalRun(parallel, np.array(core_ids, dtype=np.int64), results)


def _get_dispatcher(parallel: ParallelNF) -> CompiledDispatcher:
    """Compile (once) and cache the kernel dispatcher on the ParallelNF."""
    dispatcher = getattr(parallel, "_compiled_dispatcher", None)
    if dispatcher is None:
        dispatcher = compile_parallel(parallel)
        parallel._compiled_dispatcher = dispatcher
    return dispatcher


def _run_batched(
    parallel: ParallelNF, cols: TraceColumns, dispatcher: CompiledDispatcher
) -> FunctionalRun:
    """Batched steering, then chunked execution through ``dispatcher``.

    The :class:`repro.sim.compiled.CompiledDispatcher` runs kernel lanes
    vectorized and every other lane on the interpreter, grouped by core
    under shared-nothing and in trace order otherwise; a dispatcher with
    no programs is the plain batched interpreter.  Chunk edges include
    every telemetry window boundary, so recorded windows stay
    bit-identical to the reference path.
    """
    sink = obs.active_telemetry()
    core_ids, slots = parallel.rss.steer_trace(cols)
    # Elastic runs install the table slots as ``ctx.current_bucket`` so
    # created state is bucket-tagged for live migration.
    buckets = slots if parallel.elastic else None
    wp = sink.window_packets if sink is not None else 0
    results: list[PacketResult | None] = [None] * len(cols)
    before = dispatcher.counters()
    # Pause the cyclic GC for the batch: the loop allocates one result
    # (plus its mods/ops containers) per packet and frees nothing, so
    # generational collections triggered mid-batch only re-scan live
    # objects — worth ~15% of the whole per-packet budget at trace scale.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        edges = dispatcher.start_run(cols, core_ids, wp, bucket_ids=buckets)

        def run_range(start: int, end: int) -> np.ndarray:
            i = bisect_left(edges, start)
            while edges[i] < end:
                dispatcher.run_chunk(edges[i], edges[i + 1], results)
                i += 1
            return core_ids[start:end]

        _run_windows(parallel, len(cols), run_range)
    finally:
        dispatcher.end_run()
        if gc_was_enabled:
            gc.enable()
    run = FunctionalRun(
        parallel,
        core_ids,
        results,
        compiled=dispatcher.run_stats(before),
        compiled_path_ids=dispatcher.path_ids,
    )
    if obs.enabled():
        obs.counter(
            "compiled.paths", dispatcher.supported_paths, nf=parallel.nf.name
        )
        obs.counter(
            "compiled.hits", run.compiled["kernel_packets"],
            nf=parallel.nf.name,
        )
        obs.counter(
            "compiled.fallbacks", run.compiled["fallback_packets"],
            nf=parallel.nf.name,
        )
    return run


def run_functional(
    parallel: ParallelNF,
    trace: Trace,
    *,
    balance_tables_with: Trace | None = None,
    fastpath: bool = True,
    kernels: bool = True,
) -> FunctionalRun:
    """Execute ``trace`` on the parallel NF.

    ``balance_tables_with`` applies the static RSS++ rebalancing (§4)
    using a sample trace before the measured run — the "balanced" series
    of Figures 5 and 14.

    ``fastpath=False`` selects the packet-at-a-time reference path, the
    one the race sanitizer (:mod:`repro.analysis.race`) replays under,
    since its event log needs every packet in global trace order.
    Otherwise the trace's header columns are extracted once and every
    packet is hashed and steered in bulk from them; nothing about the
    trace object is remembered between runs, so a list mutated in place
    and run again is steered from its current packets.

    The batched run hands chunks to a
    :class:`~repro.sim.compiled.CompiledDispatcher`.  ``kernels=True``
    (the default) uses the NF's execution tree compiled into vectorized
    batch kernels, falling back to the interpreter per lane;
    ``kernels=False`` uses a dispatcher with no programs, so every lane
    runs on the interpreter.  Results stay bit-identical either way, and
    attached collectors see the same counter totals (kernel lanes emit
    ``nf.state_op`` in bulk).
    """
    if balance_tables_with is not None:
        parallel.rss.balance_tables(balance_tables_with)
    with obs.span(
        "sim.run_functional",
        nf=parallel.nf.name,
        n_packets=len(trace),
        fastpath=fastpath,
    ):
        if not fastpath or not trace:
            return _run_reference(parallel, trace)
        dispatcher = (
            _get_dispatcher(parallel) if kernels
            else CompiledDispatcher(parallel, {}, 0)
        )
        return _run_batched(parallel, TraceColumns(trace), dispatcher)
