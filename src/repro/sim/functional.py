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
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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
    "ChainRun",
    "run_chain",
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
                (int(run._core_ids[i]), run._packet_results[i])
                for i in indices
            ]
        if index < 0:
            index += run.n_packets
        if not 0 <= index < run.n_packets:
            raise IndexError("results index out of range")
        return (int(run._core_ids[index]), run._packet_results[index])

    def __iter__(self) -> Iterator[tuple[int, PacketResult]]:
        run = self._run
        core_ids = run._core_ids
        for i, result in enumerate(run._packet_results):
            yield (int(core_ids[i]), result)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_ResultsView, list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def append(self, item: tuple[int, PacketResult]) -> None:
        """List-compatible append: record one ``(core_id, result)``."""
        core_id, result = item
        self._run.add(core_id, result)


@dataclass
class FunctionalRun:
    """Results of pushing one trace through a parallel NF.

    Storage is array-backed: core ids and action codes live in
    preallocated NumPy arrays (grown geometrically when a run outlives
    its initial capacity) and the per-packet :class:`PacketResult`
    objects in a flat list.  ``results`` exposes the familiar
    ``[(core_id, result), ...]`` sequence as a zero-copy view, and the
    aggregate metrics are vectorized (``np.bincount``) and cached rather
    than re-looping over the results on every property access.
    """

    parallel: ParallelNF
    capacity: int = 0

    def __post_init__(self) -> None:
        capacity = max(int(self.capacity), 0)
        self._core_ids = np.zeros(capacity, dtype=np.int64)
        self._action_codes = np.zeros(capacity, dtype=np.int8)
        #: Prefix of ``_action_codes`` filled so far; bulk installs defer
        #: the per-result enum lookup until a metric actually needs it.
        self._codes_filled = 0
        self._packet_results: list[PacketResult] = []
        self._n = 0
        self._cache: dict[str, object] = {}

    # -------------------------------------------------------------- #
    # Storage
    # -------------------------------------------------------------- #
    def _ensure_capacity(self, n: int) -> None:
        if n <= len(self._core_ids):
            return
        new_size = max(n, 2 * len(self._core_ids), 1024)
        self._core_ids = np.resize(self._core_ids, new_size)
        self._action_codes = np.resize(self._action_codes, new_size)

    def add(self, core_id: int, result: PacketResult) -> None:
        """Record one processed packet."""
        i = self._n
        self._ensure_capacity(i + 1)
        self._core_ids[i] = core_id
        self._action_codes[i] = ACTION_CODES[result.kind]
        if self._codes_filled == i:
            self._codes_filled = i + 1
        self._packet_results.append(result)
        self._n = i + 1
        self._cache.clear()

    def _bulk_install(
        self, core_ids: np.ndarray, results: list[PacketResult]
    ) -> None:
        """Batched-path fill: all packets of a trace at once.

        Action codes are *not* materialized here — ``_fill_codes`` does it
        lazily on the first metric access, keeping the per-result enum
        lookup out of the simulation's timed path.
        """
        n = len(results)
        self._ensure_capacity(self._n + n)
        start = self._n
        self._core_ids[start : start + n] = core_ids
        self._packet_results.extend(results)
        self._n = start + n
        self._cache.clear()

    def _fill_codes(self) -> None:
        if self._codes_filled < self._n:
            start = self._codes_filled
            codes = ACTION_CODES
            self._action_codes[start : self._n] = np.fromiter(
                (codes[r.kind] for r in self._packet_results[start : self._n]),
                dtype=np.int8,
                count=self._n - start,
            )
            self._codes_filled = self._n

    @property
    def results(self) -> _ResultsView:
        return _ResultsView(self)

    @property
    def core_ids(self) -> np.ndarray:
        """Core of each packet, in trace order (read-only array view)."""
        view = self._core_ids[: self._n]
        view.flags.writeable = False
        return view

    @property
    def action_codes(self) -> np.ndarray:
        """Per-packet :data:`ACTION_CODES` value (read-only array view)."""
        self._fill_codes()
        view = self._action_codes[: self._n]
        view.flags.writeable = False
        return view

    @property
    def n_packets(self) -> int:
        return self._n

    # -------------------------------------------------------------- #
    # Metrics (vectorized, cached until the next add)
    # -------------------------------------------------------------- #
    def core_counts(self) -> np.ndarray:
        cached = self._cache.get("core_counts")
        if cached is None:
            cached = np.bincount(
                self._core_ids[: self._n], minlength=self.parallel.n_cores
            ).astype(np.int64)
            self._cache["core_counts"] = cached
        return cached.copy()

    def core_shares(self) -> np.ndarray:
        counts = self.core_counts().astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts

    def imbalance(self) -> float:
        """max-share / fair-share: 1.0 is perfect balance."""
        shares = self.core_shares()
        return float(shares.max() * self.parallel.n_cores)

    def action_counts(self) -> dict[ActionKind, int]:
        cached = self._cache.get("action_counts")
        if cached is None:
            self._fill_codes()
            counts = np.bincount(
                self._action_codes[: self._n], minlength=len(_KIND_FOR_CODE)
            )
            cached = {
                _KIND_FOR_CODE[code]: int(count)
                for code, count in enumerate(counts)
                if count
            }
            self._cache["action_counts"] = cached
        return dict(cached)

    def hard_write_flags(self) -> np.ndarray:
        """Per-packet flag: performed a hard (non-aging) state write.

        Computed once per run state (single pass over the op records) and
        cached; ``write_fraction`` is a vectorized mean over it.
        """
        cached = self._cache.get("hard_writes")
        if cached is None:
            soft = _SOFT_WRITE_OPS
            cached = np.fromiter(
                (
                    any(op.write and op.op not in soft for op in result.ops)
                    for result in self._packet_results
                ),
                dtype=bool,
                count=self._n,
            )
            cached.flags.writeable = False
            self._cache["hard_writes"] = cached
        return cached

    def write_fraction(self) -> float:
        """Fraction of packets performing a hard (non-aging) state write."""
        if not self._n:
            return 0.0
        return float(self.hard_write_flags().sum()) / self._n


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


def _run_reference(
    parallel: ParallelNF, trace: Trace, run: FunctionalRun
) -> FunctionalRun:
    """The seed packet-at-a-time path: scalar RSS per packet (the oracle)."""
    sink = obs.active_telemetry()
    if sink is None:
        for port, pkt in trace:
            run.add(*parallel.process(port, pkt))
        return run
    # Telemetry attached: same per-packet loop, with a window boundary
    # every ``window_packets`` packets.
    locked = parallel.lock_plan.locked
    n = len(trace)
    start = 0
    while start < n:
        end = min(start + sink.window_packets, n)
        before = [core.ctx.stat_snapshot(locked) for core in parallel.cores]
        packets = [0] * parallel.n_cores
        for i in range(start, end):
            core_id, result = parallel.process(*trace[i])
            run.add(core_id, result)
            packets[core_id] += 1
        sink.record_window(_window_rows(parallel, before, packets, locked))
        start = end
    return run


def _get_dispatcher(parallel: ParallelNF) -> CompiledDispatcher:
    """Compile (once) and cache the kernel dispatcher on the ParallelNF."""
    dispatcher = getattr(parallel, "_compiled_dispatcher", None)
    if dispatcher is None:
        dispatcher = compile_parallel(parallel)
        parallel._compiled_dispatcher = dispatcher
    return dispatcher


def _run_batched(
    parallel: ParallelNF,
    cols: TraceColumns,
    run: FunctionalRun,
    dispatcher: CompiledDispatcher,
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
    n = len(cols)
    results: list[PacketResult | None] = [None] * n
    stats_before = [_ctx_stat_snapshot(core.ctx) for core in parallel.cores]
    k0 = dispatcher.kernel_packets
    f0 = dispatcher.fallback_packets
    # Pause the cyclic GC for the batch: the loop allocates one result
    # (plus its mods/ops containers) per packet and frees nothing, so
    # generational collections triggered mid-batch only re-scan live
    # objects — worth ~15% of the whole per-packet budget at trace scale.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        edges = dispatcher.start_run(cols, core_ids, wp, bucket_ids=buckets)
        if sink is None:
            for i in range(len(edges) - 1):
                dispatcher.run_chunk(edges[i], edges[i + 1], results)
        elif n:
            locked = parallel.lock_plan.locked
            n_cores = parallel.n_cores
            w_edges = np.append(np.arange(0, n, wp), n)
            n_windows = len(w_edges) - 1
            flat = (np.arange(n) // wp) * n_cores + core_ids
            pkt_counts = np.bincount(
                flat, minlength=n_windows * n_cores
            ).reshape(n_windows, n_cores)
            k = 0
            before = [
                core.ctx.stat_snapshot(locked) for core in parallel.cores
            ]
            for i in range(len(edges) - 1):
                dispatcher.run_chunk(edges[i], edges[i + 1], results)
                if k < n_windows and edges[i + 1] == int(w_edges[k + 1]):
                    sink.record_window(
                        _window_rows(parallel, before, pkt_counts[k], locked)
                    )
                    k += 1
                    if k < n_windows:
                        before = [
                            core.ctx.stat_snapshot(locked)
                            for core in parallel.cores
                        ]
    finally:
        dispatcher.end_run()
        if gc_was_enabled:
            gc.enable()
    _reconcile_core_stats(parallel, core_ids, stats_before)
    run._bulk_install(core_ids, results)
    run.compiled = dispatcher.run_stats(k0, f0)
    run.compiled_path_ids = dispatcher.path_ids
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


def _ctx_stat_snapshot(ctx) -> tuple[int, int, int]:
    """``(reads, writes, new_flow_packets)`` lifetime totals of one ctx."""
    reads, writes, new_flows, _ = ctx.stat_snapshot()
    return reads, writes, new_flows


def _reconcile_core_stats(
    parallel: ParallelNF,
    core_ids: np.ndarray,
    stats_before: list[tuple[int, int, int]],
) -> None:
    """Bring CoreInstance counters to exactly the reference path's state.

    The batched path bypasses :meth:`CoreInstance.run`, so the per-core
    packet/read/write/new-flow totals are reconciled from the contexts'
    lifetime counters (``op_totals``/``new_flow_total``) instead: one
    snapshot delta per core — O(cores * state objects) — rather than a
    Python loop over every packet's op records.
    """
    per_core_packets = np.bincount(core_ids, minlength=parallel.n_cores)
    for core_id, core in enumerate(parallel.cores):
        reads0, writes0, new0 = stats_before[core_id]
        reads1, writes1, new1 = _ctx_stat_snapshot(core.ctx)
        core.packets += int(per_core_packets[core_id])
        core.reads += reads1 - reads0
        core.writes += writes1 - writes0
        core.new_flows += new1 - new0


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
    run = FunctionalRun(parallel=parallel, capacity=len(trace))
    with obs.span(
        "sim.run_functional",
        nf=parallel.nf.name,
        n_packets=len(trace),
        fastpath=fastpath,
    ):
        if not fastpath or not trace:
            return _run_reference(parallel, trace, run)
        dispatcher = (
            _get_dispatcher(parallel) if kernels
            else CompiledDispatcher(parallel, {}, 0)
        )
        return _run_batched(parallel, TraceColumns(trace), run, dispatcher)


# ------------------------------------------------------------------ #
# Chain execution
# ------------------------------------------------------------------ #
@dataclass
class ChainRun:
    """Aggregate outcome of executing a trace through a parallel chain."""

    results: list = field(default_factory=list)
    #: hop executions landing on each core (joint mode: every hop of a
    #: packet counts toward the packet's single steered core)
    core_hop_packets: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: packets processed per hop alias
    hop_packets: dict = field(default_factory=dict)
    #: cross-core handoffs observed (always 0 in joint mode)
    handoffs: int = 0
    #: hop-boundary transitions observed (handoff denominator)
    hop_transitions: int = 0

    @property
    def handoff_fraction(self) -> float:
        if not self.hop_transitions:
            return 0.0
        return self.handoffs / self.hop_transitions

    def core_shares(self) -> np.ndarray:
        total = self.core_hop_packets.sum()
        if not total:
            return self.core_hop_packets.astype(np.float64)
        return self.core_hop_packets / total


def run_chain(parallel, trace: Trace) -> ChainRun:
    """Execute ``trace`` through a :class:`repro.chain.runtime.ParallelChain`.

    The chain analogue of :func:`run_functional`'s reference path:
    packet-at-a-time in trace order (run-to-completion through the whole
    chain), recording per-core load, per-hop packet counts, and — in
    fallback mode — the cross-core handoffs the per-hop steering caused.
    """
    run = ChainRun(
        core_hop_packets=np.zeros(parallel.n_cores, dtype=np.int64),
        hop_packets={alias: 0 for alias in parallel.hops},
    )
    before_handoffs = parallel.handoffs
    before_transitions = parallel.hop_transitions
    with obs.span(
        "sim.run_chain",
        chain=parallel.chain.name,
        mode=parallel.mode,
        n_packets=len(trace),
    ):
        for port, pkt in trace:
            result = parallel.process(port, pkt)
            run.results.append(result)
            for step in result.steps:
                run.hop_packets[step.alias] += 1
                if step.core is not None:
                    run.core_hop_packets[step.core] += 1
    run.handoffs = parallel.handoffs - before_handoffs
    run.hop_transitions = parallel.hop_transitions - before_transitions
    return run
