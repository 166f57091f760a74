"""Semantic equivalence checking: parallel vs sequential (§1, §3).

Maestro's whole premise is that the generated parallel NF "preserves the
semantics of the sequential implementation".  Each checker runs the same
trace through both — the parallel side on the executors every other
caller uses (:func:`~repro.sim.functional.run_functional`'s reference
path, :func:`~repro.scale.elastic.run_elastic`,
:func:`~repro.chain.runtime.run_chain`) — then compares the finished
result lists packet by packet in one loop: action, egress port, header
rewrites.

Two documented divergences are permitted, matching the paper:

* **Allocator identities** (§6.1, NAT): the parallel NAT "does not enforce
  this uniqueness across cores, a feature that does not break semantic
  equivalence" — allocated values (external ports) may differ, so callers
  exclude those fields via ``ignore_mods``.
* **Capacity exhaustion** (§4, *State sharding*): a per-core shard can
  fill before the global table would; a capacity divergence is counted
  separately, not as a violation — attributed to the state object
  (allocator chain / table) that refused the insert.

``sanitize=True`` additionally runs the parallel side under the race
sanitizer (:mod:`repro.analysis.race`): a single-threaded run cannot
observe ordering hazards directly, so the sanitizer's lockset/ownership
checks are the way a racy-but-lucky plan gets caught here.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.chain.runtime import ChainResult, SequentialChainRunner, run_chain
from repro.core.codegen import ParallelNF
from repro.nf.api import ActionKind
from repro.nf.runtime import PacketResult, SequentialRunner
from repro.sim.functional import run_functional
from repro.traffic.generator import Trace

__all__ = [
    "Mismatch",
    "EquivalenceReport",
    "check_equivalence",
    "check_chain_equivalence",
]

#: ``describe()`` lists at most this many mismatches before summarizing.
MISMATCH_DISPLAY_CAP = 5

#: Ops that can refuse an insert when a shard fills, in the order the
#: attribution prefers them (the allocator is usually the root cause).
_CAPACITY_OPS = ("dchain_allocate", "map_put", "sketch_touch")


@dataclass(frozen=True)
class Mismatch:
    """One packet whose parallel behaviour diverged."""

    index: int
    port: int
    sequential: tuple
    parallel: tuple


@dataclass
class EquivalenceReport:
    """Aggregate result of an equivalence run."""

    n_packets: int
    mismatches: list[Mismatch] = field(default_factory=list)
    capacity_divergences: int = 0
    #: state object blamed for each capacity divergence -> count
    capacity_by_object: dict[str, int] = field(default_factory=dict)
    #: active race-sanitizer findings (``check_equivalence(sanitize=True)``)
    race_diagnostics: list = field(default_factory=list)
    #: last-N-packets flight-recorder context, captured at the first real
    #: mismatch (or at the end when the sanitizer found violations)
    flight_snapshot: list = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        race = (
            f"; race sanitizer: {len(self.race_diagnostics)} violation(s)"
            if self.race_diagnostics
            else ""
        )
        if self.equivalent:
            extra = ""
            if self.capacity_divergences:
                blamed = ", ".join(
                    f"{obj} ×{count}"
                    for obj, count in sorted(self.capacity_by_object.items())
                )
                extra = (
                    f" ({self.capacity_divergences} capacity divergences "
                    f"allowed{': ' + blamed if blamed else ''})"
                )
            return f"equivalent over {self.n_packets} packets{extra}{race}"
        shown = self.mismatches[:MISMATCH_DISPLAY_CAP]
        lines = [f"{len(self.mismatches)}/{self.n_packets} packets diverge:"]
        lines.extend(
            f"  #{m.index} (port {m.port}): sequential={m.sequential} "
            f"parallel={m.parallel}"
            for m in shown
        )
        remaining = len(self.mismatches) - len(shown)
        if remaining:
            lines.append(f"  ... and {remaining} more")
        return "\n".join(lines) + race


def _observable(result, ignore_mods: frozenset[str]) -> tuple:
    """Action, egress port and kept rewrites of a packet or chain result."""
    mods = tuple(
        sorted((k, v) for k, v in result.mods.items() if k not in ignore_mods)
    )
    return (result.kind, result.port, mods)


def _hop_results(result) -> list[PacketResult]:
    """Per-hop results of a chain result; a single NF's is its own hop."""
    if isinstance(result, ChainResult):
        return [step.result for step in result.steps]
    return [result]


def _new_flow(result) -> bool:
    """Whether any hop of a packet or chain result established a flow."""
    return any(hop.new_flow for hop in _hop_results(result))


def _default_flow_keys(port: int, pkt) -> list[tuple]:
    """Both orientations of the packet's header identity, untagged.

    Used to taint a flow once a capacity divergence is excused for it:
    the reply direction carries swapped addresses, and symmetric
    sharding sends it to the same diverged shard, so both orientations
    inherit the taint.  A reply may swap the MACs too or keep them in
    place (generated replies do), so the reverse orientation is keyed
    both ways.  ``port`` is deliberately excluded — the reply
    arrives on the other port.  The ``None`` tag matches any culprit
    object; callers that know the NF's real key structure pass
    ``flow_keys`` with per-state-object tags instead (partial keys like
    a src-port-only table alias many header tuples onto one entry,
    which header identity alone cannot see).
    """
    fwd = (
        pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port,
        pkt.proto, pkt.src_mac, pkt.dst_mac,
    )
    rev = (pkt.dst_ip, pkt.src_ip, pkt.dst_port, pkt.src_port, pkt.proto)
    return [
        (None, fwd),
        (None, rev + (pkt.dst_mac, pkt.src_mac)),
        (None, rev + (pkt.src_mac, pkt.dst_mac)),
    ]


def _matches_culprit(tag: str | None, culprit: str) -> bool:
    """A tagged key is relevant when its state-object prefix matches."""
    return tag is None or culprit == tag or culprit.startswith(tag + "_")


def _capacity_culprit(dropping: PacketResult) -> str:
    """Name the state object whose full shard caused the divergence.

    ``dropping`` is the last hop the dropping side executed: the one
    whose insert was refused.  Its op record ends at (or contains) the
    allocator/table op that said no.  Prefer the allocator chain —
    exhaustion surfaces there first.
    """
    for wanted in _CAPACITY_OPS:
        for op in reversed(dropping.ops):
            if op.op == wanted:
                return op.obj
    for op in reversed(dropping.ops):
        if op.write:
            return op.obj
    return "unknown"


def _compare(
    trace: Trace,
    seq_results: list,
    par_results: list,
    *,
    ignore_mods: frozenset[str],
    flow_keys=_default_flow_keys,
    refused_at: dict[int, list] | None = None,
    flight=None,
    core_ids: list[int] | None = None,
) -> EquivalenceReport:
    """Compare two finished runs of ``trace``, packet by packet.

    ``refused_at`` maps a packet index to the ``(obj, key)`` map entries
    a rescale just before that packet refused to install; ``flight`` and
    ``core_ids`` (single-NF runs) feed every parallel-side packet to the
    flight recorder.
    """
    report = EquivalenceReport(n_packets=len(trace))
    refused_at = refused_at or {}
    tainted: set[tuple] = set()
    #: (obj, key) map entries a rescale refused to install — the flow's
    #: state vanished exactly as a capacity refusal would make it, so
    #: later drop-vs-forward disagreements on those keys are excused.
    refused_state: set[tuple] = set()
    #: flow key -> the object that refused to record the flow on a
    #: packet both sides still handled alike; the flow's later
    #: drop-vs-forward packets are that object's capacity divergences.
    refused_flows: dict[tuple, str] = {}
    for index, ((port, pkt), seq_result, par_result) in enumerate(
        zip(trace, seq_results, par_results)
    ):
        refused_state.update(refused_at.get(index, ()))
        if flight is not None:
            flight.record(
                index,
                port,
                core_ids[index],
                par_result.kind.value,
                par_result.port,
                (
                    pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port,
                    pkt.proto,
                ),
                par_result.ops,
            )
        seq_obs = _observable(seq_result, ignore_mods)
        par_obs = _observable(par_result, ignore_mods)
        if seq_obs == par_obs:
            # An NF that forwards a packet whether or not it could record
            # the flow (the firewall's LAN side) differs only in
            # ``new_flow``; the side without it refused if its last hop
            # ran a capacity op.
            seq_new = _new_flow(seq_result)
            refusing = _hop_results(par_result if seq_new else seq_result)[-1]
            if seq_new != _new_flow(par_result) and any(
                op.op in _CAPACITY_OPS for op in refusing.ops
            ):
                refuser = _capacity_culprit(refusing)
                for tagged in flow_keys(port, pkt):
                    if _matches_culprit(tagged[0], refuser):
                        refused_flows[tagged] = refuser
            continue
        # Capacity divergence: one side dropped/refused because its
        # (smaller) shard filled while the other still had room.
        # ``new_flow`` marks the establishing packet; once a flow's
        # establishment diverged, its state differs on the two sides
        # for good, so every later drop-vs-forward disagreement on
        # the same flow keys is the same capacity story, not a bug
        # (repeat packets of a refused flow re-fail the allocator
        # without ever raising ``new_flow``).
        if (
            seq_result.kind != par_result.kind
            and ActionKind.DROP in (seq_result.kind, par_result.kind)
        ):
            dropping = (
                par_result if par_result.kind is ActionKind.DROP
                else seq_result
            )
            culprit = _capacity_culprit(_hop_results(dropping)[-1])
            relevant = [
                tagged
                for tagged in flow_keys(port, pkt)
                if _matches_culprit(tagged[0], culprit)
            ]
            if (
                _new_flow(seq_result)
                or _new_flow(par_result)
                or any(tagged in tainted for tagged in relevant)
                or any(
                    rkey == tagged[1] and _matches_culprit(tagged[0], robj)
                    for (robj, rkey) in refused_state
                    for tagged in relevant
                )
            ):
                tainted.update(relevant)
            else:
                keys = [t for t in flow_keys(port, pkt) if t in refused_flows]
                culprit = refused_flows[keys[0]] if keys else None
            if culprit is not None:
                report.capacity_divergences += 1
                report.capacity_by_object[culprit] = (
                    report.capacity_by_object.get(culprit, 0) + 1
                )
                continue
        report.mismatches.append(
            Mismatch(
                index=index, port=port, sequential=seq_obs, parallel=par_obs
            )
        )
        if flight is not None and not report.flight_snapshot:
            # First genuine mismatch: freeze the tail of the run.
            report.flight_snapshot = flight.snapshot()
    return report


def _run_parallel(
    parallel: ParallelNF,
    trace: Trace,
    rescale_events: Iterable[tuple[int, int]] | None,
):
    """Run ``trace`` on the reference executor, rescaling if asked.

    Returns the run and, per rescale position, the map entries that
    rescale refused to install.
    """
    if not rescale_events:
        return run_functional(parallel, trace, fastpath=False), {}
    # Lazy import: repro.scale builds on repro.sim, not the other way.
    from repro.scale.elastic import RescaleEvent, run_elastic

    events = sorted(
        (RescaleEvent(int(at), int(n)) for at, n in rescale_events),
        key=lambda event: event.at_packet,
    )
    elastic = run_elastic(parallel, trace, events, fastpath=False)
    refused_at = {
        event.at_packet: stats.refused_keys
        for event, stats in zip(events, elastic.rescales)
    }
    return elastic.run, refused_at


def check_equivalence(
    make_nf,
    parallel: ParallelNF,
    trace: Trace,
    *,
    ignore_mods: Iterable[str] = (),
    sanitize: bool = False,
    tree=None,
    flow_keys=None,
    flight=None,
    rescale_events: Iterable[tuple[int, int]] | None = None,
) -> EquivalenceReport:
    """Run ``trace`` through a fresh sequential NF and ``parallel``, then
    compare the two runs.

    ``make_nf`` is a zero-argument factory producing the sequential
    reference (fresh state).  The parallel side runs on
    :func:`~repro.sim.functional.run_functional`'s packet-at-a-time
    reference path.  ``ignore_mods`` names header rewrites with
    allocator-dependent values (e.g. the NAT's external ``src_port``).

    ``sanitize=True`` installs the race sanitizer's event probes on the
    parallel NF for the duration of the run and attaches the active
    findings as ``report.race_diagnostics``; pass the analysis ``tree``
    (``MaestroResult.tree``) to also enable the MAE104 footprint
    cross-validation and the R5 ownership excusals.

    ``flow_keys`` customizes capacity-divergence tainting: a callable
    ``(port, pkt) -> [(tag, key), ...]`` naming every NF flow identity
    the packet belongs to, where ``tag`` is the state-object prefix the
    key addresses (``None`` = matches any object).  Defaults to the
    packet's full header identity in both orientations, which is
    correct for NFs keyed on (subsets including) the five-tuple but too
    narrow for partial keys — a src-port-only table aliases many header
    tuples onto one entry.

    ``flight`` accepts a :class:`repro.obs.flight.FlightRecorder`: the
    comparison records every parallel-side packet (core, flow hash,
    path id, state ops) into its ring and the buffer is snapshotted into
    ``report.flight_snapshot`` at the first genuine mismatch — the
    last-N-packets context a reproducer ships with — or at the end
    when the sanitizer reported violations.

    ``rescale_events`` makes the run *elastic-aware*: a sequence of
    ``(packet_index, n_cores)`` pairs, run through
    :func:`repro.scale.elastic.run_elastic` (reference path), so each
    rescale lands immediately **before** the packet at its index.
    Positions must lie in ``0..len(trace)``, one event per position, or
    it raises :class:`~repro.errors.SimulationError`.  ``run_elastic``
    enables elastic mode on ``parallel`` if it is not already on.  The
    sequential reference is untouched — the whole point is proving that
    a mid-trace grow/shrink is behaviour-preserving.  Under
    ``sanitize=True`` the migrations are reported to the race monitor,
    so MAE103 checks the ownership handoffs and MAE105 the quiesce
    epochs.
    """
    seq_results = SequentialRunner(make_nf()).process_trace(trace)
    race_diagnostics: list = []
    if sanitize:
        from repro.analysis.race import RaceMonitor, analyze_monitor

        with RaceMonitor(parallel) as monitor:
            run, refused_at = _run_parallel(parallel, trace, rescale_events)
        race_diagnostics = analyze_monitor(monitor, tree=tree).diagnostics
    else:
        run, refused_at = _run_parallel(parallel, trace, rescale_events)
    report = _compare(
        trace,
        seq_results,
        run.packet_results,
        ignore_mods=frozenset(ignore_mods),
        flow_keys=flow_keys or _default_flow_keys,
        refused_at=refused_at,
        flight=flight,
        core_ids=run.core_ids.tolist(),
    )
    report.race_diagnostics = race_diagnostics
    if (
        flight is not None
        and not report.flight_snapshot
        and report.race_diagnostics
    ):
        # Sanitizer-only findings surface after the run; attach the
        # final ring so MAE1xx reports still carry packet context.
        report.flight_snapshot = flight.snapshot()
    return report


def check_chain_equivalence(
    chain,
    parallel,
    trace: Trace,
    *,
    registry: dict[str, type] | None = None,
    ignore_mods: Iterable[str] = (),
    sanitize: bool = False,
    trees: dict | None = None,
) -> EquivalenceReport:
    """Differentially validate a parallel chain against its sequential
    reference.

    Runs ``trace`` through a fresh
    :class:`repro.chain.runtime.SequentialChainRunner` (every hop a
    single-core NF with full-capacity state) and, with
    :func:`~repro.chain.runtime.run_chain`, through ``parallel`` (a
    :class:`repro.chain.runtime.ParallelChain` in joint or fallback
    mode), then compares each packet's chain-level observable: terminal
    action, chain egress port, and accumulated header rewrites.

    Capacity divergences are excused per flow exactly like the
    single-NF checker: a drop-vs-forward disagreement whose dropping
    side's last hop refused an insert (or whose flow was already
    tainted) is counted, attributed to the refusing state object, and
    not reported as a violation.

    ``sanitize=True`` installs a race monitor on *every* hop's
    generated ParallelNF for the duration of the run; pass ``trees``
    (hop alias -> execution tree) to enable the MAE104 footprint
    cross-validation per hop.  All hops' findings are concatenated into
    ``report.race_diagnostics``.
    """
    seq_results = SequentialChainRunner(chain, registry).process_trace(trace)
    monitors = {}
    with contextlib.ExitStack() as stack:
        if sanitize:
            from repro.analysis.race import RaceMonitor

            monitors = {
                alias: stack.enter_context(RaceMonitor(hop_parallel))
                for alias, hop_parallel in parallel.hops.items()
            }
        par_results = run_chain(parallel, trace).results
    report = _compare(
        trace, seq_results, par_results, ignore_mods=frozenset(ignore_mods)
    )
    if monitors:
        from repro.analysis.race import analyze_monitor

        trees = trees or {}
        for alias, monitor in monitors.items():
            report.race_diagnostics.extend(
                analyze_monitor(monitor, tree=trees.get(alias)).diagnostics
            )
    return report
