"""Chain execution: the sequential reference and the parallel executor.

Both run each packet to completion through the chain (:func:`_walk`): a
hop's ``FORWARD`` follows the chain's wire/egress map (header rewrites
are applied to the packet before the next hop sees it), ``DROP`` and
``FLOOD`` terminate the packet at chain level.

:func:`run_chain` is the one executor of a :class:`ParallelChain`
deployment, in the two steering modes the chain analysis produces:

* ``joint`` — one RSS decision at the chain ingress (the joint Toeplitz
  key from :mod:`repro.rs3.joint`), taken for the whole trace by
  ``steer_trace``; every hop then runs on that same core.  This is the
  shared-nothing end-to-end plan: no cross-core handoffs, per-hop shard
  ownership follows from the joint key satisfying the intersection of
  all hops' constraints.
* ``fallback`` — every hop steers with its own per-NF RSS key (the
  NFork-style per-NF scaling contrast).  Correct per hop, but a flow
  may migrate between cores at each hop boundary; each result counts
  those handoffs so :mod:`repro.sim.perf` can price them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from repro import obs
from repro.core.codegen import ParallelNF
from repro.errors import ChainError, SimulationError
from repro.chain.dsl import Chain, Egress, Wire, default_registry
from repro.nf.api import NF, ActionKind
from repro.nf.packet import PACKET_FIELDS, Packet
from repro.nf.runtime import PacketResult, SequentialRunner
from repro.rs3.config import RssConfiguration
from repro.traffic.generator import Trace, TraceColumns

__all__ = [
    "HopStep",
    "ChainResult",
    "SequentialChainRunner",
    "ParallelChain",
    "ChainRun",
    "run_chain",
    "benchmark_chain_trace",
]


@dataclass(frozen=True)
class HopStep:
    """One hop's contribution to a packet's journey."""

    alias: str
    port: int
    core: int | None
    result: PacketResult


@dataclass
class ChainResult:
    """The chain-level outcome of one packet."""

    kind: ActionKind
    #: chain egress port for FORWARD; None for DROP/FLOOD
    port: int | None
    #: the packet as it left the chain (hop rewrites applied)
    pkt: Packet
    steps: list[HopStep] = field(default_factory=list)
    #: accumulated header rewrites (later hops override earlier ones)
    mods: dict[str, int] = field(default_factory=dict)

    @property
    def handoffs(self) -> int:
        """Hop boundaries whose core differs from the previous hop's
        (0 in joint mode and on the sequential reference)."""
        cores = [step.core for step in self.steps]
        return sum(a != b for a, b in zip(cores, cores[1:]))


def _apply_mods(pkt: Packet, mods: dict[str, int]) -> Packet:
    if not mods:
        return pkt
    known = {k: v for k, v in mods.items() if k in PACKET_FIELDS}
    return replace(pkt, **known)


def instantiate_hops(
    chain: Chain, registry: dict[str, type] | None = None
) -> dict[str, NF]:
    """Fresh NF instances for every hop, in declaration order."""
    registry = registry if registry is not None else default_registry()
    hops: dict[str, NF] = {}
    for hop in chain.hops.values():
        try:
            cls = registry[hop.nf_name]
        except KeyError:
            raise ChainError(
                f"{chain.name}: hop {hop.alias!r} names unknown NF "
                f"{hop.nf_name!r} (known: {', '.join(sorted(registry))})"
            ) from None
        hops[hop.alias] = cls()
    return hops


def _walk(
    chain: Chain,
    chain_port: int,
    pkt: Packet,
    run_hop,
) -> ChainResult:
    """Shared run-to-completion traversal.

    ``run_hop(alias, port, pkt) -> (core, PacketResult)`` executes one
    hop; the traversal handles wiring, rewrites, and termination.
    """
    ingress = chain.ingress_for(chain_port)
    alias, port = ingress.hop, ingress.port
    cur = pkt
    steps: list[HopStep] = []
    mods: dict[str, int] = {}
    budget = 4 * len(chain.hops) + 4
    for _ in range(budget):
        core, result = run_hop(alias, port, cur)
        steps.append(HopStep(alias=alias, port=port, core=core, result=result))
        if result.mods:
            mods.update(result.mods)
            cur = _apply_mods(cur, result.mods)
        if result.kind is ActionKind.DROP:
            return ChainResult(ActionKind.DROP, None, cur, steps, mods)
        if result.kind is ActionKind.FLOOD:
            # A mid-chain flood is a chain-level flood: the packet leaves
            # on every chain port, which downstream comparison treats as
            # one terminal observable.
            return ChainResult(ActionKind.FLOOD, None, cur, steps, mods)
        if not isinstance(result.port, int):
            raise ChainError(
                f"{chain.name}: hop {alias!r} forwarded to non-integer "
                f"port {result.port!r}"
            )
        nxt = chain.next_of(alias, result.port)
        if nxt is None:
            raise ChainError(
                f"{chain.name}: hop {alias!r} forwarded out of unmapped "
                f"port {result.port} (no wire or egress; the analyzer "
                "reports this as MAE204)"
            )
        if isinstance(nxt, Egress):
            return ChainResult(
                ActionKind.FORWARD, nxt.chain_port, cur, steps, mods
            )
        assert isinstance(nxt, Wire)
        alias, port = nxt.dst, nxt.dst_port
    raise ChainError(
        f"{chain.name}: packet exceeded {budget} hop traversals "
        "(wiring cycle?)"
    )


class SequentialChainRunner:
    """The sequential reference: every hop is a fresh single-core NF."""

    def __init__(self, chain: Chain, registry: dict[str, type] | None = None):
        self.chain = chain
        self.runners: dict[str, SequentialRunner] = {
            alias: SequentialRunner(nf)
            for alias, nf in instantiate_hops(chain, registry).items()
        }

    def process(self, chain_port: int, pkt: Packet) -> ChainResult:
        def run_hop(alias: str, port: int, cur: Packet):
            return None, self.runners[alias].process(port, cur)

        return _walk(self.chain, chain_port, pkt, run_hop)

    def process_trace(
        self, trace: list[tuple[int, Packet]]
    ) -> list[ChainResult]:
        return [self.process(port, pkt) for port, pkt in trace]


@dataclass
class ParallelChain:
    """A parallel chain deployment record: per-hop generated NFs +
    steering mode (:func:`run_chain` executes it)."""

    chain: Chain
    hops: dict[str, ParallelNF]
    #: "joint" (one chain-ingress steering) or "fallback" (per-hop RSS)
    mode: str
    #: chain-ingress RSS configuration; required in joint mode
    joint_rss: RssConfiguration | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("joint", "fallback"):
            raise SimulationError(f"unknown chain mode {self.mode!r}")
        if self.mode == "joint" and self.joint_rss is None:
            raise SimulationError("joint mode needs a joint RSS configuration")
        cores = {parallel.n_cores for parallel in self.hops.values()}
        if len(cores) > 1:
            raise SimulationError(
                f"hops disagree on core count: {sorted(cores)}"
            )

    @property
    def n_cores(self) -> int:
        return next(iter(self.hops.values())).n_cores


@dataclass(frozen=True)
class ChainRun:
    """A trace's run through a parallel chain: the per-packet results,
    and every aggregate derived from them on first use."""

    parallel: ParallelChain
    results: list[ChainResult]

    @cached_property
    def hop_packets(self) -> dict[str, int]:
        """Packets processed per hop alias (every hop, zeros included)."""
        counts = dict.fromkeys(self.parallel.hops, 0)
        for result in self.results:
            for step in result.steps:
                counts[step.alias] += 1
        return counts

    @cached_property
    def core_hop_packets(self) -> np.ndarray:
        """Hop executions landing on each core (joint mode: every hop of
        a packet counts toward the packet's single steered core)."""
        cores = [step.core for result in self.results for step in result.steps]
        return np.bincount(cores, minlength=self.parallel.n_cores)

    @cached_property
    def handoffs(self) -> int:
        """Hop boundaries that changed core (always 0 in joint mode)."""
        return sum(result.handoffs for result in self.results)

    @cached_property
    def hop_transitions(self) -> int:
        """Hop boundaries crossed (the handoff denominator)."""
        return sum(len(result.steps) - 1 for result in self.results)

    @property
    def handoff_fraction(self) -> float:
        transitions = self.hop_transitions
        return self.handoffs / transitions if transitions else 0.0

    def core_shares(self) -> np.ndarray:
        loads = self.core_hop_packets.astype(np.float64)
        return loads / loads.sum() if loads.any() else loads


def run_chain(parallel: ParallelChain, trace: Trace) -> ChainRun:
    """Run ``trace`` through ``parallel``, each packet to completion, in
    trace order.

    Joint mode steers the whole trace at the chain ingress first (an
    unknown ingress port raises :class:`~repro.errors.SimulationError`
    before any packet runs), then runs every hop on the packet's core.
    Fallback mode re-steers at every hop with that hop's own
    :meth:`~repro.core.codegen.ParallelNF.process`.
    """
    chain, hops = parallel.chain, parallel.hops
    with obs.span(
        "sim.run_chain", chain=chain.name, mode=parallel.mode,
        n_packets=len(trace),
    ):
        if parallel.mode == "joint":
            cores, _ = parallel.joint_rss.steer_trace(TraceColumns(trace))
            cores = cores.tolist()

            def run_hop(core: int, alias: str, port: int, pkt: Packet):
                return core, hops[alias].cores[core].ctx.run(port, pkt)

        else:
            cores = repeat(None)

            def run_hop(_: None, alias: str, port: int, pkt: Packet):
                return hops[alias].process(port, pkt)

        results = [
            _walk(chain, port, pkt, partial(run_hop, core))
            for (port, pkt), core in zip(trace, cores)
        ]
    return ChainRun(parallel, results)


def benchmark_chain_trace(
    chain: Chain,
    n_flows: int = 128,
    packets: int = 512,
    *,
    seed: int = 12345,
    pkt_size: int = 64,
    reply_fraction: float = 0.25,
) -> list[tuple[int, Packet]]:
    """A uniform chain workload over the chain's ingress ports.

    Forward flows enter on the first declared chain ingress; when a
    second ingress exists, a ``reply_fraction`` of packets for
    already-seen flows arrives there with inverted headers (the
    symmetric-reply pattern of the per-NF benchmark traces).
    """
    ports = [ing.chain_port for ing in chain.ingresses]
    forward_port = ports[0]
    reply_port = ports[1] if len(ports) > 1 else None
    rng = np.random.default_rng(seed)
    flows = [
        Packet(
            src_ip=int(rng.integers(1, 2**32)),
            dst_ip=int(rng.integers(1, 2**32)),
            src_port=int(rng.integers(1, 2**16)),
            dst_port=int(rng.integers(1, 2**16)),
            wire_size=pkt_size,
        )
        for _ in range(n_flows)
    ]
    trace: list[tuple[int, Packet]] = []
    seen: set[int] = set()
    for _ in range(packets):
        pick = int(rng.integers(0, n_flows))
        pkt = flows[pick]
        if (
            reply_port is not None
            and pick in seen
            and rng.random() < reply_fraction
        ):
            trace.append((reply_port, pkt.inverted()))
        else:
            seen.add(pick)
            trace.append((forward_port, pkt))
    return trace
