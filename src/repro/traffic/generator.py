"""Traffic generation: the simulated DPDK-Pktgen (§6.2, §6.3).

Produces ``(port, Packet)`` traces: uniform or Zipfian flow popularity,
configurable packet sizes (64 B default, or the Internet mix), optional
bidirectional traffic (LAN packets plus their symmetric WAN replies).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from repro.nf.flow import FiveTuple
from repro.nf.packet import PROTO_UDP, Packet
from repro.traffic.distributions import paper_zipf_weights

__all__ = ["Trace", "TraceColumns", "TrafficGenerator", "INTERNET_MIX"]

Trace = list[tuple[int, Packet]]


class TraceColumns:
    """Header columns of one trace, each pulled out of the packets once.

    The batched dataplane reads a trace column-wise: RSS steering hashes
    the header fields, the compiled dispatcher classifies on them and
    gates expiry on the timestamps.  One instance per run lets every
    consumer share the same arrays, so each ``Packet`` attribute is
    walked at most once however many layers read it.  The columns are a
    snapshot of ``trace`` at construction time.
    """

    __slots__ = ("trace", "packets", "ports", "_fields")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.packets = [pkt for _, pkt in trace]
        #: Ingress port of every packet.
        self.ports = np.fromiter(
            map(operator.itemgetter(0), trace), np.int64, count=len(trace)
        )
        self._fields: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.packets)

    def field(self, name: str) -> np.ndarray:
        """Column of packet attribute ``name`` (e.g. ``"src_ip"``).

        int64 for header fields and ``wire_size``; float64 for
        ``timestamp``.
        """
        col = self._fields.get(name)
        if col is None:
            col = np.fromiter(
                map(operator.attrgetter(name), self.packets),
                np.float64 if name == "timestamp" else np.int64,
                count=len(self.packets),
            )
            self._fields[name] = col
        return col

#: The classic Internet packet-size mix (IMIX): (size, weight).
INTERNET_MIX: tuple[tuple[int, float], ...] = (
    (64, 0.58),
    (576, 0.33),
    (1500, 0.09),
)


def _avg_size(mix: tuple[tuple[int, float], ...]) -> float:
    return sum(size * weight for size, weight in mix)


@dataclass
class TrafficGenerator:
    """Deterministic, seedable traffic synthesis."""

    seed: int = 0
    rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)

    # -------------------------------------------------------------- #
    def make_flows(self, n_flows: int) -> list[FiveTuple]:
        """Distinct random 5-tuples."""
        seen: set[FiveTuple] = set()
        flows: list[FiveTuple] = []
        while len(flows) < n_flows:
            flow = FiveTuple(
                src_ip=int(self.rng.integers(1, 2**32)),
                dst_ip=int(self.rng.integers(1, 2**32)),
                src_port=int(self.rng.integers(1, 2**16)),
                dst_port=int(self.rng.integers(1, 2**16)),
                proto=PROTO_UDP,
            )
            if flow not in seen:
                seen.add(flow)
                flows.append(flow)
        return flows

    def _sizes(
        self,
        n_packets: int,
        pkt_size: int | None,
        mix: tuple[tuple[int, float], ...] | None,
    ) -> np.ndarray:
        if mix is not None:
            sizes = np.array([s for s, _ in mix])
            weights = np.array([w for _, w in mix])
            return self.rng.choice(sizes, size=n_packets, p=weights / weights.sum())
        return np.full(n_packets, pkt_size or 64)

    # -------------------------------------------------------------- #
    def trace(
        self,
        n_packets: int,
        flows: list[FiveTuple],
        *,
        weights: np.ndarray | None = None,
        pkt_size: int | None = 64,
        size_mix: tuple[tuple[int, float], ...] | None = None,
        in_port: int = 0,
        reply_port: int | None = None,
        reply_fraction: float = 0.0,
        rate_pps: float = 1e6,
    ) -> Trace:
        """Synthesize a trace.

        ``weights`` selects flow popularity (None = uniform).  When
        ``reply_port`` is given, ``reply_fraction`` of packets are the
        symmetric replies of their flow arriving on that port — but a
        flow's first packet is always forward-direction, so stateful NFs
        see sessions opened before replies arrive.
        """
        picks = self.rng.choice(len(flows), size=n_packets, p=weights)
        sizes = self._sizes(n_packets, pkt_size, size_mix)
        replies = self.rng.random(n_packets) < reply_fraction
        seen_forward: set[int] = set()
        out: Trace = []
        for i in range(n_packets):
            flow = flows[int(picks[i])]
            timestamp = i / rate_pps
            is_reply = bool(replies[i]) and reply_port is not None
            if is_reply and int(picks[i]) not in seen_forward:
                is_reply = False  # first packet opens the session
            if is_reply:
                pkt = flow.inverted().packet(int(sizes[i]), timestamp)
                out.append((reply_port, pkt))
            else:
                seen_forward.add(int(picks[i]))
                out.append((in_port, flow.packet(int(sizes[i]), timestamp)))
        return out

    def uniform_trace(
        self, n_packets: int, n_flows: int, **kwargs
    ) -> tuple[Trace, list[FiveTuple]]:
        """Uniform flow popularity (the Figure 10 workload)."""
        flows = self.make_flows(n_flows)
        return self.trace(n_packets, flows, weights=None, **kwargs), flows

    def zipf_trace(
        self, n_packets: int, n_flows: int, **kwargs
    ) -> tuple[Trace, list[FiveTuple]]:
        """The paper's Zipfian workload (Figures 5 and 14)."""
        flows = self.make_flows(n_flows)
        weights = paper_zipf_weights(n_flows)
        return self.trace(n_packets, flows, weights=weights, **kwargs), flows
