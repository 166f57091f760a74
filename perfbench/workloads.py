"""Seeded traffic for the benchmark's workloads.

Flow tuples come from :class:`repro.traffic.TrafficGenerator` and Zipf
weights from :func:`repro.traffic.paper_zipf_weights`; packets are built
with :meth:`repro.nf.flow.FiveTuple.packet`.  Everything is generated
before any timing starts.  Every batch is its own list of its own
``Packet`` objects, and timestamps grow across the whole stream, so no
identity-keyed memo in the program can serve a batch it has seen before.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from repro.traffic import Trace, TrafficGenerator, paper_zipf_weights

__all__ = [
    "WORKLOADS",
    "FreshnessGuard",
    "StaleBatchError",
    "Traffic",
    "WorkloadSpec",
    "digest",
    "fresh_copy",
    "generate",
]

PKT_SIZE = 64
FORWARD_PORT = 0
REPLY_PORT = 1
#: Share of packets sent as the symmetric reply of an open flow.
REPLY_FRACTION = 0.3


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    n_flows: int
    #: Virtual clock of the timed stream, packets per virtual second.
    rate_pps: float
    #: Packets per timed batch.
    batch: int
    #: Timed batches per NF and leg for each second of ``--seconds``;
    #: sized so the timed region lasts about that long on a 2-core x86
    #: container.
    batches_per_s: float
    zipf: bool = False
    #: Per-packet probability that a new flow replaces the oldest live one.
    new_flow_prob: float = 0.0
    #: Flow-expiry horizon the NFs are built with (None keeps their default).
    expiration_s: float | None = None
    #: Untimed rounds that bring churn state to its steady mix of live
    #: and retired-but-unexpired flows before timing starts.
    warmup_rounds: int = 0
    round_s: float = 0.0


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "fresh_uniform",
            "2k uniform flows over warm state, 1 Mpps clock: steering, "
            "column build and kernels do the work, expiry never fires",
            n_flows=2000,
            rate_pps=1e6,
            batch=2048,
            batches_per_s=4.0,
        ),
        WorkloadSpec(
            "zipf_skew",
            "paper Zipf (48 of 1k flows carry 80%): few unique flows, "
            "memos and per-flow caches pay, hazard demotion and core skew show",
            n_flows=1000,
            rate_pps=1e6,
            batch=2048,
            batches_per_s=4.0,
            zipf=True,
        ),
        WorkloadSpec(
            "churn_expiry",
            "2k live flows, 5% of packets open a flow, 2 s expiry at 16 kpps: "
            "establishment fallback, allocation and expiry sweeps do the work",
            n_flows=2000,
            rate_pps=16e3,
            # One virtual second: every core sweeps once in every batch, so
            # each batch carries the same expiry work.
            batch=16000,
            batches_per_s=1.0,
            new_flow_prob=0.05,
            expiration_s=2.0,
            warmup_rounds=4,
            round_s=0.75,
        ),
    )
}


@dataclass
class Traffic:
    """One workload's packet stream, cut into batches."""

    #: Every flow's opening packet: what a newly built plan sees first.
    cold: Trace
    #: Untimed batches between the cold batch and the timed ones.
    warmup: list[Trace]
    timed: list[Trace]
    #: Share of timed packets that open a flow never seen before.
    new_flow_frac: float
    #: Virtual time covered by the timed batches.
    virtual_span_s: float


class _Builder:
    """Materializes (flow, reply?) picks into packets on a running clock."""

    def __init__(self, flows):
        self.forward = flows
        self.reverse = [flow.inverted() for flow in flows]
        self.clock = 0.0

    def trace(self, picks, replies, step_s: float) -> Trace:
        out: Trace = []
        t0 = self.clock
        for i, (flow, reply) in enumerate(zip(picks, replies)):
            ts = t0 + i * step_s
            if reply:
                out.append((REPLY_PORT, self.reverse[flow].packet(PKT_SIZE, ts)))
            else:
                out.append((FORWARD_PORT, self.forward[flow].packet(PKT_SIZE, ts)))
        self.clock = t0 + len(out) * step_s
        return out


def _batches(stream: Trace, size: int) -> list[Trace]:
    return [stream[i : i + size] for i in range(0, len(stream), size)]


def generate(spec: WorkloadSpec, seed: int, n_timed: int) -> Traffic:
    """The workload's stream for ``seed`` with ``n_timed`` timed batches."""
    gen = TrafficGenerator(seed=seed)
    rng = gen.rng
    n_timed_pkts = n_timed * spec.batch
    if spec.new_flow_prob:
        return _churn(spec, gen, n_timed_pkts)
    flows = gen.make_flows(spec.n_flows)
    build = _Builder(flows)
    step = 1.0 / spec.rate_pps
    cold = build.trace(rng.permutation(spec.n_flows).tolist(), [False] * spec.n_flows, step)
    weights = paper_zipf_weights(spec.n_flows) if spec.zipf else None
    picks = rng.choice(spec.n_flows, size=n_timed_pkts, p=weights)
    # The cold batch opened every flow, so any packet may be a reply.
    replies = rng.random(n_timed_pkts) < REPLY_FRACTION
    stream = build.trace(picks.tolist(), replies.tolist(), step)
    return Traffic(
        cold=cold,
        warmup=[],
        timed=_batches(stream, spec.batch),
        new_flow_frac=0.0,
        virtual_span_s=stream[-1][1].timestamp - stream[0][1].timestamp,
    )


def _churn(spec: WorkloadSpec, gen: TrafficGenerator, n_timed_pkts: int) -> Traffic:
    """Live set of ``n_flows``; new flows replace the oldest live one.

    The warm-up rounds send one forward packet per live flow each round,
    in shuffled order, and retire as many flows per virtual second as the
    timed stream does.  No live flow idles past the expiry horizon, and
    the timed stream starts with the steady mix of live flows and retired
    flows waiting to expire, without replaying seconds of virtual time.
    """
    rng = gen.rng
    n = spec.n_flows
    per_round = round(spec.new_flow_prob * spec.rate_pps * spec.round_s)
    is_new = rng.random(n_timed_pkts) < spec.new_flow_prob
    picks = rng.integers(0, n, size=n_timed_pkts)
    replies = rng.random(n_timed_pkts) < REPLY_FRACTION
    flows = gen.make_flows(n + spec.warmup_rounds * per_round + int(is_new.sum()))
    build = _Builder(flows)
    live = list(range(n))
    oldest = 0
    next_flow = n

    def admit() -> int:
        nonlocal oldest, next_flow
        flow = next_flow
        next_flow += 1
        live[oldest] = flow
        oldest = (oldest + 1) % n
        return flow

    warm_step = spec.round_s / n
    cold = build.trace([live[i] for i in rng.permutation(n)], [False] * n, warm_step)
    warmup = []
    for _ in range(spec.warmup_rounds):
        for _ in range(per_round):
            admit()
        order = [live[i] for i in rng.permutation(n)]
        warmup.append(build.trace(order, [False] * n, warm_step))
    timed_flows: list[int] = []
    timed_replies: list[bool] = []
    for new, pick, reply in zip(is_new.tolist(), picks.tolist(), replies.tolist()):
        if new:
            timed_flows.append(admit())
            timed_replies.append(False)
        else:
            # Every live flow has sent its opening forward packet already.
            timed_flows.append(live[pick])
            timed_replies.append(reply)
    stream = build.trace(timed_flows, timed_replies, 1.0 / spec.rate_pps)
    return Traffic(
        cold=cold,
        warmup=warmup,
        timed=_batches(stream, spec.batch),
        new_flow_frac=float(is_new.mean()),
        virtual_span_s=stream[-1][1].timestamp - stream[0][1].timestamp,
    )


def fresh_copy(trace: Trace) -> Trace:
    """The same packets as new objects in a new list."""
    return [(port, replace(pkt)) for port, pkt in trace]


def digest(traffic: Traffic) -> str:
    """SHA-256 over every packet's port, header fields and timestamp."""
    h = hashlib.sha256()
    for batch in [traffic.cold, *traffic.warmup, *traffic.timed]:
        for port, pkt in batch:
            h.update(
                f"{port},{pkt.src_ip},{pkt.dst_ip},{pkt.src_port},"
                f"{pkt.dst_port},{pkt.proto},{pkt.wire_size},{pkt.timestamp!r};".encode()
            )
        h.update(b"|")
    return h.hexdigest()


class StaleBatchError(RuntimeError):
    """A batch reached a plan that has already seen it or its packets."""


class FreshnessGuard:
    """Admits a batch to one plan only if the plan has never seen it.

    A batch must be a new list object, hold only ``Packet`` objects the
    plan has not been given before, and start strictly after the last
    timestamp of the previous batch.  A replayed trace therefore never
    passes as fresh.
    """

    def __init__(self) -> None:
        self._batch_ids: set[int] = set()
        self._packet_ids: set[int] = set()
        self._last_ts = float("-inf")
        # Holding the batches keeps their ids from being recycled.
        self._held: list[Trace] = []

    def admit(self, batch: Trace) -> None:
        if not batch:
            raise StaleBatchError("empty batch")
        if id(batch) in self._batch_ids:
            raise StaleBatchError("batch object replayed")
        ids = {id(pkt) for _, pkt in batch}
        if len(ids) != len(batch) or not self._packet_ids.isdisjoint(ids):
            raise StaleBatchError("packet objects reused")
        stamps = [pkt.timestamp for _, pkt in batch]
        if stamps[0] <= self._last_ts:
            raise StaleBatchError(
                f"batch starts at {stamps[0]!r}, not after {self._last_ts!r}"
            )
        self._batch_ids.add(id(batch))
        self._packet_ids |= ids
        self._last_ts = max(stamps)
        self._held.append(batch)
