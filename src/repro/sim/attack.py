"""Attacking state sharding (§5) — and Maestro's defense.

Shared-nothing sharding divides table capacity across cores, so an
attacker can "fill up" a single core with fewer flows than the sequential
NF would need — *if* they can aim flows at one core.  Aiming requires
flows whose RSS hashes collide into the same indirection-table entry;
"colliding flows end up on the same entry within the RSS indirection
table and thus cannot be split apart" even by RSS++ rebalancing.

Maestro's mitigation is key randomization: the colliding set an attacker
precomputes against one key scatters under a fresh key drawn from the
same constraint space, because only the *sharding-relevant* structure of
the key is pinned by the constraints — the remaining bits are random.

This module implements both sides: the attacker's collision search and
the measurement of how an attack set behaves under a different key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.codegen import ParallelNF
from repro.nf.flow import FiveTuple
from repro.nf.packet import PROTO_UDP
from repro.rs3.config import PortRssConfig
from repro.traffic.generator import TraceColumns

__all__ = ["AttackSet", "find_colliding_flows", "evaluate_attack"]


@dataclass
class AttackSet:
    """Flows an attacker crafted to land on one indirection-table entry."""

    port: int
    target_entry: int
    flows: list[FiveTuple]
    probes: int  # how many candidates the search examined

    def __len__(self) -> int:
        return len(self.flows)


def find_colliding_flows(
    config: PortRssConfig,
    n_flows: int,
    *,
    rng: np.random.Generator | None = None,
    max_probes: int = 500_000,
    target_entry: int | None = None,
) -> AttackSet:
    """Brute-force flows that share one indirection-table entry.

    Models the §5 attacker: they know the NF's sharding structure and the
    RSS key (e.g. leaked or default), so they can compute hashes offline
    and keep only colliding candidates.  With a 512-entry table roughly 1
    in 512 random flows collides, so the search is cheap for an attacker.
    """
    rng = rng or np.random.default_rng(0)
    mask = config.table.size - 1
    flows: list[FiveTuple] = []
    probes = 0
    while len(flows) < n_flows and probes < max_probes:
        probes += 1
        flow = FiveTuple(
            src_ip=int(rng.integers(1, 2**32)),
            dst_ip=int(rng.integers(1, 2**32)),
            src_port=int(rng.integers(1, 2**16)),
            dst_port=int(rng.integers(1, 2**16)),
            proto=PROTO_UDP,
        )
        entry = config.hash(flow.packet()) & mask
        if target_entry is None:
            target_entry = entry
        if entry == target_entry:
            flows.append(flow)
    if target_entry is None:
        raise ValueError("no candidate flows probed")
    return AttackSet(
        port=config.port, target_entry=target_entry, flows=flows, probes=probes
    )


@dataclass
class AttackOutcome:
    """How concentrated an attack set is under some configuration."""

    n_flows: int
    max_core_share: float
    cores_hit: int
    entries_hit: int

    @property
    def concentrated(self) -> bool:
        """All flows on one core: the attack works."""
        return self.cores_hit == 1


def evaluate_attack(
    parallel: ParallelNF, attack: AttackSet
) -> AttackOutcome:
    """Where does an attack set actually land under this deployment?

    Run against the deployment the set was crafted for, the outcome is
    fully concentrated; run against a deployment with a *re-randomized*
    key (same sharding constraints), the set disperses — the paper's
    mitigation argument.
    """
    trace = [(attack.port, flow.packet()) for flow in attack.flows]
    cores, slots = parallel.rss.steer_trace(TraceColumns(trace))
    counts = np.bincount(cores, minlength=parallel.n_cores)
    total = max(1, counts.sum())
    return AttackOutcome(
        n_flows=len(attack.flows),
        max_core_share=float(counts.max() / total),
        cores_hit=int((counts > 0).sum()),
        entries_hit=len(np.unique(slots)),
    )
