"""Joint RSS key search for service chains.

A chain is end-to-end shardable when one Toeplitz steering at the chain
ingress satisfies *every* hop's sharding constraints simultaneously.
The chain analysis (:mod:`repro.analysis.chain_passes`) reduces the
hops' per-port field sets to a per-chain-port intersection (sound by
the generalized R2 rule: any non-empty subset of a port's active field
set is a valid, coarser sharding) plus pair maps lifted to chain ports;
this module translates that composition into the existing GF(2)
requirement language and reuses :class:`repro.rs3.solver.RssKeySolver`
— the joint search is the same homogeneous system, just built from the
intersection of all hops' constraint sets.

``verify_joint_steering`` is the independent batch-hash check: it
steers randomly generated packet pairs related by the lifted pair maps
through the concrete :class:`~repro.rs3.config.RssConfiguration` and
demands queue colocation, catching any gap between the GF(2) model and
the installed keys/indirection tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import NicCapabilityError, RssUnsatisfiableError
from repro.core.sharding import PairMap
from repro.nf.packet import Packet
from repro.rs3.config import RssConfiguration
from repro.rs3.fields import IPV4_TCP, FieldSetOption, NicModel, RssField
from repro.rs3.solver import (
    CancelField,
    KeySearchStats,
    MapFields,
    RssKeySolver,
)
from repro.traffic.generator import TraceColumns

__all__ = [
    "JointCompilation",
    "compile_joint",
    "solve_joint",
    "verify_joint_steering",
]

_FIELD_BY_NAME = {f.value: f for f in RssField}


@dataclass
class JointCompilation:
    """The chain-level requirement set over the chain's ingress ports."""

    port_options: dict[int, FieldSetOption]
    requirements: list["CancelField | MapFields"] = field(default_factory=list)
    #: chain ports with no constrained hop behind them (random key)
    free_ports: list[int] = field(default_factory=list)


def compile_joint(
    chain_ports: list[int],
    joint_fields: dict[int, tuple[str, ...]],
    pairs: list[PairMap],
    nic: NicModel,
    *,
    label: str = "chain",
) -> JointCompilation:
    """Translate composed chain constraints into solver requirements.

    ``joint_fields`` maps each *constrained* chain ingress port to the
    intersection of the reachable hops' sharding field sets; ports
    absent from the dict are unconstrained.  ``pairs`` are hop pair
    maps lifted to chain ports (restricted to the joint fields).
    """
    port_options: dict[int, FieldSetOption] = {}
    requirements: list["CancelField | MapFields"] = []
    free_ports: list[int] = []

    for port in chain_ports:
        active_names = joint_fields.get(port)
        if not active_names:
            port_options[port] = IPV4_TCP
            free_ports.append(port)
            continue
        try:
            active = frozenset(_FIELD_BY_NAME[name] for name in active_names)
        except KeyError as exc:
            raise RssUnsatisfiableError(
                f"{label}: joint field {exc} is not RSS-hashable"
            ) from exc
        try:
            option = nic.best_option_for(active)
        except NicCapabilityError as exc:
            raise RssUnsatisfiableError(str(exc)) from exc
        port_options[port] = option
        for fld in option.fields:
            if fld not in active:
                requirements.append(CancelField(port, fld))

    seen: set[tuple[int, str, int, str]] = set()
    for pair in pairs:
        for name_a, name_b in pair.field_map:
            field_a = _FIELD_BY_NAME.get(name_a)
            field_b = _FIELD_BY_NAME.get(name_b)
            if field_a is None or field_b is None:
                raise RssUnsatisfiableError(
                    f"{label}: lifted pair map uses non-RSS fields "
                    f"{name_a}->{name_b}"
                )
            if pair.port_a == pair.port_b and field_a == field_b:
                continue  # identity: trivially satisfied
            key = (pair.port_a, name_a, pair.port_b, name_b)
            if key in seen:
                continue  # several hops may lift to the same mapping
            seen.add(key)
            requirements.append(
                MapFields(pair.port_a, field_a, pair.port_b, field_b)
            )

    return JointCompilation(
        port_options=port_options,
        requirements=requirements,
        free_ports=free_ports,
    )


def solve_joint(
    compilation: JointCompilation,
    nic: NicModel,
    *,
    n_queues: int = 16,
    rng: np.random.Generator | None = None,
    stats: KeySearchStats | None = None,
) -> dict[int, bytes]:
    """Solve the joint system and check its keys exactly against every
    requirement (:meth:`RssKeySolver.verify`); raise when unsatisfiable."""
    solver = RssKeySolver(nic, compilation.port_options, n_queues=n_queues)
    keys = solver.solve(compilation.requirements, rng=rng, stats=stats)
    solver.verify(compilation.requirements, keys)
    return keys


def _random_packet(rng: np.random.Generator) -> Packet:
    return Packet(
        src_ip=int(rng.integers(1, 2**32)),
        dst_ip=int(rng.integers(1, 2**32)),
        src_port=int(rng.integers(1, 2**16)),
        dst_port=int(rng.integers(1, 2**16)),
    )


def verify_joint_steering(
    rss: RssConfiguration,
    pairs: list[PairMap],
    *,
    samples: int = 256,
    seed: int = 7,
) -> None:
    """Batch-hash check of the installed configuration.

    For every lifted pair map, generate random packets on ``port_a``
    and their mapped counterparts on ``port_b`` (mapped fields copied,
    everything else independently random — the joint key must have
    cancelled it), steer them as one two-port trace through the concrete
    keys and indirection tables, and require identical cores.  This is the
    steering-level complement of ``RssKeySolver.verify``: it exercises
    the exact table lookups the functional simulator uses.
    """
    rng = np.random.default_rng(seed)
    for pair in pairs:
        originals = [_random_packet(rng) for _ in range(samples)]
        partners = []
        for pkt in originals:
            partner = _random_packet(rng)
            mapped = {
                name_b: pkt.field(name_a)
                for name_a, name_b in pair.field_map
            }
            partners.append(replace(partner, **mapped))
        trace = [(pair.port_a, pkt) for pkt in originals]
        trace += [(pair.port_b, pkt) for pkt in partners]
        cores, _ = rss.steer_trace(TraceColumns(trace))
        bad = int(np.count_nonzero(cores[:samples] != cores[samples:]))
        if bad:
            raise RssUnsatisfiableError(
                f"joint steering violated: {bad}/{samples} mapped packet "
                f"pairs split cores across chain ports "
                f"{pair.port_a}->{pair.port_b}"
            )
