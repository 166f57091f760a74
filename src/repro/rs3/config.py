"""Concrete RSS configurations: keys + field sets + indirection tables.

This is what the Code Generator installs on each port of the simulated
NIC: the product of the whole analysis pipeline, and the object the
functional simulator uses to steer every packet to a core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.nf.packet import Packet
from repro.rs3.fields import FieldSetOption
from repro.rs3.indirection import IndirectionTable
from repro.rs3.toeplitz import hash_input_rows, hash_packet, toeplitz_hash_batch
from repro.traffic.generator import TraceColumns

__all__ = ["PortRssConfig", "RssConfiguration"]


@dataclass
class PortRssConfig:
    """RSS state of one NIC port."""

    port: int
    key: bytes
    option: FieldSetOption
    table: IndirectionTable

    def hash(self, pkt: Packet) -> int:
        return hash_packet(self.key, pkt, self.option)

    def hash_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized hashes of pre-extracted ``(n, input_bytes)`` rows."""
        return toeplitz_hash_batch(self.key, rows)

    def key_hex(self) -> str:
        return self.key.hex(":")


@dataclass
class RssConfiguration:
    """Per-port RSS configuration for a whole NF deployment."""

    ports: dict[int, PortRssConfig]

    @classmethod
    def build(
        cls,
        keys: dict[int, bytes],
        options: dict[int, FieldSetOption],
        n_queues: int,
        reta_size: int = 512,
    ) -> "RssConfiguration":
        if set(keys) != set(options):
            raise SimulationError("keys and options must cover the same ports")
        return cls(
            ports={
                port: PortRssConfig(
                    port=port,
                    key=keys[port],
                    option=options[port],
                    table=IndirectionTable(n_queues, size=reta_size),
                )
                for port in keys
            }
        )

    @property
    def n_queues(self) -> int:
        return next(iter(self.ports.values())).table.n_queues

    def core_for(self, port: int, pkt: Packet) -> int:
        """The core that will process ``pkt`` arriving on ``port``."""
        config = self.port_config(port)
        return config.table.lookup(config.hash(pkt))

    def port_config(self, port: int) -> PortRssConfig:
        try:
            return self.ports[port]
        except KeyError:
            raise SimulationError(f"no RSS configuration for port {port}") from None

    def steer_trace(self, cols: TraceColumns) -> tuple[np.ndarray, np.ndarray]:
        """``(cores, slots)`` of every packet of a trace, from its columns.

        The one batched steering entry point, and what the NIC does for
        a whole trace at once: every packet's hash input is hashed with
        its ingress port's Toeplitz key, and the low hash bits pick an
        indirection-table slot whose entry is the core.  There is no
        flow cache: steering is a pure function of the header bits and
        the current tables, bit-identical to :meth:`core_for` per
        packet.  ``slots`` is the per-packet table index
        (``hash & (size - 1)``), the bucket elastic re-sharding migrates
        by and the load unit :meth:`balance_tables` balances.
        """
        n = len(cols)
        cores = np.zeros(n, dtype=np.int64)
        slots = np.zeros(n, dtype=np.int64)
        ports = cols.ports
        unique_ports = np.unique(ports)
        for port in unique_ports.tolist():
            config = self.port_config(port)
            if len(unique_ports) == 1:
                idx = slice(None)
                count = n
            else:
                idx = np.flatnonzero(ports == port)
                count = idx.size
            rows = hash_input_rows(
                [cols.field(f.packet_field)[idx] for f in config.option.fields],
                config.option,
                count,
            )
            hashes = config.hash_rows(rows)
            cores[idx] = config.table.steer_batch(hashes)
            slots[idx] = hashes.astype(np.int64) & (config.table.size - 1)
        return cores, slots

    @property
    def steering_generation(self) -> int:
        """Monotonic counter over every table mutation.

        Steering itself reads the tables afresh on every call, so it is
        never stale; the compiled dispatcher
        (:class:`repro.sim.compiled.CompiledDispatcher`) snapshots this
        value and flushes its classification memo whenever it moves —
        rebalancing an indirection table remaps flows to other cores, so
        a classification computed against one shard no longer applies.
        """
        return sum(config.table.generation for config in self.ports.values())

    def balance_tables(self, sample: list[tuple[int, Packet]]) -> None:
        """Statically rebalance the indirection tables from a traffic
        sample (the RSS++ mechanism used in Figures 5/14).

        Slot loads are summed over every port and each port's table is
        balanced with the same loads.  :meth:`IndirectionTable.balance`
        is deterministic in its loads, so the tables stay in lockstep and
        a flow's two directions, which the keys hash to the same slot on
        their two ports, keep landing on one core.
        """
        size = next(iter(self.ports.values())).table.size
        _, slots = self.steer_trace(TraceColumns(sample))
        loads = np.bincount(slots, minlength=size).astype(np.float64)
        for config in self.ports.values():
            config.table.balance(loads)
