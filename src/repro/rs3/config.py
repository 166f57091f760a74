"""Concrete RSS configurations: keys + field sets + indirection tables.

This is what the Code Generator installs on each port of the simulated
NIC: the product of the whole analysis pipeline, and the object the
functional simulator uses to steer every packet to a core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.nf.packet import Packet
from repro.rs3.fields import FieldSetOption
from repro.rs3.indirection import IndirectionTable
from repro.rs3.toeplitz import (
    hash_input_matrix,
    hash_input_rows,
    hash_packet,
    toeplitz_hash_batch,
)
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

    def hash_batch(self, packets: Sequence[Packet]) -> np.ndarray:
        """Vectorized RSS hashes of many packets arriving on this port."""
        return toeplitz_hash_batch(
            self.key, hash_input_matrix(packets, self.option)
        )

    def hash_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized hashes of pre-extracted ``(n, input_bytes)`` rows."""
        return toeplitz_hash_batch(self.key, rows)

    def queue_for(self, pkt: Packet) -> int:
        return self.table.lookup(self.hash(pkt))

    def steer_batch(self, packets: Sequence[Packet]) -> np.ndarray:
        """Cores for many packets: batch hash, then batch table lookup."""
        return self.table.steer_batch(self.hash_batch(packets))

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
        return self.port_config(port).queue_for(pkt)

    def port_config(self, port: int) -> PortRssConfig:
        try:
            return self.ports[port]
        except KeyError:
            raise SimulationError(f"no RSS configuration for port {port}") from None

    def steer_trace(
        self,
        trace: Sequence[tuple[int, Packet]],
        columns: TraceColumns | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(cores, slots)`` of every ``(port, packet)`` in ``trace``.

        What the NIC does, for a whole trace at once: every packet's
        hash input is hashed with its ingress port's Toeplitz key, and
        the low hash bits pick an indirection-table slot whose entry is
        the core.  There is no flow cache: steering is a pure function
        of the header bits and the current tables.  ``slots`` is the
        per-packet table index (``hash & (size - 1)``), the bucket
        elastic re-sharding migrates by.  ``columns`` (built from
        ``trace`` when omitted) supplies the header fields, so a run
        that already extracted them does not walk the packets again.
        """
        cols = columns if columns is not None else TraceColumns(trace)
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

    def balance_tables(
        self, sample: list[tuple[int, Packet]]
    ) -> None:
        """Statically rebalance every port's indirection table from a
        traffic sample (the RSS++ mechanism used in Figures 5/14)."""
        for port, config in self.ports.items():
            packets = [pkt for in_port, pkt in sample if in_port == port]
            loads = np.zeros(config.table.size, dtype=np.float64)
            if packets:
                hashes = config.hash_batch(packets)
                slots = hashes.astype(np.int64) & (config.table.size - 1)
                np.add.at(loads, slots, 1.0)
            config.table.balance(loads)
