"""NUMA placement model (§4, *NUMA considerations*).

Implements the paper's rule of thumb: "if the LLC is large enough to hold
all packet buffers at line-rate, then we should pin both the CPU and
memory to the same NUMA node as the NIC.  If, however, the LLC is too
small ... it's better to distribute cores evenly across NUMA nodes."
On the modelled testbed the LLC is large enough, so all experiments pin to
the NIC's node — matching the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw import params

__all__ = ["NumaTopology", "PinningAdvice", "DEFAULT_TOPOLOGY"]


@dataclass(frozen=True)
class PinningAdvice:
    """The placement decision and its rationale."""

    single_node: bool
    buffers_bytes: int
    ddio_capacity_bytes: int
    reason: str


@dataclass(frozen=True)
class NumaTopology:
    """A dual-socket host with one dual-port NIC on node 0."""

    nodes: int = 2
    cores_per_node: int = 16
    nic_node: int = 0
    llc_bytes: int = params.LLC_BYTES
    ddio_fraction: float = params.DDIO_LLC_FRACTION

    def in_flight_buffer_bytes(
        self, pkt_size: int, rx_descriptors: int = params.RX_QUEUE_DEPTH, queues: int = 16
    ) -> int:
        """Worst-case bytes of packet buffers DDIO keeps in the LLC."""
        # DPDK mbufs are rounded up to 2 KiB data rooms; the descriptor
        # ring bounds how many can be in flight per queue.
        buffer_bytes = max(2048, pkt_size)
        return rx_descriptors * queues * buffer_bytes // 8

    def advise(self, pkt_size: int = 64, queues: int = 16) -> PinningAdvice:
        """Apply the paper's rule of thumb."""
        ddio_capacity = int(self.llc_bytes * self.ddio_fraction)
        buffers = self.in_flight_buffer_bytes(pkt_size, queues=queues)
        single = buffers <= ddio_capacity
        reason = (
            "LLC holds all in-flight packet buffers: pin CPU+memory to the "
            "NIC's node"
            if single
            else "DDIO slice overflows: spread cores across nodes for more "
            "aggregate LLC"
        )
        return PinningAdvice(
            single_node=single,
            buffers_bytes=buffers,
            ddio_capacity_bytes=ddio_capacity,
            reason=reason,
        )


DEFAULT_TOPOLOGY = NumaTopology()
