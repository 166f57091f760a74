"""Flow abstractions.

A *flow* (the paper's term; also "flowspace"/"scope" in prior work) is the
unit of state isolation an NF tracks: related packets identified through
header fields.  Traffic generators synthesize packets from
:class:`FiveTuple`s; the sharding analysis infers which fields *define*
flows for a given NF.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nf.packet import PROTO_UDP, Packet

__all__ = ["FiveTuple"]


@dataclass(frozen=True, order=True)
class FiveTuple:
    """The classic 5-tuple flow identifier."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int = PROTO_UDP

    def inverted(self) -> "FiveTuple":
        """The reply direction."""
        return FiveTuple(
            self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.proto
        )

    def packet(self, wire_size: int = 64, timestamp: float = 0.0) -> Packet:
        """Materialize a packet of this flow."""
        return Packet(
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            src_port=self.src_port,
            dst_port=self.dst_port,
            proto=self.proto,
            wire_size=wire_size,
            timestamp=timestamp,
        )
