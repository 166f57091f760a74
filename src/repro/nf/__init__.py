"""The NF substrate: packets, flows, stateful structures, API, runtime."""

from repro.nf.api import (
    NF,
    ActionKind,
    NfContext,
    PacketDone,
    StateDecl,
    StateKind,
    declared_state_names,
)
from repro.nf.flow import FiveTuple
from repro.nf.packet import PACKET_FIELDS, Packet, SymbolicPacket, field_symbol
from repro.nf.runtime import (
    ConcreteContext,
    OpRecord,
    PacketResult,
    SequentialRunner,
    StateStore,
)
from repro.nf.state import DChain, Map, Sketch, Vector

__all__ = [
    "NF",
    "ActionKind",
    "NfContext",
    "PacketDone",
    "StateDecl",
    "StateKind",
    "declared_state_names",
    "FiveTuple",
    "PACKET_FIELDS",
    "Packet",
    "SymbolicPacket",
    "field_symbol",
    "ConcreteContext",
    "OpRecord",
    "PacketResult",
    "SequentialRunner",
    "StateStore",
    "DChain",
    "Map",
    "Sketch",
    "Vector",
]
