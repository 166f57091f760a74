"""Exception hierarchy for the Maestro reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SymbolicError(ReproError):
    """Raised when symbolic execution encounters an unsupported construct."""


class PathExplosionError(SymbolicError):
    """Raised when ESE exceeds the configured path budget.

    The paper requires statically-bounded loops (limitation (ii) in §5);
    this error is how we surface violations of that requirement.
    """


class StateModelError(ReproError):
    """Raised on misuse of the stateful data structures (Table 1)."""


class ShardingError(ReproError):
    """Raised when the Constraints Generator cannot produce a verdict."""


class RssUnsatisfiableError(ReproError):
    """Raised when no RSS key satisfies the sharding constraints.

    Mirrors Maestro's behaviour of warning the user with the fundamental
    reason why a shared-nothing approach is infeasible (§3.4, R3/R4).
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NicCapabilityError(ReproError):
    """Raised when a required packet field cannot be hashed by the NIC."""


class SimulationError(ReproError):
    """Raised on inconsistent simulator configuration."""


class ChainError(ReproError):
    """Raised on malformed chain descriptions or broken chain wiring.

    Covers both parse-time problems in ``.chain`` files (unknown hop
    aliases, duplicate wires) and run-time wiring violations (a packet
    forwarded out of a port with no wire or egress attached).
    """


class WaiverError(ReproError):
    """Raised when a ``# maestro: waive[...]`` comment names an unknown
    diagnostic code — a typo'd waiver would otherwise silently fail to
    suppress anything (or worse, suggest a finding was reviewed when it
    never fired)."""
