"""The RSS indirection table, with RSS++-style static balancing (§4).

The low bits of the Toeplitz hash index a table of queue identifiers.
Under uniform traffic a round-robin fill spreads load evenly; under
Zipfian traffic some entries carry elephant flows and overload their
queue.  ``balance`` implements the *static* version of the RSS++
rebalancer the paper integrated: given measured per-entry loads, it
reassigns entries (swapping from overloaded to underloaded queues) to
flatten the per-queue load — Figure 5's "balanced" series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = ["IndirectionTable"]


@dataclass
class IndirectionTable:
    """Maps hash values to queue (core) identifiers."""

    n_queues: int
    size: int = 512

    def __post_init__(self) -> None:
        if self.n_queues <= 0:
            raise SimulationError("need at least one queue")
        if self.size <= 0 or self.size & (self.size - 1):
            raise SimulationError("table size must be a power of two")
        self.entries = np.arange(self.size, dtype=np.int64) % self.n_queues
        #: Bumped on every entry reassignment (summed into
        #: ``RssConfiguration.steering_generation``).
        self.generation = 0

    def lookup(self, hash_value: int) -> int:
        """Queue id for a 32-bit RSS hash."""
        return int(self.entries[hash_value & (self.size - 1)])

    def steer_batch(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized hashes -> table slots -> queues for a whole trace.

        The batched twin of :meth:`lookup`: masks every 32-bit hash down
        to its table slot and gathers the queue ids in one shot.  Returns
        an int64 array the same length as ``hashes``.
        """
        return self.entries[np.asarray(hashes, dtype=np.int64) & (self.size - 1)]

    def reprogram(self, entries: np.ndarray) -> int:
        """Install a full replacement entry array (elastic re-sharding).

        The incremental RETA reprogramming primitive: the elastic-scaling
        controller computes a target assignment off to the side, migrates
        state bucket-by-bucket, then commits the new table in one shot.
        The generation is bumped **iff** at least one entry actually
        changed.  Returns the number of entries moved.
        """
        new = np.asarray(entries, dtype=np.int64)
        if new.shape != self.entries.shape:
            raise SimulationError(
                f"reprogram needs {self.entries.shape[0]} entries, "
                f"got {new.shape}"
            )
        if new.size and (new.min() < 0 or new.max() >= max(self.n_queues, new.max() + 1)):
            raise SimulationError("reprogram entries must be non-negative")
        moved = int((new != self.entries).sum())
        if moved:
            self.entries = new.copy()
            self.generation += 1
        return moved

    def retarget(self, n_queues: int) -> None:
        """Change the queue count without touching entries.

        Used by the elastic rescale: the entry array is reprogrammed
        separately (and owns the generation bump); this only records how
        many queues are active so ``queue_loads`` and round-robin helpers
        size their outputs correctly.
        """
        if n_queues <= 0:
            raise SimulationError("need at least one queue")
        self.n_queues = n_queues

    def queue_loads(self, entry_loads: np.ndarray) -> np.ndarray:
        """Per-queue load given per-entry load (e.g. packet counts)."""
        if entry_loads.shape != (self.size,):
            raise SimulationError(
                f"entry_loads must have shape ({self.size},)"
            )
        loads = np.zeros(self.n_queues, dtype=np.float64)
        np.add.at(loads, self.entries, entry_loads)
        return loads

    def rebalance(self, entry_loads: np.ndarray, max_moves: int = 8) -> int:
        """Incremental (dynamic) RSS++-style rebalancing.

        Where :meth:`balance` recomputes the whole table offline, this
        moves at most ``max_moves`` entries from the most- to the
        least-loaded queues — the bounded-migration behaviour the dynamic
        RSS++ rebalancer uses online so state migration stays cheap (§4:
        "their dynamic versions could be used to handle changes in skew
        over time").  Returns the number of entries moved.
        """
        if entry_loads.shape != (self.size,):
            raise SimulationError(
                f"entry_loads must have shape ({self.size},)"
            )
        moves = 0
        for _ in range(max_moves):
            loads = self.queue_loads(entry_loads)
            heavy = int(loads.argmax())
            light = int(loads.argmin())
            if heavy == light:
                break
            gap = loads[heavy] - loads[light]
            candidates = np.nonzero(self.entries == heavy)[0]
            if candidates.size <= 1:
                break
            # Move the heaviest entry that still shrinks the gap.
            weights = entry_loads[candidates]
            order = np.argsort(weights)[::-1]
            moved = False
            for index in order:
                entry = int(candidates[index])
                if 0 < entry_loads[entry] < gap:
                    self.entries[entry] = light
                    moves += 1
                    moved = True
                    break
            if not moved:
                break
        if moves:
            self.generation += 1
        return moves

    def balance(self, entry_loads: np.ndarray) -> None:
        """Reassign entries to flatten per-queue load (static RSS++).

        Greedy longest-processing-time assignment: walk entries from the
        heaviest down, placing each on the currently least-loaded queue.
        This is what "balanced indirection tables" means throughout the
        experiments (Figures 5 and 14).
        """
        if entry_loads.shape != (self.size,):
            raise SimulationError(
                f"entry_loads must have shape ({self.size},)"
            )
        self.generation += 1
        order = np.argsort(entry_loads)[::-1]
        loads = np.zeros(self.n_queues, dtype=np.float64)
        counts = np.zeros(self.n_queues, dtype=np.int64)
        for entry in order:
            # Least-loaded queue; tie-break on entry count to keep the
            # table useful if the measured loads were all zero.
            queue = int(np.lexsort((counts, loads))[0])
            self.entries[entry] = queue
            loads[queue] += float(entry_loads[entry])
            counts[queue] += 1
