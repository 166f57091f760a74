"""RS3: the RSS key solver.

Takes bit-level key requirements — *cancel this field on this port* and
*these two fields (possibly on different ports) must hash identically* —
and finds per-port Toeplitz keys satisfying all of them, exactly as the
paper's RS3 library does with Z3 (Equations (1)-(3)).

The substitution (DESIGN.md §2): because the Toeplitz hash is GF(2)-linear
in the key, ``h(k, d) == h(k', d')`` *for all* ``d, d'`` related by a
field bijection reduces to per-bit key equalities, and field cancellation
reduces to zeroing a contiguous key window.  The requirements therefore
compile to a homogeneous GF(2) linear system solved exactly; the paper's
Partial-MaxSAT densification ("set as many key bits to 1 as possible ...
seeded with random bits ... multiple parallel solvers until one is found
with an acceptable workload distribution", §4) becomes randomized sampling
of the nullspace with an identical acceptance loop.

The acceptance test hashes each port's random inputs as one batch with
:func:`toeplitz_hash_batch`, drawn so that the generator advances exactly
as a per-sample ``rng.bytes`` loop would: seeded keys are byte-identical
to that loop's (see ``RssKeySolver._distribution_ok``).  The scalar
:func:`toeplitz_hash` stays the oracle in :meth:`RssKeySolver.verify`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import RssUnsatisfiableError
from repro.rs3.fields import FieldSetOption, NicModel, RssField
from repro.rs3.indirection import IndirectionTable
from repro.rs3.toeplitz import toeplitz_hash, toeplitz_hash_batch
from repro.solver import gf2

__all__ = ["CancelField", "CancelBits", "MapFields", "KeySearchStats", "RssKeySolver"]


@dataclass(frozen=True)
class CancelField:
    """Require that ``field``'s bits never influence ``port``'s hash.

    Needed when the NIC forces a field into the hash input that the
    sharding solution must ignore (e.g. the Policer's ports on the E810).
    """

    port: int
    field: RssField


@dataclass(frozen=True)
class CancelBits:
    """Require that specific *bits* of ``field`` never influence
    ``port``'s hash.

    The bit-granular generalization of :class:`CancelField`, used for
    prefix/subnet sharding (§3.5's Hierarchical Heavy Hitter case: shard
    on ``src_ip[31:8]`` means the low 8 bits must be cancelled while the
    prefix bits keep hashing).  ``bits`` are LSB-numbered field bit
    indices.
    """

    port: int
    field: RssField
    bits: frozenset[int]

    def __post_init__(self) -> None:
        if not self.bits:
            raise RssUnsatisfiableError("CancelBits needs at least one bit")
        if max(self.bits) >= self.field.width or min(self.bits) < 0:
            raise RssUnsatisfiableError(
                f"CancelBits out of range for {self.field.value}"
            )


@dataclass(frozen=True)
class MapFields:
    """Require ``h(k_a, d)`` to track ``field_a`` exactly as ``h(k_b, d')``
    tracks ``field_b``: whenever ``d.field_a == d'.field_b`` (and all other
    mapped/cancelled requirements hold), the two hashes agree.

    ``port_a == port_b`` with different fields expresses *same-port
    symmetry* (Woo & Park); different ports express the firewall/NAT
    cross-interface symmetry of Figure 3.
    """

    port_a: int
    field_a: RssField
    port_b: int
    field_b: RssField

    def __post_init__(self) -> None:
        if self.field_a.width != self.field_b.width:
            raise RssUnsatisfiableError(
                f"cannot map {self.field_a.value} onto {self.field_b.value}: "
                "different widths"
            )


@dataclass
class KeySearchStats:
    """Diagnostics from a key search (surfaced in Figure 6 timings and in
    ``MaestroResult.describe()``)."""

    attempts: int = 0
    constraint_rows: int = 0
    free_bits: int = 0
    rejected_quality: int = 0
    #: GF(2) rank of the compiled constraint system.
    gf2_rank: int = 0
    #: Wall time of the whole search (matrix build through acceptance).
    elapsed_s: float = 0.0


class RssKeySolver:
    """Finds per-port RSS keys satisfying cancellation/mapping requirements."""

    def __init__(
        self,
        nic: NicModel,
        port_options: dict[int, FieldSetOption],
        *,
        n_queues: int = 16,
        quality_factor: float = 2.0,
        quality_samples: int = 2048,
    ):
        self.nic = nic
        self.port_options = dict(port_options)
        self.ports = sorted(self.port_options)
        self.key_bits = nic.key_bytes * 8
        self.n_queues = n_queues
        self.quality_factor = quality_factor
        self.quality_samples = quality_samples
        self._var_base = {port: i * self.key_bits for i, port in enumerate(self.ports)}

    # -------------------------------------------------------------- #
    # Constraint matrix construction
    # -------------------------------------------------------------- #
    def _var(self, port: int, bit: int) -> int:
        if bit >= self.key_bits:
            raise RssUnsatisfiableError(
                f"key bit {bit} beyond {self.key_bits}-bit key"
            )
        return self._var_base[port] + bit

    def build_system(
        self, requirements: list["CancelField | CancelBits | MapFields"]
    ) -> np.ndarray:
        """Compile requirements to a homogeneous GF(2) system."""
        n_vars = len(self.ports) * self.key_bits
        rows: list[np.ndarray] = []

        def row_of(vars_: list[int]) -> np.ndarray:
            row = np.zeros(n_vars, dtype=np.uint8)
            for v in vars_:
                row[v] ^= 1
            return row

        # Cancellation constraints are scoped to the *table-index* hash
        # bits.  Demanding full 32-bit hash insensitivity (Equation (2)'s
        # formulation) can be physically degenerate: cancelling a field
        # zeroes every key window overlapping it, and neighbouring cancels
        # can jointly zero a wanted field's whole window (sharding on
        # src_port alone) or the low hash bits the indirection table
        # indexes (prefix sharding).  Queue colocation only needs the
        # index bits to be insensitive, which leaves the remaining key
        # freedom to spread the sharded traffic.  Field *mappings* keep
        # the full-hash formulation: it costs nothing there and keeps
        # symmetric keys independent of the table size.
        reta_bits = max(1, (self.nic.reta_size - 1).bit_length())

        def cancel_position(port: int, position: int) -> None:
            for offset in range(32 - reta_bits, 32):
                rows.append(row_of([self._var(port, position + offset)]))

        for req in requirements:
            if isinstance(req, CancelField):
                option = self.port_options[req.port]
                for position in option.bit_positions(req.field):
                    cancel_position(req.port, position)
            elif isinstance(req, CancelBits):
                option = self.port_options[req.port]
                start = option.offsets()[req.field]
                width = req.field.width
                for field_bit in req.bits:
                    # LSB field bit i sits at MSB-first input position
                    # start + (width - 1 - i).
                    cancel_position(req.port, start + (width - 1 - field_bit))
            elif isinstance(req, MapFields):
                opt_a = self.port_options[req.port_a]
                opt_b = self.port_options[req.port_b]
                pos_a = opt_a.bit_positions(req.field_a)
                pos_b = opt_b.bit_positions(req.field_b)
                span = req.field_a.width + 31
                for t in range(span):
                    var_a = self._var(req.port_a, pos_a.start + t)
                    var_b = self._var(req.port_b, pos_b.start + t)
                    if var_a == var_b:
                        continue  # identity mapping is trivially satisfied
                    rows.append(row_of([var_a, var_b]))
            else:  # pragma: no cover - type-narrowing guard
                raise TypeError(f"unknown requirement {req!r}")

        if not rows:
            return np.zeros((0, n_vars), dtype=np.uint8)
        return np.stack(rows)

    # -------------------------------------------------------------- #
    # Key extraction and quality control
    # -------------------------------------------------------------- #
    def _keys_from_solution(self, solution: np.ndarray) -> dict[int, bytes]:
        return {
            port: np.packbits(
                solution[self._var_base[port] : self._var_base[port] + self.key_bits]
            ).tobytes()
            for port in self.ports
        }

    def _window_nonzero(self, key: bytes, option: FieldSetOption) -> bool:
        """The key bits that can influence hashes must not all be zero."""
        used_bits = option.input_bits + 31
        window = int.from_bytes(key, "big") >> (self.key_bits - used_bits)
        return window != 0

    def _distribution_ok(
        self,
        keys: dict[int, bytes],
        requirements: list["CancelField | CancelBits | MapFields"],
        rng: np.random.Generator,
    ) -> bool:
        """Accept keys only if random traffic spreads acceptably (§4).

        A semantically valid key can still be degenerate (the paper's
        example: only the first bit set yields two possible hashes).  We
        sample random hash inputs, vary only non-cancelled bits, and
        require the most-loaded of ``n_queues`` queues to stay under
        ``quality_factor / n_queues`` of the traffic.

        Each port's samples are one batch: a single ``(quality_samples,
        len(active))`` uint32 draw, scattered into a hash-input matrix
        and hashed with :func:`toeplitz_hash_batch`.  The draw is
        stream-identical to drawing sample by sample with
        ``rng.bytes(width)`` per field: each ``bytes`` call consumes one
        uint32 and keeps its first ``width`` little-endian bytes, in the
        same row-major order.  A rejection returns at the first bad port,
        before drawing for the later ones, so seeded keys and every later
        draw from ``rng`` are unchanged.
        """
        table = IndirectionTable(self.n_queues, size=self.nic.reta_size)
        for port in self.ports:
            option = self.port_options[port]
            cancelled = {
                req.field
                for req in requirements
                if isinstance(req, CancelField) and req.port == port
            }
            active = [f for f in option.fields if f not in cancelled]
            if not active:
                continue  # everything cancelled: nothing to balance
            words = rng.integers(
                0, 1 << 32, size=(self.quality_samples, len(active)), dtype=np.uint32
            )
            word_bytes = words.astype("<u4").view(np.uint8).reshape(
                self.quality_samples, len(active), 4
            )
            data = np.zeros((self.quality_samples, option.input_bytes), dtype=np.uint8)
            offsets = option.offsets()
            for i, fld in enumerate(active):
                start = offsets[fld] // 8
                width_bytes = fld.width // 8
                data[:, start : start + width_bytes] = word_bytes[:, i, :width_bytes]
            queues = table.steer_batch(toeplitz_hash_batch(keys[port], data))
            counts = np.bincount(queues, minlength=self.n_queues)
            max_share = counts.max() / max(1, counts.sum())
            if max_share > self.quality_factor / self.n_queues:
                return False
        return True

    # -------------------------------------------------------------- #
    # Search loop
    # -------------------------------------------------------------- #
    def solve(
        self,
        requirements: list["CancelField | CancelBits | MapFields"],
        *,
        rng: np.random.Generator | None = None,
        max_attempts: int = 64,
        stats: KeySearchStats | None = None,
    ) -> dict[int, bytes]:
        """Find acceptable per-port keys; raise if none exist.

        Mirrors the paper's randomized densification loop: sample a random
        element of the solution space, reject degenerate or badly
        distributing keys, repeat.  Diagnostics (attempts, GF(2) rank,
        quality rejections, elapsed wall time) go into ``stats`` and are
        mirrored as ``rs3.*`` observability counters.
        """
        rng = rng or np.random.default_rng()
        stats = stats if stats is not None else KeySearchStats()
        start = time.perf_counter()
        with obs.span("rs3.key_search", ports=len(self.ports)) as sp:
            try:
                return self._solve(requirements, rng, max_attempts, stats)
            finally:
                stats.elapsed_s = time.perf_counter() - start
                sp.set("attempts", stats.attempts)
                obs.counter("rs3.attempts", stats.attempts)
                obs.counter("rs3.constraint_rows", stats.constraint_rows)
                obs.counter("rs3.gf2_rank", stats.gf2_rank)
                obs.counter("rs3.free_bits", stats.free_bits)
                obs.counter("rs3.rejected_quality", stats.rejected_quality)

    def _solve(
        self,
        requirements: list["CancelField | CancelBits | MapFields"],
        rng: np.random.Generator,
        max_attempts: int,
        stats: KeySearchStats,
    ) -> dict[int, bytes]:
        for port in self.ports:
            cancelled = {
                req.field
                for req in requirements
                if isinstance(req, CancelField) and req.port == port
            }
            option = self.port_options[port]
            if cancelled >= set(option.fields):
                raise RssUnsatisfiableError(
                    f"port {port}: every hashable field is cancelled — no "
                    "key can spread traffic across queues"
                )
        matrix = self.build_system(requirements)
        basis = gf2.nullspace(matrix)
        stats.constraint_rows = matrix.shape[0]
        stats.free_bits = int(basis.shape[0])
        stats.gf2_rank = int(matrix.shape[1]) - int(basis.shape[0])
        if basis.shape[0] == 0:
            raise RssUnsatisfiableError(
                "the sharding constraints admit only the all-zero key"
            )
        for attempt in range(1, max_attempts + 1):
            stats.attempts = attempt
            coeffs = rng.integers(0, 2, size=basis.shape[0], dtype=np.uint8)
            solution = (coeffs @ basis) & 1
            keys = self._keys_from_solution(solution)
            if not all(
                self._window_nonzero(keys[p], self.port_options[p])
                for p in self.ports
            ):
                continue
            if self._distribution_ok(keys, requirements, rng):
                return keys
            stats.rejected_quality += 1
        raise RssUnsatisfiableError(
            f"no acceptable key found in {max_attempts} attempts "
            "(constraints admit keys, but none distributed traffic well)"
        )

    # -------------------------------------------------------------- #
    # Verification
    # -------------------------------------------------------------- #
    def verify(
        self,
        requirements: list["CancelField | CancelBits | MapFields"],
        keys: dict[int, bytes],
        *,
        rng: np.random.Generator | None = None,
        samples: int = 256,
    ) -> None:
        """Property-check keys against the requirements on random inputs.

        Raises :class:`RssUnsatisfiableError` on the first violated sample
        (used by tests and by the pipeline's self-check).
        """
        rng = rng or np.random.default_rng(7)
        cancelled_by_port: dict[int, set[RssField]] = {p: set() for p in self.ports}
        for req in requirements:
            if isinstance(req, CancelField):
                cancelled_by_port[req.port].add(req.field)

        def random_input(port: int) -> bytearray:
            return bytearray(rng.bytes(self.port_options[port].input_bytes))

        def with_field(
            data: bytearray, port: int, fld: RssField, value: bytes
        ) -> bytearray:
            out = bytearray(data)
            start = self.port_options[port].offsets()[fld] // 8
            out[start : start + fld.width // 8] = value
            return out

        for req in requirements:
            for _ in range(samples):
                if isinstance(req, CancelField):
                    base = random_input(req.port)
                    flipped = with_field(
                        base, req.port, req.field, rng.bytes(req.field.width // 8)
                    )
                    mask = self.nic.reta_size - 1
                    if (
                        toeplitz_hash(keys[req.port], bytes(base)) & mask
                    ) != (toeplitz_hash(keys[req.port], bytes(flipped)) & mask):
                        raise RssUnsatisfiableError(
                            f"cancellation violated for {req.field.value} on "
                            f"port {req.port}"
                        )
                elif isinstance(req, CancelBits):
                    base = random_input(req.port)
                    start = self.port_options[req.port].offsets()[req.field]
                    width = req.field.width
                    flipped = bytearray(base)
                    for field_bit in req.bits:
                        position = start + (width - 1 - field_bit)
                        if rng.random() < 0.7:
                            flipped[position // 8] ^= 1 << (7 - position % 8)
                    # Scoped to the table-index bits (see build_system).
                    mask = self.nic.reta_size - 1
                    index_base = toeplitz_hash(keys[req.port], bytes(base)) & mask
                    index_flip = (
                        toeplitz_hash(keys[req.port], bytes(flipped)) & mask
                    )
                    if index_base != index_flip:
                        raise RssUnsatisfiableError(
                            f"bit cancellation violated for {req.field.value} "
                            f"on port {req.port}"
                        )
                else:
                    # Two packets agreeing on every mapped field pair (and
                    # with all non-cancelled unmapped fields equal too) must
                    # collide.  Construct d' from d via the full mapping set.
                    data_a = random_input(req.port_a)
                    data_b = random_input(req.port_b)
                    for other in requirements:
                        if not isinstance(other, MapFields):
                            continue
                        if other.port_a != req.port_a or other.port_b != req.port_b:
                            continue
                        start = (
                            self.port_options[other.port_a].offsets()[other.field_a]
                            // 8
                        )
                        value = bytes(
                            data_a[start : start + other.field_a.width // 8]
                        )
                        data_b = with_field(
                            data_b, other.port_b, other.field_b, value
                        )
                    # Queue colocation is the specification: compare the
                    # table-index bits (cancelled fields may legitimately
                    # perturb the unused high hash bits).
                    mask = self.nic.reta_size - 1
                    hash_a = toeplitz_hash(keys[req.port_a], bytes(data_a)) & mask
                    hash_b = toeplitz_hash(keys[req.port_b], bytes(data_b)) & mask
                    if hash_a != hash_b:
                        raise RssUnsatisfiableError(
                            f"mapping violated: {req.field_a.value}@{req.port_a}"
                            f" -> {req.field_b.value}@{req.port_b}"
                        )
