"""The exact RS3 key check against the sampled property test it replaced.

:meth:`RssKeySolver.verify` decides each requirement from one masked hash
column per input bit.  :func:`sampled_verify` is the property test it
replaced: it hashes random input pairs with the scalar Toeplitz oracle,
so a violation it finds is a concrete counterexample.  The exact check
must reject every key the sampler rejects, and, since every violation
shows on at least 30% of the sampler's draws, a 4096-sample run rejects
every key the exact check rejects too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RssUnsatisfiableError
from repro.rs3.fields import E810, IPV4_ONLY, IPV4_TCP, RssField
from repro.rs3.solver import CancelBits, CancelField, MapFields, RssKeySolver
from repro.rs3.toeplitz import toeplitz_hash


def sampled_verify(solver, requirements, keys, *, rng, samples) -> None:
    """Property-check keys against the requirements on random inputs.

    Raises :class:`RssUnsatisfiableError` on the first violated sample.
    """
    def random_input(port: int) -> bytearray:
        return bytearray(rng.bytes(solver.port_options[port].input_bytes))

    def with_field(
        data: bytearray, port: int, fld: RssField, value: bytes
    ) -> bytearray:
        out = bytearray(data)
        start = solver.port_options[port].offsets()[fld] // 8
        out[start : start + fld.width // 8] = value
        return out

    # Queue colocation is the specification: compare the table-index
    # bits (cancelled fields may perturb the unused high hash bits).
    mask = solver.nic.reta_size - 1
    for req in requirements:
        for _ in range(samples):
            if isinstance(req, CancelField):
                base = random_input(req.port)
                flipped = with_field(
                    base, req.port, req.field, rng.bytes(req.field.width // 8)
                )
                if (toeplitz_hash(keys[req.port], bytes(base)) & mask) != (
                    toeplitz_hash(keys[req.port], bytes(flipped)) & mask
                ):
                    raise RssUnsatisfiableError(
                        f"cancellation violated for {req.field.value} on "
                        f"port {req.port}"
                    )
            elif isinstance(req, CancelBits):
                base = random_input(req.port)
                start = solver.port_options[req.port].offsets()[req.field]
                width = req.field.width
                flipped = bytearray(base)
                for field_bit in req.bits:
                    position = start + (width - 1 - field_bit)
                    if rng.random() < 0.7:
                        flipped[position // 8] ^= 1 << (7 - position % 8)
                if (toeplitz_hash(keys[req.port], bytes(base)) & mask) != (
                    toeplitz_hash(keys[req.port], bytes(flipped)) & mask
                ):
                    raise RssUnsatisfiableError(
                        f"bit cancellation violated for {req.field.value} "
                        f"on port {req.port}"
                    )
            else:
                # Two packets agreeing on every mapped field pair of the
                # two ports must collide: build d' from d through the
                # whole mapping set (a later mapping overwrites).
                data_a = random_input(req.port_a)
                data_b = random_input(req.port_b)
                for other in requirements:
                    if not isinstance(other, MapFields):
                        continue
                    if other.port_a != req.port_a or other.port_b != req.port_b:
                        continue
                    start = (
                        solver.port_options[other.port_a].offsets()[other.field_a]
                        // 8
                    )
                    value = bytes(data_a[start : start + other.field_a.width // 8])
                    data_b = with_field(data_b, other.port_b, other.field_b, value)
                hash_a = toeplitz_hash(keys[req.port_a], bytes(data_a)) & mask
                hash_b = toeplitz_hash(keys[req.port_b], bytes(data_b)) & mask
                if hash_a != hash_b:
                    raise RssUnsatisfiableError(
                        f"mapping violated: {req.field_a.value}@{req.port_a}"
                        f" -> {req.field_b.value}@{req.port_b}"
                    )


def rejects(check) -> bool:
    try:
        check()
    except RssUnsatisfiableError:
        return True
    return False


def flip(key: bytes, bit: int) -> bytes:
    """``key`` with MSB-first bit ``bit`` inverted."""
    out = bytearray(key)
    out[bit // 8] ^= 1 << (7 - bit % 8)
    return bytes(out)


def _any_requirement(options):
    fields = [(p, f) for p in options for f in options[p].fields]
    cancel = st.sampled_from([CancelField(p, f) for p, f in fields])
    cancel_bits = st.sampled_from(fields).flatmap(
        lambda pf: st.frozensets(
            st.integers(0, pf[1].width - 1), min_size=1, max_size=4
        ).map(lambda bits: CancelBits(pf[0], pf[1], bits))
    )
    mapping = st.sampled_from([
        MapFields(pa, fa, pb, fb)
        for pa, fa in fields
        for pb, fb in fields
        if fa.width == fb.width and (pa, fa) != (pb, fb)
    ])
    return st.one_of(cancel, cancel_bits, mapping)


@st.composite
def requirement_sets(draw):
    """Port options, requirements on them, and whether the set is
    *closed*: the shape ``compile_rss`` emits, whose keys from
    :meth:`RssKeySolver.solve` must pass.  A closed set maps some of port
    a's fields one-to-one onto port b's and cancels every other field of
    the two ports; an open one is up to three requirements of any kind
    (a lone mapping leaves unmapped fields that steer, so solved keys
    fail it)."""
    options = {
        port: draw(st.sampled_from([IPV4_TCP, IPV4_ONLY])) for port in (0, 1)
    }
    if not draw(st.booleans()):
        reqs = draw(st.lists(_any_requirement(options), max_size=3))
        return options, reqs, False
    port_a, port_b = draw(st.sampled_from([(0, 0), (0, 1), (1, 0)]))
    pairs = []
    for width in (32, 16):
        fields_a = [f for f in options[port_a].fields if f.width == width]
        fields_b = [f for f in options[port_b].fields if f.width == width]
        pairs += zip(fields_a, draw(st.permutations(fields_b)))
    pairs = [pair for pair in pairs if draw(st.booleans())]
    reqs = [MapFields(port_a, fa, port_b, fb) for fa, fb in pairs]
    feeding, fed = [a for a, _ in pairs], [b for _, b in pairs]
    cancels = [
        CancelField(port, f)
        for port, kept in ((port_a, feeding), (port_b, fed))
        for f in options[port].fields
        if f not in kept
    ]
    reqs += dict.fromkeys(cancels)
    extra = _any_requirement(options).filter(lambda r: not isinstance(r, MapFields))
    reqs += draw(st.lists(extra, max_size=1))
    return options, draw(st.permutations(reqs)), True


class TestAgainstTheSampler:
    @given(
        case=requirement_sets(),
        seed=st.integers(0, 2**32 - 1),
        flips=st.lists(
            st.tuples(st.sampled_from([0, 1]), st.integers(23, 126)), max_size=2
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_exact_check_agrees_with_a_4096_sample_run(self, case, seed, flips):
        options, reqs, closed = case
        solver = RssKeySolver(E810, options)
        rng = np.random.default_rng(seed)
        try:
            keys = solver.solve(reqs, rng=rng, max_attempts=8)
        except RssUnsatisfiableError:
            keys = {port: rng.bytes(E810.key_bytes) for port in options}
        else:
            if closed:
                solver.verify(reqs, keys)
        for port, bit in flips:
            keys[port] = flip(keys[port], bit)
        exact = rejects(lambda: solver.verify(reqs, keys))
        sampled = rejects(
            lambda: sampled_verify(solver, reqs, keys, rng=rng, samples=4096)
        )
        assert exact == sampled

    def test_bundled_keys_and_their_one_bit_mutations(self):
        """The first analysis of every bundled NF, and 3 one-bit
        mutations of its keys, as both checks see them."""
        from repro.core import Maestro
        from repro.nf.nfs import ALL_NFS

        rng = np.random.default_rng(0)
        for name in ALL_NFS:
            result = Maestro(seed=0).analyze(ALL_NFS[name]())
            solver = RssKeySolver(E810, result.compilation.port_options)
            reqs = result.compilation.requirements
            solver.verify(reqs, result.keys)
            for _ in range(3):
                keys = dict(result.keys)
                port = int(rng.choice(sorted(keys)))
                keys[port] = flip(keys[port], int(rng.integers(0, 128)))
                exact = rejects(lambda: solver.verify(reqs, keys))
                sampled = rejects(
                    lambda: sampled_verify(solver, reqs, keys, rng=rng, samples=64)
                )
                assert exact == sampled, (name, port)


FW_SYMMETRY = [
    MapFields(0, RssField.SRC_IP, 1, RssField.DST_IP),
    MapFields(0, RssField.DST_IP, 1, RssField.SRC_IP),
    MapFields(0, RssField.SRC_PORT, 1, RssField.DST_PORT),
    MapFields(0, RssField.DST_PORT, 1, RssField.SRC_PORT),
]


class TestHandBuiltViolations:
    """One key bit flipped so that exactly one requirement breaks.

    Column *i* of the table index is key bits ``[i + 23, i + 31]`` (a
    512-entry table keeps 9 hash bits), so flipping key bit ``b`` moves
    the columns of input bits ``b - 31 .. b - 23`` only.
    """

    def check(self, options, reqs, keys, port, bit, match):
        solver = RssKeySolver(E810, options)
        solver.verify(reqs, keys)
        bad = dict(keys)
        bad[port] = flip(keys[port], bit)
        for check in (
            lambda: solver.verify(reqs, bad),
            lambda: sampled_verify(
                solver, reqs, bad, rng=np.random.default_rng(1), samples=256
            ),
        ):
            with pytest.raises(RssUnsatisfiableError, match=match):
                check()

    def solved(self, options, reqs):
        return RssKeySolver(E810, options).solve(reqs, rng=np.random.default_rng(3))

    def test_cancel_field(self):
        # src_port is input bits 64..79: key bit 95 feeds columns 64..72.
        options = {0: IPV4_TCP, 1: IPV4_TCP}
        reqs = [CancelField(0, RssField.SRC_PORT)]
        self.check(
            options, reqs, self.solved(options, reqs), 0, 95,
            "cancellation violated for src_port on port 0",
        )

    def test_cancel_bits(self):
        # src_ip's low byte is input bits 24..31: key bit 62 feeds
        # columns 31..39, of which only column 31 is cancelled.
        options = {0: IPV4_TCP}
        reqs = [CancelBits(0, RssField.SRC_IP, frozenset(range(8)))]
        self.check(
            options, reqs, self.solved(options, reqs), 0, 62,
            "bit cancellation violated for src_ip on port 0",
        )

    def test_cross_port_mapping(self):
        options = {0: IPV4_TCP, 1: IPV4_TCP}
        self.check(
            options, FW_SYMMETRY, self.solved(options, FW_SYMMETRY), 1, 40,
            r"mapping violated: src_ip@0 -> dst_ip@1",
        )

    def test_same_port_woo_park_mapping(self):
        options = {0: IPV4_TCP}
        reqs = [
            MapFields(0, a, 0, b)
            for a, b in ((r.field_a, r.field_b) for r in FW_SYMMETRY)
        ]
        self.check(
            options, reqs, self.solved(options, reqs), 0, 40,
            r"mapping violated: src_ip@0 -> dst_ip@0",
        )

    def test_nonzero_unmapped_port_b_column(self):
        # Key bits 23..54 reach only src_ip's columns, so one such key on
        # both ports satisfies src_ip@0 -> src_ip@1 with every other
        # column 0.  Key bit 94 then moves port 1's columns 63..71 (the
        # LSB of dst_ip and src_port), which no mapping feeds.
        key = int.from_bytes(bytes([0x5A] * 4), "big") << (E810.key_bytes * 8 - 55)
        key_bytes = key.to_bytes(E810.key_bytes, "big")
        self.check(
            {0: IPV4_TCP, 1: IPV4_TCP},
            [MapFields(0, RssField.SRC_IP, 1, RssField.SRC_IP)],
            {0: key_bytes, 1: key_bytes}, 1, 94,
            r"mapping violated: src_ip@0 -> src_ip@1",
        )

    def test_a_key_too_short_for_the_input_is_refused(self):
        solver = RssKeySolver(E810, {0: IPV4_TCP})
        with pytest.raises(ValueError, match="too short"):
            solver.verify([], {0: bytes(15)})

    def test_last_mapping_of_a_bit_wins(self):
        """Two mappings feed port 1's dst_ip: only the later one counts,
        as in the sampler, which copies the fields in order."""
        options = {0: IPV4_TCP, 1: IPV4_TCP}
        later = [
            MapFields(0, RssField.SRC_IP, 1, RssField.DST_IP),
            MapFields(0, RssField.DST_IP, 1, RssField.DST_IP),
        ] + FW_SYMMETRY[1:]
        solver = RssKeySolver(E810, options)
        keys = self.solved(options, FW_SYMMETRY)
        assert rejects(lambda: solver.verify(later, keys))
        assert rejects(
            lambda: sampled_verify(
                solver, later, keys, rng=np.random.default_rng(1), samples=256
            )
        )
