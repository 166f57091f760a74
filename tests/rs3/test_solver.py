"""RS3 key solver: cancellation, mapping, symmetry, quality, verification."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Maestro
from repro.errors import RssUnsatisfiableError
from repro.nf.nfs import ALL_NFS
from repro.rs3.fields import E810, IPV4_ONLY, IPV4_TCP, RssField
from repro.rs3.indirection import IndirectionTable
from repro.rs3.solver import CancelField, KeySearchStats, MapFields, RssKeySolver
from repro.rs3.toeplitz import toeplitz_hash


@pytest.fixture()
def rng():
    return np.random.default_rng(77)


def two_port_solver(**kwargs) -> RssKeySolver:
    return RssKeySolver(E810, {0: IPV4_TCP, 1: IPV4_TCP}, **kwargs)


def set_field(data: bytearray, field: RssField, value: int) -> None:
    offset = IPV4_TCP.offsets()[field] // 8
    width = field.width // 8
    data[offset : offset + width] = value.to_bytes(width, "big")


class TestCancellation:
    def test_cancelled_field_has_no_influence(self, rng):
        solver = two_port_solver()
        reqs = [CancelField(0, RssField.SRC_PORT)]
        keys = solver.solve(reqs, rng=rng)
        base = bytearray(rng.bytes(12))
        flipped = bytearray(base)
        set_field(flipped, RssField.SRC_PORT, 0x1234)
        # Cancellation is scoped to the indirection-index bits (see
        # RssKeySolver.build_system): the queue must not change.
        mask = E810.reta_size - 1
        assert toeplitz_hash(keys[0], bytes(base)) & mask == (
            toeplitz_hash(keys[0], bytes(flipped)) & mask
        )

    def test_non_cancelled_field_still_matters(self, rng):
        solver = two_port_solver()
        keys = solver.solve([CancelField(0, RssField.SRC_PORT)], rng=rng)
        collisions = 0
        for _ in range(64):
            base = bytearray(rng.bytes(12))
            flipped = bytearray(base)
            set_field(flipped, RssField.DST_IP, int(rng.integers(0, 2**32)))
            if toeplitz_hash(keys[0], bytes(base)) == toeplitz_hash(
                keys[0], bytes(flipped)
            ):
                collisions += 1
        assert collisions < 8

    def test_cancelling_everything_unsatisfiable(self, rng):
        solver = two_port_solver()
        reqs = [
            CancelField(port, field)
            for port in (0, 1)
            for field in RssField
        ]
        with pytest.raises(RssUnsatisfiableError):
            solver.solve(reqs, rng=rng)


class TestMapping:
    def test_cross_port_symmetry(self, rng):
        solver = two_port_solver()
        reqs = [
            MapFields(0, RssField.SRC_IP, 1, RssField.DST_IP),
            MapFields(0, RssField.DST_IP, 1, RssField.SRC_IP),
            MapFields(0, RssField.SRC_PORT, 1, RssField.DST_PORT),
            MapFields(0, RssField.DST_PORT, 1, RssField.SRC_PORT),
        ]
        keys = solver.solve(reqs, rng=rng)
        solver.verify(reqs, keys)

    def test_same_port_woo_park_symmetry(self, rng):
        solver = RssKeySolver(E810, {0: IPV4_TCP})
        reqs = [
            MapFields(0, RssField.SRC_IP, 0, RssField.DST_IP),
            MapFields(0, RssField.DST_IP, 0, RssField.SRC_IP),
            MapFields(0, RssField.SRC_PORT, 0, RssField.DST_PORT),
            MapFields(0, RssField.DST_PORT, 0, RssField.SRC_PORT),
        ]
        keys = solver.solve(reqs, rng=rng)
        solver.verify(reqs, keys)
        # The structure the constraints force (cf. Woo & Park [74]): the
        # IP region of the key is 32-bit periodic and the port region is
        # 16-bit periodic.
        from repro.rs3.toeplitz import key_bit

        key = keys[0]
        for i in range(63):
            assert key_bit(key, i) == key_bit(key, i + 32)
        for i in range(64, 111):
            assert key_bit(key, i) == key_bit(key, i + 16)

    def test_width_mismatch_rejected(self):
        with pytest.raises(RssUnsatisfiableError):
            MapFields(0, RssField.SRC_IP, 1, RssField.SRC_PORT)

    def test_verify_catches_bad_keys(self, rng):
        solver = two_port_solver()
        reqs = [MapFields(0, RssField.SRC_IP, 1, RssField.DST_IP),
                MapFields(0, RssField.DST_IP, 1, RssField.SRC_IP),
                MapFields(0, RssField.SRC_PORT, 1, RssField.DST_PORT),
                MapFields(0, RssField.DST_PORT, 1, RssField.SRC_PORT)]
        bad_keys = {0: rng.bytes(52), 1: rng.bytes(52)}
        with pytest.raises(RssUnsatisfiableError):
            solver.verify(reqs, bad_keys)


class TestQualityLoop:
    def test_stats_recorded(self, rng):
        solver = two_port_solver()
        stats = KeySearchStats()
        solver.solve([CancelField(0, RssField.SRC_PORT)], rng=rng, stats=stats)
        assert stats.attempts >= 1
        # 16 cancelled input positions x 9 table-index window offsets.
        assert stats.constraint_rows == 16 * 9
        assert stats.free_bits > 0

    def test_keys_distribute_traffic(self, rng):
        """The §4 acceptance criterion: no degenerate keys escape."""
        from repro.rs3.indirection import IndirectionTable

        solver = two_port_solver(n_queues=16)
        keys = solver.solve([], rng=rng)
        table = IndirectionTable(16)
        counts = np.zeros(16)
        for _ in range(2000):
            counts[table.lookup(toeplitz_hash(keys[0], rng.bytes(12)))] += 1
        assert counts.max() / counts.sum() < 2.0 / 16

    def test_unconstrained_keys_differ_per_port(self, rng):
        keys = two_port_solver().solve([], rng=rng)
        assert keys[0] != keys[1]


_NAT_KEYS: dict[int, bytes] = {}


def _nat_style_keys() -> dict[int, bytes]:
    if not _NAT_KEYS:
        reqs = [
            CancelField(0, RssField.SRC_IP),
            CancelField(0, RssField.SRC_PORT),
            CancelField(1, RssField.DST_IP),
            CancelField(1, RssField.DST_PORT),
            MapFields(0, RssField.DST_IP, 1, RssField.SRC_IP),
            MapFields(0, RssField.DST_PORT, 1, RssField.SRC_PORT),
        ]
        _NAT_KEYS.update(
            two_port_solver().solve(reqs, rng=np.random.default_rng(5))
        )
    return _NAT_KEYS


class TestHypothesisMapping:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nat_style_requirements_hold(self, ip_value, port_value):
        rng = np.random.default_rng(5)
        keys = _nat_style_keys()
        lan = bytearray(rng.bytes(12))
        set_field(lan, RssField.DST_IP, ip_value)
        set_field(lan, RssField.DST_PORT, port_value)
        wan = bytearray(rng.bytes(12))
        set_field(wan, RssField.SRC_IP, ip_value)
        set_field(wan, RssField.SRC_PORT, port_value)
        mask = E810.reta_size - 1
        assert toeplitz_hash(keys[0], bytes(lan)) & mask == (
            toeplitz_hash(keys[1], bytes(wan)) & mask
        )


def scalar_distribution_ok(solver, keys, requirements, rng) -> bool:
    """Reference acceptance test: one ``rng.bytes`` draw per field per
    sample and one scalar Toeplitz hash per sample.

    The batched ``RssKeySolver._distribution_ok`` must reach the same
    decision *and* leave ``rng`` in the same state, so seeded keys (and
    every later draw from the same generator) stay byte-identical.
    """
    table = IndirectionTable(solver.n_queues, size=solver.nic.reta_size)
    for port in solver.ports:
        option = solver.port_options[port]
        cancelled = {
            req.field
            for req in requirements
            if isinstance(req, CancelField) and req.port == port
        }
        active = [f for f in option.fields if f not in cancelled]
        if not active:
            continue
        counts = np.zeros(solver.n_queues, dtype=np.int64)
        for _ in range(solver.quality_samples):
            data = bytearray(option.input_bytes)
            for fld in active:
                start = option.offsets()[fld] // 8
                width_bytes = fld.width // 8
                data[start : start + width_bytes] = rng.bytes(width_bytes)
            counts[table.lookup(toeplitz_hash(keys[port], bytes(data)))] += 1
        if counts.max() / max(1, counts.sum()) > solver.quality_factor / solver.n_queues:
            return False
    return True


_CANCEL_CHOICES = [
    CancelField(port, fld)
    for port in (0, 1)
    for fld in (RssField.SRC_IP, RssField.DST_IP, RssField.SRC_PORT)
]


class TestRngStream:
    """The key search consumes the generator exactly as the scalar
    per-sample loop did, so seeded analyses reproduce across versions."""

    def test_rejection_path_keys_and_next_draw(self):
        solver = RssKeySolver(
            E810, {0: IPV4_TCP, 1: IPV4_TCP}, n_queues=16, quality_factor=1.2
        )
        rng = np.random.default_rng(0)
        stats = KeySearchStats()
        keys = solver.solve([CancelField(0, RssField.SRC_PORT)], rng=rng, stats=stats)
        assert stats.attempts == 2
        assert stats.rejected_quality == 1
        assert keys[0].hex().startswith("7ddbc09f82f1")
        assert keys[1].hex().startswith("20ce47c205a0")
        assert int(rng.integers(0, 1000)) == 816

    def test_golden_digest_of_all_nf_keys(self):
        """Every analysis after the first on a shared ``Maestro`` draws
        from where the previous one left the generator."""
        maestro = Maestro(seed=0)
        digest = hashlib.sha256()
        for name in ALL_NFS:
            result = maestro.analyze(ALL_NFS[name]())
            for port in sorted(result.keys):
                digest.update(result.keys[port])
        assert digest.hexdigest() == (
            "04dca872bdc36c1008513c4f43de64dde4067a3d7134da8206b72a429eae79fb"
        )

    def test_golden_digest_of_first_analyses(self):
        """The keys of the first analysis on a fresh ``Maestro``, the
        plans every benchmark builds.  Only ``solve`` draws from the
        generator before them, so no change to how ``verify`` checks
        keys may move them."""
        digest = hashlib.sha256()
        for seed in range(5):
            for name in ALL_NFS:
                result = Maestro(seed=seed).analyze(ALL_NFS[name]())
                for port in sorted(result.keys):
                    digest.update(result.keys[port])
        assert digest.hexdigest() == (
            "27f6f7c82c140e91af354ec60629390597c65906324c81737192739c9f5244ba"
        )

    @given(
        key_a=st.binary(min_size=52, max_size=52),
        key_b=st.binary(min_size=52, max_size=52),
        option_b=st.sampled_from([IPV4_TCP, IPV4_ONLY]),
        cancels=st.lists(st.sampled_from(_CANCEL_CHOICES), max_size=3, unique=True),
        n_queues=st.sampled_from([2, 4, 16]),
        quality_factor=st.floats(1.0, 2.5),
        quality_samples=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # degenerate key: rejected at the first port
        key_a=b"\x80" + bytes(51),
        key_b=bytes(52),
        option_b=IPV4_TCP,
        cancels=[],
        n_queues=16,
        quality_factor=2.0,
        quality_samples=256,
        seed=1,
    )
    @example(  # good first port, degenerate second port
        key_a=bytes(range(52)),
        key_b=bytes(52),
        option_b=IPV4_ONLY,
        cancels=[CancelField(0, RssField.SRC_PORT)],
        n_queues=4,
        quality_factor=2.0,
        quality_samples=200,
        seed=2,
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_acceptance_matches_scalar(
        self,
        key_a,
        key_b,
        option_b,
        cancels,
        n_queues,
        quality_factor,
        quality_samples,
        seed,
    ):
        solver = RssKeySolver(
            E810,
            {0: IPV4_TCP, 1: option_b},
            n_queues=n_queues,
            quality_factor=quality_factor,
            quality_samples=quality_samples,
        )
        reqs = [c for c in cancels if c.field in solver.port_options[c.port].fields]
        keys = {0: key_a, 1: key_b}
        rng_batched = np.random.default_rng(seed)
        rng_scalar = np.random.default_rng(seed)
        assert solver._distribution_ok(keys, reqs, rng_batched) == (
            scalar_distribution_ok(solver, keys, reqs, rng_scalar)
        )
        assert rng_batched.bit_generator.state == rng_scalar.bit_generator.state
