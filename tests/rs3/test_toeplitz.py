"""Toeplitz hash: bit-exactness and algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nf.packet import Packet
from repro.rs3.fields import IPV4_ONLY, IPV4_TCP, IPV4_UDP
from repro.rs3.toeplitz import (
    MICROSOFT_TEST_KEY,
    hash_input,
    hash_input_rows,
    hash_packet,
    key_bit,
    toeplitz_hash,
    toeplitz_hash_batch,
)
from repro.traffic import TraceColumns


def ip(dotted: str) -> int:
    a, b, c, d = map(int, dotted.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


#: The official Microsoft RSS verification suite:
#: (dst, dst_port, src, src_port, ipv4-only hash, ipv4+tcp hash)
MS_VECTORS = [
    ("161.142.100.80", 1766, "66.9.149.187", 2794, 0x323E8FC2, 0x51CCC178),
    ("65.69.140.83", 4739, "199.92.111.2", 14230, 0xD718262A, 0xC626B0EA),
    ("12.22.207.184", 38024, "24.19.198.95", 12898, 0xD2D0A5DE, 0x5C2B394A),
    ("209.142.163.6", 2217, "38.27.205.30", 48228, 0x82989176, 0xAFC7327F),
    ("202.188.127.2", 1303, "153.39.163.191", 44251, 0x5D1809C5, 0x10E828A2),
]


class TestMicrosoftVectors:
    @pytest.mark.parametrize("dst,dport,src,sport,h_ip,h_tcp", MS_VECTORS)
    def test_ipv4_only(self, dst, dport, src, sport, h_ip, h_tcp):
        pkt = Packet(src_ip=ip(src), dst_ip=ip(dst), src_port=sport, dst_port=dport)
        assert hash_packet(MICROSOFT_TEST_KEY, pkt, IPV4_ONLY) == h_ip

    @pytest.mark.parametrize("dst,dport,src,sport,h_ip,h_tcp", MS_VECTORS)
    def test_ipv4_tcp(self, dst, dport, src, sport, h_ip, h_tcp):
        pkt = Packet(src_ip=ip(src), dst_ip=ip(dst), src_port=sport, dst_port=dport)
        assert hash_packet(MICROSOFT_TEST_KEY, pkt, IPV4_TCP) == h_tcp


class TestProperties:
    def test_key_too_short_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_hash(bytes(4), bytes(8))

    def test_zero_input_hashes_to_zero(self):
        assert toeplitz_hash(MICROSOFT_TEST_KEY, bytes(12)) == 0

    def test_zero_key_hashes_to_zero(self):
        assert toeplitz_hash(bytes(52), b"\xff" * 12) == 0

    @given(st.binary(min_size=12, max_size=12), st.binary(min_size=12, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_input(self, d1, d2):
        """h(k, d1 ^ d2) == h(k, d1) ^ h(k, d2): the GF(2) linearity the
        key solver's soundness rests on."""
        xored = bytes(a ^ b for a, b in zip(d1, d2))
        assert toeplitz_hash(MICROSOFT_TEST_KEY, xored) == toeplitz_hash(
            MICROSOFT_TEST_KEY, d1
        ) ^ toeplitz_hash(MICROSOFT_TEST_KEY, d2)

    @given(st.integers(0, 95), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_single_bit_input_selects_key_window(self, bit, _seed):
        """Setting only input bit i yields key window [i, i+31] — the
        definition Equation (1) encodes."""
        data = bytearray(12)
        data[bit // 8] |= 1 << (7 - bit % 8)
        expected = 0
        for offset in range(32):
            expected = (expected << 1) | key_bit(MICROSOFT_TEST_KEY, bit + offset)
        assert toeplitz_hash(MICROSOFT_TEST_KEY, bytes(data)) == expected

    def test_key_bit_msb_first(self):
        key = bytes([0b10000001])
        assert key_bit(key, 0) == 1
        assert key_bit(key, 7) == 1
        assert key_bit(key, 1) == 0


class TestHashInput:
    def test_layout_src_dst_ports(self):
        pkt = Packet(
            src_ip=0x01020304, dst_ip=0x05060708, src_port=0x0A0B, dst_port=0x0C0D
        )
        data = hash_input(pkt, IPV4_TCP)
        assert data == bytes(
            [1, 2, 3, 4, 5, 6, 7, 8, 0x0A, 0x0B, 0x0C, 0x0D]
        )

    def test_ip_only_is_8_bytes(self):
        pkt = Packet(1, 2, 3, 4)
        assert len(hash_input(pkt, IPV4_ONLY)) == 8


def random_packets(seed: int, n: int) -> list[Packet]:
    rng = np.random.default_rng(seed)
    return [
        Packet(
            src_ip=int(rng.integers(0, 2**32)),
            dst_ip=int(rng.integers(0, 2**32)),
            src_port=int(rng.integers(0, 2**16)),
            dst_port=int(rng.integers(0, 2**16)),
        )
        for _ in range(n)
    ]


class TestWindowBounds:
    """The key must provide a full 32-bit window for every input bit."""

    def test_exact_boundary_accepted(self):
        # len(key)*8 == len(data)*8 + 32: the last input bit's window ends
        # exactly on the key's last bit.
        key, data = bytes(range(8)), bytes(range(4))
        assert len(key) * 8 == len(data) * 8 + 32
        assert toeplitz_hash(key, data) == toeplitz_hash_batch(
            key, np.frombuffer(data, dtype=np.uint8).reshape(1, -1)
        )[0]

    def test_one_byte_over_rejected_with_clear_error(self):
        key, data = bytes(range(8)), bytes(range(5))
        with pytest.raises(ValueError, match="key too short"):
            toeplitz_hash(key, data)
        with pytest.raises(ValueError, match="need len\\(key\\)\\*8"):
            toeplitz_hash_batch(
                key, np.frombuffer(data, dtype=np.uint8).reshape(1, -1)
            )

    def test_batch_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            toeplitz_hash_batch(MICROSOFT_TEST_KEY, np.zeros(12, dtype=np.uint8))

    def test_batch_empty_rows_and_columns(self):
        empty_rows = toeplitz_hash_batch(
            MICROSOFT_TEST_KEY, np.zeros((0, 12), dtype=np.uint8)
        )
        assert empty_rows.shape == (0,)
        zero_width = toeplitz_hash_batch(
            MICROSOFT_TEST_KEY, np.zeros((3, 0), dtype=np.uint8)
        )
        assert zero_width.tolist() == [0, 0, 0]


def input_rows(packets: list[Packet], option) -> np.ndarray:
    """The batched hash inputs: ``TraceColumns`` -> ``hash_input_rows``."""
    cols = TraceColumns([(0, pkt) for pkt in packets])
    return hash_input_rows(
        [cols.field(f.packet_field) for f in option.fields], option, len(cols)
    )


def batch_hashes(key: bytes, packets: list[Packet], option) -> np.ndarray:
    return toeplitz_hash_batch(key, input_rows(packets, option))


class TestBatchMatchesScalar:
    """The vectorized path must be bit-identical to the scalar oracle."""

    @pytest.mark.parametrize("dst,dport,src,sport,h_ip,h_tcp", MS_VECTORS)
    def test_microsoft_vectors_batched(self, dst, dport, src, sport, h_ip, h_tcp):
        pkt = Packet(src_ip=ip(src), dst_ip=ip(dst), src_port=sport, dst_port=dport)
        assert batch_hashes(MICROSOFT_TEST_KEY, [pkt], IPV4_TCP)[0] == h_tcp
        assert batch_hashes(MICROSOFT_TEST_KEY, [pkt], IPV4_ONLY)[0] == h_ip

    @pytest.mark.parametrize("option", [IPV4_TCP, IPV4_UDP, IPV4_ONLY])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_thousand_packets_bit_for_bit(self, option, seed):
        rng = np.random.default_rng(1000 + seed)
        key = bytes(rng.integers(0, 256, size=52, dtype=np.uint8))
        packets = random_packets(seed, 1000)
        batch = batch_hashes(key, packets, option)
        assert batch.dtype == np.uint32
        scalar = [hash_packet(key, pkt, option) for pkt in packets]
        assert batch.tolist() == scalar

    @given(
        key=st.binary(min_size=40, max_size=52),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_keys_and_inputs(self, key, seed):
        packets = random_packets(seed, 64)
        for option in (IPV4_TCP, IPV4_ONLY):
            batch = batch_hashes(key, packets, option)
            assert batch.tolist() == [
                hash_packet(key, pkt, option) for pkt in packets
            ]

    def test_matrix_rows_equal_scalar_inputs(self):
        packets = random_packets(5, 100)
        matrix = input_rows(packets, IPV4_TCP)
        assert matrix.shape == (100, 12)
        for i, pkt in enumerate(packets):
            assert matrix[i].tobytes() == hash_input(pkt, IPV4_TCP)
