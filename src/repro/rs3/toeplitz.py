"""The Toeplitz-based RSS hash function (§3.5, Figure 4).

The hash "works by continuously left rotating the key k while iterating
through the selected packet fields bits d.  The running 32-bit hash value
is XOR'ed with the current 32 least significant bits of the key whenever
the current bit d_i is 1."  Equivalently: bit *b* of the hash is
``XOR_i d[i] & k[i + b]`` with MSB-first bit numbering — the GF(2)-linear
form Equation (1) encodes and our key solver exploits.

Two implementations live here:

* the scalar oracle — :func:`hash_packet` (:func:`hash_input` then
  :func:`toeplitz_hash`, the per-bit reference), bit-exact with the
  Microsoft RSS verification suite (``tests/rs3/test_toeplitz.py``).
  Every batched result is checked against it.
* the batched path — :func:`hash_input_rows` turns per-field value
  columns into one ``(n, bytes)`` input matrix and
  :func:`toeplitz_hash_batch` hashes it with per-key byte tables
  (cached across calls).  ``benchmarks/bench_fastpath.py`` gates it at
  ≥20× the scalar loop on a 100k-packet trace, bit-identical to the
  oracle.  Packets reach it only as columns: the one batched steering
  entry point, ``RssConfiguration.steer_trace``, reads them from a
  :class:`~repro.traffic.TraceColumns`, and RS3's key acceptance test
  (``RssKeySolver._distribution_ok``) hashes random input rows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.nf.packet import Packet
from repro.rs3.fields import FieldSetOption

__all__ = [
    "toeplitz_hash",
    "toeplitz_hash_batch",
    "key_window_table",
    "hash_input",
    "hash_input_rows",
    "hash_packet",
    "key_bit",
    "MICROSOFT_TEST_KEY",
]

#: The well-known verification key from the Microsoft RSS specification.
MICROSOFT_TEST_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


def key_bit(key: bytes, position: int) -> int:
    """Bit ``position`` of ``key``, MSB-first (bit 0 = MSB of key[0])."""
    return (key[position // 8] >> (7 - position % 8)) & 1


def _check_window(key_bits: int, data_bits: int) -> None:
    """Every input bit needs a full 32-bit key window (|k| >= |d| + |h|).

    Without this check, input bits past ``key_bits - 32`` would shift the
    key by a negative amount and silently hash garbage; data exactly
    filling the window (``key_bits == data_bits + 32``) is the legal
    boundary and passes.
    """
    if key_bits < data_bits + 32:
        raise ValueError(
            f"key too short: {key_bits} key bits provide "
            f"{max(0, key_bits - 32)} hash windows but the input has "
            f"{data_bits} bits (need len(key)*8 >= len(data)*8 + 32)"
        )


def toeplitz_hash(key: bytes, data: bytes) -> int:
    """32-bit Toeplitz hash of ``data`` under ``key``.

    Requires ``len(key)*8 >= len(data)*8 + 32`` so every input bit has a
    full 32-bit key window (the paper's ``|k| >= |d| + |h|``).
    """
    data_bits = len(data) * 8
    key_bits = len(key) * 8
    _check_window(key_bits, data_bits)
    key_int = int.from_bytes(key, "big")
    result = 0
    for i in range(data_bits):
        if (data[i // 8] >> (7 - i % 8)) & 1:
            # 32-bit window starting at MSB-first key bit i.
            result ^= (key_int >> (key_bits - 32 - i)) & 0xFFFFFFFF
    return result


@lru_cache(maxsize=128)
def key_window_table(key: bytes) -> np.ndarray:
    """Per-key window table: entry *i* is the 32-bit key window [i, i+31].

    This is the whole Toeplitz matrix collapsed to one uint32 per input
    bit: ``h(d) = XOR_{i : d_i = 1} table[i]``.  Cached per key, so a key
    pays the unpack cost once per process no matter how many traces it
    hashes.  The returned array is read-only.
    """
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8))
    windows = np.lib.stride_tricks.sliding_window_view(bits, 32)
    powers = (1 << np.arange(31, -1, -1, dtype=np.uint64)).astype(np.uint64)
    table = (windows.astype(np.uint64) @ powers).astype(np.uint32)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=128)
def _byte_tables(key: bytes, input_bytes: int) -> np.ndarray:
    """Per-(key, width) lookup tables: ``tables[b, v]`` is the XOR of the
    windows of the bits set in byte value ``v`` at byte position ``b``.

    By GF(2) linearity the hash of a row is then just the XOR of one
    table lookup per input byte — no per-bit work at hash time at all.
    """
    windows = key_window_table(key)
    value_bits = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1
    ).astype(bool)
    tables = np.zeros((input_bytes, 256), dtype=np.uint32)
    for b in range(input_bytes):
        byte_windows = windows[b * 8 : b * 8 + 8]
        selected = np.where(value_bits, byte_windows[np.newaxis, :], np.uint32(0))
        tables[b] = np.bitwise_xor.reduce(selected, axis=1)
    tables.setflags(write=False)
    return tables


def toeplitz_hash_batch(key: bytes, data_matrix: np.ndarray) -> np.ndarray:
    """Vectorized Toeplitz: hash every row of ``data_matrix`` at once.

    ``data_matrix`` is a ``(n, input_bytes)`` uint8 array — one hash
    input per row, all the same width (RSS inputs of one field option
    always are).  Returns ``(n,)`` uint32 hashes, bit-identical to
    calling :func:`toeplitz_hash` on each row.
    """
    matrix = np.ascontiguousarray(data_matrix, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError(
            f"data_matrix must be 2-D (n, input_bytes), got shape "
            f"{matrix.shape}"
        )
    input_bytes = matrix.shape[1]
    _check_window(len(key) * 8, input_bytes * 8)
    if matrix.shape[0] == 0 or input_bytes == 0:
        return np.zeros(matrix.shape[0], dtype=np.uint32)
    tables = _byte_tables(key, input_bytes)
    out = tables[0][matrix[:, 0]]
    for b in range(1, input_bytes):
        out ^= tables[b][matrix[:, b]]
    return out


def hash_input(pkt: Packet, option: FieldSetOption) -> bytes:
    """Extract the RSS hash input of ``pkt`` under field option ``option``."""
    out = bytearray()
    for fld in option.fields:
        out += pkt.field(fld.packet_field).to_bytes(fld.width // 8, "big")
    return bytes(out)


def hash_input_rows(
    columns: Sequence[np.ndarray], option: FieldSetOption, n: int
) -> np.ndarray:
    """The ``(n, bytes)`` hash-input matrix from per-field value columns.

    ``columns[i]`` holds the integer values of ``option.fields[i]`` for
    ``n`` packets; each is converted to big-endian bytes in bulk and the
    results are concatenated in the option's layout order.
    """
    parts = [
        np.asarray(values)
        .astype(">u4" if fld.width == 32 else ">u2")
        .view(np.uint8)
        .reshape(n, -1)
        for fld, values in zip(option.fields, columns, strict=True)
    ]
    if not parts:
        return np.zeros((n, 0), dtype=np.uint8)
    return np.concatenate(parts, axis=1)


def hash_packet(key: bytes, pkt: Packet, option: FieldSetOption) -> int:
    """RSS hash of a packet: extract fields, then Toeplitz."""
    return toeplitz_hash(key, hash_input(pkt, option))

