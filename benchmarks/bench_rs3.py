"""RS3 microbenchmarks and the NIC-capability ablation.

Measures the cost of the key machinery (Toeplitz hashing, GF(2) key
search, the exact key check) and runs the DESIGN.md ablation: how much
harder the key search is on the E810 (which must cancel port bits for
IP-level sharding) than on a NIC with native IP-only hashing.
"""

import numpy as np
import pytest

from repro.nf.packet import Packet
from repro.rs3 import (
    E810,
    IPV4_ONLY,
    IPV4_TCP,
    PERMISSIVE_NIC,
    CancelField,
    KeySearchStats,
    MapFields,
    RssField,
    RssKeySolver,
    hash_packet,
    MICROSOFT_TEST_KEY,
)


def test_toeplitz_hash_rate(benchmark):
    key = (MICROSOFT_TEST_KEY + bytes(12))[:52]
    pkt = Packet(0x0A000001, 0x08080808, 1234, 443)
    result = benchmark(lambda: hash_packet(key, pkt, IPV4_TCP))
    assert 0 <= result < 2**32


#: The firewall's cross-port symmetry (Figure 3).
FW_SYMMETRIC = [
    MapFields(0, RssField.SRC_IP, 1, RssField.DST_IP),
    MapFields(0, RssField.DST_IP, 1, RssField.SRC_IP),
    MapFields(0, RssField.SRC_PORT, 1, RssField.DST_PORT),
    MapFields(0, RssField.DST_PORT, 1, RssField.SRC_PORT),
]


def test_fw_symmetric_key_search(benchmark):
    def solve():
        solver = RssKeySolver(E810, {0: IPV4_TCP, 1: IPV4_TCP})
        return solver.solve(FW_SYMMETRIC, rng=np.random.default_rng(3))

    keys = benchmark.pedantic(solve, rounds=3, iterations=1)
    assert len(keys) == 2


def test_fw_symmetric_exact_verify(benchmark):
    """The exact key check: one masked hash column per input bit."""
    solver = RssKeySolver(E810, {0: IPV4_TCP, 1: IPV4_TCP})
    keys = solver.solve(FW_SYMMETRIC, rng=np.random.default_rng(3))
    benchmark(solver.verify, FW_SYMMETRIC, keys)


@pytest.mark.parametrize(
    "nic,option,expected_rows",
    [
        (E810, IPV4_TCP, 3),  # must cancel src_ip + both ports
        (PERMISSIVE_NIC, IPV4_ONLY, 1),  # only src_ip to cancel
    ],
    ids=["e810-cancel-ports", "permissive-ip-only"],
)
def test_ablation_policer_key_by_nic(benchmark, nic, option, expected_rows):
    """Ablation: the paper's Policer story depends on the NIC.

    On the E810 the dst_ip sharding must cancel 3 fields (longest
    generation time in Figure 6); a NIC with IP-only hashing needs far
    fewer constraints.
    """
    cancelled = [f for f in option.fields if f is not RssField.DST_IP]
    reqs = [CancelField(1, f) for f in cancelled]
    assert len(reqs) == expected_rows

    def solve():
        stats = KeySearchStats()
        solver = RssKeySolver(nic, {0: option, 1: option})
        keys = solver.solve(reqs, rng=np.random.default_rng(5), stats=stats)
        return keys, stats

    (keys, stats) = benchmark.pedantic(solve, rounds=3, iterations=1)
    benchmark.extra_info["constraint_rows"] = stats.constraint_rows
    benchmark.extra_info["free_key_bits"] = stats.free_bits
    solver = RssKeySolver(nic, {0: option, 1: option})
    solver.verify(reqs, keys)
