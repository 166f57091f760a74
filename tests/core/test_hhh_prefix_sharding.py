"""Subnet-prefix sharding end-to-end: the §3.5 Hierarchical Heavy Hitter.

"what if ... it requires complex constraints between packets (e.g., a
Hierarchical Heavy Hitter sharding on multiple subnets of the source
IP ...)?" — the HHH counts traffic per /24 *and* per /16 of the source
address.  Correct sharding may only depend on the bits common to both
prefixes (the /16), so RS3 must find a key that hashes ``src_ip[31:16]``
while cancelling the low 16 bits of src_ip and every other field.
"""

from typing import Any

import pytest

from repro.core import Maestro, Verdict
from repro.nf.api import NF, NfContext, StateDecl, StateKind
from repro.nf.packet import Packet
from repro.rs3.solver import CancelBits
from repro.sim.equivalence import check_equivalence

LAN, WAN = 0, 1


class HierarchicalHeavyHitter(NF):
    """Count packets per /24 and per /16 source subnet."""

    name = "hhh"
    ports = {"lan": LAN, "wan": WAN}

    def __init__(self, capacity: int = 8192):
        self.capacity = capacity

    def state(self) -> list[StateDecl]:
        return [
            StateDecl("hhh_24", StateKind.MAP, self.capacity),
            StateDecl("hhh_24_chain", StateKind.DCHAIN, self.capacity),
            StateDecl("hhh_16", StateKind.MAP, self.capacity),
            StateDecl("hhh_16_chain", StateKind.DCHAIN, self.capacity),
        ]

    def process(self, ctx: NfContext, port: int, pkt: Any) -> None:
        if port != LAN:
            ctx.forward(LAN)
        for map_name, chain, hi, lo in (
            ("hhh_24", "hhh_24_chain", 31, 8),
            ("hhh_16", "hhh_16_chain", 31, 16),
        ):
            prefix = ctx.extract(pkt.src_ip, hi, lo)
            found, _ = ctx.map_get(map_name, (prefix,))
            if ctx.cond(ctx.lnot(found)):
                ok, index = ctx.dchain_allocate(chain)
                if ctx.cond(ok):
                    ctx.map_put(map_name, (prefix,), index)
        ctx.forward(WAN)


@pytest.fixture(scope="module")
def hhh_result():
    return Maestro(seed=1616).analyze(HierarchicalHeavyHitter())


class TestAnalysis:
    def test_shards_on_the_coarser_prefix(self, hhh_result):
        """R2 over bit sets: /24 allows bits [31:8], /16 allows [31:16];
        the intersection — the /16 prefix — is the sharding."""
        solution = hhh_result.solution
        assert solution.verdict is Verdict.SHARED_NOTHING
        assert solution.per_port == {LAN: ("src_ip",)}
        assert solution.per_port_bits[LAN]["src_ip"] == frozenset(range(16, 32))

    def test_describe_shows_the_slice(self, hhh_result):
        assert "src_ip[31:16]" in hhh_result.solution.describe()

    def test_compilation_cancels_low_bits(self, hhh_result):
        partial = [
            r
            for r in hhh_result.compilation.requirements
            if isinstance(r, CancelBits)
        ]
        assert len(partial) == 1
        assert partial[0].bits == frozenset(range(16))


class TestKeyProperties:
    def test_same_slash16_same_core(self, hhh_result):
        """The crux: hosts within a /16 MUST colocate — a key hashing the
        full src_ip would scatter them (the soundness trap of treating a
        prefix key as a full-field key)."""
        maestro = Maestro(seed=1616)
        parallel = maestro.parallelize(
            HierarchicalHeavyHitter(), n_cores=8, result=hhh_result
        )
        import numpy as np

        rng = np.random.default_rng(8)
        for _ in range(100):
            subnet = int(rng.integers(0, 2**16)) << 16
            host_a = Packet(subnet | int(rng.integers(0, 2**16)), 2, 3, 4)
            host_b = Packet(
                subnet | int(rng.integers(0, 2**16)),
                int(rng.integers(1, 2**32)),
                int(rng.integers(1, 2**16)),
                int(rng.integers(1, 2**16)),
            )
            assert parallel.rss.core_for(LAN, host_a) == parallel.rss.core_for(
                LAN, host_b
            )

    def test_different_slash16s_spread(self, hhh_result):
        maestro = Maestro(seed=1616)
        parallel = maestro.parallelize(
            HierarchicalHeavyHitter(), n_cores=8, result=hhh_result
        )
        import numpy as np

        rng = np.random.default_rng(9)
        cores = {
            parallel.rss.core_for(
                LAN, Packet(int(rng.integers(0, 2**16)) << 16, 2, 3, 4)
            )
            for _ in range(100)
        }
        assert len(cores) >= 4

    def test_equivalence(self, hhh_result, generator):
        maestro = Maestro(seed=1616)
        parallel = maestro.parallelize(
            HierarchicalHeavyHitter(), n_cores=4, result=hhh_result
        )
        trace, _ = generator.uniform_trace(300, 80, in_port=LAN)
        report = check_equivalence(HierarchicalHeavyHitter, parallel, trace)
        assert report.equivalent, report.describe()
