"""Same-port flow symmetry: the Woo & Park case end-to-end.

A monitoring tap sees *both* directions of every flow on one interface.
Its flow table is probed with the forward and the inverted tuple on the
same port, which forces a same-port symmetric RSS key — the exact
scenario of [74] that motivated RS3's generality (§2, challenge 2).
"""

from typing import Any

import pytest

from repro.core import Maestro, Verdict
from repro.nf.api import NF, ActionKind, NfContext, StateDecl, StateKind
from repro.nf.flow import FiveTuple
from repro.rs3.toeplitz import key_bit
from repro.sim.equivalence import check_equivalence

TAP, OUT = 0, 1


class TapMonitor(NF):
    """Count packets per bidirectional flow observed on a tap port."""

    name = "tap_monitor"
    ports = {"tap": TAP, "out": OUT}
    expiration_time = 60.0

    def __init__(self, capacity: int = 8192):
        self.capacity = capacity

    def state(self) -> list[StateDecl]:
        return [
            StateDecl("tap_flows", StateKind.MAP, self.capacity),
            StateDecl("tap_chain", StateKind.DCHAIN, self.capacity),
            StateDecl(
                "tap_counts",
                StateKind.VECTOR,
                self.capacity,
                value_layout=(("packets", 32),),
            ),
        ]

    def process(self, ctx: NfContext, port: int, pkt: Any) -> None:
        if port != TAP:
            ctx.forward(TAP)
        ctx.expire_flows("tap_flows", "tap_chain")
        forward_key = (pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port)
        reverse_key = (pkt.dst_ip, pkt.dst_port, pkt.src_ip, pkt.src_port)
        found, index = ctx.map_get("tap_flows", forward_key)
        if ctx.cond(ctx.lnot(found)):
            found, index = ctx.map_get("tap_flows", reverse_key)
        if ctx.cond(found):
            ctx.dchain_rejuvenate("tap_chain", index)
            counter = ctx.vector_borrow("tap_counts", index)
            ctx.vector_put(
                "tap_counts",
                index,
                {"packets": ctx.add(counter["packets"], ctx.const(1, 32))},
            )
        else:
            ok, index = ctx.dchain_allocate("tap_chain")
            if ctx.cond(ok):
                ctx.map_put("tap_flows", forward_key, index)
                ctx.vector_put("tap_counts", index, {"packets": 1})
        ctx.forward(OUT)


@pytest.fixture(scope="module")
def tap_result():
    return Maestro(seed=74).analyze(TapMonitor())


class TestAnalysis:
    def test_shared_nothing_with_same_port_pair(self, tap_result):
        solution = tap_result.solution
        assert solution.verdict is Verdict.SHARED_NOTHING
        same_port = [p for p in solution.pairs if p.port_a == p.port_b == TAP]
        assert same_port
        mapping = same_port[0].mapping()
        assert mapping["src_ip"] == "dst_ip"
        assert mapping["src_port"] == "dst_port"

    def test_key_has_woo_park_structure(self, tap_result):
        key = tap_result.keys[TAP]
        for i in range(63):
            assert key_bit(key, i) == key_bit(key, i + 32)
        for i in range(64, 111):
            assert key_bit(key, i) == key_bit(key, i + 16)


class TestEndToEnd:
    def test_both_directions_same_core(self, tap_result):
        maestro = Maestro(seed=74)
        parallel = maestro.parallelize(TapMonitor(), n_cores=8, result=tap_result)
        import numpy as np

        rng = np.random.default_rng(4)
        for _ in range(200):
            flow = FiveTuple(
                int(rng.integers(1, 2**32)), int(rng.integers(1, 2**32)),
                int(rng.integers(1, 2**16)), int(rng.integers(1, 2**16)),
            )
            assert parallel.rss.core_for(TAP, flow.packet()) == parallel.rss.core_for(
                TAP, flow.inverted().packet()
            )

    def test_equivalence(self, tap_result, generator):
        maestro = Maestro(seed=74)
        parallel = maestro.parallelize(TapMonitor(), n_cores=4, result=tap_result)
        flows = generator.make_flows(50)
        trace = []
        for flow in flows:
            trace.append((TAP, flow.packet()))
            trace.append((TAP, flow.inverted().packet()))
            trace.append((TAP, flow.packet()))
        report = check_equivalence(TapMonitor, parallel, trace)
        assert report.equivalent, report.describe()
