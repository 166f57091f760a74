"""Concrete runtime: op recording, expiry, packet results."""

import pytest

from repro.errors import SimulationError, StateModelError
from repro.nf.api import ActionKind, StateDecl, StateKind, NF
from repro.nf.nfs import Firewall, PortScanDetector
from repro.nf.packet import Packet
from repro.nf.runtime import SequentialRunner, StateStore


def fw_packet(i: int = 0) -> Packet:
    return Packet(src_ip=100 + i, dst_ip=200 + i, src_port=10, dst_port=20)


class TestStateStore:
    def test_builds_all_kinds(self):
        decls = [
            StateDecl("m", StateKind.MAP, 8),
            StateDecl("v", StateKind.VECTOR, 8, value_layout=(("x", 32),)),
            StateDecl("c", StateKind.DCHAIN, 8),
            StateDecl("s", StateKind.SKETCH, 64),
        ]
        store = StateStore(decls)
        for name in "mvcs":
            assert store[name] is not None

    def test_scale_divides_capacity(self):
        store = StateStore([StateDecl("m", StateKind.MAP, 64)], scale=4)
        assert store["m"].capacity == 16

    def test_read_only_not_scaled(self):
        decls = [StateDecl("t", StateKind.MAP, 64, read_only=True)]
        store = StateStore(decls, scale=4)
        assert store["t"].capacity == 64

    def test_undeclared_object_rejected(self):
        store = StateStore([])
        with pytest.raises(StateModelError):
            store["nope"]

    def test_invalid_scale(self):
        with pytest.raises(SimulationError):
            StateStore([], scale=0)


class TestSequentialRunner:
    def test_firewall_admits_reply(self):
        runner = SequentialRunner(Firewall())
        pkt = fw_packet()
        out = runner.process(0, pkt)
        assert out.kind is ActionKind.FORWARD and out.port == 1
        reply = runner.process(1, pkt.inverted())
        assert reply.kind is ActionKind.FORWARD and reply.port == 0

    def test_firewall_drops_unsolicited(self):
        runner = SequentialRunner(Firewall())
        assert runner.process(1, fw_packet()).kind is ActionKind.DROP

    def test_ops_recorded(self):
        runner = SequentialRunner(Firewall())
        out = runner.process(0, fw_packet())
        names = [op.op for op in out.ops]
        assert "map_get" in names and "map_put" in names
        assert out.new_flow
        assert out.writes >= 2  # allocate + put (+ vector)

    def test_established_flow_reads_mostly(self):
        runner = SequentialRunner(Firewall())
        pkt = fw_packet()
        runner.process(0, pkt)
        again = runner.process(0, pkt)
        assert not again.new_flow
        hard_writes = [
            op for op in again.ops
            if op.write and op.op not in ("dchain_rejuvenate", "expire")
        ]
        assert not hard_writes

    def test_expiry_forgets_flows(self):
        runner = SequentialRunner(Firewall(expiration_time=10.0))
        pkt = fw_packet()
        runner.process(0, pkt, now=0.0)
        # Flow expires; reply afterwards must be dropped.
        out = runner.process(1, pkt.inverted(), now=100.0)
        assert out.kind is ActionKind.DROP

    def test_each_chain_has_its_own_sweep_gate(self):
        """``psd`` sweeps two chains per packet; the second sweep must
        not be gated by the first one's timestamp."""
        runner = SequentialRunner(
            PortScanDetector(capacity=64, expiration_time=2.0)
        )
        for i in range(40):
            pkt = Packet(src_ip=1000 + i, dst_ip=1, src_port=5, dst_port=80,
                         timestamp=0.1 * i)
            runner.process(0, pkt)
        runner.process(0, Packet(src_ip=5000, dst_ip=1, src_port=5,
                                 dst_port=80, timestamp=100.0))
        assert len(runner.store["psd_touched"]) == 1
        assert len(runner.store["psd_srcs"]) == 1

    def test_rejuvenation_keeps_flow_alive(self):
        runner = SequentialRunner(Firewall(expiration_time=10.0))
        pkt = fw_packet()
        for step in range(6):
            runner.process(0, pkt, now=step * 8.0)
        out = runner.process(1, pkt.inverted(), now=47.0)
        assert out.kind is ActionKind.FORWARD

    def test_state_scale_shrinks_tables(self):
        runner = SequentialRunner(Firewall(capacity=64), state_scale=8)
        assert runner.store["fw_flows"].capacity == 8

    def test_missing_packet_op_raises(self):
        class Silent(NF):
            name = "silent"
            ports = {"a": 0, "b": 1}

            def state(self):
                return []

            def process(self, ctx, port, pkt):
                return None

        runner = SequentialRunner(Silent())
        with pytest.raises(SimulationError):
            runner.process(0, fw_packet())

    def test_set_field_validates_names(self):
        class BadRewriter(NF):
            name = "bad"
            ports = {"a": 0, "b": 1}

            def state(self):
                return []

            def process(self, ctx, port, pkt):
                ctx.set_field("ttl", 1)
                ctx.drop()

        runner = SequentialRunner(BadRewriter())
        with pytest.raises(StateModelError):
            runner.process(0, fw_packet())

    def test_observable_tuple_stable(self):
        runner = SequentialRunner(Firewall())
        out = runner.process(0, fw_packet())
        assert out.observable() == (ActionKind.FORWARD, 1, ())
