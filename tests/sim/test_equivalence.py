"""Semantic equivalence: the property Maestro exists to preserve (§1).

For every shared-nothing NF, a bidirectional trace must behave identically
through the generated parallel implementation and the sequential
reference.  This exercises the *actual* generated RSS keys end-to-end:
a wrong key would steer a reply to a core without the flow's state and
show up as a divergence here.
"""

import numpy as np
import pytest

from repro.core import Strategy
from repro.nf.nfs import ALL_NFS
from repro.sim.equivalence import check_equivalence
from repro.traffic import TrafficGenerator


def bidirectional_trace(generator, n_flows=60, n_packets=400):
    trace, _ = generator.uniform_trace(
        n_packets, n_flows, in_port=0, reply_port=1, reply_fraction=0.4
    )
    return trace


def one_way_trace(generator, port, n_flows=60, n_packets=300):
    trace, _ = generator.uniform_trace(n_packets, n_flows, in_port=port)
    return trace


class TestSharedNothingEquivalence:
    @pytest.mark.parametrize("cores", [1, 3, 8])
    def test_firewall(self, analyses, generator, cores):
        parallel = analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=cores, result=analyses["fw"]
        )
        report = check_equivalence(
            ALL_NFS["fw"], parallel, bidirectional_trace(generator)
        )
        assert report.equivalent, report.describe()
        assert report.capacity_divergences == 0

    def test_connection_limiter(self, analyses, generator):
        parallel = analyses.maestro.parallelize(
            ALL_NFS["cl"](), n_cores=4, result=analyses["cl"]
        )
        report = check_equivalence(
            ALL_NFS["cl"], parallel, bidirectional_trace(generator)
        )
        assert report.equivalent, report.describe()

    def test_psd(self, analyses, generator):
        parallel = analyses.maestro.parallelize(
            ALL_NFS["psd"](), n_cores=4, result=analyses["psd"]
        )
        report = check_equivalence(
            ALL_NFS["psd"], parallel, one_way_trace(generator, port=0)
        )
        assert report.equivalent, report.describe()

    def test_policer(self, analyses, generator):
        parallel = analyses.maestro.parallelize(
            ALL_NFS["policer"](), n_cores=4, result=analyses["policer"]
        )
        report = check_equivalence(
            ALL_NFS["policer"], parallel, one_way_trace(generator, port=1)
        )
        assert report.equivalent, report.describe()

    def test_nat_modulo_allocated_ports(self, analyses, generator):
        """§6.1: external-port uniqueness holds per core, not across
        cores; the *translated values* may differ, routing must not."""
        parallel = analyses.maestro.parallelize(
            ALL_NFS["nat"](), n_cores=4, result=analyses["nat"]
        )
        trace = one_way_trace(generator, port=0)
        report = check_equivalence(
            ALL_NFS["nat"], parallel, trace, ignore_mods=("src_port",)
        )
        assert report.equivalent, report.describe()

    def test_nat_full_session_roundtrip(self, analyses):
        """Replies addressed to the *parallel* NAT's allocated ports must
        translate back correctly — checked directly, not via the
        sequential reference (ports legitimately differ)."""
        from repro.nf.packet import Packet
        from repro.nf.api import ActionKind

        nat = ALL_NFS["nat"]()
        parallel = analyses.maestro.parallelize(
            nat, n_cores=4, result=analyses["nat"]
        )
        for i in range(50):
            client = Packet(
                src_ip=0x0A000000 + i, dst_ip=0x50000000 + i,
                src_port=2000 + i, dst_port=80,
            )
            _, out = parallel.process(0, client)
            assert out.kind is ActionKind.FORWARD
            reply = Packet(
                src_ip=client.dst_ip,
                dst_ip=out.mods["src_ip"],
                src_port=80,
                dst_port=out.mods["src_port"],
            )
            _, back = parallel.process(1, reply)
            assert back.kind is ActionKind.FORWARD, f"flow {i} broke"
            assert back.mods["dst_ip"] == client.src_ip
            assert back.mods["dst_port"] == client.src_port


class TestBalancedTables:
    @pytest.mark.parametrize("name", ["fw", "cl"])
    def test_balancing_keeps_both_directions_on_one_core(self, name):
        """Static RSS++ balancing must keep the port tables in lockstep:
        balancing each port from its own loads alone sent replies on
        port 1 to a core without their session's state."""
        from repro.core import Maestro

        parallel = Maestro(seed=1).parallelize(ALL_NFS[name](), n_cores=4)
        trace, _ = TrafficGenerator(seed=5).zipf_trace(
            6000, 300, reply_port=1, reply_fraction=0.4
        )
        parallel.rss.balance_tables(trace)
        tables = [config.table for config in parallel.rss.ports.values()]
        assert all(
            np.array_equal(table.entries, tables[0].entries) for table in tables
        )
        report = check_equivalence(ALL_NFS[name], parallel, trace)
        assert report.equivalent, report.describe()


class TestLockBasedEquivalence:
    def test_lb_under_locks(self, analyses, generator):
        parallel = analyses.maestro.parallelize(
            ALL_NFS["lb"](), n_cores=4, result=analyses["lb"]
        )
        assert parallel.strategy is Strategy.LOCKS
        # Register backends, then balance WAN traffic.
        heartbeats = [(0, pkt) for _, pkt in one_way_trace(generator, 0, 4, 8)]
        wan = one_way_trace(generator, port=1)
        report = check_equivalence(ALL_NFS["lb"], parallel, heartbeats + wan)
        assert report.equivalent, report.describe()

    def test_dbridge_under_locks(self, analyses, generator):
        parallel = analyses.maestro.parallelize(
            ALL_NFS["dbridge"](), n_cores=4, result=analyses["dbridge"]
        )
        report = check_equivalence(
            ALL_NFS["dbridge"], parallel, bidirectional_trace(generator)
        )
        assert report.equivalent, report.describe()

    def test_forced_locks_on_sharednothing_nf(self, analyses, generator):
        parallel = analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=4, result=analyses["fw"],
            strategy=Strategy.LOCKS,
        )
        report = check_equivalence(
            ALL_NFS["fw"], parallel, bidirectional_trace(generator)
        )
        assert report.equivalent, report.describe()


class TestCapacityDivergence:
    def test_shard_exhaustion_reported_not_failed(self, analyses, generator):
        """§4: a per-core shard can fill while the sequential table still
        has room; that is a documented, allowed divergence."""
        nf_factory = lambda: ALL_NFS["fw"](capacity=16)
        result = analyses.maestro.analyze(nf_factory())
        parallel = analyses.maestro.parallelize(
            nf_factory(), n_cores=8, result=result
        )
        trace, _ = generator.uniform_trace(200, 64, in_port=0)
        report = check_equivalence(nf_factory, parallel, trace)
        assert report.equivalent
        # With 2-entry shards vs a 16-entry global table, some flows that
        # fit sequentially cannot fit in their shard.
        assert report.capacity_divergences >= 0

    def test_repeat_packets_of_refused_flow_are_tainted_not_failed(
        self, analyses
    ):
        """Only the establishing packet raises ``new_flow``; repeat
        packets of a refused flow re-fail the allocator silently.  The
        flow taint must keep excusing them — rounds two and three below
        carry no ``new_flow`` on either side."""
        from repro.nf.packet import Packet

        nf_factory = lambda: ALL_NFS["nat"](capacity=8)
        result = analyses.maestro.analyze(nf_factory())
        parallel = analyses.maestro.parallelize(
            nf_factory(), n_cores=4, result=result
        )
        one_round = [
            (
                0,
                Packet(
                    src_ip=0x0A000000 + i, dst_ip=0x50000000,
                    src_port=1000 + i, dst_port=80,
                ),
            )
            for i in range(16)
        ]
        report = check_equivalence(
            nf_factory, parallel, one_round * 3, ignore_mods=("src_port",)
        )
        assert report.equivalent, report.describe()
        # 2-entry shards vs an 8-entry global chain: the two sides refuse
        # different flows, and each divergent flow diverges identically in
        # every round — all attributed to the allocator chain.
        divergences = report.capacity_by_object["nat_chain"]
        assert divergences == report.capacity_divergences
        assert divergences > 0 and divergences % 3 == 0

    def test_custom_flow_keys_scope_the_taint(self, analyses, generator):
        """``flow_keys`` with a state-object tag only taints keys whose
        tag matches the blamed object (prefix match on ``obj_…``)."""
        nf_factory = lambda: ALL_NFS["nat"](capacity=32)
        result = analyses.maestro.analyze(nf_factory())
        parallel = analyses.maestro.parallelize(
            nf_factory(), n_cores=8, result=result
        )
        trace, _ = generator.uniform_trace(300, 64, in_port=0)

        def keys(port, pkt):
            # "nat" prefix-matches the culprit "nat_chain".
            return [("nat", (pkt.src_ip, pkt.src_port, pkt.dst_ip,
                             pkt.dst_port))]

        report = check_equivalence(
            nf_factory, parallel, trace,
            ignore_mods=("src_port",), flow_keys=keys,
        )
        assert report.equivalent, report.describe()
        assert report.capacity_divergences > 0

    def test_forwarded_establishment_refusal_taints_the_reply(self):
        """The firewall forwards a LAN packet even when its shard refuses
        to record the flow, so only ``new_flow`` tells the two sides
        apart there; the flow's dropped replies are then the refusing
        allocator's capacity divergences, not mismatches."""
        from repro.core.pipeline import Maestro

        nf_factory = lambda: ALL_NFS["fw"](capacity=16)
        parallel = Maestro(seed=0).parallelize(nf_factory(), n_cores=8)
        trace, _ = TrafficGenerator(seed=3).uniform_trace(
            400, 60, in_port=0, reply_port=1, reply_fraction=0.4
        )
        report = check_equivalence(nf_factory, parallel, trace)
        assert report.equivalent, report.describe()
        assert report.capacity_divergences == 15
        assert report.capacity_by_object == {"fw_chain": 15}

    def test_reply_with_macs_in_place_inherits_the_taint(self):
        """Generated replies swap the addresses but keep the MACs in
        place; the default flow keys must still carry a taint from the
        flow's refused establishment to its replies."""
        from repro.core.pipeline import Maestro

        nf_factory = lambda: ALL_NFS["cl"](capacity=16)
        parallel = Maestro(seed=0).parallelize(nf_factory(), n_cores=8)
        trace, _ = TrafficGenerator(seed=3).uniform_trace(
            400, 60, in_port=0, reply_port=1, reply_fraction=0.4
        )
        report = check_equivalence(nf_factory, parallel, trace)
        assert report.equivalent, report.describe()
        assert report.capacity_divergences == 41
        assert report.capacity_by_object == {"cl_chain": 25, "unknown": 16}



class TestChainCapacityDivergence:
    def test_full_hop_shard_is_excused_and_named(self):
        """A chain hop whose per-core shard fills drops flows the
        sequential chain still admits; the chain checker excuses them
        like the single-NF checker and names the refusing hop's
        state object."""
        from repro.chain import (
            ParallelChain,
            benchmark_chain_trace,
            default_registry,
            parse_chain,
        )
        from repro.chain.runtime import instantiate_hops
        from repro.core import Maestro
        from repro.sim.equivalence import check_chain_equivalence
        from tests.chain.test_runtime import FW_CL

        chain = parse_chain(FW_CL)
        registry = dict(default_registry())
        registry["cl"] = lambda: ALL_NFS["cl"](capacity=8)
        maestro = Maestro(seed=7)
        parallel = ParallelChain(
            chain=chain,
            hops={
                alias: maestro.parallelize(nf, 4)
                for alias, nf in instantiate_hops(chain, registry).items()
            },
            mode="fallback",
        )
        trace = benchmark_chain_trace(chain, n_flows=64, packets=256, seed=3)
        report = check_chain_equivalence(
            chain, parallel, trace, registry=registry
        )
        assert report.equivalent, report.describe()
        assert report.capacity_divergences > 0
        assert report.capacity_by_object.get("cl_chain", 0) > 0


class TestFlightSnapshot:
    @pytest.mark.parametrize("capacity", [8, 64])
    def test_snapshot_ends_at_first_mismatch(
        self, analyses, generator, capacity
    ):
        """The ring is frozen at the first genuine mismatch: its last
        event is that packet, preceded by the packets before it."""
        from repro.nf.packet import Packet
        from repro.obs.flight import FlightRecorder

        parallel = analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=4, result=analyses["fw"]
        )
        trace, _ = generator.uniform_trace(20, 8, in_port=0)
        # Two unsolicited WAN packets: the firewall drops them, the
        # sequential NOP (a different NF) forwards them.
        unsolicited = Packet(
            src_ip=0x0B000001, dst_ip=0x0A000001, src_port=80, dst_port=4242
        )
        report = check_equivalence(
            ALL_NFS["nop"],
            parallel,
            trace + [(1, unsolicited)] * 2,
            flight=FlightRecorder(capacity=capacity),
        )
        assert [m.index for m in report.mismatches] == [20, 21]
        first = report.mismatches[0].index
        snapshot = report.flight_snapshot
        assert snapshot[-1]["index"] == first
        assert [event["index"] for event in snapshot] == list(
            range(first + 1 - min(capacity, first + 1), first + 1)
        )


class TestReportFormatting:
    """Satellite: describe() caps listings and names capacity culprits."""

    def test_describe_caps_mismatch_listing(self):
        from repro.sim.equivalence import (
            MISMATCH_DISPLAY_CAP,
            EquivalenceReport,
            Mismatch,
        )

        mismatches = [
            Mismatch(index=i, port=0, sequential=("seq",), parallel=("par",))
            for i in range(12)
        ]
        report = EquivalenceReport(n_packets=100, mismatches=mismatches)
        text = report.describe()
        assert "12/100 packets diverge" in text
        assert f"... and {12 - MISMATCH_DISPLAY_CAP} more" in text
        # Only the capped prefix is listed, one line per mismatch.
        assert text.count("sequential=") == MISMATCH_DISPLAY_CAP

    def test_short_listing_is_not_capped(self):
        from repro.sim.equivalence import EquivalenceReport, Mismatch

        report = EquivalenceReport(
            n_packets=10,
            mismatches=[
                Mismatch(index=3, port=1, sequential=("a",), parallel=("b",))
            ],
        )
        text = report.describe()
        assert "#3 (port 1)" in text
        assert "more" not in text

    def test_capacity_divergences_name_the_exhausted_object(
        self, analyses, generator
    ):
        """The NAT's allocator chain is what refuses a full shard's new
        flow; the report must say so, per divergence."""
        nf_factory = lambda: ALL_NFS["nat"](capacity=32)
        result = analyses.maestro.analyze(nf_factory())
        parallel = analyses.maestro.parallelize(
            nf_factory(), n_cores=8, result=result
        )
        trace, _ = generator.uniform_trace(300, 64, in_port=0)
        report = check_equivalence(
            nf_factory, parallel, trace, ignore_mods=("src_port",)
        )
        assert report.capacity_divergences > 0
        assert report.capacity_by_object == {
            "nat_chain": report.capacity_divergences
        }


class TestSanitizedEquivalence:
    """check_equivalence(sanitize=True): the race sanitizer rides along."""

    def test_clean_nf_attaches_no_diagnostics(self, analyses, generator):
        parallel = analyses.maestro.parallelize(
            ALL_NFS["fw"](), n_cores=4, result=analyses["fw"]
        )
        report = check_equivalence(
            ALL_NFS["fw"],
            parallel,
            bidirectional_trace(generator),
            sanitize=True,
            tree=analyses["fw"].tree,
        )
        assert report.equivalent, report.describe()
        assert report.race_diagnostics == []
        # Probes must not linger after the checked run.
        assert all(c.ctx.access_probe is None for c in parallel.cores)

    def test_race_surfaces_even_when_behaviour_matches(self):
        """The ISSUE's motivating gap: single-threaded replay can be
        observably equivalent while the plan still races."""
        from tests.analysis.test_race import (
            MisshardedNat,
            forged_client_sharding,
            many_clients_one_server,
            parallel_for_solution,
        )
        from repro.symbex.engine import explore_nf

        nf = MisshardedNat()
        parallel = parallel_for_solution(nf, forged_client_sharding(nf))
        report = check_equivalence(
            MisshardedNat,
            parallel,
            many_clients_one_server(),
            sanitize=True,
            tree=explore_nf(nf),
        )
        assert report.equivalent, report.describe()
        assert any(d.code == "MAE103" for d in report.race_diagnostics)
        assert "race sanitizer" in report.describe()
