"""Chain execution: sequential reference, parallel modes, handoff stats."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.chain import (
    ParallelChain,
    SequentialChainRunner,
    benchmark_chain_trace,
    load_chain,
    parse_chain,
    run_chain,
)
from repro.chain.runtime import instantiate_hops
from repro.core.pipeline import Maestro
from repro.errors import ChainError, SimulationError
from repro.nf.api import ActionKind
from repro.nf.packet import Packet
from repro.sim.perf import (
    CHAIN_HANDOFF_CYCLES,
    chain_handoff_cost,
    chain_handoff_slowdown,
)

CHAINS = Path(__file__).resolve().parents[2] / "examples" / "chains"

FW_CL = """\
chain fw_cl
hop fw: fw
hop cl: cl
ingress 0 -> fw.0
wire fw.1 -> cl.0
egress cl.1 -> 1
ingress 1 -> cl.1
wire cl.0 -> fw.1
egress fw.0 -> 0
"""


def _packet(seed: int = 1) -> Packet:
    rng = np.random.default_rng(seed)
    return Packet(
        src_ip=int(rng.integers(1, 2**32)),
        dst_ip=int(rng.integers(1, 2**32)),
        src_port=int(rng.integers(1, 2**16)),
        dst_port=int(rng.integers(1, 2**16)),
    )


def _parallel(chain, mode: str, n_cores: int = 4) -> ParallelChain:
    maestro = Maestro(seed=7)
    hops = {
        alias: maestro.parallelize(nf, n_cores)
        for alias, nf in instantiate_hops(chain).items()
    }
    return ParallelChain(chain=chain, hops=hops, mode=mode)


def _joint(chain, n_cores: int = 4) -> ParallelChain:
    """A joint-mode deployment steered by the analyzer's joint keys."""
    from repro.analysis.chain_passes import analyze_chain
    from repro.rs3.config import RssConfiguration
    from repro.rs3.joint import compile_joint

    report = analyze_chain(chain, validate=False)
    assert report.mode == "joint"
    maestro = Maestro(seed=7)
    compilation = compile_joint(
        chain.ingress_ports(), report.joint_fields, report.lifted_pairs,
        maestro.nic,
    )
    rss = RssConfiguration.build(
        report.joint_keys, compilation.port_options, n_cores
    )
    return ParallelChain(
        chain=chain,
        hops={
            alias: maestro.parallelize(nf, n_cores)
            for alias, nf in instantiate_hops(chain).items()
        },
        mode="joint",
        joint_rss=rss,
    )


def test_sequential_runner_traverses_both_directions() -> None:
    chain = parse_chain(FW_CL)
    runner = SequentialChainRunner(chain)
    pkt = _packet()
    out = runner.process(0, pkt)
    assert out.kind is ActionKind.FORWARD
    assert out.port == 1
    assert [step.alias for step in out.steps] == ["fw", "cl"]
    back = runner.process(1, pkt.inverted())
    assert back.kind is ActionKind.FORWARD
    assert back.port == 0
    assert [step.alias for step in back.steps] == ["cl", "fw"]


def test_unseen_reply_is_dropped_by_firewall_at_chain_level() -> None:
    chain = parse_chain(FW_CL)
    runner = SequentialChainRunner(chain)
    out = runner.process(1, _packet(99))
    assert out.kind is ActionKind.DROP
    assert out.port is None


def test_unmapped_forward_port_raises_chain_error() -> None:
    chain = parse_chain(
        "chain broken\nhop tap: nop\ningress 0 -> tap.0\negress tap.0 -> 0\n"
    )
    runner = SequentialChainRunner(chain)
    with pytest.raises(ChainError, match="MAE204"):
        runner.process(0, _packet())


def test_wiring_cycle_exhausts_traversal_budget() -> None:
    chain = parse_chain(
        "chain loop\nhop a: nop\nhop b: nop\n"
        "ingress 0 -> a.0\n"
        "wire a.1 -> b.0\nwire b.1 -> a.0\n"
    )
    runner = SequentialChainRunner(chain)
    with pytest.raises(ChainError, match="cycle"):
        runner.process(0, _packet())


def test_parallel_fallback_counts_handoffs() -> None:
    chain = parse_chain(FW_CL)
    parallel = _parallel(chain, "fallback")
    trace = benchmark_chain_trace(chain, n_flows=32, packets=128, seed=3)
    run = run_chain(parallel, trace)
    assert run.hop_transitions > 0
    assert 0.0 <= run.handoff_fraction <= 1.0
    assert run.hop_packets["fw"] == len(trace)


def test_fallback_handoffs_are_counted_from_the_steps() -> None:
    chain = load_chain(CHAINS / "scan_police_lb.chain")
    parallel = _parallel(chain, "fallback")
    trace = benchmark_chain_trace(chain, n_flows=32, packets=128, seed=3)
    run = run_chain(parallel, trace)
    handoffs = transitions = 0
    for result in run.results:
        for before, after in zip(result.steps, result.steps[1:]):
            transitions += 1
            handoffs += before.core != after.core
    assert run.hop_transitions == transitions > 0
    assert run.handoffs == handoffs > 0
    assert run.handoff_fraction == handoffs / transitions
    hop_packets = dict.fromkeys(chain.hops, 0)
    core_hops = np.zeros(parallel.n_cores, dtype=np.int64)
    for result in run.results:
        for step in result.steps:
            hop_packets[step.alias] += 1
            core_hops[step.core] += 1
    assert run.hop_packets == hop_packets
    assert np.array_equal(run.core_hop_packets, core_hops)


def test_parallel_joint_mode_requires_rss_and_pins_the_core() -> None:
    chain = parse_chain(FW_CL)
    with pytest.raises(SimulationError, match="joint"):
        _parallel(chain, "joint")
    parallel = _joint(chain)
    trace = benchmark_chain_trace(chain, n_flows=32, packets=128, seed=3)
    run = run_chain(parallel, trace)
    assert run.handoffs == 0
    for result in run.results:
        cores = {step.core for step in result.steps}
        assert len(cores) == 1  # every hop of a packet on one core


@pytest.mark.parametrize("name", ["fw_cl", "tap_scan"])
def test_joint_steering_matches_the_scalar_ingress_hash(name: str) -> None:
    chain = load_chain(CHAINS / f"{name}.chain")
    parallel = _joint(chain)
    trace = benchmark_chain_trace(chain, n_flows=64, packets=256, seed=4)
    run = run_chain(parallel, trace)
    for (port, pkt), result in zip(trace, run.results):
        expected = parallel.joint_rss.core_for(port, pkt)
        assert [step.core for step in result.steps] == [expected] * len(
            result.steps
        )
    assert run.handoffs == 0
    assert run.hop_transitions == sum(len(r.steps) - 1 for r in run.results)


def test_joint_unknown_ingress_port_raises_before_any_packet_runs() -> None:
    chain = parse_chain(FW_CL)
    parallel = _joint(chain)
    trace = benchmark_chain_trace(chain, n_flows=8, packets=16, seed=3)
    trace.append((7, _packet()))
    before = [
        core.ctx.stat_snapshot()
        for hop in parallel.hops.values()
        for core in hop.cores
    ]
    with pytest.raises(SimulationError, match="port 7"):
        run_chain(parallel, trace)
    assert before == [
        core.ctx.stat_snapshot()
        for hop in parallel.hops.values()
        for core in hop.cores
    ]


def test_unknown_mode_rejected() -> None:
    chain = parse_chain(FW_CL)
    with pytest.raises(SimulationError, match="unknown chain mode"):
        _parallel(chain, "sideways")


def test_benchmark_chain_trace_is_deterministic_and_two_sided() -> None:
    chain = parse_chain(FW_CL)
    a = benchmark_chain_trace(chain, n_flows=16, packets=64, seed=5)
    b = benchmark_chain_trace(chain, n_flows=16, packets=64, seed=5)
    assert a == b
    ports = {port for port, _ in a}
    assert ports == {0, 1}


def test_handoff_cost_model() -> None:
    assert chain_handoff_cost(0.0) == 0.0
    assert chain_handoff_cost(2.0) == pytest.approx(2 * CHAIN_HANDOFF_CYCLES)
    slow = chain_handoff_slowdown(1.0, packet_cycles=CHAIN_HANDOFF_CYCLES)
    assert slow == pytest.approx(0.5)
    assert chain_handoff_slowdown(0.0, packet_cycles=100.0) == 1.0
    with pytest.raises(ValueError):
        chain_handoff_cost(-1.0)
    with pytest.raises(ValueError):
        chain_handoff_slowdown(1.0, packet_cycles=0.0)
