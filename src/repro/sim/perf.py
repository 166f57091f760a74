"""The performance simulator: throughput of parallel NFs (§6).

Replaces the paper's hardware rate search (DPDK-Pktgen probing for the
highest rate with <0.1% loss).  The model composes:

* a per-packet CPU cost: ``base_cycles`` + one cache-hierarchy access per
  stateful operation, where the working set per core shrinks under
  shared-nothing sharding (§4) — reproducing the compound
  parallelism+locality speed-up;
* strategy overheads: the per-core rwlock's read/write costs and globally
  exclusive write sections (§3.6), TM abort/retry waste (§6), or VPP's
  batched shared-memory profile (Figure 11);
* the I/O ceilings: PCIe per-packet cost and 100 Gbps line rate
  (Figure 8).

With per-core traffic shares ``s_c`` (1/n uniform; measured through the
real RSS configuration under skew), write fraction ``p_w``, per-packet
cycles ``T_pkt`` and per-write exclusive cycles ``T_excl``, the achievable
rate solves  ``R * (max_c s_c * T_pkt + p_w * T_excl) = F``  — the same
equilibrium the testbed search converges to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.core.codegen import ParallelNF, Strategy
from repro.obs.detect import DriftReport, model_drift
from repro.hw import params
from repro.hw.cache import CacheHierarchy
from repro.hw.cpu import NfCostProfile, profile_for
from repro.hw.locks import RwLockModel
from repro.hw.pcie import Bottleneck
from repro.hw.tm import TmModel
from repro.hw.vpp import VppModel
from repro.traffic.churn import write_fraction as churn_write_fraction

__all__ = [
    "Workload",
    "ThroughputResult",
    "PerformanceModel",
    "CHAIN_HANDOFF_CYCLES",
    "chain_handoff_cost",
    "chain_handoff_slowdown",
]


@dataclass(frozen=True)
class Workload:
    """The traffic the NF is subjected to."""

    pkt_size: int = 64
    n_flows: int = 40_000
    #: descending per-flow popularity; None = uniform
    zipf_weights: np.ndarray | None = None
    #: relative churn in flows/Gbit (§6.3)
    relative_churn_fpg: float = 0.0
    #: measured per-core traffic shares; None = perfectly uniform
    core_shares: np.ndarray | None = None

    def shares(self, n_cores: int) -> np.ndarray:
        if self.core_shares is not None:
            if len(self.core_shares) != n_cores:
                raise ValueError(
                    f"core_shares has {len(self.core_shares)} entries for "
                    f"{n_cores} cores"
                )
            return np.asarray(self.core_shares, dtype=np.float64)
        return np.full(n_cores, 1.0 / n_cores)


@dataclass
class ThroughputResult:
    """Outcome of one throughput evaluation."""

    pps: float
    gbps: float
    bottleneck: Bottleneck
    cpu_pps: float
    packet_cycles: float
    exclusive_cycles_per_packet: float
    write_fraction: float
    details: dict[str, float] = field(default_factory=dict)

    @property
    def mpps(self) -> float:
        return self.pps / 1e6


class PerformanceModel:
    """Analytic throughput/latency evaluation of a parallelized NF."""

    def __init__(
        self,
        *,
        freq_hz: float = params.CPU_FREQ_HZ,
        locks: RwLockModel | None = None,
        tm: TmModel | None = None,
        vpp: VppModel | None = None,
    ):
        self.freq_hz = freq_hz
        self.locks = locks or RwLockModel()
        self.tm = tm or TmModel()
        self.vpp = vpp

    # -------------------------------------------------------------- #
    # Cost components
    # -------------------------------------------------------------- #
    def _write_fraction(self, profile: NfCostProfile, workload: Workload) -> float:
        churn = churn_write_fraction(workload.relative_churn_fpg, workload.pkt_size)
        return min(1.0, profile.intrinsic_write_fraction + churn)

    def _memory_cycles(
        self,
        profile: NfCostProfile,
        workload: Workload,
        n_cores: int,
        sharded: bool,
        locality_penalty: float = 1.0,
    ) -> float:
        entries = workload.n_flows * profile.entries_per_flow
        total_state = entries * profile.state_bytes_per_flow
        if total_state <= 0:
            return 0.0
        if sharded:
            working_set = total_state / n_cores
            # Disjoint per-core working sets compete for the shared LLC.
            hierarchy = CacheHierarchy(llc_sharers=n_cores)
            weights = workload.zipf_weights
            if weights is not None:
                # A core holds every n-th flow by rank: decimating the
                # popularity vector preserves the Zipf shape per core.
                weights = weights[::n_cores]
                weights = weights / weights.sum()
        else:
            working_set = total_state
            hierarchy = CacheHierarchy(llc_sharers=1)
            weights = workload.zipf_weights
        per_access = hierarchy.access_cycles(working_set, weights)
        return profile.mem_ops_per_packet * per_access * locality_penalty

    # -------------------------------------------------------------- #
    # Strategy-specific per-packet cost
    # -------------------------------------------------------------- #
    def packet_cost(
        self,
        profile: NfCostProfile,
        strategy: Strategy,
        n_cores: int,
        workload: Workload,
        *,
        vpp_mode: bool = False,
    ) -> tuple[float, float, float]:
        """(cycles per packet, exclusive cycles per packet, write fraction)."""
        p_churn = churn_write_fraction(
            workload.relative_churn_fpg, workload.pkt_size
        )
        p_w = self._write_fraction(profile, workload)
        if vpp_mode:
            vpp = self.vpp or VppModel()
            adjusted = vpp.adjust_profile(profile)
            memory = self._memory_cycles(
                adjusted, workload, n_cores, sharded=False,
                locality_penalty=vpp.locality_penalty,
            )
            return adjusted.base_cycles + memory, 0.0, p_w

        if strategy is Strategy.SHARED_NOTHING:
            memory = self._memory_cycles(profile, workload, n_cores, sharded=True)
            # New flows pay the allocation path locally; no coordination.
            body = profile.base_cycles + memory + p_w * 90.0
            return body, 0.0, p_w

        memory = self._memory_cycles(profile, workload, n_cores, sharded=False)
        body = profile.base_cycles + memory
        if strategy is Strategy.LOCKS:
            per_packet = (
                body
                + self.locks.read_overhead()
                + p_w * self.locks.write_overhead(n_cores, profile)
            )
            # Churn writes additionally expire flows under the write lock
            # (cross-core aging inspection, map erase, index free — §4).
            exclusive = p_w * self.locks.exclusive_section(n_cores, profile)
            exclusive += p_churn * params.CHURN_EXCLUSIVE_EXTRA_CYCLES
            return per_packet, exclusive, p_w

        if strategy is Strategy.TM:
            extra, serialized = self.tm.packet_overhead(
                n_cores, profile, p_w, body
            )
            serialized += p_churn * params.CHURN_EXCLUSIVE_EXTRA_CYCLES
            return body + extra, serialized, p_w

        raise ValueError(f"unknown strategy {strategy}")

    # -------------------------------------------------------------- #
    # Throughput
    # -------------------------------------------------------------- #
    def throughput(
        self,
        profile: NfCostProfile,
        strategy: Strategy,
        n_cores: int,
        workload: Workload,
        *,
        vpp_mode: bool = False,
    ) -> ThroughputResult:
        """Highest sustainable rate (the simulated <0.1%-loss search)."""
        t_pkt, t_excl, p_w = self.packet_cost(
            profile, strategy, n_cores, workload, vpp_mode=vpp_mode
        )
        shares = Workload.shares(workload, n_cores)
        s_max = float(shares.max())
        cpu_pps = self.freq_hz / (s_max * t_pkt + t_excl)

        pcie = params.pcie_pps(workload.pkt_size)
        line = params.line_rate_pps(workload.pkt_size)
        pps = min(cpu_pps, pcie, line)
        if pps == cpu_pps and cpu_pps <= min(pcie, line):
            bottleneck = Bottleneck.CPU
        elif pcie <= line:
            bottleneck = Bottleneck.PCIE
        else:
            bottleneck = Bottleneck.LINE_RATE
        # Bottleneck attribution per evaluated point: what limited the
        # rate, and how much of the per-packet budget was coordination
        # (lock/TM exclusive sections) rather than NF work.
        obs.counter(
            "perf.bottleneck",
            1,
            which=bottleneck.value,
            strategy=strategy.value,
            cores=n_cores,
        )
        obs.histogram(
            "perf.packet_cycles", t_pkt, strategy=strategy.value, cores=n_cores
        )
        if t_excl > 0.0:
            obs.histogram(
                "perf.exclusive_cycles",
                t_excl,
                strategy=strategy.value,
                cores=n_cores,
            )
        return ThroughputResult(
            pps=pps,
            gbps=params.pps_to_gbps(pps, workload.pkt_size),
            bottleneck=bottleneck,
            cpu_pps=cpu_pps,
            packet_cycles=t_pkt,
            exclusive_cycles_per_packet=t_excl,
            write_fraction=p_w,
            details={
                "s_max": s_max,
                "pcie_pps": pcie,
                "line_pps": line,
            },
        )

    def evaluate_parallel(
        self,
        parallel: ParallelNF,
        workload: Workload,
        *,
        trace=None,
    ) -> ThroughputResult:
        """Evaluate a generated :class:`ParallelNF`.

        When ``trace`` is given, per-core shares are *measured* by pushing
        the trace through the generated RSS configuration — this is how
        skew (Figures 5/14) enters the model.
        """
        profile = profile_for(parallel.nf)
        if trace is not None:
            shares = parallel.core_shares(trace)
            workload = replace(workload, core_shares=shares)
        return self.throughput(
            profile, parallel.strategy, parallel.n_cores, workload
        )

    def drift_report(
        self,
        parallel: ParallelNF,
        workload: Workload,
        run,
        *,
        threshold: float = 0.15,
    ) -> DriftReport:
        """Validate the model against an executed run's telemetry.

        ``run`` is a :class:`~repro.sim.functional.FunctionalRun` of the
        same ``parallel`` NF.  The model's *prior* prediction — the
        per-core shares and write fraction it would have assumed without
        seeing the run — is scored against what actually happened
        (:func:`repro.obs.detect.model_drift`).  A skewed workload the
        model priced as uniform drifts hard; a uniform one scores near
        zero.  This is a sensing API for the elastic-scaling controller
        (DESIGN §15) to decide when the plan needs revisiting.
        """
        profile = profile_for(parallel.nf)
        predicted = self.throughput(
            profile, parallel.strategy, parallel.n_cores, workload
        )
        drift = model_drift(
            Workload.shares(workload, parallel.n_cores).tolist(),
            run.core_shares().tolist(),
            predicted_write_fraction=predicted.write_fraction,
            observed_write_fraction=run.write_fraction(),
            predicted_bottleneck=predicted.bottleneck.value,
            threshold=threshold,
        )
        obs.histogram(
            "telemetry.drift_score",
            drift.score,
            nf=parallel.nf.name,
            strategy=parallel.strategy.value,
            cores=parallel.n_cores,
        )
        return drift


# ------------------------------------------------------------------ #
# Chain handoff cost (per-hop fallback steering)
# ------------------------------------------------------------------ #
#: Cycles charged per cross-core handoff at a hop boundary when a chain
#: falls back to per-hop RSS steering: the packet's descriptor and the
#: hot cache lines (header + per-flow state touched by the previous hop)
#: migrate between private caches through the LLC, plus one
#: queue-transfer atomic pair.  Two LLC-latency line transfers + the
#: uncontended rwlock-read-class atomic cost keeps the number anchored
#: to the same calibration constants as the rest of the model.
CHAIN_HANDOFF_CYCLES: float = 2 * params.LLC_CYCLES + params.RWLOCK_READ_CYCLES


def chain_handoff_cost(handoffs_per_packet: float) -> float:
    """Extra per-packet cycles a fallback-steered chain pays.

    ``handoffs_per_packet`` is the measured average number of hop
    boundaries where the packet changed core (``ChainRun.handoffs`` over
    the packet count, from :func:`repro.chain.runtime.run_chain`).
    """
    if handoffs_per_packet < 0:
        raise ValueError("handoffs_per_packet must be non-negative")
    return handoffs_per_packet * CHAIN_HANDOFF_CYCLES


def chain_handoff_slowdown(
    handoffs_per_packet: float, packet_cycles: float
) -> float:
    """Throughput multiplier (<= 1.0) the handoff cost imposes.

    With a base per-packet cost of ``packet_cycles``, the CPU-bound rate
    scales by ``packet_cycles / (packet_cycles + handoff_cycles)`` —
    the factor the chain analyzer reports when it falls back to per-hop
    steering instead of a joint key.
    """
    if packet_cycles <= 0:
        raise ValueError("packet_cycles must be positive")
    extra = chain_handoff_cost(handoffs_per_packet)
    return packet_cycles / (packet_cycles + extra)
