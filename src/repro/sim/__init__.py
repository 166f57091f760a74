"""Simulators: functional (packet-exact) and performance (analytic)."""

from repro.sim.attack import AttackSet, evaluate_attack, find_colliding_flows
from repro.sim.equivalence import EquivalenceReport, Mismatch, check_equivalence
from repro.sim.functional import FunctionalRun, run_functional
from repro.sim.latency import latency_probe
from repro.sim.perf import PerformanceModel, ThroughputResult, Workload

__all__ = [
    "AttackSet",
    "evaluate_attack",
    "find_colliding_flows",
    "EquivalenceReport",
    "Mismatch",
    "check_equivalence",
    "FunctionalRun",
    "run_functional",
    "latency_probe",
    "PerformanceModel",
    "ThroughputResult",
    "Workload",
]
