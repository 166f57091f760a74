"""repro.chain — service-chain composition of corpus NFs.

Maestro parallelizes a *single* NF; production deployments run chains
(firewall → NAT → load balancer), and a per-NF verdict is unsound for
the chain: two NFs can each be shardable yet disagree on the flow key,
so no single RSS steering keeps a flow on one core end-to-end.

This package provides the chain description layer:

* :mod:`repro.chain.dsl` — a small text DSL (``.chain`` files under
  ``examples/chains/``) declaring hops, chain-level ingress ports, the
  hop-to-hop port wiring, and chain egress ports;
* :mod:`repro.chain.runtime` — a sequential reference executor and
  :func:`run_chain`, the one executor of a :class:`ParallelChain`
  deployment (joint steering of the whole trace, or per-hop steering
  with core handoffs), whose :class:`ChainRun` holds the results.

The whole-chain static analysis lives in
:mod:`repro.analysis.chain_passes` (MAE2xx diagnostics) and the joint
Toeplitz key search in :mod:`repro.rs3.joint`.
"""

from repro.chain.dsl import (
    Chain,
    Egress,
    Hop,
    Ingress,
    Wire,
    default_registry,
    load_chain,
    parse_chain,
)
from repro.chain.runtime import (
    ChainResult,
    ChainRun,
    HopStep,
    ParallelChain,
    SequentialChainRunner,
    benchmark_chain_trace,
    run_chain,
)

__all__ = [
    "Chain",
    "Hop",
    "Ingress",
    "Wire",
    "Egress",
    "parse_chain",
    "load_chain",
    "default_registry",
    "ChainResult",
    "HopStep",
    "SequentialChainRunner",
    "ParallelChain",
    "ChainRun",
    "run_chain",
    "benchmark_chain_trace",
]
