"""Elastic execution: enabling bucket tagging and running rescale traces.

``enable_elastic`` flips a generated shared-nothing :class:`ParallelNF`
into elastic mode: every core gets a :class:`BucketIndex`, and from then
on each processed packet carries its indirection-table slot so created
state is bucket-tagged — the precondition for live migration
(:func:`repro.scale.migrate.rescale_parallel`).

``run_elastic`` is the batch-simulator entry point: it splits a trace at
:class:`RescaleEvent` boundaries, runs each segment through the normal
:func:`repro.sim.functional.run_functional` machinery (reference or
batched, kernels on or off — all bit-identical), and applies the rescale
between segments.  Rescales therefore always land on chunk boundaries,
exactly as the hardware would quiesce RX queues before reprogramming the
RETA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.codegen import ParallelNF, Strategy
from repro.errors import SimulationError
from repro.scale.migrate import BucketIndex, MigrationStats, rescale_parallel
from repro.sim.functional import FunctionalRun, run_functional
from repro.traffic.generator import Trace

__all__ = ["RescaleEvent", "enable_elastic", "run_elastic", "ElasticRun"]


@dataclass(frozen=True)
class RescaleEvent:
    """Rescale to ``n_cores`` just before packet ``at_packet`` is processed."""

    at_packet: int
    n_cores: int


def enable_elastic(parallel: ParallelNF) -> ParallelNF:
    """Switch a generated shared-nothing NF into elastic mode.

    Must be called before traffic: state created pre-enable carries no
    bucket tag and would be left behind by a later migration.  Verifies
    the per-port indirection tables are in lockstep (identical entries) —
    elastic mode keys bucket identity on the table *slot*, which is only
    port-independent while every port's table is reprogrammed
    identically.  :meth:`RssConfiguration.balance_tables` keeps the tables
    in lockstep; a per-table ``rebalance`` drifts them apart.
    """
    if parallel.strategy is not Strategy.SHARED_NOTHING:
        raise SimulationError(
            "elastic scaling requires a shared-nothing plan "
            f"({parallel.nf.name} is {parallel.strategy.value}); LOCKS/TM "
            "plans share one store, so there is no state to migrate"
        )
    tables = [config.table for config in parallel.rss.ports.values()]
    reference = tables[0]
    for other in tables[1:]:
        if other.size != reference.size or not np.array_equal(
            other.entries, reference.entries
        ):
            raise SimulationError(
                "elastic mode needs lockstep port tables: every port must "
                "map each bucket to the same core (was one port's table "
                "rebalanced or reprogrammed on its own?)"
            )
    for core in parallel.cores:
        if core.ctx.bucket_index is None:
            core.ctx.bucket_index = BucketIndex()
    parallel.elastic = True
    return parallel


@dataclass
class ElasticRun:
    """Results of one elastic trace execution."""

    run: FunctionalRun
    rescales: list[MigrationStats]

    @property
    def results(self):
        return self.run.results


def run_elastic(
    parallel: ParallelNF,
    trace: Trace,
    events: Sequence[RescaleEvent],
    *,
    fastpath: bool = True,
    kernels: bool = True,
) -> ElasticRun:
    """Execute ``trace`` with mid-trace rescales at the event boundaries.

    Each segment between events runs through
    :func:`~repro.sim.functional.run_functional` with the given execution
    flags, so the fastpath/compiled paths stay bit-identical to the
    reference within every segment; the rescale itself happens between
    segments, where no packet is in flight.  Events are applied in
    ``at_packet`` order; duplicate positions are rejected (one rescale
    per boundary — the controller never emits more).
    """
    if not parallel.elastic:
        enable_elastic(parallel)
    ordered = sorted(events, key=lambda e: e.at_packet)
    seen: set[int] = set()
    for event in ordered:
        if not 0 <= event.at_packet <= len(trace):
            raise SimulationError(
                f"rescale event at packet {event.at_packet} is outside "
                f"the trace (0..{len(trace)})"
            )
        if event.at_packet in seen:
            raise SimulationError(
                f"two rescale events at packet {event.at_packet}"
            )
        seen.add(event.at_packet)

    segments: list[FunctionalRun] = []
    stats: list[MigrationStats] = []
    cursor = 0
    with obs.span(
        "scale.run_elastic",
        nf=parallel.nf.name,
        n_packets=len(trace),
        n_events=len(ordered),
    ):
        # The trace end closes the last segment, with no rescale after it.
        bounds = [(e.at_packet, e.n_cores) for e in ordered]
        for at_packet, n_cores in bounds + [(len(trace), None)]:
            segment = trace[cursor:at_packet]
            if segment:
                segments.append(
                    run_functional(
                        parallel, segment, fastpath=fastpath, kernels=kernels
                    )
                )
            if n_cores is not None:
                stats.append(rescale_parallel(parallel, n_cores))
            cursor = at_packet
    combined = FunctionalRun(
        parallel,
        np.concatenate(
            [np.zeros(0, np.int64)] + [seg.core_ids for seg in segments]
        ),
        [result for seg in segments for result in seg.packet_results],
    )
    return ElasticRun(run=combined, rescales=stats)
