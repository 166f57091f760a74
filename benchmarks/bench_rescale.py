"""Elastic-scaling performance gates (live migration + post-rescale).

Two numbers keep the rescale path honest in CI:

* **migration cost per entry** (``rescale.per_entry_us``) — wall-clock
  of a live grow divided by the state entries it moved.  The two-phase
  handoff is index-driven (write-time :class:`BucketIndex`), so the
  cost must stay proportional to the *moved state*, not the shard
  capacity; an accidental full-shard scan shows up as a per-entry blowup
  and trips the committed ceiling.
* **post-rescale throughput ratio** (``rescale.post_rescale_ratio``) —
  steady-state batch throughput after a live 4 -> 8 grow vs a statically
  built 8-core plan on the same trace.  Re-sharding must not leave the
  dataplane slower than if it had been provisioned at the target width
  from the start: the ratio is gated at >= 0.9x.

Both assert result fidelity before timing means anything, and both
export into the ``rescale`` section consumed by
``check_bench_regression.py``.  The migration cost is best-of-rounds.
The throughput legs are timed in alternating order each round, each
after a fixed probe loop (``perfbench.bench.probe_s``), and the ratio
is taken between the legs' medians of timing over probe
(``perfbench.bench.scaled``), so a machine that slows for a while
slows both legs alike.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the trace for the CI smoke
job; ``REPRO_BENCH_JSON=path`` exports the measured numbers.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from perfbench.bench import probe_s, scaled
from repro.core.pipeline import Maestro
from repro.nf.nfs import Firewall
from repro.scale import enable_elastic, rescale_parallel
from repro.sim.functional import run_functional
from repro.traffic import TrafficGenerator
from repro.traffic.churn import churn_trace

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

N_PACKETS = 6_000 if QUICK else 30_000
N_FLOWS = 400 if QUICK else 1_500
ROUNDS = 5 if QUICK else 4
#: Rounds of the post-rescale throughput legs.  A quick-mode leg runs
#: for a few milliseconds, so its median needs many rounds to hold
#: still on a shared machine.
RATIO_ROUNDS = 25 if QUICK else 9

#: Ceiling on the measured per-entry migration cost.  Extraction and
#: installation are dict/array operations on exactly the moved entries;
#: even shared CI runners land far below this.
PER_ENTRY_CEILING_US = 200.0
#: Post-rescale steady state must stay within 10% of a static build.
POST_RESCALE_RATIO_FLOOR = 0.9

_RESULTS: dict[str, object] = {}


@pytest.fixture(scope="module", autouse=True)
def _export_json():
    yield
    path = os.environ.get("REPRO_BENCH_JSON")
    if path and _RESULTS:
        merged: dict[str, object] = {}
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    merged = json.load(fh)
            except (OSError, ValueError):
                merged = {}
        merged["rescale"] = _RESULTS
        with open(path, "w") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def trace():
    return churn_trace(
        TrafficGenerator(seed=3), N_PACKETS, N_FLOWS, 60_000.0, in_port=0
    )


def _elastic(n_cores=4):
    return enable_elastic(
        Maestro(seed=7).parallelize(Firewall(), n_cores=n_cores)
    )


def test_migration_cost_per_entry(trace):
    """Per-entry cost of a live grow, best-of-rounds."""
    best = float("inf")
    moved = 0
    for _ in range(ROUNDS):
        parallel = _elastic(4)
        for port, pkt in trace:
            parallel.process(port, pkt)
        t0 = time.perf_counter()
        stats = rescale_parallel(parallel, 8)
        elapsed = time.perf_counter() - t0
        assert stats.entries_moved > 0, "grow moved no state"
        assert stats.refused == 0
        moved = stats.entries_moved
        best = min(best, elapsed * 1e6 / stats.entries_moved)
    _RESULTS.update(
        {
            "per_entry_us": best,
            "per_entry_ceiling_us": PER_ENTRY_CEILING_US,
            "entries_moved": moved,
        }
    )
    print(f"\nmigration: {best:.3f} us/entry over {moved} entries")
    assert best <= PER_ENTRY_CEILING_US, (
        f"per-entry migration cost {best:.1f}us exceeds the "
        f"{PER_ENTRY_CEILING_US}us ceiling — is extraction scanning the "
        "whole shard instead of the bucket index?"
    )


def test_post_rescale_throughput(trace):
    """Batch throughput after a live 4 -> 8 grow vs a static 8-core plan."""
    rescaled = _elastic(4)
    warm = len(trace) // 3
    for port, pkt in trace[:warm]:
        rescaled.process(port, pkt)
    rescale_parallel(rescaled, 8)

    static = Maestro(seed=7).parallelize(Firewall(), n_cores=8)
    run_functional(static, trace[:warm], fastpath=False)

    steady = trace[warm:]
    # Untimed warmup so one-time costs (the first compiled run builds
    # the dispatcher) hit neither side's timings.
    run_functional(rescaled, steady)
    run_functional(static, steady)

    legs = {"rescaled": rescaled, "static": static}
    samples = {name: [] for name in legs}
    probes = {name: [] for name in legs}
    runs = {}
    for k in range(RATIO_ROUNDS):
        for name in sorted(legs, reverse=k % 2 == 1):
            probes[name].append(probe_s())
            t0 = time.perf_counter()
            runs[name] = run_functional(legs[name], steady)
            samples[name].append(time.perf_counter() - t0)
    # Fidelity first: both plans are shared-nothing over the same NF, so
    # packet outcomes must agree even though steering layouts differ.
    assert [r for _, r in runs["rescaled"].results] == [
        r for _, r in runs["static"].results
    ]

    post_us, static_us = (
        scaled(samples[name], probes[name]) * 1e6 / len(steady)
        for name in ("rescaled", "static")
    )
    ratio = static_us / post_us
    _RESULTS.update(
        {
            "post_rescale_us_per_pkt": post_us,
            "static_us_per_pkt": static_us,
            "post_rescale_ratio": ratio,
            "ratio_floor": POST_RESCALE_RATIO_FLOOR,
        }
    )
    print(
        f"\npost-rescale {post_us:.3f} us/pkt vs static {static_us:.3f} "
        f"us/pkt (ratio {ratio:.2f}x)"
    )
    assert ratio >= POST_RESCALE_RATIO_FLOOR, (
        f"post-rescale throughput is {ratio:.2f}x the static build "
        f"(floor {POST_RESCALE_RATIO_FLOOR}x) — rescaling left the "
        "dataplane degraded"
    )
