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
  from the start: the ratio is gated at >= 0.9x.  After the warm-up
  every lane of both legs runs on the compiled kernels, so the same
  ratio is also taken with ``kernels=False`` against an elastic static
  build (``rescale.post_rescale_interp_ratio``, same floor): a slower
  interpreter on the revived cores shows there.

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
    # The interpreter leg compares against an elastic static build: an
    # elastic plan's interpreter installs a bucket per packet and tags
    # the state it creates, which the rescaled plan does too.
    static_elastic = _elastic(8)
    steady = trace[warm:]
    for plan in (static, static_elastic):
        run_functional(plan, trace[:warm], fastpath=False)
    # Untimed warmup so one-time costs (the first compiled run builds
    # the dispatcher) hit neither side's timings.
    for plan in (rescaled, static, static_elastic):
        run_functional(plan, steady)

    # The rescaled plan runs the trace with the kernels and on the
    # interpreter, each against its static build.
    legs = {
        ("rescaled", True): rescaled,
        ("rescaled", False): rescaled,
        ("static", True): static,
        ("static", False): static_elastic,
    }
    samples = {leg: [] for leg in legs}
    probes = {leg: [] for leg in legs}
    runs = {}
    for k in range(RATIO_ROUNDS):
        for leg in sorted(legs, reverse=k % 2 == 1):
            probes[leg].append(probe_s())
            t0 = time.perf_counter()
            runs[leg] = run_functional(legs[leg], steady, kernels=leg[1])
            samples[leg].append(time.perf_counter() - t0)
    # Fidelity first: both plans are shared-nothing over the same NF, so
    # packet outcomes must agree even though steering layouts differ.
    expected = [r for _, r in runs[("static", True)].results]
    for leg, run in runs.items():
        assert [r for _, r in run.results] == expected, leg
    assert runs[("rescaled", False)].compiled["kernel_packets"] == 0

    us = {
        leg: scaled(samples[leg], probes[leg]) * 1e6 / len(steady)
        for leg in legs
    }
    ratio, interp_ratio = (
        us[("static", kernels)] / us[("rescaled", kernels)]
        for kernels in (True, False)
    )
    _RESULTS.update(
        {
            "post_rescale_us_per_pkt": us[("rescaled", True)],
            "static_us_per_pkt": us[("static", True)],
            "post_rescale_ratio": ratio,
            "post_rescale_interp_us_per_pkt": us[("rescaled", False)],
            "static_interp_us_per_pkt": us[("static", False)],
            "post_rescale_interp_ratio": interp_ratio,
            "ratio_floor": POST_RESCALE_RATIO_FLOOR,
        }
    )
    for what, r, kernels in (
        ("kernels", ratio, True), ("interpreter", interp_ratio, False)
    ):
        print(
            f"\npost-rescale {what} {us[('rescaled', kernels)]:.3f} us/pkt "
            f"vs static {us[('static', kernels)]:.3f} us/pkt (ratio {r:.2f}x)"
        )
        assert r >= POST_RESCALE_RATIO_FLOOR, (
            f"post-rescale {what} throughput is {r:.2f}x the static build "
            f"(floor {POST_RESCALE_RATIO_FLOOR}x) — rescaling left the "
            "dataplane degraded"
        )
