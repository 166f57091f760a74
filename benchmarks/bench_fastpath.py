"""Fast-path performance gates (vectorized RSS + batched simulation).

Three speedup floors, measured on the firewall (the flagship stateful
NF), plus one analysis-cost ceiling:

* batched Toeplitz hashing must be >= 20x the scalar reference on a
  full trace's hash inputs (the byte-table gather path is ~2 orders of
  magnitude faster in practice);
* end-to-end ``run_functional`` with the interpreter fast path
  (batched steering + grouped execution, ``kernels=False``) must beat
  the seed packet-at-a-time path from a cold start;
* the compiled dataplane (``kernels=True``, the default) must beat the
  reference by a much larger factor in *steady state* — new packets of
  established flows over warm state, the regime a long-lived dataplane
  actually runs in — and its kernel coverage is
  gated too, so a path-classification regression fails even if
  wall-clock noise hides it;
* the RS3 stage of ``Maestro.analyze``, summed over every bundled NF,
  must stay under ``RS3_CEILING_MS`` (``check_bench_regression.py``
  gates the exported ``analysis.rs3_ms``), so a per-sample scalar
  Toeplitz loop in the key acceptance test fails the smoke job;
* one flow-expiry sweep must cost per *expired* entry (Vigor's Table 1
  contract): the per-entry cost at 2k and 131k live flows, 5% of them
  stale, is gated by a ceiling and the 131k/2k ratio by another, so
  per-erase work that grows with the shard (a whole-index scan in
  ``StateStore.note_erase``) fails the smoke job.

All gates use *best-of-rounds* minima — the standard noise-robust
estimator for wall-clock micro-benchmarks — and all assert the fast
results are bit-identical to the scalar oracle before timing means
anything.

Quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke job) shrinks
the trace and relaxes the end-to-end floor for noisy shared runners.
Set ``REPRO_BENCH_JSON=path`` to export the measured numbers as JSON.
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import Maestro
from repro.nf.nfs import ALL_NFS, Firewall
from repro.nf.runtime import ConcreteContext, StateStore
from repro.rs3.toeplitz import (
    hash_input_rows,
    hash_packet,
    toeplitz_hash,
    toeplitz_hash_batch,
)
from repro.sim.functional import run_functional
from repro.traffic import Trace, TraceColumns, TrafficGenerator

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

N_PACKETS = 20_000 if QUICK else 100_000
N_FLOWS = 600 if QUICK else 2_000
#: Scalar hashing is ~22us/packet; cap the scalar sample so the baseline
#: measurement stays fast (per-hash cost is constant, so the ratio holds).
SCALAR_SAMPLE = 5_000
ROUNDS = 3 if QUICK else 4

HASH_SPEEDUP_FLOOR = 20.0
E2E_SPEEDUP_FLOOR = 4.0 if QUICK else 5.0
#: Steady-state compiled dataplane vs the packet-at-a-time reference.
COMPILED_SPEEDUP_FLOOR = 12.0
#: Fraction of packets a warm run must execute through kernels.
COMPILED_COVERAGE_FLOOR = 0.95
#: Summed ``rs3`` stage time over ALL_NFS.  The batched key search takes
#: about 100 ms on a 2-core container; a per-sample scalar acceptance
#: loop takes about 2.3 s.
RS3_CEILING_MS = 500.0
#: Live flows per expiry sweep, and the share of them each sweep frees.
EXPIRY_FLOWS = (2_048, 131_072)
EXPIRY_STALE = 0.05
#: Per-expired-entry cost of one sweep, at either size.  A 2-core
#: container measures 1.5-4 us; the per-slot Python scans the columnar
#: dchain and two-way map index replaced cost 70-116 us at 2k flows
#: and about 6,900 us at 131k.
EXPIRY_CEILING_US = 10.0
#: 131k-flow over 2k-flow per-entry cost.  Work proportional to the
#: expired entries keeps it near 1 (measured 0.6-1.0); work per erased
#: entry that grows with the shard, like a scan of the whole reverse
#: index per erased key, multiplies it by up to the 64x size step.
EXPIRY_RATIO_CEILING = 2.0

_RESULTS: dict[str, object] = {"quick": QUICK, "n_packets": N_PACKETS}


@pytest.fixture(scope="module", autouse=True)
def _export_json():
    yield
    path = os.environ.get("REPRO_BENCH_JSON")
    if path:
        # Read-merge-write: bench_obs_overhead exports its telemetry
        # section to the same file, and module teardown order between
        # benchmark files is not guaranteed.
        merged: dict[str, object] = {}
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    merged = json.load(fh)
            except (OSError, ValueError):
                merged = {}
        merged.update(_RESULTS)
        with open(path, "w") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def parallel_factory():
    def build():
        return Maestro(seed=7).parallelize(Firewall(), n_cores=8)

    return build


@pytest.fixture(scope="module")
def trace():
    generator = TrafficGenerator(seed=3)
    flows = generator.make_flows(N_FLOWS)
    return generator.trace(N_PACKETS, flows, reply_port=1, reply_fraction=0.3)


def fresh_rounds(trace: Trace, n: int) -> list[Trace]:
    """``n`` copies of ``trace``: new ``Packet`` objects, same flows.

    Copy ``k`` is shifted ``k + 1`` trace spans later, so the rounds
    form one continuous stream of new packets over the same flow
    population; no round replays an earlier round's objects.
    """
    step = trace[-1][1].timestamp - trace[0][1].timestamp + 1e-6
    return [
        [
            (port, replace(pkt, timestamp=pkt.timestamp + (k + 1) * step))
            for port, pkt in trace
        ]
        for k in range(n)
    ]


def test_batch_hash_speedup_and_exactness(parallel_factory, trace):
    parallel = parallel_factory()
    config = parallel.rss.ports[0]
    cols = TraceColumns(trace)
    packets = cols.packets
    matrix = hash_input_rows(
        [cols.field(f.packet_field) for f in config.option.fields],
        config.option,
        len(cols),
    )

    batch = toeplitz_hash_batch(config.key, matrix)
    sample = min(SCALAR_SAMPLE, len(packets))
    scalar = np.array(
        [hash_packet(config.key, pkt, config.option) for pkt in packets[:sample]],
        dtype=np.uint32,
    )
    assert np.array_equal(batch[:sample], scalar), (
        "batched Toeplitz differs from the scalar oracle"
    )

    t_batch = float("inf")
    t_scalar = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        toeplitz_hash_batch(config.key, matrix)
        t_batch = min(t_batch, (time.perf_counter() - start) / len(packets))
        start = time.perf_counter()
        for i in range(sample):
            toeplitz_hash(config.key, matrix[i].tobytes())
        t_scalar = min(t_scalar, (time.perf_counter() - start) / sample)

    speedup = t_scalar / t_batch
    _RESULTS["hash"] = {
        "scalar_us_per_pkt": t_scalar * 1e6,
        "batch_us_per_pkt": t_batch * 1e6,
        "speedup": speedup,
        "floor": HASH_SPEEDUP_FLOOR,
    }
    assert speedup >= HASH_SPEEDUP_FLOOR, (
        f"batched hashing only {speedup:.1f}x scalar "
        f"(scalar {t_scalar * 1e6:.2f}us, batch {t_batch * 1e6:.3f}us; "
        f"floor {HASH_SPEEDUP_FLOOR:.0f}x)"
    )


def test_run_functional_speedup_and_exactness(parallel_factory, trace):
    # Exactness first: one reference/fast pair compared in depth.
    par_ref = parallel_factory()
    par_fast = parallel_factory()
    run_ref = run_functional(par_ref, trace, fastpath=False)
    run_fast = run_functional(par_fast, trace, kernels=False)
    assert list(run_ref.results) == list(run_fast.results)
    assert np.array_equal(run_ref.core_ids, run_fast.core_ids)
    assert run_ref.action_counts() == run_fast.action_counts()
    assert run_ref.write_fraction() == run_fast.write_fraction()
    for ref_core, fast_core in zip(par_ref.cores, par_fast.cores):
        assert (
            ref_core.packets,
            ref_core.reads,
            ref_core.writes,
            ref_core.new_flows,
        ) == (
            fast_core.packets,
            fast_core.reads,
            fast_core.writes,
            fast_core.new_flows,
        )

    # Then the wall-clock gate, interleaved rounds, best-of-rounds.
    t_ref = float("inf")
    t_fast = float("inf")
    for _ in range(ROUNDS):
        parallel = parallel_factory()
        start = time.perf_counter()
        run_functional(parallel, trace, fastpath=False)
        t_ref = min(t_ref, time.perf_counter() - start)
        parallel = parallel_factory()
        start = time.perf_counter()
        run_functional(parallel, trace, kernels=False)
        t_fast = min(t_fast, time.perf_counter() - start)

    speedup = t_ref / t_fast
    _RESULTS["e2e"] = {
        "reference_us_per_pkt": t_ref * 1e6 / len(trace),
        "fastpath_us_per_pkt": t_fast * 1e6 / len(trace),
        "speedup": speedup,
        "floor": E2E_SPEEDUP_FLOOR,
    }
    assert speedup >= E2E_SPEEDUP_FLOOR, (
        f"fast path only {speedup:.2f}x the seed path "
        f"(ref {t_ref * 1e6 / len(trace):.1f}us/pkt, "
        f"fast {t_fast * 1e6 / len(trace):.1f}us/pkt; "
        f"floor {E2E_SPEEDUP_FLOOR:.0f}x)"
    )


def test_compiled_steady_state_speedup(parallel_factory, trace):
    """Compiled kernels vs the reference, in steady state.

    A long-lived dataplane runs warm: every flow's state is established,
    but each batch is new packets, classified afresh.  Each leg keeps one ParallelNF across
    rounds — one untimed warm-up round on ``trace``, then timed rounds
    on fresh copies (:func:`fresh_rounds`, built before any timing),
    best-of-rounds.  Both legs see the same packets in the same order,
    so their state evolutions stay in lockstep and the last round is
    compared bit-for-bit.
    """
    par_ref = parallel_factory()
    par_comp = parallel_factory()
    rounds = fresh_rounds(trace, ROUNDS)
    run_functional(par_ref, trace, fastpath=False)  # warm-up, untimed
    run_functional(par_comp, trace)

    t_ref = float("inf")
    t_comp = float("inf")
    run_ref = run_comp = None
    for batch in rounds:
        start = time.perf_counter()
        run_ref = run_functional(par_ref, batch, fastpath=False)
        t_ref = min(t_ref, time.perf_counter() - start)
        start = time.perf_counter()
        run_comp = run_functional(par_comp, batch)
        t_comp = min(t_comp, time.perf_counter() - start)

    assert list(run_ref.results) == list(run_comp.results)
    assert np.array_equal(run_ref.core_ids, run_comp.core_ids)
    assert run_ref.action_counts() == run_comp.action_counts()

    coverage = run_comp.compiled["coverage"]
    fallback_rate = run_comp.compiled["fallback_rate"]
    speedup = t_ref / t_comp
    _RESULTS["compiled"] = {
        "reference_us_per_pkt": t_ref * 1e6 / len(trace),
        "compiled_us_per_pkt": t_comp * 1e6 / len(trace),
        "speedup": speedup,
        "floor": COMPILED_SPEEDUP_FLOOR,
        "coverage": coverage,
        "coverage_floor": COMPILED_COVERAGE_FLOOR,
        "fallback_rate": fallback_rate,
        "fallback_ceiling": round(1.0 - COMPILED_COVERAGE_FLOOR, 6),
    }
    assert coverage >= COMPILED_COVERAGE_FLOOR, (
        f"kernel coverage only {coverage:.3f} in steady state "
        f"(fallback rate {fallback_rate:.3f}; "
        f"floor {COMPILED_COVERAGE_FLOOR})"
    )
    assert speedup >= COMPILED_SPEEDUP_FLOOR, (
        f"compiled dataplane only {speedup:.2f}x the seed path "
        f"(ref {t_ref * 1e6 / len(trace):.2f}us/pkt, "
        f"compiled {t_comp * 1e6 / len(trace):.2f}us/pkt; "
        f"floor {COMPILED_SPEEDUP_FLOOR:.0f}x)"
    )


def test_analysis_rs3_cost():
    """RS3 key search over every bundled NF, best-of-rounds.

    Each round analyses every NF in sequence from one fresh
    ``Maestro(seed=0)``, so every round does identical work.
    """
    rs3_s = float("inf")
    for _ in range(ROUNDS):
        maestro = Maestro(seed=0)
        rs3_s = min(
            rs3_s,
            sum(
                maestro.analyze(nf_class()).timings["rs3"]
                for nf_class in ALL_NFS.values()
            ),
        )
    _RESULTS["analysis"] = {
        "rs3_ms": rs3_s * 1e3,
        "rs3_ceiling_ms": RS3_CEILING_MS,
        "n_nfs": len(ALL_NFS),
    }
    assert rs3_s * 1e3 <= RS3_CEILING_MS, (
        f"RS3 over {len(ALL_NFS)} NFs took {rs3_s * 1e3:.0f} ms "
        f"(ceiling {RS3_CEILING_MS:.0f} ms)"
    )


def _stale_firewall(n_flows: int, seed: int) -> tuple[ConcreteContext, int]:
    """A firewall shard holding ``n_flows`` live flows, of which a
    seeded ``EXPIRY_STALE`` share, scattered over the chain, is past the
    expiry horizon; returns the context and the stale count."""
    nf = Firewall(capacity=n_flows)
    store = StateStore(nf.state())
    ctx = ConcreteContext(nf, store)
    stale = np.random.default_rng(seed).random(n_flows) < EXPIRY_STALE
    flows, chain, ports = store["fw_flows"], store["fw_chain"], store["fw_ports"]
    for i, old in enumerate(stale.tolist()):
        _, index = chain.allocate(0.0 if old else 1.0)
        key = (0x0A000000 + i, 1024 + i % 60_000, 0x08080808, 53)
        flows.put(key, index)
        store.note_put("fw_flows", key, index)
        ports.put(index, {"in_port": 0})
    # The packet clock a sweep reads: flows touched at 0.0 are stale,
    # flows touched at 1.0 are not.
    ctx._now = nf.expiration_time + 0.5
    return ctx, int(stale.sum())


def test_expiry_cost_per_expired_entry():
    """One ``expire_flows`` sweep at 2k and 131k live flows, best-of-rounds."""
    per_entry: dict[str, float] = {}
    for n_flows in EXPIRY_FLOWS:
        best = float("inf")
        for seed in range(ROUNDS):
            ctx, n_stale = _stale_firewall(n_flows, seed)
            # A cyclic collection over the freshly built shard would
            # land in whichever sweep trips it; keep it out, as timeit
            # does.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                ctx.expire_flows("fw_flows", "fw_chain")
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            assert len(ctx.store["fw_flows"]) == n_flows - n_stale
            assert ctx.store["fw_chain"].allocated_count() == n_flows - n_stale
            best = min(best, elapsed * 1e6 / n_stale)
        per_entry[str(n_flows)] = best
    small, large = (per_entry[str(n)] for n in EXPIRY_FLOWS)
    worst = max(small, large)
    ratio = large / small
    _RESULTS["expiry"] = {
        "flows": list(EXPIRY_FLOWS),
        "stale_frac": EXPIRY_STALE,
        "per_entry_us_by_flows": per_entry,
        "per_entry_us": worst,
        "per_entry_ceiling_us": EXPIRY_CEILING_US,
        "scaling_ratio": ratio,
        "ratio_ceiling": EXPIRY_RATIO_CEILING,
    }
    assert worst <= EXPIRY_CEILING_US, (
        f"expiry costs {worst:.1f} us per expired entry "
        f"(ceiling {EXPIRY_CEILING_US} us)"
    )
    assert ratio <= EXPIRY_RATIO_CEILING, (
        f"per-entry expiry cost grows {ratio:.2f}x from "
        f"{EXPIRY_FLOWS[0]} to {EXPIRY_FLOWS[1]} live flows "
        f"(ceiling {EXPIRY_RATIO_CEILING}x) — does an erase scan the whole shard?"
    )
