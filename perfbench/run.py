"""Layered end-to-end benchmark for every bundled NF.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fresh_uniform --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and
diagnostics go to standard error.  ``attempted`` counts the packets whose
``(core_id, PacketResult)`` was compared with the ``fastpath=False``
reference, ``failed`` those that differed (a batch or set-up that raised
counts every packet it would have checked); ``failed / attempted`` is the
error rate; it is not an end-to-end metric because it is 0.  The run
exits 2 when the program's sources are not next to the benchmark.

What runs
---------
One process, one thread, closed loop: the benchmark hands
``run_functional`` one batch and sends the next only after it returns.
The 8 cores are a plan parameter (``parallelize(n_cores=8)``), not OS
parallelism.  All 9 NFs of ``ALL_NFS`` run on every workload, round-robin
batch by batch; the second and third set-ups and the later cold samples
run between the timed rounds, so every metric's samples span the run.
``--seconds`` sets the timed work: ``batches_per_s`` of the workload
times ``--seconds`` batches per NF and leg.  With set-ups, reference and
cold samples, a whole run at ``--seconds 5`` takes about 25-35 s
(``fresh_uniform``, ``zipf_skew``) or 45-55 s (``churn_expiry``) on a
2-core x86 container.
``--seed`` seeds the traffic and ``Maestro(seed=...)``.  See
:mod:`perfbench.bench` for the legs, the output check and the freshness
guard.

Why timings are scaled by a probe: on the 2-core x86 container this was
built on, the same pure-Python loop takes anywhere from 14 to 24 ms, on
both CPUs at once, in phases that last from a fraction of a second to a
whole run; the process's CPU time moves with it, so it is the machine,
not the scheduler.  Every timed sample (a set-up, a cold batch, a timed
batch of one leg) is therefore preceded by ``bench.probe_s``, a fixed
loop of about 3 ms that touches nothing of the program, and each NF's
time is the median over its samples of sample / probe, times
``bench.PROBE_REF_S`` (3 ms, about the probe's time in the fast phases
of that container).  The numbers read as wall time on a machine running
at that speed; a change to the program moves them as it moves wall time,
and most of the machine's phase cancels.  The spread (interquartile
range over median) across seeds of per-NF medians of raw wall time
reached 0.43 (cold), 0.39 (dp) and 0.48 (interp) over 6 seeds of
``fresh_uniform``; per-NF minima reached 0.26 (cold) and 0.20 (dp) over
10 seeds when a slow phase covered whole runs; the probe-scaled medians
stayed within 0.03-0.09 over 10 seeds of every workload.
``machine.probe_ms`` in the traced run is the median probe, the scale
for its unscaled per-layer times.

Workloads (measured shares from one traced run, seed 1)
--------------------------------------------------------
Shares are of the traced ``run_functional`` time; steering is
``sim.functional.steer`` with its hashing children, expiry is
``nf.state.expire`` plus ``nf.runtime.note_erase``, fallback is the share
of packets the kernels sent to the interpreter.

``fresh_uniform``
    2k flows of uniform popularity, 64 B packets, 30% replies on port 1,
    1 Mpps virtual clock, so no expiry fires.  The cold batch opens every
    flow; timed batches of 2048 packets then carry new packets of the
    same flows.  Steering 37%, ``start_run`` 5%, ``run_chunk`` 43%,
    interpreter fallback 10%, expiry 0.5%; fallback 13% of packets
    (``lb`` 98%); new-flow fraction 0; 0.76 rows hashed per packet.
``zipf_skew``
    The paper's shape: 1k flows, 48 of them carry 80% of the packets
    (``paper_zipf_weights``), same batch structure.  Steering 23%,
    ``start_run`` 7%, ``run_chunk`` 50%, interpreter 15%, expiry 0.4%;
    fallback 14% (``lb`` 96%); new-flow fraction 0; 0.20 rows hashed per
    packet; busiest core 2.7x its fair share.
``churn_expiry``
    Stateful NFs are built with a 2 s ``expiration_time``.  2k live
    flows; 5% of packets open a new flow that replaces the oldest live
    one; 16 kpps virtual clock, so each core sweeps about once per 2k of
    its own packets, and each sweep expires tens of flows.  A timed batch
    is one virtual second (16000 packets), so every batch holds one sweep
    per core.  Untimed warm-up rounds bring the state to the steady mix
    of live and retired flows first.  Steering 17%, ``start_run`` 2%,
    ``run_chunk`` 50%, interpreter 14%, expiry 13.5%; fallback 21%;
    new-flow fraction 0.050; 31.7k entries expired in 8 virtual seconds.

End-to-end metrics (``--trace 0``; lower is better for all)
------------------------------------------------------------
``setup_s`` [s]
    ``Maestro.analyze`` + ``Maestro.parallelize`` wall time, the per-NF
    median of 3 probe-scaled set-ups, summed over NFs.
``cold_us_per_pkt`` [us/pkt]
    The cold batch on a newly built plan: empty state, lazy kernel
    compile, every flow new.  Per-NF probe-scaled median over 6 plans,
    mean over NFs.
``dp_us_per_pkt`` [us/pkt]
    Steady state with default ``run_functional`` (kernels on).  Per-NF
    probe-scaled median over timed batches of wall time per packet, mean
    over NFs.
``interp_us_per_pkt`` [us/pkt]
    The same with ``kernels=False`` on a second plan fed the same batches.
``peak_rss_mb`` [MB]
    Peak resident memory of the run, with every NF's plans alive at once.

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run patches the public callables of each layer from the
benchmark's own files (:mod:`perfbench.spans`), keeps the spans in memory
and writes them to ``.perfbench/spans-<workload>.jsonl`` at the end.  It
attaches no ``repro.obs`` collector.  Dataplane layers are timed on a
second compiled plan fed the same batches as the untraced one, which
gives ``by_nf.*`` and the overhead base; a traced run has no interpreter
leg.

``<layer>_us_per_pkt`` [us/pkt, lower]
    Self time (span time minus child spans) per timed packet, summed over
    NFs and divided by all timed packets, for ``sim.functional.steer``,
    ``rs3.toeplitz.hash_input``, ``rs3.config.hash_rows``,
    ``rs3.indirection.steer_batch``, ``sim.compiled.start_run``,
    ``sim.compiled.run_chunk``, ``nf.runtime.ctx_run``,
    ``nf.state.expire`` and ``nf.runtime.note_erase``;
    ``sim.functional.residual`` is ``run_functional``'s own self time.
    Together they add up to the traced ``run_functional`` wall time within
    ``bench.STAGE_SUM_TOL`` (2%), or the run reports ``correct: false``.
``<layer>_s`` [s, lower]
    Set-up self time per set-up, summed over NFs: ``symbex.explore``,
    ``core.constraints``, ``core.rss_compile``, ``rs3.solver.solve``,
    ``solver.gf2.nullspace``, ``rs3.solver.verify``,
    ``core.codegen.generate``; ``sim.compiled.compile_s`` is the lazy
    kernel compile of the cold batch.
Counts and ratios
    ``rs3.solver.attempts`` and ``.rejected_quality`` [count, lower];
    ``nf.state.expired_entries`` [count] and ``nf.state.expire_us_per_entry``
    [us/entry, lower]; ``nf.runtime.ctx_run_per_pkt`` [ratio, lower];
    ``sim.compiled.fallback_frac`` [ratio, lower],
    ``.chunks_per_kpkt`` [1/kpkt, lower], ``.bails`` [count, lower],
    ``.memo_hit_frac`` [ratio, higher];
    ``sim.functional.unique_flow_frac`` (rows hashed per packet) and
    ``.imbalance`` (max core share times cores) [ratio, lower];
    ``traffic.new_flow_frac`` [ratio] and ``traffic.virtual_span_s`` [s]
    describe the timed input; ``trace.overhead_frac`` [ratio, lower] is
    the traced time over the untraced ``dp_us_per_pkt``, minus 1;
    ``by_nf.<nf>.dp_us_per_pkt`` [us/pkt, lower] and
    ``by_nf.<nf>.fallback_frac`` [ratio, lower] break the compiled leg
    down per NF; ``machine.probe_ms`` [ms, lower] is the median probe time
    of the run, a property of the machine, not of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, ROOT)

try:
    from perfbench import bench
    from perfbench.workloads import WORKLOADS
except ImportError as exc:  # the sources are there but do not import
    print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)

#: name -> unit, for every metric the benchmark prints.
E2E_UNITS = {
    "setup_s": "s",
    "cold_us_per_pkt": "us/pkt",
    "dp_us_per_pkt": "us/pkt",
    "interp_us_per_pkt": "us/pkt",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_per_pkt"):
        return "us/pkt"
    if name.endswith("_us_per_entry"):
        return "us/entry"
    if name.endswith("_per_kpkt"):
        return "1/kpkt"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("attempts", "rejected_quality", "expired_entries", "bails")):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    n_timed = bench.timed_batches(WORKLOADS[args.workload], args.seconds)
    traffic, tracer, results = bench.measure(args.workload, args.seed, n_timed, bool(args.trace))
    if all(r.raised for r in results):
        print("perfbench: every NF raised", file=sys.stderr)
        return 1
    attempted = sum(r.checked for r in results)
    failed = sum(r.failed for r in results)
    correct = failed == 0
    if args.trace:
        values, gap = bench.per_layer(results, traffic, tracer)
        path = bench.write_spans(tracer, args.workload)
        print(f"perfbench: stage-sum gap {gap:.4f} (tolerance {bench.STAGE_SUM_TOL}); spans in {path}", file=sys.stderr)
        correct = correct and gap <= bench.STAGE_SUM_TOL
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = bench.end_to_end(results, traffic)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
