"""Per-NF measurement and the metrics assembled from it.

For each NF of ``ALL_NFS`` the benchmark:

1. sets the NF up ``SETUP_REPS`` times (``Maestro(seed).analyze`` and
   ``.parallelize(n_cores=8)``), timing each;
2. builds one plan per leg from the analysis: the compiled leg
   (``run_functional`` defaults), the interpreter leg (``kernels=False``)
   or, in a traced run, the traced compiled leg, and the reference leg
   (``fastpath=False``);
3. times the cold batch on ``COLD_SAMPLES`` newly built plans; the first
   becomes the compiled leg;
4. feeds every leg the warm-up batches, then the timed batches, one batch
   at a time (closed loop, one process, no threads);
5. compares every packet's ``(core_id, PacketResult)`` of each leg with
   the reference leg on the cold batch, the warm-up batches and the first
   timed batch, and every later cold sample with the reference's cold
   batch.

Every timed sample is preceded by :func:`probe_s`, and the metrics are
the probe-scaled medians of :func:`scaled` (see :mod:`perfbench.run`).

Each leg has its own :class:`FreshnessGuard`, so a batch that a leg has
already seen can never be timed again on that leg.
"""

from __future__ import annotations

import gc
import inspect
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from statistics import mean, median
from time import perf_counter

import numpy as np

from repro.core.codegen import ParallelNF
from repro.core.pipeline import Maestro
from repro.nf.nfs import ALL_NFS
from repro.sim import functional

from perfbench.spans import Layer, SpanTracer
from perfbench.workloads import WORKLOADS, FreshnessGuard, Traffic, WorkloadSpec, fresh_copy, generate

N_CORES = 8
SETUP_REPS = 3
COLD_SAMPLES = 6
#: Largest relative gap allowed between the sum of the per-layer self
#: times (plus the residual) and the traced ``run_functional`` wall time.
STAGE_SUM_TOL = 0.02

_OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench")


def _result_len(args, out) -> int:
    return len(out)


#: Set-up layers, in pipeline order.  Self times are reported in seconds.
SETUP_LAYERS = (
    Layer("repro.core.pipeline:explore_nf", "symbex.explore"),
    Layer("repro.core.pipeline:build_report", "core.constraints"),
    Layer("repro.core.sharding:ConstraintsGenerator.solve", "core.constraints"),
    Layer("repro.core.pipeline:compile_rss", "core.rss_compile"),
    Layer("repro.rs3.solver:RssKeySolver.solve", "rs3.solver.solve"),
    Layer("repro.solver.gf2:nullspace", "solver.gf2.nullspace"),
    Layer("repro.rs3.solver:RssKeySolver.verify", "rs3.solver.verify"),
    Layer("repro.core.codegen:ParallelNF.generate", "core.codegen.generate"),
)
#: Dataplane layers under ``run_functional``.  Self times are reported in
#: microseconds per timed packet and add up to the traced wall time.
#: Functions a module imported by name are patched where they are called.
DATAPLANE_LAYERS = (
    Layer("repro.sim.functional:run_functional", "sim.functional"),
    Layer("repro.sim.functional:FlowSteeringCache.steer", "sim.functional.steer"),
    Layer("repro.sim.functional:hash_input_matrix", "rs3.toeplitz.hash_input"),
    Layer("repro.rs3.config:PortRssConfig.hash_rows", "rs3.config.hash_rows", _result_len),
    Layer("repro.rs3.indirection:IndirectionTable.steer_batch", "rs3.indirection.steer_batch"),
    Layer("repro.sim.compiled:CompiledDispatcher.start_run", "sim.compiled.start_run"),
    Layer("repro.sim.compiled:CompiledDispatcher.run_chunk", "sim.compiled.run_chunk"),
    Layer("repro.nf.runtime:ConcreteContext.run", "nf.runtime.ctx_run"),
    Layer("repro.nf.state:DChain.expire", "nf.state.expire", _result_len),
    Layer("repro.nf.runtime:StateStore.note_erase", "nf.runtime.note_erase"),
    Layer("repro.sim.functional:compile_parallel", "sim.compiled.compile"),
)
_STAGE_NAMES = tuple(
    layer.name for layer in DATAPLANE_LAYERS if layer.name != "sim.compiled.compile"
)


#: Iterations of the machine-speed probe, a few milliseconds of work.
PROBE_ITERS = 40_000
#: Probe time the reported timings are scaled to: about the probe's time
#: in the fast phases of the 2-core x86 container this was built on.
PROBE_REF_S = 3e-3


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop that touches nothing of the program.

    It allocates no container objects, so it never triggers a garbage
    collection and does not slow down as the program's heap grows.
    """
    d = dict.fromkeys(range(256), 0)
    start = perf_counter()
    for i in range(PROBE_ITERS):
        d[i & 255] += i
    return perf_counter() - start


def scaled(samples: list[float], probes: list[float]) -> float:
    """Median of each sample over the probe taken just before it, at ``PROBE_REF_S``.

    A sample and its probe share the machine's speed of the moment, so
    the ratio keeps the program's cost and drops the machine's phase.
    """
    return median(t / p for t, p in zip(samples, probes, strict=True)) * PROBE_REF_S


def timed_batches(spec: WorkloadSpec, seconds: int) -> int:
    return max(2, round(seconds * spec.batches_per_s))


def make_nf(name: str, spec: WorkloadSpec):
    cls = ALL_NFS[name]
    if spec.expiration_s is not None and "expiration_time" in inspect.signature(cls).parameters:
        return cls(expiration_time=spec.expiration_s)
    return cls()


class Leg:
    """One plan fed batches in order through one ``run_functional`` mode."""

    def __init__(self, plan: ParallelNF, **mode):
        self.plan = plan
        self.mode = mode
        self.guard = FreshnessGuard()

    def run(self, batch):
        self.guard.admit(batch)
        start = perf_counter()
        out = functional.run_functional(self.plan, batch, **self.mode)
        return out, perf_counter() - start


def _mismatches(ref, run) -> int:
    """Packets whose ``(core_id, PacketResult)`` differs from the reference."""
    a, b = ref.results, run.results
    return sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))


def _dispatcher_stats(plan: ParallelNF) -> dict:
    """The compiled dispatcher's lifetime counters, or {} without one."""
    dispatcher = getattr(plan, "_compiled_dispatcher", None)
    stats = getattr(dispatcher, "stats", None)
    return stats() if stats is not None else {}


@dataclass
class NfResult:
    name: str
    raised: bool = False
    checked: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    setup_probe: list[float] = field(default_factory=list)
    cold_s: list[float] = field(default_factory=list)
    cold_probe: list[float] = field(default_factory=list)
    dp_probe: list[float] = field(default_factory=list)
    other_probe: list[float] = field(default_factory=list)
    dp_us: list[float] = field(default_factory=list)
    interp_us: list[float] = field(default_factory=list)
    traced_us: list[float] = field(default_factory=list)
    traced_wall_s: float = 0.0
    attempts: int = 0
    rejected_quality: int = 0
    kernel_pkts: int = 0
    fallback_pkts: int = 0
    chunks: int = 0
    bails: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    core_counts: np.ndarray | None = None

    def check(self, ref, run) -> None:
        self.checked += ref.n_packets
        self.failed += _mismatches(ref, run)

    @property
    def fallback_frac(self) -> float:
        total = self.kernel_pkts + self.fallback_pkts
        return self.fallback_pkts / total if total else 1.0


def _checked_packets(traffic: Traffic, traced: bool) -> int:
    """Comparisons one NF makes when nothing raises."""
    cold = len(traffic.cold)
    shared = sum(map(len, traffic.warmup)) + len(traffic.timed[0])
    if traced:
        return 2 * cold + 2 * shared
    return (COLD_SAMPLES + 1) * cold + 2 * shared


class NfBench:
    """One NF's analysis, legs and results through the stages of a run."""

    def __init__(self, name: str, spec: WorkloadSpec, seed: int, traffic: Traffic, tracer):
        self.spec = spec
        self.seed = seed
        self.traffic = traffic
        self.tracer = tracer
        self.res = NfResult(name)
        self.result = None
        #: Reference output of the cold batch, for the later cold samples.
        self.ref_cold = None
        self.dp: Leg | None = None
        #: The interpreter leg, or the traced compiled leg in a traced run.
        self.other: Leg | None = None
        self._before: dict = {}
        self._counts = np.zeros(N_CORES, dtype=np.int64)

    def _recording(self, phase: str):
        return self.tracer.recording(phase) if self.tracer else nullcontext()

    def _new_plan(self) -> ParallelNF:
        nf = make_nf(self.res.name, self.spec)
        return Maestro(seed=self.seed).parallelize(nf, n_cores=N_CORES, result=self.result)

    def setup(self) -> None:
        maestro = Maestro(seed=self.seed)
        nf = make_nf(self.res.name, self.spec)
        probe = probe_s()
        start = perf_counter()
        with self._recording("setup"):
            result = maestro.analyze(nf)
            plan = maestro.parallelize(nf, n_cores=N_CORES, result=result)
        self.res.setup_s.append(perf_counter() - start)
        self.res.setup_probe.append(probe)
        del plan  # freed outside the timed region
        self.result = result
        self.res.attempts = result.key_stats.attempts
        self.res.rejected_quality = result.key_stats.rejected_quality

    def prelude(self) -> None:
        """Reference, first cold sample, warm-up and first timed batch.

        The reference leg runs in step with the others and is dropped at
        the end, so its outputs never pile up across NFs.
        """
        t = self.traffic
        ref = Leg(self._new_plan(), fastpath=False)
        self.ref_cold = ref.run(t.cold)[0]
        self.cold(0)
        mode = {} if self.tracer else {"kernels": False}
        self.other = Leg(self._new_plan(), **mode)
        with self._recording("cold"):
            out, _ = self.other.run(t.cold)
        self.res.check(self.ref_cold, out)
        for batch in t.warmup:
            ref_out = ref.run(batch)[0]
            self.res.check(ref_out, self.dp.run(batch)[0])
            self.res.check(ref_out, self.other.run(batch)[0])
        self._before = _dispatcher_stats(self.dp.plan)
        self.timed(0, ref.run(t.timed[0])[0])

    def cold(self, sample: int) -> None:
        """Time the cold batch on a newly built plan; the first becomes ``dp``."""
        leg = Leg(self._new_plan())
        batch = self.traffic.cold if sample == 0 else fresh_copy(self.traffic.cold)
        probe = probe_s()
        out, elapsed = leg.run(batch)
        self.res.cold_s.append(elapsed)
        self.res.cold_probe.append(probe)
        self.res.check(self.ref_cold, out)
        if sample == 0:
            self.dp = leg
        else:
            # A compiled plan holds reference cycles; the collection after
            # this stage frees it, so no more than one plan per NF piles up.
            del leg, out

    def timed(self, k: int, ref_out=None) -> None:
        batch = self.traffic.timed[k]
        dp_probe = probe_s()
        dp_out, dp_s = self.dp.run(batch)
        other_probe = probe_s()
        with self._recording("timed"):
            other_out, other_s = self.other.run(batch)
        res = self.res
        res.dp_us.append(dp_s / len(batch) * 1e6)
        res.dp_probe.append(dp_probe)
        res.other_probe.append(other_probe)
        if self.tracer is None:
            res.interp_us.append(other_s / len(batch) * 1e6)
        else:
            res.traced_us.append(other_s / len(batch) * 1e6)
            res.traced_wall_s += other_s
        self._counts += dp_out.core_counts()
        compiled = getattr(dp_out, "compiled", None)
        if compiled is None:
            res.fallback_pkts += len(batch)
        else:
            res.kernel_pkts += compiled["kernel_packets"]
            res.fallback_pkts += compiled["fallback_packets"]
        if ref_out is not None:
            res.check(ref_out, dp_out)
            res.check(ref_out, other_out)

    def finish(self) -> None:
        after = _dispatcher_stats(self.dp.plan)
        before = self._before
        res = self.res
        if before and after:
            res.chunks = after["chunks"] - before["chunks"]
            res.bails = after["bails"] - before["bails"]
            res.memo_hits = after["memo"]["hits"] - before["memo"]["hits"]
            res.memo_misses = after["memo"]["misses"] - before["memo"]["misses"]
        res.core_counts = self._counts
        self._drop()

    def fail(self) -> None:
        """Count every packet this NF would have checked as failed."""
        traceback.print_exc(file=sys.stderr)
        res = self.res
        res.raised = True
        res.checked = max(res.checked, _checked_packets(self.traffic, self.tracer is not None))
        res.failed = res.checked
        self._drop()

    def _drop(self) -> None:
        self.dp = self.other = self.ref_cold = None


def _settle() -> None:
    """Collect garbage, then freeze what is live in the permanent generation.

    Frozen objects (inputs, plans in use) are never rescanned, so a
    collection inside a timed region only walks what the program just
    allocated.
    """
    gc.collect()
    gc.freeze()


def measure(workload: str, seed: int, n_timed: int, traced: bool, nfs=tuple(ALL_NFS)):
    """Run every NF of ``nfs`` on the workload; return traffic, tracer, results.

    Each stage runs across all NFs before the next one starts, and the
    set-up repetitions, cold samples and timed batches go round-robin over
    the NFs, so a slow phase of the machine is shared by every NF's
    samples instead of landing on one NF.
    """
    spec = WORKLOADS[workload]
    clock = perf_counter()
    traffic = generate(spec, seed, n_timed)
    tracer = SpanTracer(SETUP_LAYERS + DATAPLANE_LAYERS) if traced else None
    benches = [NfBench(name, spec, seed, traffic, tracer) for name in nfs]

    def stage(step) -> None:
        for b in benches:
            if not b.res.raised:
                try:
                    step(b)
                except Exception:
                    b.fail()

    def done(what: str) -> None:
        nonlocal clock
        _settle()
        now = perf_counter()
        print(f"perfbench: {workload} {what} {now - clock:.1f}s, peak {_peak_rss_mb():.0f} MB", file=sys.stderr)
        clock = now

    done("traffic")
    stage(NfBench.setup)
    done("set-up")
    stage(NfBench.prelude)
    done("reference, cold and warm-up")
    # The other set-ups and cold samples are spread evenly through the
    # timed rounds, so each NF's samples of every metric span the whole
    # run rather than one phase of the machine.
    n_cold = 1 if traced else COLD_SAMPLES
    side = [(r / SETUP_REPS, NfBench.setup) for r in range(1, SETUP_REPS)]
    side += [(i / n_cold, partial(NfBench.cold, sample=i)) for i in range(1, n_cold)]
    side.sort(key=lambda task: task[0])
    rounds = len(traffic.timed) - 1
    for k in range(1, len(traffic.timed)):
        stage(partial(NfBench.timed, k=k))
        while side and side[0][0] * rounds <= k:
            stage(side.pop(0)[1])
            _settle()
    for _, step in side:
        stage(step)
    stage(NfBench.finish)
    done("timed, other set-ups and cold samples")
    gc.unfreeze()
    return traffic, tracer, [b.res for b in benches]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results: list[NfResult], traffic: Traffic) -> dict[str, float]:
    ok = [r for r in results if not r.raised]
    return {
        "setup_s": sum(scaled(r.setup_s, r.setup_probe) for r in ok),
        "cold_us_per_pkt": mean(scaled(r.cold_s, r.cold_probe) for r in ok) / len(traffic.cold) * 1e6,
        "dp_us_per_pkt": mean(scaled(r.dp_us, r.dp_probe) for r in ok),
        "interp_us_per_pkt": mean(scaled(r.interp_us, r.other_probe) for r in ok),
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(results: list[NfResult], traffic: Traffic, tracer: SpanTracer) -> tuple[dict[str, float], float]:
    """Per-layer metrics of a traced run, and the stage-sum gap."""
    ok = [r for r in results if not r.raised]
    timed_pkts = sum(len(b) for b in traffic.timed) * len(ok)
    timed = tracer.totals("timed")
    setup = tracer.totals("setup")
    cold = tracer.totals("cold")

    def us(name: str) -> float:
        agg = timed.get(name)
        return agg.self_s / timed_pkts * 1e6 if agg else 0.0

    m: dict[str, float] = {}
    for name in _STAGE_NAMES:
        key = "sim.functional.residual" if name == "sim.functional" else name
        m[f"{key}_us_per_pkt"] = us(name)
    stage_sum = sum(m.values())
    traced_us = sum(r.traced_wall_s for r in ok) / timed_pkts * 1e6
    gap = abs(stage_sum - traced_us) / traced_us

    def count(name: str) -> int:
        agg = timed.get(name)
        return agg.count if agg else 0

    ctx = timed.get("nf.runtime.ctx_run")
    m["nf.runtime.ctx_run_per_pkt"] = (ctx.calls if ctx else 0) / timed_pkts
    expired = count("nf.state.expire")
    m["nf.state.expired_entries"] = expired
    expire = timed.get("nf.state.expire")
    m["nf.state.expire_us_per_entry"] = expire.self_s / expired * 1e6 if expired else 0.0
    m["sim.functional.unique_flow_frac"] = count("rs3.config.hash_rows") / timed_pkts
    kernel = sum(r.kernel_pkts for r in ok)
    fallback = sum(r.fallback_pkts for r in ok)
    m["sim.compiled.fallback_frac"] = fallback / (kernel + fallback)
    m["sim.compiled.chunks_per_kpkt"] = sum(r.chunks for r in ok) / timed_pkts * 1e3
    m["sim.compiled.bails"] = sum(r.bails for r in ok)
    looked_up = sum(r.memo_hits + r.memo_misses for r in ok)
    m["sim.compiled.memo_hit_frac"] = sum(r.memo_hits for r in ok) / looked_up if looked_up else 0.0
    compile_agg = cold.get("sim.compiled.compile")
    m["sim.compiled.compile_s"] = compile_agg.self_s if compile_agg else 0.0
    for layer in SETUP_LAYERS:
        agg = setup.get(layer.name)
        m[f"{layer.name}_s"] = agg.self_s / SETUP_REPS if agg else 0.0
    m["rs3.solver.attempts"] = sum(r.attempts for r in ok)
    m["rs3.solver.rejected_quality"] = sum(r.rejected_quality for r in ok)
    for r in results:
        m[f"by_nf.{r.name}.dp_us_per_pkt"] = scaled(r.dp_us, r.dp_probe) if r.dp_us else 0.0
        m[f"by_nf.{r.name}.fallback_frac"] = r.fallback_frac
    m["traffic.new_flow_frac"] = traffic.new_flow_frac
    m["traffic.virtual_span_s"] = traffic.virtual_span_s
    m["sim.functional.imbalance"] = mean(
        float(r.core_counts.max() / r.core_counts.sum() * N_CORES) for r in ok
    )
    m["trace.overhead_frac"] = (
        mean(scaled(r.traced_us, r.other_probe) for r in ok) / mean(scaled(r.dp_us, r.dp_probe) for r in ok) - 1.0
    )
    m["machine.probe_ms"] = median(
        p for r in ok for p in (*r.setup_probe, *r.cold_probe, *r.dp_probe, *r.other_probe)
    ) * 1e3
    return m, gap


def write_spans(tracer: SpanTracer, workload: str) -> str:
    os.makedirs(_OUT_DIR, exist_ok=True)
    path = os.path.join(_OUT_DIR, f"spans-{workload}.jsonl")
    tracer.write_jsonl(path)
    return path
