"""The Maestro pipeline (Figure 1): ESE -> Constraints Generator -> RS3 ->
Code Generator.

>>> maestro = Maestro()
>>> result = maestro.analyze(Firewall())
>>> result.solution.verdict
<Verdict.SHARED_NOTHING: 'shared-nothing'>
>>> parallel = maestro.parallelize(Firewall(), n_cores=8)

Every run records an observability trace (``repro.obs``): stage spans,
symbex path counters, and RS3 key-search counters land in
``result.trace``, and ``result.timings`` is a view over the recorded
stage spans.  The Figure 6 benchmark aggregates them over repeated
invocations; attach a global :class:`repro.obs.JsonlCollector` to export
the same events to disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.codegen import ParallelNF, Strategy
from repro.core.report import StatefulReport, build_report
from repro.core.rss_compile import RssCompilation, compile_rss
from repro.core.sharding import ConstraintsGenerator, ShardingSolution, Verdict
from repro.nf.api import NF
from repro.rs3.config import RssConfiguration
from repro.rs3.fields import E810, NicModel
from repro.rs3.solver import KeySearchStats, RssKeySolver
from repro.symbex import ExecutionTree, explore_nf

__all__ = ["PIPELINE_STAGES", "MaestroResult", "Maestro"]

#: Span names of the four pipeline stages, in execution order.
PIPELINE_STAGES: tuple[str, ...] = (
    "symbolic_execution",
    "constraints_generator",
    "rs3",
    "code_generator",
)


@dataclass
class MaestroResult:
    """Everything the pipeline produced for one NF."""

    nf: NF
    tree: ExecutionTree
    report: StatefulReport
    solution: ShardingSolution
    compilation: RssCompilation
    keys: dict[int, bytes]
    key_stats: KeySearchStats
    trace: obs.MemoryCollector = field(default_factory=obs.MemoryCollector)
    #: lint findings (populated by ``Maestro.analyze(..., lint=True)``)
    diagnostics: list = field(default_factory=list)

    @property
    def timings(self) -> dict[str, float]:
        """Per-stage wall times, read from the recorded stage spans."""
        out: dict[str, float] = {}
        for record in self.trace.spans:
            if record.name in PIPELINE_STAGES:
                out[record.name] = out.get(record.name, 0.0) + record.duration_s
        return out

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    def rss_configuration(self, n_cores: int, reta_size: int = 512) -> RssConfiguration:
        return RssConfiguration.build(
            self.keys, self.compilation.port_options, n_cores, reta_size
        )

    def describe(self) -> str:
        lines = [self.solution.describe()]
        for port in sorted(self.keys):
            lines.append(f"  key port {port}: {self.keys[port].hex()}")
        lines.append(
            "  timings: "
            + ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in self.timings.items())
        )
        stats = self.key_stats
        lines.append(
            "  rs3: "
            f"attempts={stats.attempts}, rows={stats.constraint_rows}, "
            f"rank={stats.gf2_rank}, free_bits={stats.free_bits}, "
            f"rejected_quality={stats.rejected_quality}, "
            f"elapsed={stats.elapsed_s * 1e3:.1f}ms"
        )
        return "\n".join(lines)


class Maestro:
    """Automatic NF parallelization (the paper's headline tool)."""

    def __init__(
        self,
        nic: NicModel = E810,
        *,
        seed: int | None = None,
        n_queues: int = 16,
    ):
        self.nic = nic
        self.n_queues = n_queues
        self._rng = np.random.default_rng(seed)

    def analyze(self, nf: NF, *, lint: bool = False) -> MaestroResult:
        """Run ESE, the Constraints Generator, and RS3 for ``nf``.

        The run is traced end to end: a per-result
        :class:`repro.obs.MemoryCollector` captures stage spans plus every
        counter the lower layers emit, alongside any globally attached
        collectors.

        With ``lint=True`` the :mod:`repro.analysis` passes also run over
        the freshly built artifacts (no extra symbolic execution) and
        their findings land in :attr:`MaestroResult.diagnostics`.
        """
        trace = obs.MemoryCollector()
        with obs.attached(trace):
            with obs.span("maestro.analyze", nf=nf.name) as root:
                with obs.span("symbolic_execution", nf=nf.name):
                    tree = explore_nf(nf)
                with obs.span("constraints_generator", nf=nf.name):
                    report = build_report(nf, tree)
                    solution = ConstraintsGenerator(report).solve()
                with obs.span("rs3", nf=nf.name):
                    compilation = compile_rss(nf, solution, self.nic)
                    solver = RssKeySolver(
                        self.nic, compilation.port_options, n_queues=self.n_queues
                    )
                    stats = KeySearchStats()
                    keys = solver.solve(
                        compilation.requirements, rng=self._rng, stats=stats
                    )
                    solver.verify(compilation.requirements, keys)
                root.set("verdict", solution.verdict.value)

            diagnostics: list = []
            if lint:
                # Imported lazily: repro.analysis depends on this module's
                # siblings, and linting is opt-in on the hot path.
                from repro.analysis import lint_nf

                diagnostics = lint_nf(
                    nf, tree=tree, report=report, solution=solution
                )

        return MaestroResult(
            nf=nf,
            tree=tree,
            report=report,
            solution=solution,
            compilation=compilation,
            keys=keys,
            key_stats=stats,
            trace=trace,
            diagnostics=diagnostics,
        )

    def parallelize(
        self,
        nf: NF,
        n_cores: int,
        *,
        strategy: Strategy | None = None,
        result: MaestroResult | None = None,
    ) -> ParallelNF:
        """Analyze (or reuse an analysis) and generate a parallel NF.

        ``strategy`` overrides the analysis verdict (the paper's §6.4:
        "Maestro can specifically generate parallel implementations using
        read/write locks and TM for any of the NFs, upon request"), except
        that shared-nothing cannot be forced where the analysis ruled it
        out.
        """
        if result is None:
            result = self.analyze(nf)
        with obs.attached(result.trace):
            with obs.span("code_generator", nf=nf.name):
                rss = result.rss_configuration(n_cores)
                parallel = ParallelNF.generate(
                    nf, result.solution, rss, n_cores, strategy=strategy
                )
        # The analysis already explored the NF exhaustively; hand the
        # tree to the compiled dataplane so it never re-explores.
        parallel.symbex_tree = result.tree
        return parallel
