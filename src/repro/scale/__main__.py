"""CLI: ``python -m repro.scale verify <name ...|--all>``.

The elastic-scaling gate.  For every selected shared-nothing NF it
replays a seeded churn trace with a mid-trace **grow** (4 -> 8 cores)
and a mid-trace **shrink** (8 -> 3 cores) and checks, end to end:

1. **parity** — the batch simulator (fastpath + compiled kernels) and
   the packet-at-a-time reference produce bit-identical ``(core_id,
   result)`` sequences across both rescales;
2. **equivalence** — the rescaled parallel NF matches a fresh
   sequential reference (``check_equivalence``, which runs the same
   rescales through ``run_elastic``) under the race sanitizer with
   **zero** MAE103 (cross-shard ownership) and MAE105 (packet served
   during an unowned migration epoch) findings.

NFs whose Maestro verdict is not shared-nothing are reported as
``skipped`` (LOCKS/TM plans share one store; there is nothing to
migrate) and do not fail the gate.

``--json`` emits the machine-readable report on stdout and ``--out``
writes it to a CI artifact (the ``rescale-gate`` job uploads
``rescale-report.json``).  Exit codes match ``repro.analysis``:

====  ======================================================
code  meaning
====  ======================================================
0     every verified NF is clean
1     at least one parity/equivalence/sanitizer failure
2     usage mistake (unknown NF name, no NFs selected, ...)
====  ======================================================
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import SCHEMA_VERSION
from repro.core.codegen import ParallelNF, Strategy
from repro.nf.nfs import ALL_NFS

#: trace direction + compare options per NF (mirrors the equivalence
#: suite): the NAT's external src_port is allocator-dependent, so the
#: sequential comparison ignores it; the policer meters WAN->LAN
#: traffic arriving on port 1.
_NF_TRAFFIC: dict[str, dict] = {
    "policer": {"in_port": 1},
    "nat": {"in_port": 0, "ignore_mods": ("src_port",)},
}


@dataclass
class RescaleVerification:
    """Outcome of the grow+shrink scenario for one NF."""

    nf_name: str
    status: str  # "clean" | "failed" | "skipped"
    n_packets: int = 0
    events: list[tuple[int, int]] = field(default_factory=list)
    parity_ok: bool | None = None
    equivalent: bool | None = None
    mismatches: int = 0
    mae103: int = 0
    mae105: int = 0
    race_findings: list[str] = field(default_factory=list)
    rescales: list[dict] = field(default_factory=list)
    detail: str = ""

    @property
    def clean(self) -> bool:
        return self.status != "failed"

    def to_json(self) -> dict:
        return {
            "nf": self.nf_name,
            "status": self.status,
            "n_packets": self.n_packets,
            "events": [list(event) for event in self.events],
            "parity_ok": self.parity_ok,
            "equivalent": self.equivalent,
            "mismatches": self.mismatches,
            "mae103": self.mae103,
            "mae105": self.mae105,
            "race_findings": self.race_findings,
            "rescales": self.rescales,
            "detail": self.detail,
        }

    def describe(self) -> str:
        if self.status == "skipped":
            return f"[{self.nf_name}] skipped: {self.detail}"
        moved = sum(r.get("entries_moved", 0) for r in self.rescales)
        head = (
            f"[{self.nf_name}] {self.status}: {self.n_packets} packets, "
            f"{len(self.events)} rescale(s), {moved} entries migrated"
        )
        if self.status == "clean":
            return head
        return f"{head} — {self.detail}"


def _build_parallel(nf_cls, result, n_cores: int) -> ParallelNF:
    return ParallelNF.generate(
        nf_cls(),
        result.solution,
        result.rss_configuration(n_cores),
        n_cores,
    )


def verify_nf(
    name: str,
    *,
    seed: int = 12345,
    packets: int = 900,
    n_flows: int = 96,
    churn_fpg: float = 60_000.0,
    n_cores: int = 4,
    grow_to: int = 8,
    shrink_to: int = 3,
    result=None,
) -> RescaleVerification:
    """Run the grow+shrink gate scenario for one bundled NF."""
    from repro.core.pipeline import Maestro
    from repro.scale.elastic import RescaleEvent, enable_elastic, run_elastic
    from repro.sim.equivalence import check_equivalence
    from repro.traffic.churn import churn_trace
    from repro.traffic.generator import TrafficGenerator

    nf_cls = ALL_NFS[name]
    if result is None:
        result = Maestro(seed=seed).analyze(nf_cls())
    strategy = Strategy.default_for(result.solution.verdict)
    if strategy is not Strategy.SHARED_NOTHING:
        return RescaleVerification(
            nf_name=name,
            status="skipped",
            detail=(
                f"verdict maps to {strategy.value}; elastic re-sharding "
                "applies to shared-nothing plans only"
            ),
        )

    traffic = _NF_TRAFFIC.get(name, {})
    trace = churn_trace(
        TrafficGenerator(seed=seed),
        packets,
        n_flows,
        churn_fpg,
        in_port=traffic.get("in_port", 0),
    )
    n = len(trace)
    events = [(n // 3, grow_to), (2 * n // 3, shrink_to)]

    # 1. Parity: batch fastpath+kernels vs packet-at-a-time reference,
    #    both applying the same rescales at the same boundaries.
    rescale_events = [RescaleEvent(at, cores) for at, cores in events]
    fast = run_elastic(
        enable_elastic(_build_parallel(nf_cls, result, n_cores)),
        trace,
        rescale_events,
        fastpath=True,
        kernels=True,
    )
    ref = run_elastic(
        enable_elastic(_build_parallel(nf_cls, result, n_cores)),
        trace,
        rescale_events,
        fastpath=False,
    )
    parity_ok = list(fast.results) == list(ref.results)

    # 2. Equivalence vs a fresh sequential NF, under the sanitizer.
    parallel = enable_elastic(_build_parallel(nf_cls, result, n_cores))
    report = check_equivalence(
        nf_cls,
        parallel,
        trace,
        ignore_mods=traffic.get("ignore_mods", ()),
        sanitize=True,
        tree=result.tree,
        rescale_events=events,
    )
    mae103 = sum(1 for d in report.race_diagnostics if d.code == "MAE103")
    mae105 = sum(1 for d in report.race_diagnostics if d.code == "MAE105")

    failures = []
    if not parity_ok:
        failures.append("batch/reference parity broke across a rescale")
    if not report.equivalent:
        failures.append(
            f"{len(report.mismatches)} packet(s) diverged from the "
            "sequential reference"
        )
    if mae103 or mae105:
        failures.append(
            f"sanitizer: {mae103} MAE103 + {mae105} MAE105 finding(s)"
        )

    return RescaleVerification(
        nf_name=name,
        status="failed" if failures else "clean",
        n_packets=n,
        events=events,
        parity_ok=parity_ok,
        equivalent=report.equivalent,
        mismatches=len(report.mismatches),
        mae103=mae103,
        mae105=mae105,
        race_findings=[d.render() for d in report.race_diagnostics],
        rescales=[stats.to_json() for stats in fast.rescales],
        detail="; ".join(failures),
    )


def _run_verify(verify: argparse.ArgumentParser, args) -> int:
    if args.all:
        selected = sorted(ALL_NFS)
    else:
        selected = list(dict.fromkeys(args.names))
    if not selected:
        verify.print_usage(sys.stderr)
        print("error: give at least one nf-name or --all", file=sys.stderr)
        return 2
    unknown = [name for name in selected if name not in ALL_NFS]
    if unknown:
        print(
            f"error: unknown NF(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(ALL_NFS))}",
            file=sys.stderr,
        )
        return 2

    verifications = [
        verify_nf(
            name,
            seed=args.seed,
            packets=args.packets,
            n_flows=args.flows,
            n_cores=args.cores,
            grow_to=args.grow_to,
            shrink_to=args.shrink_to,
        )
        for name in selected
    ]

    payload = {
        "schema": SCHEMA_VERSION,
        "reports": [v.to_json() for v in verifications],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for v in verifications:
            print(v.describe())
            for finding in v.race_findings:
                print(f"  {finding}")
        verified = [v for v in verifications if v.status != "skipped"]
        bad = sum(1 for v in verified if not v.clean)
        print(
            f"{len(verified)} NF(s) verified "
            f"({len(verifications) - len(verified)} skipped), "
            f"{bad} with failures"
        )
    return 1 if any(not v.clean for v in verifications) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scale",
        description="Elastic-scaling verification: mid-trace grow+shrink "
        "re-sharding, checked for parity, equivalence, and sanitizer "
        "cleanliness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify",
        help="replay a churn trace with a mid-trace grow and shrink and "
        "gate on bit-identical, sanitizer-clean results",
    )
    verify.add_argument(
        "names",
        nargs="*",
        metavar="nf-name",
        help=f"NFs to verify (bundled: {', '.join(sorted(ALL_NFS))})",
    )
    verify.add_argument(
        "--all",
        action="store_true",
        help="verify every bundled NF (non-shared-nothing ones are "
        "reported as skipped)",
    )
    verify.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    verify.add_argument(
        "--out",
        metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )
    verify.add_argument(
        "--seed", type=int, default=12345, help="pipeline + trace seed"
    )
    verify.add_argument(
        "--packets",
        type=int,
        default=900,
        help="churn-trace length (default 900)",
    )
    verify.add_argument(
        "--flows", type=int, default=96, help="live flows (default 96)"
    )
    verify.add_argument(
        "--cores", type=int, default=4, help="initial cores (default 4)"
    )
    verify.add_argument(
        "--grow-to", type=int, default=8, help="mid-trace grow target"
    )
    verify.add_argument(
        "--shrink-to", type=int, default=3, help="mid-trace shrink target"
    )
    args = parser.parse_args(argv)
    return _run_verify(verify, args)


if __name__ == "__main__":
    sys.exit(main())
