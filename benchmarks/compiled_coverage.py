"""Compiled-dataplane coverage report: kernel vs fallback, per corpus NF.

CI's bench-smoke job runs this after the benchmark suite::

    python benchmarks/compiled_coverage.py --quick --out compiled-coverage.json

For every bundled NF it runs one cold pass and one warm pass (new
packets of the same flows, later in time, over the established flow
state) through ``run_functional`` with kernels enabled, and records how
many packets executed in compiled kernels vs the interpreter fallback.
The JSON artifact is the per-NF coverage ledger.  Two gates **fail
(exit 1)**:

* any NF hitting 100% interpreter fallback in both passes — the
  compiler lost every path of that NF (a lowering or classification
  regression), which wall-clock benchmarks on the flagship firewall
  would never notice;
* any NF whose warm coverage drops below its floor in ``WARM_FLOORS``.

Cold coverage is allowed to be low (allocations on a chain with a free
index run on the interpreter by design), so it has no floor.  Exit
codes: 0 ok, 1 coverage blackout or floor breach, 2 usage/internal
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.core.pipeline import Maestro
from repro.nf.nfs import ALL_NFS
from repro.sim.functional import run_functional
from repro.traffic import TrafficGenerator

#: Per-NF warm-coverage floors: the lower of the ``--quick`` and full
#: measurements (8 cores) minus a 0.05 margin, rounded down.  Only
#: ``policer`` stays below 1.0 (0.76 quick, 0.82 full): lanes that write a
#: token bucket another lane of the chunk also writes fall back.
WARM_FLOORS = {
    "cl": 0.95,
    "dbridge": 0.95,
    "fw": 0.95,
    "lb": 0.95,
    "nat": 0.95,
    "nop": 0.95,
    "policer": 0.70,
    "psd": 0.95,
    "sbridge": 0.95,
}


def measure_nf(name: str, n_packets: int, n_flows: int, n_cores: int) -> dict:
    parallel = Maestro(seed=7).parallelize(ALL_NFS[name](), n_cores=n_cores)
    generator = TrafficGenerator(seed=3)
    flows = generator.make_flows(n_flows)
    trace = generator.trace(
        n_packets, flows, reply_port=1, reply_fraction=0.3
    )
    span = trace[-1][1].timestamp - trace[0][1].timestamp + 1e-6
    fresh = [
        (port, replace(pkt, timestamp=pkt.timestamp + span))
        for port, pkt in trace
    ]
    cold = run_functional(parallel, trace)
    warm = run_functional(parallel, fresh)
    return {
        "strategy": parallel.strategy.value,
        "paths": cold.compiled["paths"],
        "supported_paths": cold.compiled["supported_paths"],
        "cold_coverage": cold.compiled["coverage"],
        "cold_fallback_rate": cold.compiled["fallback_rate"],
        "warm_coverage": warm.compiled["coverage"],
        "warm_fallback_rate": warm.compiled["fallback_rate"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument(
        "--quick", action="store_true", help="smaller traces (CI smoke)"
    )
    parser.add_argument("--cores", type=int, default=8)
    args = parser.parse_args(argv)
    n_packets = 4_000 if args.quick else 20_000
    n_flows = 300 if args.quick else 600

    report: dict[str, object] = {
        "n_packets": n_packets,
        "n_flows": n_flows,
        "n_cores": args.cores,
        "nfs": {},
    }
    blackouts: list[str] = []
    below: list[str] = []
    for name in sorted(ALL_NFS):
        entry = measure_nf(name, n_packets, n_flows, args.cores)
        report["nfs"][name] = entry  # type: ignore[index]
        dark = entry["cold_coverage"] == 0.0 and entry["warm_coverage"] == 0.0
        if dark:
            blackouts.append(name)
        floor = WARM_FLOORS.get(name, 0.0)
        low = entry["warm_coverage"] < floor
        if low:
            below.append(name)
        print(
            f"{name:10s} strategy={entry['strategy']:<14s} "
            f"cold={entry['cold_coverage']:.3f} "
            f"warm={entry['warm_coverage']:.3f} (floor {floor:.2f}) "
            f"{'BLACKOUT' if dark else 'BELOW FLOOR' if low else 'ok'}"
        )
    report["blackouts"] = blackouts
    report["below_floor"] = below

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    if blackouts:
        print(
            f"compiled coverage gate: 100% interpreter fallback on "
            f"{', '.join(blackouts)}",
            file=sys.stderr,
        )
    if below:
        print(
            f"compiled coverage gate: warm coverage below its floor on "
            f"{', '.join(below)}",
            file=sys.stderr,
        )
    if blackouts or below:
        return 1
    print("compiled coverage gate: every NF runs kernels at its floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
