"""Benchmark regression gate: fresh quick-mode numbers vs. the baseline.

CI runs the quick-mode ``bench_fastpath`` suite with
``REPRO_BENCH_JSON`` pointing at a fresh file, then::

    python benchmarks/check_bench_regression.py \
        --baseline BENCH_fastpath.json --fresh bench-fresh.json

The gate fails (exit 1) when any tracked per-packet cost regressed by
more than ``--tolerance`` (default 25%) in *throughput* terms: fresh
``us_per_pkt`` may be at most ``baseline / (1 - tolerance)``.  Only
the optimized paths are gated — the scalar/reference measurements are
reported for context but a slower baseline interpreter is not a
product regression.  ``bench_fastpath`` exports the gated costs scaled
by a machine-speed probe taken before each timing, so a slow spell on
a shared runner does not read as a regression.

Improvements beyond the tolerance are reported too (update the
checked-in ``BENCH_fastpath.json`` to ratchet the gate), but they
don't fail the build: CI runners are noisy in both directions.

Exit codes: 0 within tolerance, 1 regression, 2 usage/shape errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (JSON section, metric) pairs gated on regression: the optimized paths.
GATED = (
    ("hash", "batch_us_per_pkt"),
    ("e2e", "fastpath_us_per_pkt"),
    ("compiled", "compiled_us_per_pkt"),
)

#: Reported for context only.
CONTEXT = (
    ("hash", "scalar_us_per_pkt"),
    ("e2e", "reference_us_per_pkt"),
    ("compiled", "reference_us_per_pkt"),
)

#: Absolute gates: fresh ``section.metric`` must stay under the ceiling
#: recorded in the baseline's ``section.ceiling_key`` (these are
#: fractions, not per-packet times — the relative-throughput math above
#: does not apply, and the value may legitimately be <= 0).  The
#: compiled fallback-rate gate is what makes *path-coverage* regressions
#: fail CI even when wall-clock noise hides them: a lowering bug that
#: demotes kernel paths to the interpreter raises the fallback rate
#: above the committed ceiling.
ABSOLUTE = (
    ("telemetry", "overhead_frac", "ceiling_frac"),
    ("compiled", "fallback_rate", "fallback_ceiling"),
    # Live-migration cost must stay proportional to moved state: a
    # full-shard scan creeping into extraction blows the per-entry cost
    # past the committed ceiling long before wall-clock gates notice.
    ("rescale", "per_entry_us", "per_entry_ceiling_us"),
    # Flow expiry must cost per expired entry (Vigor's Table 1
    # contract): a per-live-flow Python scan in a sweep blows the
    # per-entry cost, and the 131k/2k-flow ratio, past their ceilings.
    ("expiry", "per_entry_us", "per_entry_ceiling_us"),
    ("expiry", "scaling_ratio", "ratio_ceiling"),
    # RS3 key search over every bundled NF (ms): a per-sample scalar
    # Toeplitz loop in the acceptance test costs several times the
    # ceiling.
    ("analysis", "rs3_ms", "rs3_ceiling_ms"),
)

#: Absolute floors: fresh ``section.metric`` must stay *at or above*
#: the baseline's ``section.floor_key``.  Used for ratios where bigger
#: is better — a live rescale must not leave the dataplane slower than
#: a statically provisioned build of the same width, and a map probe
#: through the index must beat the dict probes.
FLOORS = (
    ("rescale", "post_rescale_ratio", "ratio_floor"),
    # The kernels' batched map probe must stay a multiple of the
    # per-lane dict probes it replaced.
    ("map", "speedup", "floor"),
)


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _metric(data: dict, section: str, name: str, path: str) -> float:
    try:
        value = data[section][name]
    except (KeyError, TypeError):
        print(f"error: {path} has no {section}.{name}", file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(value, (int, float)) or value <= 0:
        print(f"error: {path}: {section}.{name}={value!r}", file=sys.stderr)
        raise SystemExit(2)
    return float(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed JSON")
    parser.add_argument("--fresh", required=True, help="freshly measured JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed throughput regression fraction (default 0.25)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.tolerance < 1:
        print("error: --tolerance must be in (0, 1)", file=sys.stderr)
        return 2

    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    if baseline.get("quick") != fresh.get("quick"):
        print(
            f"error: quick-mode mismatch (baseline quick="
            f"{baseline.get('quick')}, fresh quick={fresh.get('quick')}) — "
            "compare like with like",
            file=sys.stderr,
        )
        return 2

    failed = False
    for section, name in GATED:
        base = _metric(baseline, section, name, args.baseline)
        now = _metric(fresh, section, name, args.fresh)
        allowed = base / (1 - args.tolerance)
        ratio = now / base
        status = "ok"
        if now > allowed:
            status = "REGRESSION"
            failed = True
        elif now < base * (1 - args.tolerance):
            status = "improved (consider updating the baseline)"
        print(
            f"{section}.{name}: baseline {base:.4f} us/pkt, "
            f"fresh {now:.4f} us/pkt ({ratio:.2f}x, "
            f"allowed <= {allowed:.4f}) {status}"
        )
    for section, name in CONTEXT:
        base = _metric(baseline, section, name, args.baseline)
        now = _metric(fresh, section, name, args.fresh)
        print(
            f"{section}.{name}: baseline {base:.4f} us/pkt, "
            f"fresh {now:.4f} us/pkt (context only)"
        )
    for section, name, ceiling_key in ABSOLUTE:
        try:
            now = float(fresh[section][name])
            ceiling = float(baseline[section][ceiling_key])
        except (KeyError, TypeError, ValueError):
            print(
                f"error: missing {section}.{name} (fresh) or "
                f"{section}.{ceiling_key} (baseline)",
                file=sys.stderr,
            )
            return 2
        status = "ok"
        if now > ceiling:
            status = "REGRESSION"
            failed = True
        print(
            f"{section}.{name}: fresh {now:+.4f} "
            f"(ceiling {ceiling:.4f}) {status}"
        )
    for section, name, floor_key in FLOORS:
        try:
            now = float(fresh[section][name])
            floor = float(baseline[section][floor_key])
        except (KeyError, TypeError, ValueError):
            print(
                f"error: missing {section}.{name} (fresh) or "
                f"{section}.{floor_key} (baseline)",
                file=sys.stderr,
            )
            return 2
        status = "ok"
        if now < floor:
            status = "REGRESSION"
            failed = True
        print(
            f"{section}.{name}: fresh {now:.4f} "
            f"(floor {floor:.4f}) {status}"
        )
    if failed:
        print(
            f"benchmark gate: throughput regressed beyond "
            f"{args.tolerance:.0%} of BENCH_fastpath.json",
            file=sys.stderr,
        )
        return 1
    print("benchmark gate: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
