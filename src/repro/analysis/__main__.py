"""CLI: ``python -m repro.analysis {lint,race,chain,certify} <name ...|--all>``.

``lint`` runs the static passes (source + model audit); ``race`` runs
the dynamic sanitizer — full pipeline, generated parallel NF, benchmark
trace replayed under the lockset/ownership checkers; ``chain`` runs the
whole-chain analysis (composed footprints, joint RSS key search,
MAE2xx diagnostics, differential validation) over ``.chain`` files;
``certify`` runs the plan certifier — translation validation of every
lowered path program plus hazard/plan audits (MAE3xx).

Every subcommand accepts ``--json`` (machine-readable report on
stdout), ``--out PATH`` (also write the JSON payload to a CI artifact),
and ``--seed`` (deterministic reruns; ``lint`` accepts it for interface
consistency even though the static passes are seed-free).

Exit codes are shared across all four subcommands, CI-friendly:

====  ======================================================
code  meaning
====  ======================================================
0     no error-severity diagnostics (warnings don't fail)
1     at least one error-severity diagnostic fired
2     usage mistake (unknown NF name, no NFs selected, ...)
====  ======================================================
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

from repro.analysis.diagnostics import (
    SCHEMA_VERSION,
    Diagnostic,
    render_json,
    render_text,
)
from repro.analysis.lint import lint_nf
from repro.core.codegen import Strategy
from repro.nf.api import NF
from repro.nf.nfs import ALL_NFS
from repro.nf.nfs.micro import (
    DhcpGuard,
    DualCounter,
    FlowCounter,
    GlobalCounter,
    SrcStats,
)

_MICRO_NFS = {
    "flow_counter": FlowCounter,
    "src_stats": SrcStats,
    "dual_counter": DualCounter,
    "global_counter": GlobalCounter,
    "dhcp_guard": DhcpGuard,
}


def _example_nfs() -> dict[str, type[NF]]:
    """NF classes from ``examples/custom_nf.py``, when the file exists.

    The examples directory ships alongside the repo root (two levels above
    ``src/``); installed-package runs simply skip it.
    """
    candidates = [
        Path(__file__).resolve().parents[3] / "examples" / "custom_nf.py",
        Path.cwd() / "examples" / "custom_nf.py",
    ]
    path = next((p for p in candidates if p.is_file()), None)
    if path is None:
        return {}
    spec = importlib.util.spec_from_file_location("repro_examples_custom_nf", path)
    if spec is None or spec.loader is None:  # pragma: no cover
        return {}
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception:  # pragma: no cover - examples must not break lint
        return {}
    out: dict[str, type[NF]] = {}
    for value in vars(module).values():
        if (
            isinstance(value, type)
            and issubclass(value, NF)
            and value is not NF
        ):
            out[value.name] = value
    return out


def _registry(include_examples: bool) -> dict[str, type[NF]]:
    registry: dict[str, type[NF]] = dict(ALL_NFS)
    registry.update(_MICRO_NFS)
    if include_examples:
        registry.update(_example_nfs())
    return registry


def _add_selection_args(
    cmd: argparse.ArgumentParser,
    verb: str,
    *,
    seed_default: int = 0,
    seed_help: str = "deterministic rerun seed",
) -> None:
    cmd.add_argument(
        "names",
        nargs="*",
        metavar="nf-name",
        help=f"NFs to {verb} (bundled: {', '.join(sorted(_registry(False)))})",
    )
    cmd.add_argument(
        "--all",
        action="store_true",
        help=f"{verb} every bundled NF, micro-NF, and example NF",
    )
    cmd.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON"
    )
    cmd.add_argument(
        "--out",
        metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )
    cmd.add_argument(
        "--seed", type=int, default=seed_default, help=seed_help
    )


def _select(cmd: argparse.ArgumentParser, args) -> list[str] | int:
    registry = _registry(include_examples=args.all or bool(args.names))
    if args.all:
        selected = sorted(registry)
    else:
        selected = list(dict.fromkeys(args.names))
    if not selected:
        cmd.print_usage(sys.stderr)
        print("error: give at least one nf-name or --all", file=sys.stderr)
        return 2
    unknown = [name for name in selected if name not in registry]
    if unknown:
        print(
            f"error: unknown NF(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(registry))}",
            file=sys.stderr,
        )
        return 2
    return selected


def _run_lint(lint: argparse.ArgumentParser, args) -> int:
    selected = _select(lint, args)
    if isinstance(selected, int):
        return selected
    registry = _registry(include_examples=True)
    diagnostics: list[Diagnostic] = []
    for name in selected:
        nf = registry[name]()
        diagnostics.extend(lint_nf(nf, pipeline=not args.no_pipeline))

    if args.out:
        Path(args.out).write_text(render_json(diagnostics) + "\n")
    if args.json:
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
    return 1 if any(d.is_error for d in diagnostics) else 0


def _run_certify(certify: argparse.ArgumentParser, args) -> int:
    from repro.analysis.plan_passes import certify_nf

    selected = _select(certify, args)
    if isinstance(selected, int):
        return selected
    registry = _registry(include_examples=True)
    strategy = Strategy(args.strategy) if args.strategy else None
    reports = []
    for name in selected:
        nf = registry[name]()
        reports.append(certify_nf(nf, strategy=strategy, seed=args.seed))

    payload = {
        "schema": SCHEMA_VERSION,
        "reports": [report.to_json() for report in reports],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.describe())
            for diag in report.diagnostics:
                print(f"  {diag.render()}")
            for diag in report.waived:
                print(f"  [waived] {diag.render()}")
        bad = sum(1 for report in reports if not report.clean)
        print(f"{len(reports)} NF(s) certified, {bad} with findings")
    return 1 if any(not report.clean for report in reports) else 0


def _run_race(race: argparse.ArgumentParser, args) -> int:
    from repro.analysis.race import sanitize_nf

    selected = _select(race, args)
    if isinstance(selected, int):
        return selected
    registry = _registry(include_examples=True)
    strategy = Strategy(args.strategy) if args.strategy else None
    reports = []
    for name in selected:
        nf = registry[name]()
        reports.append(
            sanitize_nf(
                nf,
                n_cores=args.cores,
                packets=args.packets,
                n_flows=args.flows,
                seed=args.seed,
                strategy=strategy,
            )
        )

    payload = {
        "schema": SCHEMA_VERSION,
        "reports": [report.to_json() for report in reports],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.describe())
            for diag in report.diagnostics:
                print(f"  {diag.render()}")
            for diag in report.waived:
                print(f"  [waived] {diag.render()}")
        bad = sum(1 for report in reports if not report.clean)
        print(f"{len(reports)} NF(s) sanitized, {bad} with violations")
    return 1 if any(not report.clean for report in reports) else 0


def _chain_files(cmd: argparse.ArgumentParser, args) -> list[Path] | int:
    """Resolve the ``.chain`` files to analyze (explicit paths or --all)."""
    if args.all:
        candidates = [
            Path(__file__).resolve().parents[3] / "examples" / "chains",
            Path.cwd() / "examples" / "chains",
        ]
        root = next((p for p in candidates if p.is_dir()), None)
        if root is None:
            print(
                "error: --all found no examples/chains/ directory",
                file=sys.stderr,
            )
            return 2
        files = sorted(root.glob("*.chain"))
        if not files:
            print(f"error: no .chain files under {root}", file=sys.stderr)
            return 2
        return files
    if not args.files:
        cmd.print_usage(sys.stderr)
        print("error: give at least one .chain file or --all", file=sys.stderr)
        return 2
    files = [Path(name) for name in args.files]
    missing = [str(p) for p in files if not p.is_file()]
    if missing:
        print(f"error: no such chain file(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    return files


def _run_chain(cmd: argparse.ArgumentParser, args) -> int:
    from repro.analysis.chain_passes import analyze_chain
    from repro.chain import load_chain
    from repro.errors import ReproError

    files = _chain_files(cmd, args)
    if isinstance(files, int):
        return files
    registry = dict(_registry(include_examples=True))
    reports = []
    for path in files:
        try:
            chain = load_chain(path)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        reports.append(
            analyze_chain(
                chain,
                registry=registry,
                seed=args.seed,
                n_cores=args.cores,
                packets=args.packets,
                n_flows=args.flows,
                validate=not args.no_validate,
            )
        )

    payload = {
        "schema": SCHEMA_VERSION,
        "chains": [report.to_json() for report in reports],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.describe())
            for diag in report.diagnostics:
                print(f"  {diag.render()}")
            for diag in report.waived:
                print(f"  [waived] {diag.render()}")
        bad = sum(1 for report in reports if not report.clean)
        print(f"{len(reports)} chain(s) analyzed, {bad} with errors")
    return 1 if any(not report.clean for report in reports) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="NF analysis: static lint, dynamic race sanitizer, "
        "chain analysis, and the compiled-dataplane plan certifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lint = sub.add_parser("lint", help="lint NFs and audit their models")
    _add_selection_args(
        lint,
        "lint",
        seed_help="accepted for cross-subcommand consistency; the static "
        "passes are seed-free",
    )
    lint.add_argument(
        "--no-pipeline",
        action="store_true",
        help="AST phase only (skip symbolic execution and the model audit)",
    )
    race = sub.add_parser(
        "race",
        help="replay a trace through the generated parallel NF under the "
        "lockset/ownership race sanitizer",
    )
    _add_selection_args(
        race,
        "sanitize",
        seed_default=12345,
        seed_help="pipeline + trace seed (default 12345)",
    )
    race.add_argument(
        "--cores", type=int, default=4, help="worker cores (default 4)"
    )
    race.add_argument(
        "--packets",
        type=int,
        default=1024,
        help="benchmark-trace length (default 1024)",
    )
    race.add_argument(
        "--flows", type=int, default=256, help="distinct flows (default 256)"
    )
    race.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=None,
        help="force a coordination strategy (default: the verdict's)",
    )
    certify = sub.add_parser(
        "certify",
        help="certify the compiled dataplane: translation validation of "
        "lowered path programs + hazard/plan audits (MAE3xx)",
    )
    _add_selection_args(
        certify,
        "certify",
        seed_help="equivalence-solver seed (default 0)",
    )
    certify.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=None,
        help="force a coordination strategy (default: the verdict's)",
    )
    chain = sub.add_parser(
        "chain",
        help="analyze NF service chains: composed footprints, joint RSS "
        "key search, MAE2xx diagnostics, differential validation",
    )
    chain.add_argument(
        "files",
        nargs="*",
        metavar="chain-file",
        help="chain description files (.chain)",
    )
    chain.add_argument(
        "--all",
        action="store_true",
        help="analyze every bundled chain under examples/chains/",
    )
    chain.add_argument(
        "--json", action="store_true", help="emit the reports as JSON"
    )
    chain.add_argument(
        "--cores", type=int, default=4, help="worker cores (default 4)"
    )
    chain.add_argument(
        "--packets",
        type=int,
        default=512,
        help="validation-trace length (default 512)",
    )
    chain.add_argument(
        "--flows", type=int, default=128, help="distinct flows (default 128)"
    )
    chain.add_argument(
        "--seed", type=int, default=12345, help="pipeline + trace seed"
    )
    chain.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the differential replay (analysis-only, faster)",
    )
    chain.add_argument(
        "--out",
        metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )
    args = parser.parse_args(argv)

    if args.command == "race":
        return _run_race(race, args)
    if args.command == "chain":
        return _run_chain(chain, args)
    if args.command == "certify":
        return _run_certify(certify, args)
    return _run_lint(lint, args)


if __name__ == "__main__":
    sys.exit(main())
