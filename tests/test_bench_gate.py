"""The benchmark regression gate script, including the absolute gates.

``benchmarks/check_bench_regression.py`` is plain-script CI glue; these
tests pin its exit codes so a refactor can't silently turn a telemetry
overhead regression (or a malformed baseline) into a green build.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _payload(
    *,
    fast=4.0,
    batch=0.04,
    overhead=-0.01,
    ceiling=0.05,
    compiled=0.9,
    fallback=0.0,
    fallback_ceiling=0.05,
    per_entry=60.0,
    per_entry_ceiling=200.0,
    rescale_ratio=1.0,
    ratio_floor=0.9,
    rs3_ms=100.0,
    rs3_ceiling_ms=500.0,
    expiry_per_entry=3.0,
    expiry_ratio=1.0,
    map_speedup=5.0,
    quick=True,
) -> dict:
    return {
        "quick": quick,
        "hash": {"batch_us_per_pkt": batch, "scalar_us_per_pkt": 20.0},
        "e2e": {"fastpath_us_per_pkt": fast, "reference_us_per_pkt": 28.0},
        "telemetry": {"overhead_frac": overhead, "ceiling_frac": ceiling},
        "compiled": {
            "compiled_us_per_pkt": compiled,
            "reference_us_per_pkt": 25.0,
            "fallback_rate": fallback,
            "fallback_ceiling": fallback_ceiling,
        },
        "rescale": {
            "per_entry_us": per_entry,
            "per_entry_ceiling_us": per_entry_ceiling,
            "post_rescale_ratio": rescale_ratio,
            "ratio_floor": ratio_floor,
        },
        "analysis": {"rs3_ms": rs3_ms, "rs3_ceiling_ms": rs3_ceiling_ms},
        "expiry": {
            "per_entry_us": expiry_per_entry,
            "per_entry_ceiling_us": 15.0,
            "scaling_ratio": expiry_ratio,
            "ratio_ceiling": 2.0,
        },
        "map": {"speedup": map_speedup, "floor": 2.0},
    }


@pytest.fixture()
def write(tmp_path):
    def _write(name: str, data: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return _write


def _run(write, baseline: dict, fresh: dict, *extra: str) -> int:
    return gate.main(
        [
            "--baseline", write("baseline.json", baseline),
            "--fresh", write("fresh.json", fresh),
            *extra,
        ]
    )


def test_within_tolerance_passes(write, capsys):
    assert _run(write, _payload(), _payload()) == 0
    assert "within tolerance" in capsys.readouterr().out


def test_throughput_regression_fails(write, capsys):
    fresh = _payload(fast=4.0 / (1 - 0.25) + 0.1)
    assert _run(write, _payload(), fresh) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_telemetry_overhead_over_ceiling_fails(write, capsys):
    assert _run(write, _payload(), _payload(overhead=0.06)) == 1
    assert "telemetry.overhead_frac" in capsys.readouterr().out


def test_compiled_fallback_over_ceiling_fails(write, capsys):
    """A path-coverage regression (fallback rate over the committed
    ceiling) must fail even when the wall-clock numbers look fine."""
    assert _run(write, _payload(), _payload(fallback=0.5)) == 1
    assert "compiled.fallback_rate" in capsys.readouterr().out


def test_zero_fallback_rate_is_fine(write):
    assert _run(write, _payload(), _payload(fallback=0.0)) == 0


def test_negative_overhead_is_fine(write):
    """The absolute gate must accept <= 0 values the relative math can't."""
    assert _run(write, _payload(), _payload(overhead=-0.04)) == 0


def test_migration_cost_over_ceiling_fails(write, capsys):
    """A full-shard-scan regression (per-entry migration cost over the
    committed ceiling) must fail even when wall-clock numbers look fine."""
    assert _run(write, _payload(), _payload(per_entry=250.0)) == 1
    assert "rescale.per_entry_us" in capsys.readouterr().out


def test_rs3_analysis_cost_over_ceiling_fails(write, capsys):
    """A scalar per-sample key acceptance loop coming back (seconds of
    RS3 over the bundled NFs) must fail the build."""
    assert _run(write, _payload(), _payload(rs3_ms=2300.0)) == 1
    assert "analysis.rs3_ms" in capsys.readouterr().out


def test_expiry_cost_over_ceiling_fails(write, capsys):
    """A sweep costing per live flow rather than per expired entry
    fails on either the per-entry ceiling or the scaling ratio."""
    assert _run(write, _payload(), _payload(expiry_per_entry=100.0)) == 1
    assert "expiry.per_entry_us" in capsys.readouterr().out
    assert _run(write, _payload(), _payload(expiry_ratio=60.0)) == 1
    assert "expiry.scaling_ratio" in capsys.readouterr().out


def test_missing_expiry_section_is_a_usage_error(write, capsys):
    fresh = _payload()
    del fresh["expiry"]
    assert _run(write, _payload(), fresh) == 2
    assert "expiry." in capsys.readouterr().err


def test_post_rescale_ratio_under_floor_fails(write, capsys):
    """The floor gate is the only place bigger-is-better: a rescaled
    dataplane slower than the static build must fail the build."""
    assert _run(write, _payload(), _payload(rescale_ratio=0.7)) == 1
    assert "rescale.post_rescale_ratio" in capsys.readouterr().out


def test_post_rescale_ratio_at_floor_passes(write):
    assert _run(write, _payload(), _payload(rescale_ratio=0.9)) == 0


def test_map_probe_speedup_under_floor_fails(write, capsys):
    assert _run(write, _payload(), _payload(map_speedup=1.5)) == 1
    assert "map.speedup" in capsys.readouterr().out


def test_missing_rescale_section_is_a_usage_error(write, capsys):
    fresh = _payload()
    del fresh["rescale"]
    assert _run(write, _payload(), fresh) == 2
    assert "rescale." in capsys.readouterr().err


def test_missing_telemetry_section_is_a_usage_error(write, capsys):
    fresh = _payload()
    del fresh["telemetry"]
    assert _run(write, _payload(), fresh) == 2
    assert "telemetry.overhead_frac" in capsys.readouterr().err


def test_quick_mode_mismatch_rejected(write):
    assert _run(write, _payload(quick=False), _payload(quick=True)) == 2


def test_bad_tolerance_rejected(write):
    assert _run(write, _payload(), _payload(), "--tolerance", "1.5") == 2


def test_committed_baseline_has_the_gated_shape():
    """The checked-in BENCH_fastpath.json must keep every metric the
    gate reads, so CI never 2-exits on a stale baseline."""
    baseline = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCH_fastpath.json").read_text()
    )
    for section, name in (*gate.GATED, *gate.CONTEXT):
        assert name in baseline[section], f"{section}.{name} missing"
    for section, _, ceiling_key in gate.ABSOLUTE:
        assert ceiling_key in baseline[section]
    for section, name, floor_key in gate.FLOORS:
        assert name in baseline[section]
        assert floor_key in baseline[section]
