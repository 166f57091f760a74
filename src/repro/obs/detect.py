"""Detectors over telemetry: skew/hotspot finding and model-drift scoring.

These are the sensing APIs of elastic scaling (DESIGN §15; the
controller polls :func:`detect_skew`): pure functions from a
:class:`~repro.obs.telemetry.TelemetrySink` (plus, for drift, the perf
model's predictions) to small verdict dataclasses.

*Skew* asks whether the observed per-core load is compatible with the
uniform sharding the paper's shared-nothing argument assumes:
``imbalance = max-core share / fair share`` (1.0 is perfect balance; the
same normalization as :meth:`FunctionalRun.imbalance`), with a
per-window trend so a hotspot that is *growing* is distinguishable from
a static one.

*Drift* asks whether the analytic model still describes the running
system: total-variation distance between predicted and observed per-core
shares, blended with the write-fraction gap.  A zipf-skewed run against
a model that assumed uniform shares drifts hard; a uniform run should
score near zero.

Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.telemetry import TelemetrySink

__all__ = ["SkewFinding", "detect_skew", "DriftReport", "model_drift"]


def _least_squares_slope(values: Sequence[float]) -> float:
    """Slope of the best-fit line through (0, v0), (1, v1), ... ."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    num = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return num / den if den else 0.0


# ------------------------------------------------------------------ #
# Skew / hotspot detection
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class SkewFinding:
    """Outcome of :func:`detect_skew`."""

    detected: bool
    imbalance: float  #: max-core share / fair share; 1.0 = perfect
    hot_core: int
    max_share: float
    fair_share: float
    threshold: float
    #: Per-window slope of the hot core's share: >0 means the hotspot is
    #: still growing, <0 means it is dissipating.
    trend: float
    per_window_imbalance: tuple[float, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "detected": self.detected,
            "imbalance": self.imbalance,
            "hot_core": self.hot_core,
            "max_share": self.max_share,
            "fair_share": self.fair_share,
            "threshold": self.threshold,
            "trend": self.trend,
            "per_window_imbalance": list(self.per_window_imbalance),
        }


def detect_skew(
    sink: TelemetrySink,
    *,
    metric: str = "packets",
    threshold: float = 1.5,
) -> SkewFinding:
    """Flag a hot core when its share exceeds ``threshold`` × fair share."""
    totals = sink.core_totals(metric)
    n_cores = len(totals)
    whole = sum(totals)
    if not n_cores or not whole:
        return SkewFinding(
            detected=False, imbalance=0.0, hot_core=-1, max_share=0.0,
            fair_share=0.0, threshold=threshold, trend=0.0,
        )
    fair = 1.0 / n_cores
    hot_core = max(range(n_cores), key=lambda c: totals[c])
    max_share = totals[hot_core] / whole
    imbalance = max_share / fair

    # Window-resolved view: the hot core's share per window (for the
    # trend) and the per-window imbalance series (for reports).
    hot_shares: list[float] = []
    per_window: list[float] = []
    for row in sink.series(metric):
        window_total = sum(row)
        if not window_total:
            continue
        hot_shares.append(row[hot_core] / window_total)
        per_window.append(max(row) / window_total / fair)
    return SkewFinding(
        detected=imbalance > threshold,
        imbalance=imbalance,
        hot_core=hot_core,
        max_share=max_share,
        fair_share=fair,
        threshold=threshold,
        trend=_least_squares_slope(hot_shares),
        per_window_imbalance=tuple(per_window),
    )


# ------------------------------------------------------------------ #
# Model-drift validation
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class DriftReport:
    """Outcome of :func:`model_drift`: does the perf model still match?"""

    score: float  #: 0 = model matches observation, 1 = maximal drift
    drifted: bool
    threshold: float
    share_distance: float  #: total-variation distance of per-core shares
    predicted_shares: tuple[float, ...]
    observed_shares: tuple[float, ...]
    write_fraction_gap: float | None = None
    predicted_bottleneck: str = ""
    components: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "score": self.score,
            "drifted": self.drifted,
            "threshold": self.threshold,
            "share_distance": self.share_distance,
            "predicted_shares": list(self.predicted_shares),
            "observed_shares": list(self.observed_shares),
            "write_fraction_gap": self.write_fraction_gap,
            "predicted_bottleneck": self.predicted_bottleneck,
            "components": dict(self.components),
        }


def model_drift(
    predicted_shares: Sequence[float],
    observed_shares: Sequence[float],
    *,
    predicted_write_fraction: float | None = None,
    observed_write_fraction: float | None = None,
    predicted_bottleneck: str = "",
    threshold: float = 0.15,
) -> DriftReport:
    """Score how far observation drifted from the model's prediction.

    ``score = 0.5 * TV(shares) + 0.5 * |Δ write_fraction|`` clamped to
    [0, 1]; when either write fraction is unknown the share term carries
    full weight.  Total-variation distance is ½ Σ|p_c − q_c| — 0 when the
    model nailed the per-core split, approaching 1 when it predicted
    uniform and one core took everything.
    """
    n = max(len(predicted_shares), len(observed_shares))
    if n == 0:
        raise ValueError("drift needs at least one core share")
    pred = list(predicted_shares) + [0.0] * (n - len(predicted_shares))
    seen = list(observed_shares) + [0.0] * (n - len(observed_shares))
    tv = 0.5 * sum(abs(p - q) for p, q in zip(pred, seen))

    components = {"share_distance": tv}
    wf_gap: float | None = None
    if predicted_write_fraction is not None and observed_write_fraction is not None:
        wf_gap = abs(predicted_write_fraction - observed_write_fraction)
        components["write_fraction_gap"] = wf_gap
        score = 0.5 * tv + 0.5 * wf_gap
    else:
        score = tv
    score = max(0.0, min(1.0, score))
    return DriftReport(
        score=score,
        drifted=score > threshold,
        threshold=threshold,
        share_distance=tv,
        predicted_shares=tuple(pred),
        observed_shares=tuple(seen),
        write_fraction_gap=wf_gap,
        predicted_bottleneck=predicted_bottleneck,
        components=components,
    )
