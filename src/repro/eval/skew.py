"""Per-core load measurement under traffic skew (Figures 5 and 14).

Computes where the *actual* generated RSS keys and indirection tables send
each flow: per-flow Toeplitz hashes map flow popularity onto indirection-
table entries, whose per-queue aggregation gives the core shares the
throughput model consumes.  Balancing applies the static RSS++ rebalancer
(§4) to those measured entry loads.
"""

from __future__ import annotations

import numpy as np

from repro.nf.flow import FiveTuple
from repro.rs3.config import RssConfiguration
from repro.rs3.fields import FieldSetOption
from repro.traffic.generator import TraceColumns

__all__ = ["flow_core_shares"]


def flow_core_shares(
    key: bytes,
    option: FieldSetOption,
    flows: list[FiveTuple],
    weights: np.ndarray | None,
    n_cores: int,
    *,
    reta_size: int = 512,
    balanced: bool = False,
) -> np.ndarray:
    """Fraction of traffic each core receives for this key/table.

    ``weights`` is the per-flow packet popularity (None = uniform).
    """
    if weights is None:
        weights = np.full(len(flows), 1.0 / len(flows))
    # One batched steering pass over every flow's representative packet,
    # its table slot weighted by the flow's popularity.
    rss = RssConfiguration.build({0: key}, {0: option}, n_cores, reta_size)
    _, slots = rss.steer_trace(TraceColumns([(0, flow.packet()) for flow in flows]))
    entry_loads = np.bincount(slots, weights=weights, minlength=reta_size)
    table = rss.ports[0].table
    if balanced:
        table.balance(entry_loads)
    shares = table.queue_loads(entry_loads)
    total = shares.sum()
    return shares / total if total else shares
