"""Metamorphic end-to-end property: for *any* field-keyed NF, the whole
pipeline (ESE -> rules -> key solving -> codegen -> RSS steering) must
yield colocation exactly on the NF's key fields.

Hypothesis generates NFs keyed on arbitrary non-empty subsets of the
RSS-hashable fields; for each we assert:

1. the analysis shards on exactly those fields (R1),
2. packets agreeing on the key fields land on the same core,
3. packets differing on a key field spread over multiple cores
   (no degenerate keys slip through the quality gate).
"""

from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Maestro, Verdict
from repro.nf.api import NF, NfContext, StateDecl, StateKind
from repro.nf.packet import Packet

LAN, WAN = 0, 1
RSS_FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port")


def make_keyed_nf(key_fields: tuple[str, ...]) -> NF:
    """An NF tracking state keyed by exactly ``key_fields``."""

    class KeyedNf(NF):
        name = f"keyed_{'_'.join(key_fields)}"
        ports = {"lan": LAN, "wan": WAN}

        def state(self) -> list[StateDecl]:
            return [
                StateDecl("kn_map", StateKind.MAP, 4096),
                StateDecl("kn_chain", StateKind.DCHAIN, 4096),
            ]

        def process(self, ctx: NfContext, port: int, pkt: Any) -> None:
            if port != LAN:
                ctx.forward(LAN)
            key = tuple(getattr(pkt, name) for name in key_fields)
            found, _ = ctx.map_get("kn_map", key)
            if ctx.cond(ctx.lnot(found)):
                ok, index = ctx.dchain_allocate("kn_chain")
                if ctx.cond(ok):
                    ctx.map_put("kn_map", key, index)
            ctx.forward(WAN)

    return KeyedNf()


def random_packet(rng: np.random.Generator) -> Packet:
    return Packet(
        src_ip=int(rng.integers(1, 2**32)),
        dst_ip=int(rng.integers(1, 2**32)),
        src_port=int(rng.integers(1, 2**16)),
        dst_port=int(rng.integers(1, 2**16)),
    )


def with_same_fields(
    base: Packet, other: Packet, fields: tuple[str, ...]
) -> Packet:
    values = {name: other.field(name) for name in ("src_ip", "dst_ip", "src_port", "dst_port")}
    values.update({name: base.field(name) for name in fields})
    return Packet(**values)


@st.composite
def field_subsets(draw):
    subset = draw(
        st.sets(st.sampled_from(RSS_FIELDS), min_size=1, max_size=4)
    )
    return tuple(name for name in RSS_FIELDS if name in subset)


class TestEndToEndColocation:
    @given(field_subsets(), st.integers(0, 2**31))
    @settings(max_examples=12, deadline=None)
    def test_pipeline_colocates_exactly_the_key_fields(self, key_fields, seed):
        nf = make_keyed_nf(key_fields)
        maestro = Maestro(seed=seed % 1000)
        result = maestro.analyze(nf)

        # 1. Analysis: shared-nothing on exactly the key fields.
        assert result.solution.verdict is Verdict.SHARED_NOTHING
        assert set(result.solution.per_port[LAN]) == set(key_fields)

        parallel = maestro.parallelize(make_keyed_nf(key_fields), 8, result=result)
        rng = np.random.default_rng(seed)

        # 2. Agreement on the key fields => same core, always.
        for _ in range(40):
            base, noise = random_packet(rng), random_packet(rng)
            sibling = with_same_fields(base, noise, key_fields)
            assert parallel.rss.core_for(LAN, base) == parallel.rss.core_for(
                LAN, sibling
            ), f"colocation violated for key {key_fields}"

        # 3. The key actually spreads traffic over the cores.
        cores = {
            parallel.rss.core_for(LAN, random_packet(rng)) for _ in range(64)
        }
        assert len(cores) >= 3, "degenerate key escaped the quality gate"
