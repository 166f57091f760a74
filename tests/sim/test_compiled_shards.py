"""The compiled dataplane classifies each chunk once over every shard.

Each state read picks the lane's own shard store, and hazard keys and
cells carry the shard, so two shards holding the same key or the same
cell index never demote each other's kernel lanes, and a chain that is
full on one shard and free on another splits its lanes per shard.  Both
cases run inside one chunk, bit-identical to ``fastpath=False``.
"""

from __future__ import annotations

import numpy as np

from repro.core.codegen import Strategy
from repro.core.pipeline import Maestro
from repro.nf.api import NF, NfContext, StateDecl, StateKind
from repro.nf.nfs import Firewall
from repro.nf.packet import Packet
from repro.sim.functional import run_functional
from tests.sim.test_compiled import assert_runs_identical


class _CounterNF(NF):
    """Counts packets per source address in a vector row."""

    name = "src_counter"
    ports = {"lan": 0, "wan": 1}

    def state(self) -> list[StateDecl]:
        return [
            StateDecl("ct_map", StateKind.MAP, 64),
            StateDecl("ct_chain", StateKind.DCHAIN, 64),
            StateDecl(
                "ct_rows", StateKind.VECTOR, 64, value_layout=(("n", 32),)
            ),
        ]

    def process(self, ctx: NfContext, port: int, pkt) -> None:
        key = (pkt.src_ip,)
        found, index = ctx.map_get("ct_map", key)
        if ctx.cond(found):
            row = ctx.vector_borrow("ct_rows", index)
            ctx.vector_put(
                "ct_rows", index, {"n": ctx.add(row["n"], ctx.const(1, 32))}
            )
            ctx.forward(self.other_port(port))
        ok, index = ctx.dchain_allocate("ct_chain")
        if ctx.cond(ok):
            ctx.map_put("ct_map", key, index)
            ctx.vector_put("ct_rows", index, {"n": 1})
        ctx.forward(self.other_port(port))


def _pkt(src_ip, t, src_port=1000):
    return Packet(
        src_ip=src_ip, dst_ip=0x0A000001, src_port=src_port, dst_port=80,
        timestamp=t,
    )


def _pair(nf_factory, n_cores=2):
    maestro = Maestro(seed=3)
    result = maestro.analyze(nf_factory())
    pair = [
        maestro.parallelize(nf_factory(), n_cores=n_cores, result=result)
        for _ in range(2)
    ]
    for par in pair:
        assert par.strategy is Strategy.SHARED_NOTHING
    return pair


def _run_both(par_ref, par_comp, trace):
    run_ref = run_functional(par_ref, trace, fastpath=False)
    run_comp = run_functional(par_comp, trace)
    assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
    return run_comp


def test_same_key_and_cell_on_two_shards_do_not_demote_each_other():
    """A fallback lane on one shard opens key K at cell 0 while a kernel
    lane on the other shard reads and writes its own K at cell 0."""
    par_ref, par_comp = _pair(_CounterNF)
    # Swap the cores of the second port's table on both sides, so a
    # source address reaches one core on port 0 and the other on port 1.
    for par in (par_ref, par_comp):
        table = par.rss.ports[1].table
        table.reprogram(1 - table.entries)
    pkt = _pkt(0x0B000001, 0.0)
    home = par_comp.rss.core_for(0, pkt)
    assert par_comp.rss.core_for(1, pkt) == 1 - home
    # Warm-up: K opens on its port-0 core, at that shard's cell 0.
    _run_both(par_ref, par_comp, [(0, pkt)])
    cores = par_comp.cores
    assert cores[home].ctx.store["ct_map"].get((pkt.src_ip,)) == (True, 0)

    disp = par_comp._compiled_dispatcher
    chunks = disp.chunks
    trace = [
        (1, _pkt(pkt.src_ip, 0.1)),   # K is new on the other core
        (0, _pkt(pkt.src_ip, 0.2)),   # K counts on its home core
    ]
    run = _run_both(par_ref, par_comp, trace)
    assert disp.chunks == chunks + 1
    assert run.compiled["kernel_packets"] == 1
    assert run.compiled["fallback_packets"] == 1
    assert run.compiled_path_ids.tolist()[0] == -1
    # Both shards now hold K at cell 0, each with its own count.
    for core, n in ((home, 2), (1 - home, 1)):
        store = cores[core].ctx.store
        assert store["ct_map"].get((pkt.src_ip,)) == (True, 0)
        assert store["ct_rows"].borrow(0) == {"n": n}


def test_chain_full_on_one_shard_and_free_on_another():
    """New flows on a shard whose chain is full get ``(False, 0)`` on
    kernels; new flows on a shard with a free index stop at the
    allocation and run interpreted, in the same chunk and port group."""
    par_ref, par_comp = _pair(lambda: Firewall(capacity=4))
    rss = par_comp.rss
    by_core = {0: [], 1: []}
    src = 0x0C000000
    while min(len(v) for v in by_core.values()) < 4:
        src += 1
        by_core[rss.core_for(0, _pkt(src, 0.0))].append(src)
    full, free = by_core[0], by_core[1]
    # Fill core 0's two-slot chain; core 1 keeps one slot free.
    warm = [(0, _pkt(s, 0.01 * i)) for i, s in enumerate(full[:2] + free[:1])]
    _run_both(par_ref, par_comp, warm)
    chains = [core.ctx.store["fw_chain"] for core in par_comp.cores]
    assert chains[0].allocated_count() == chains[0].capacity
    assert chains[1].allocated_count() < chains[1].capacity

    disp = par_comp._compiled_dispatcher
    chunks = disp.chunks
    trace = [
        (0, _pkt(full[2], 0.1)),   # refused on the full shard: kernel
        (0, _pkt(free[1], 0.2)),   # allocates on the free shard: fallback
        (0, _pkt(full[0], 0.3)),   # established on either shard: kernel
        (0, _pkt(free[0], 0.4)),
        (0, _pkt(full[3], 0.5)),
    ]
    run = _run_both(par_ref, par_comp, trace)
    assert disp.chunks == chunks + 1
    assert run.compiled["kernel_packets"] == 4
    assert run.compiled["fallback_packets"] == 1
    assert np.flatnonzero(run.compiled_path_ids < 0).tolist() == [1]
    assert chains[1].allocated_count() == chains[1].capacity
