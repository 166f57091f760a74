"""Flow establishment on the kernels: allocation, insert, row write.

A lane that opens a flow pops its shard's free stack in lane order,
inserts the key and writes the row at the popped index, all as batched
per-shard writes.  Each case compares the compiled run with the
``fastpath=False`` reference: results, core ids, every core's counters,
and every core's state — map contents, chain flags, timestamps and free
stacks, vector rows, the store's value index and (elastic runs) the
bucket tags.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import Maestro
from repro.fuzz.generator import GroupSpec, NfSpec, build_nf
from repro.nf.api import NF, NfContext, StateDecl, StateKind
from repro.nf.nfs.firewall import Firewall
from repro.nf.nfs.nat import Nat
from repro.nf.nfs.psd import PortScanDetector
from repro.nf.packet import Packet
from repro.scale import enable_elastic, rescale_parallel
from repro.sim.compiled import INDEX_MIN_LANES
from repro.sim.functional import _get_dispatcher, run_functional
from tests.sim.test_compiled import assert_runs_identical

SERVER = 0x08080808
NAT_IP = 0xC0A80101  # Nat's default external address
PORT_BASE = 1024


def assert_state_identical(par_ref, par_comp):
    """Every core's stores, value indexes and bucket tags agree."""
    assert len(par_ref.cores) == len(par_comp.cores)
    for c, (ref, comp) in enumerate(zip(par_ref.cores, par_comp.cores)):
        assert ref.ctx.state_diff(comp.ctx) is None, c


def _pair(nf_factory, n_cores=2):
    def build():
        return Maestro(seed=7).parallelize(nf_factory(), n_cores=n_cores)

    return build(), build()


def _run_both(par_ref, par_comp, trace):
    run_ref = run_functional(par_ref, trace, fastpath=False)
    run_comp = run_functional(par_comp, trace)
    assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
    assert_state_identical(par_ref, par_comp)
    return run_comp


def _lan(i, t, dst_port=53):
    return (0, Packet(src_ip=0x0A000000 + i, dst_ip=SERVER,
                      src_port=4000 + i, dst_port=dst_port, timestamp=t))


def test_chain_runs_out_mid_chunk_on_kernels():
    """Two cores with 6 cells each and 40 new flows in one chunk: each
    shard's first 6 allocating lanes pop its stack in lane order, the
    rest get ``(False, 0)``, all on kernels."""
    par_ref, par_comp = _pair(lambda: Firewall(capacity=12), n_cores=2)
    trace = [_lan(i, 1e-3 * i) for i in range(40)]
    run = _run_both(par_ref, par_comp, trace)
    # Each core's first packet sweeps, alone on the interpreter.
    assert run.compiled["fallback_packets"] == 2
    opened = sum(r.new_flow for _, r in run.results)
    assert opened == 12
    for core in par_comp.cores:
        chain = core.ctx.store["fw_chain"]
        assert chain.allocated_count() == chain.capacity


class _SmallMapNF(NF):
    """A flow table whose map holds fewer keys than its chain has cells:
    once the map is full, new flows still allocate (and write a row) but
    their insert is refused."""

    name = "small_map"
    ports = {"lan": 0, "wan": 1}

    def state(self) -> list[StateDecl]:
        return [
            StateDecl("sm_map", StateKind.MAP, 8),
            StateDecl("sm_chain", StateKind.DCHAIN, 32),
            StateDecl(
                "sm_rows", StateKind.VECTOR, 32, value_layout=(("port", 16),)
            ),
        ]

    def process(self, ctx: NfContext, port: int, pkt) -> None:
        key = (pkt.src_ip, pkt.src_port)
        found, index = ctx.map_get("sm_map", key)
        if ctx.cond(found):
            ctx.forward(self.other_port(port))
        ok, index = ctx.dchain_allocate("sm_chain")
        if ctx.cond(ok):
            ctx.map_put("sm_map", key, index)
            ctx.vector_put("sm_rows", index, {"port": pkt.dst_port})
        ctx.forward(self.other_port(port))


def test_full_map_with_free_chain_refuses_inserts_on_kernels():
    par_ref, par_comp = _pair(_SmallMapNF, n_cores=2)
    for t0 in (0.0, 0.1):
        trace = [_lan(i, t0 + 1e-3 * i) for i in range(30)]
        run = _run_both(par_ref, par_comp, trace)
        assert run.compiled["fallback_packets"] == 0
    full = [
        core.ctx.store for core in par_comp.cores
        if len(core.ctx.store["sm_map"]) == core.ctx.store["sm_map"].capacity
    ]
    assert full
    for store in full:
        assert store["sm_chain"].allocated_count() > len(store["sm_map"])


def test_full_plain_map_beside_free_flow_chain_fuzz_spec():
    """A generated NF: a plain map that fills (standalone inserts) next
    to a flow group whose chain keeps free cells."""
    spec = NfSpec(seed=0, groups=(
        GroupSpec("plain_map", "g0", ("src_port",), 8),
        GroupSpec("flow", "g1", ("src_ip", "src_port"), 256),
    ))
    par_ref, par_comp = _pair(lambda: build_nf(spec), n_cores=2)
    for t0 in (0.0, 0.1):
        trace = [_lan(i, t0 + 1e-3 * i) for i in range(40)]
        run = _run_both(par_ref, par_comp, trace)
        assert run.compiled["fallback_packets"] == 0
    full = [
        core.ctx.store for core in par_comp.cores
        if len(core.ctx.store["g0_map"]) == core.ctx.store["g0_map"].capacity
    ]
    assert full
    for store in full:
        chain = store["g1_chain"]
        assert 0 < chain.allocated_count() < chain.capacity


def test_same_new_key_twice_in_one_chunk(monkeypatch):
    """The second packet of a new flow read the key as absent before the
    chunk, but the first one's kernel insert comes earlier: the second
    runs on the interpreter, after the kernel writes, and finds it.

    The interpreted lane's allocation touches its chain's reach: the
    cells the chunk's allocations can pop, plus index 0 (a failed pop's)
    once they can pass the end of the free stack, as they do on a small
    chain."""
    from repro.sim.compiled import CompiledDispatcher

    reaches = []
    reach = CompiledDispatcher._reach

    def spy(self, shard, chain, aspect):
        k = int(self._bound("dchain_allocate", chain)[shard])
        dchain = self._stores[shard][chain]
        free = dchain.capacity - dchain.allocated_count()
        cells = reach(self, shard, chain, aspect)
        if aspect == "alloc":  # one shard: qualified cells are cells
            top = dchain.peek(min(k, free)) + [0] * (k > free)
            assert sorted(cells.tolist()) == sorted(top)
            reaches.append(k > free)
        return cells

    monkeypatch.setattr(CompiledDispatcher, "_reach", spy)
    par_ref, par_comp = _pair(Firewall, n_cores=1)
    trace = [_lan(99, 0.0)]
    trace += [_lan(i, 1e-3 * (i + 1)) for i in range(10)]
    trace.insert(6, _lan(2, 5.5e-3))
    run = _run_both(par_ref, par_comp, trace)
    pids = run.compiled_path_ids
    assert pids[3] >= 0 and pids[6] == -1
    assert sum(r.new_flow for _, r in run.results) == 11
    assert reaches and not any(reaches)
    seen = len(reaches)
    par_ref, par_comp = _pair(lambda: Firewall(capacity=4), n_cores=1)
    _run_both(par_ref, par_comp, trace)
    assert any(reaches[seen:])


def test_nat_reply_to_a_cell_allocated_in_the_same_chunk():
    par_ref, par_comp = _pair(Nat, n_cores=1)
    _run_both(par_ref, par_comp, [_lan(i, 1e-4 * i) for i in range(5)])
    nxt = par_comp.cores[0].ctx.store["nat_chain"]._free[-1]
    reply = (1, Packet(src_ip=SERVER, dst_ip=NAT_IP, src_port=53,
                       dst_port=PORT_BASE + nxt, timestamp=2e-3))
    trace = [_lan(50 + i, 1e-3 + 1e-5 * i) for i in range(4)]
    trace.insert(1, reply)
    run = _run_both(par_ref, par_comp, trace)
    assert run.results[1][1].port == 0  # translated back to the LAN
    assert run.compiled_path_ids[1] == -1


def _psd_alternating(new_sources, known):
    """Per pair of sources: the new one opens itself and a (source,
    port) pair, then the ``known`` one opens a second pair."""
    trace = []
    for i, (new, old) in enumerate(zip(new_sources, known)):
        trace.append(_lan(new, 1e-2 + 2e-4 * i))
        trace.append(_lan(old, 1e-2 + 2e-4 * i + 1e-4, dst_port=80))
    return trace


def _assert_psd_counts(par):
    """Each source's count row holds the number of its pairs."""
    for core in par.cores:
        store = core.ctx.store
        for key, index in store["psd_srcs"]._data.items():
            ports = sum(k[0] == key[0] for k in store["psd_touched"]._data)
            assert store["psd_counts"].borrow(index) == {"port_count": ports}


def test_psd_opens_a_source_and_a_pair_in_one_lane():
    """A new source allocates on both chains and reads back the count
    row it just wrote; a known source opens only the (source, port).
    The two kinds of lanes alternate, so two tree nodes allocate on the
    pair chain's one shard: each ranks from 0, so every lane after the
    second node's first runs on the interpreter."""
    par_ref, par_comp = _pair(PortScanDetector, n_cores=1)
    _run_both(par_ref, par_comp, [_lan(i, 1e-4 * i) for i in range(4)])
    trace = _psd_alternating(range(10, 14), range(4))
    run = _run_both(par_ref, par_comp, trace)
    assert np.flatnonzero(run.compiled_path_ids >= 0).tolist() == [0]
    assert all(r.new_flow for _, r in run.results)
    _assert_psd_counts(par_comp)


def test_psd_two_nodes_demote_only_their_shared_shard():
    """On two cores, core 0 sees new and known sources alternate (two
    tree nodes allocate on its pair chain) and core 1 only new sources
    (one node per chain): core 0's lanes after its first run
    interpreted, core 1's stay on kernels."""
    par_ref, par_comp = _pair(PortScanDetector, n_cores=2)
    by_core = ([], [])
    for i in range(0, 4096, 7):
        by_core[par_ref.rss.core_for(0, _lan(i, 0.0)[1])].append(i)
    known, new0, new1 = by_core[0][:4], by_core[0][4:8], by_core[1][:5]
    # Each core's first packet sweeps, alone on the interpreter.
    warm = known + new1[:1]
    _run_both(par_ref, par_comp, [_lan(i, 1e-4 * k) for k, i in enumerate(warm)])
    new1 = new1[1:]
    trace = _psd_alternating(new0, known)
    for k, i in enumerate(new1):
        trace.insert(3 * k + 2, _lan(i, 1e-2 + 2e-4 * k + 1.5e-4))
    run = _run_both(par_ref, par_comp, trace)
    on_core1 = np.array([p.src_ip - 0x0A000000 in new1 for _, p in trace])
    assert on_core1.sum() == len(new1) == 4
    assert (run.compiled_path_ids[on_core1] >= 0).all()
    assert (run.compiled_path_ids[~on_core1] >= 0).tolist() == [True] + [
        False
    ] * 7
    assert all(r.new_flow for _, r in run.results)
    _assert_psd_counts(par_comp)


class _RowsNF(NF):
    """Port 0 writes the row its source port names; port 1 reads it."""

    name = "rows"
    ports = {"w": 0, "r": 1}

    def state(self) -> list[StateDecl]:
        return [StateDecl(
            "rw_rows", StateKind.VECTOR, 64, value_layout=(("v", 16),)
        )]

    def process(self, ctx: NfContext, port: int, pkt) -> None:
        if port == 0:
            ctx.vector_put("rw_rows", pkt.src_port, {"v": pkt.dst_port})
            ctx.forward(1)
        row = ctx.vector_borrow("rw_rows", pkt.src_port)
        ctx.set_field("dst_port", row["v"])
        ctx.forward(0)


class _KvNF(NF):
    """Port 0 stores its destination port under its source address;
    port 1 reads it back."""

    name = "kv"
    ports = {"put": 0, "get": 1}

    def state(self) -> list[StateDecl]:
        return [StateDecl("kv_map", StateKind.MAP, 64)]

    def process(self, ctx: NfContext, port: int, pkt) -> None:
        key = (pkt.src_ip,)
        if port == 0:
            ctx.map_put("kv_map", key, pkt.dst_port)
            ctx.forward(1)
        found, value = ctx.map_get("kv_map", key)
        if ctx.cond(found):
            ctx.set_field("dst_port", value)
            ctx.forward(0)
        ctx.drop()


def _pkt(port, src, dst, i):
    return (port, Packet(src_ip=src, dst_ip=SERVER, src_port=src,
                         dst_port=dst, timestamp=1e-3 * (i + 1)))


def _nat_replies(store):
    """Four new NAT flows, a reply (lane 1) to the cell lane 0 pops and
    a reply (lane 5) to a flow opened before the chunk."""
    nxt = store["nat_chain"]._free[-1]
    old = store["nat_flows"].get((0x0A000000, 4000, SERVER, 53))[1]
    trace = [_lan(50 + i, 1e-3 + 1e-5 * i) for i in range(4)]
    for at, cell in ((1, nxt), (5, old)):
        trace.insert(at, (1, Packet(
            src_ip=SERVER, dst_ip=NAT_IP, src_port=53,
            dst_port=PORT_BASE + cell, timestamp=2e-3,
        )))
    return trace


_KV_PRE = [_pkt(0, 7, 100, -1), _pkt(0, 8, 200, 0)]

#: Conflict rules between kernel lanes, each pinned on one chunk: the
#: NF, the batch run before it, the chunk (from the store after that
#: batch) and the lanes of the chunk that must run interpreted.
CONFLICT_CASES = {
    # Two kernel lanes write row 3: the second runs interpreted, after
    # the first one's write; row 4's writer stays on the kernels.
    "two-writers-one-row": (_RowsNF, None, lambda store: [
        _pkt(0, 3, 10, 0), _pkt(0, 3, 11, 1), _pkt(0, 4, 12, 2),
    ], [1]),
    # A read of row 3 after a kernel lane writes it runs interpreted,
    # and reads the write.
    "reader-of-a-written-row": (_RowsNF, None, lambda store: [
        _pkt(0, 3, 10, 0), _pkt(1, 3, 0, 1), _pkt(1, 5, 0, 2),
        _pkt(0, 4, 12, 3),
    ], [1]),
    # An ``is_allocated`` read of the cell lane 0 pops runs interpreted
    # and sees the cell allocated; the allocations, and a reply to an
    # older cell, stay on the kernels.
    "flag-reader-of-a-popped-cell": (
        Nat, [_lan(i, 1e-4 * i) for i in range(5)], _nat_replies, [1],
    ),
    # A put updates present key 7 before another lane reads it.
    "update-beside-a-reader": (_KvNF, _KV_PRE, lambda store: [
        _pkt(0, 7, 101, 1), _pkt(1, 7, 0, 2), _pkt(1, 8, 0, 3),
    ], [1]),
    # A put inserts new key 9 after a reader found it absent, as the
    # reference's reader does.
    "insert-beside-an-absent-reader": (_KvNF, _KV_PRE, lambda store: [
        _pkt(1, 9, 0, 1), _pkt(0, 9, 5, 2), _pkt(1, 7, 0, 3),
    ], []),
    # An interpreter lane after a kernel insert of new key 9 finds it.
    "reader-after-a-kernel-insert": (_KvNF, _KV_PRE, lambda store: [
        _pkt(0, 9, 5, 1), _pkt(1, 9, 0, 2), _pkt(1, 7, 0, 3),
    ], [1]),
    # Two packets open one new flow: the first stays on the kernels and
    # the second, interpreted, finds the flow the first one opened.
    "first-of-a-new-key-repeat": (Firewall, [_lan(99, 0.0)], lambda store: [
        _lan(1, 1e-3), _lan(2, 2e-3), _lan(1, 3e-3),
    ], [2]),
    # Readers of present keys stay on the kernels beside an insert of
    # another key, and beside an update of another key.
    "present-readers-without-update": (_KvNF, _KV_PRE, lambda store: [
        _pkt(1, 7, 0, 1), _pkt(0, 9, 5, 2), _pkt(1, 7, 0, 3),
        _pkt(1, 8, 0, 4),
    ], []),
    "update-of-another-key": (_KvNF, _KV_PRE, lambda store: [
        _pkt(0, 7, 101, 1), _pkt(1, 8, 0, 2),
    ], []),
}


@pytest.mark.parametrize("case", sorted(CONFLICT_CASES))
def test_conflict_rule_demotes_exactly_its_lanes(case):
    factory, prelude, chunk, interpreted = CONFLICT_CASES[case]
    par_ref, par_comp = _pair(factory, n_cores=1)
    if prelude:
        _run_both(par_ref, par_comp, prelude)
    trace = chunk(par_comp.cores[0].ctx.store)
    run = _run_both(par_ref, par_comp, trace)
    assert np.flatnonzero(run.compiled_path_ids == -1).tolist() == interpreted


def test_kernel_established_state_is_tagged_and_moves_like_reference():
    """An elastic run tags the keys, cells and rows kernels create with
    the packet's bucket, and a 4 -> 8 grow moves them exactly as it
    moves state the interpreter created."""

    def build():
        return enable_elastic(
            Maestro(seed=7).parallelize(Firewall(), n_cores=4)
        )

    par_ref, par_comp = build(), build()
    trace = [_lan(i, 1e-4 * i) for i in range(200)]
    run = _run_both(par_ref, par_comp, trace)
    # Each core's first packet sweeps, alone on the interpreter.
    assert run.compiled["fallback_packets"] == len(par_comp.cores)
    tagged = sum(c.ctx.bucket_index.entry_count() for c in par_comp.cores)
    assert tagged == 3 * len(trace)  # key, cell and row per flow
    stats = [rescale_parallel(par, 8) for par in (par_ref, par_comp)]
    assert stats[0].to_json() == stats[1].to_json()
    assert stats[0].entries_moved > 0
    assert_state_identical(par_ref, par_comp)
    replies = [
        (1, Packet(src_ip=SERVER, dst_ip=pkt.src_ip, src_port=pkt.dst_port,
                   dst_port=pkt.src_port, timestamp=0.5 + 1e-4 * i))
        for i, (_, pkt) in enumerate(trace)
    ]
    run = _run_both(par_ref, par_comp, replies)
    assert all(r.port == 0 for _, r in run.results)


class _KeyedNF(NF):
    """Forwards a packet whose source address is a key of its map."""

    name = "keyed"
    ports = {"lan": 0, "wan": 1}

    def state(self) -> list[StateDecl]:
        return [StateDecl("km", StateKind.MAP, 64)]

    def process(self, ctx: NfContext, port: int, pkt) -> None:
        found, _ = ctx.map_get("km", (pkt.src_ip,))
        if ctx.cond(found):
            ctx.forward(1)
        ctx.drop()


@pytest.mark.parametrize("index_min_lanes", [1, INDEX_MIN_LANES])
def test_map_probes_follow_dict_equality_and_bail_on_wide_values(
    index_min_lanes,
):
    """Kernel probes, through the map index or (in chunks too small
    for it) the dicts: a float key equal to a lane key is found, a key
    of another arity is not, and a lane that finds a value outside
    int64 bails its group to the interpreter."""
    par_ref, par_comp = _pair(_KeyedNF)
    _get_dispatcher(par_comp).index_min_lanes = index_min_lanes
    src = 0x0A000000
    for par in (par_ref, par_comp):
        for core in par.cores:
            flows = core.ctx.store["km"]
            flows.put((float(src + 1),), 5)
            flows.put((src + 2, 0), 5)
    trace = [_lan(i, 1e-3 * i) for i in range(4)]
    run = _run_both(par_ref, par_comp, trace)
    assert [r.kind.name for _, r in run.results] == [
        "DROP", "FORWARD", "DROP", "DROP",
    ]
    assert run.compiled["kernel_packets"] == 4
    for par in (par_ref, par_comp):
        for core in par.cores:
            core.ctx.store["km"].put((src + 3,), 2**70)
    run = _run_both(par_ref, par_comp, trace)
    assert run.results[3][1].kind.name == "FORWARD"
    assert run.compiled["kernel_packets"] < 4
