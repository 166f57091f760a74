"""Small-scope exhaustive check of the compiled dispatcher.

The dispatcher's conflict rules decide which lanes of a chunk stay on
the kernels, and a rule bug needs only two or three lanes on one shard
to show.  So instead of sampling traces, every 3-packet *word* over a
small alphabet runs through the compiled dataplane and the
packet-at-a-time reference, and each case compares results, every
core's counters and every core's state
(:meth:`~repro.nf.runtime.ConcreteContext.state_diff`).

The alphabet has 8 symbols: a LAN packet from a known source or one of
two new ones, to destination port 53 or 80, and a WAN reply to the
known source or to the first new one.  Relabelling the new sources in
order of first appearance leaves 354 distinct words.  Each case builds
two plans from one analysis, runs a one-packet warm batch (it opens the
known source's flow), the word, and the word again: the replay probes
the keys the word inserted through a map index built before them.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.pipeline import Maestro
from repro.fuzz.oracle import (
    DISPATCHER_FAULTS,
    _flipped,
    inject_dispatcher_fault,
)
from repro.nf.nfs.cl import ConnectionLimiter
from repro.nf.nfs.firewall import Firewall
from repro.nf.nfs.nat import Nat
from repro.nf.nfs.psd import PortScanDetector
from repro.nf.packet import Packet
from repro.sim.functional import _get_dispatcher, run_functional

SERVER = 0x08080808
CLIENT = 0x0A000000

#: ``("open", source, destination port)`` from source 0 (known), 1 or 2
#: (new), and ``("reply", source)`` to source 0 or 1.
ALPHABET = tuple(
    [("open", s, d) for s in (0, 1, 2) for d in (53, 80)]
    + [("reply", 0), ("reply", 1)]
)


def _canonical(word):
    """``word`` with its new sources renamed 1, 2 in order of first
    appearance."""
    names = {0: 0}
    return tuple(
        (sym[0], names.setdefault(sym[1], len(names))) + sym[2:]
        for sym in word
    )


def _words():
    """One word per class of words equal up to relabelling."""
    first = {}
    for word in itertools.product(ALPHABET, repeat=3):
        first.setdefault(_canonical(word), word)
    return tuple(first.values())


WORDS = _words()


def _open(s, dst_port, t):
    return (0, Packet(src_ip=CLIENT + s, dst_ip=SERVER, src_port=4000 + s,
                      dst_port=dst_port, timestamp=t))


class _Scope:
    """One NF on one core count: its analysis, reused by every case."""

    def __init__(self, factory, n_cores):
        self.nf = factory()
        self.n_cores = n_cores
        self.maestro = Maestro(seed=7)
        self.result = self.maestro.analyze(self.nf)
        plan = self._plan()
        # On two cores the known source and new source 2 steer to core
        # 0 and new source 1 to core 1, where the plan lets them.
        self.sources = []
        for core in (0, 1, 0) if n_cores > 1 else ():
            self.sources.append(next((
                i for i in range(4096) if i not in self.sources
                and plan.rss.core_for(0, _open(i, 53, 0.0)[1]) == core
            ), len(self.sources)))
        self.sources = tuple(self.sources) or (0, 1, 2)
        # A reply goes to the cell the reply's source opened: the known
        # source takes the top of a fresh free stack, new source 1 the
        # next cell (NAT replies name a cell, not a source).
        chain = plan.cores[0].ctx.store.objects.get("nat_chain")
        self.cells = None if chain is None else chain.peek(2)

    def _plan(self):
        return self.maestro.parallelize(
            self.nf, n_cores=self.n_cores, result=self.result
        )

    def _reply(self, s, t):
        if self.cells is None:
            s = self.sources[s]
            return (1, Packet(src_ip=SERVER, dst_ip=CLIENT + s, src_port=53,
                              dst_port=4000 + s, timestamp=t))
        return (1, Packet(src_ip=SERVER, dst_ip=self.nf.external_ip,
                          src_port=53, dst_port=self.nf.port_base
                          + self.cells[s], timestamp=t))

    def _batch(self, word, t0):
        return [
            _open(self.sources[sym[1]], sym[2], t0 + 1e-3 * i)
            if sym[0] == "open" else self._reply(sym[1], t0 + 1e-3 * i)
            for i, sym in enumerate(word)
        ]

    def run(self, word, fault=None):
        """Where the compiled leg first departs from the reference on
        ``word`` (None when it never does), and its kernel lanes."""
        ref_plan, comp_plan = self._plan(), self._plan()
        dispatcher = _get_dispatcher(comp_plan)
        dispatcher.index_min_lanes = 1
        if fault is not None:
            inject_dispatcher_fault(dispatcher, fault)
        batches = (
            [_open(self.sources[0], 53, 0.0)], self._batch(word, 0.01),
            self._batch(word, 0.02),
        )
        kernel = 0
        for b, batch in enumerate(batches):
            ref = run_functional(ref_plan, batch, fastpath=False)
            try:
                comp = run_functional(comp_plan, batch)
            except RuntimeError as exc:
                return f"batch {b}: {exc}", kernel
            kernel += comp.compiled["kernel_packets"]
            results = list(comp.results)
            if fault == "skew-kernel":
                lanes = (comp.compiled_path_ids >= 0).nonzero()[0]
                if lanes.size:
                    i = int(lanes[0])
                    results[i] = (results[i][0], _flipped(results[i][1]))
            if list(ref.results) != results:
                return f"batch {b}: results", kernel
            for c, (r, k) in enumerate(zip(ref_plan.cores, comp_plan.cores)):
                if r.ctx.stat_snapshot() != k.ctx.stat_snapshot():
                    return f"batch {b}: core {c} counters", kernel
                diff = r.ctx.state_diff(k.ctx)
                if diff is not None:
                    return f"batch {b}: core {c} state {diff}", kernel
        return None, kernel


_FACTORIES = {
    "cl": lambda: ConnectionLimiter(capacity=64, sketch_capacity=64),
    "fw": lambda: Firewall(capacity=64),
    "nat": lambda: Nat(capacity=64),
    "psd": lambda: PortScanDetector(capacity=64),
}
_SCOPES = {}


def _scope(name, n_cores):
    key = (name, n_cores)
    if key not in _SCOPES:
        _SCOPES[key] = _Scope(_FACTORIES[name], n_cores)
    return _SCOPES[key]


#: The words each NF runs in tier-1: all of ``fw``'s, and fixed slices
#: of the others.  ``cl`` opens its flows on the interpreter (a sketch
#: never lowers) beside kernel replies.
SLICES = {
    "cl": slice(0, None, 3), "fw": slice(None), "nat": slice(0, None, 2),
    "psd": slice(0, None, 3),
}


def test_the_alphabet_leaves_354_words():
    assert len(WORDS) == 354
    assert len({_canonical(w) for w in WORDS}) == len(WORDS)


@pytest.mark.parametrize("n_cores", [1, 2])
@pytest.mark.parametrize("name", sorted(SLICES))
def test_every_word_matches_the_reference(name, n_cores):
    scope = _scope(name, n_cores)
    kernel = 0
    for word in WORDS[SLICES[name]]:
        where, lanes = scope.run(word)
        assert where is None, (word, where)
        kernel += lanes
    assert kernel > 0


#: Per fault, the scopes searched (in order) for a word that catches it.
_HUNT = (("fw", 1), ("cl", 1), ("psd", 1), ("nat", 1), ("fw", 2))


@pytest.mark.parametrize("fault", DISPATCHER_FAULTS)
def test_every_dispatcher_fault_is_caught_by_a_word(fault):
    for name, n_cores in _HUNT:
        scope = _scope(name, n_cores)
        for word in WORDS[SLICES[name]]:
            where, _ = scope.run(word, fault)
            if where is not None:
                return
    pytest.fail(f"no word catches {fault}")
