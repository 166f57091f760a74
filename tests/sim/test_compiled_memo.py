"""Compiled classification memo and expiry-trigger planning.

The memo keys each (shard, port) classification on a uint64 hash of the
packet fields the port's programs consume and verifies every probe
against the stored field row, so a hash collision can only cost a miss.
These tests force collisions, change the guarded state versions
mid-run, pin the hit/miss accounting, and replay the expiry gate the
chunker splits on against the interpreter's scalar rule.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.sim import compiled
from repro.sim.functional import run_functional
from repro.traffic import TraceColumns
from tests.sim.test_compiled import assert_runs_identical, make_pair  # noqa: F401


def shifted(trace, offset):
    return [
        (port, replace(pkt, timestamp=pkt.timestamp + offset))
        for port, pkt in trace
    ]


class TestMemoLookup:
    def test_probe_verifies_the_stored_row(self):
        pp = SimpleNamespace(fields=("pkt.a", "pkt.b"), programs=[])
        memo = compiled._Memo(pp, ())
        slot = int(memo.reserve(1)[0])
        memo.rows[slot] = (1, 2)
        memo.index[5] = slot
        keys = np.array([5, 5, 7], np.uint64)
        rows = np.array([[1, 2], [1, 3], [1, 2]], np.uint64)
        assert memo.lookup(keys, rows).tolist() == [slot, -1, -1]

    def test_equal_rows_get_equal_keys(self):
        a = np.array([1, 2, 1, 2], np.int64).view(np.uint64)
        b = np.array([7, 8, 7, 9], np.int64).view(np.uint64)
        keys = compiled._field_hash([a, b], 4)
        assert keys[0] == keys[2]
        assert len(set(keys.tolist())) == 3

    def test_slots_grow_by_doubling_and_keep_contents(self):
        pp = SimpleNamespace(fields=("pkt.a",), programs=[])
        memo = compiled._Memo(pp, ())
        first = memo.reserve(3)
        memo.rows[first, 0] = [10, 11, 12]
        memo.reserve(compiled._MEMO_CAP0 * 2)
        assert memo.rows.shape[0] == compiled._MEMO_CAP0 * 4
        assert memo.rows[first, 0].tolist() == [10, 11, 12]


class TestMemoSafety:
    def test_constant_hash_stays_identical_and_never_hits_wrong_row(
        self, monkeypatch, make_pair, generator
    ):
        """Every row collides on one key: only the row stored under it
        may hit, and every run still matches the reference."""
        monkeypatch.setattr(
            compiled, "_field_hash", lambda cols, n: np.zeros(n, np.uint64)
        )
        probed = {"hit": 0, "miss": 0}
        lookup = compiled._Memo.lookup

        def checked_lookup(memo, keys, rows):
            slots = lookup(memo, keys, rows)
            hit = slots >= 0
            assert len(memo.index) <= 1
            assert (memo.rows[slots[hit]] == rows[hit]).all()
            probed["hit"] += int(hit.sum())
            probed["miss"] += int((~hit).sum())
            return slots

        monkeypatch.setattr(compiled._Memo, "lookup", checked_lookup)
        trace, _ = generator.uniform_trace(
            700, 60, in_port=0, reply_port=1, reply_fraction=0.3
        )
        par_ref, par_comp = make_pair("fw")
        for _ in range(3):
            run_ref = run_functional(par_ref, trace, fastpath=False)
            run_comp = run_functional(par_comp, trace)
            assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        assert probed["hit"] > 0
        assert probed["miss"] > 0

    def test_full_memo_starts_over_and_stays_identical(
        self, monkeypatch, make_pair, generator
    ):
        """Past ``_MEMO_MAX`` slots a memo drops every entry and refills."""
        monkeypatch.setattr(compiled, "_MEMO_MAX", 8)
        monkeypatch.setattr(compiled, "DEFAULT_CHUNK", 16)
        overflows = []
        reserve = compiled._Memo.reserve

        def counting_reserve(memo, k):
            overflows.append(memo.n + k > 8)
            return reserve(memo, k)

        monkeypatch.setattr(compiled._Memo, "reserve", counting_reserve)
        trace, _ = generator.uniform_trace(
            700, 60, in_port=0, reply_port=1, reply_fraction=0.3
        )
        par_ref, par_comp = make_pair("fw")
        for _ in range(3):
            run_ref = run_functional(par_ref, trace, fastpath=False)
            run_comp = run_functional(par_comp, trace)
            assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        disp = par_comp._compiled_dispatcher
        assert any(overflows)
        assert disp.memo_hits > 0
        for memo in disp._memo.values():
            assert memo.n <= 16
            assert sorted(memo.index.values()) == list(range(memo.n))

    def test_allocations_mid_run_change_versions_and_match_reference(
        self, monkeypatch, make_pair, generator
    ):
        """New flows halfway through a run allocate on the interpreter,
        bumping ``alloc_version`` between chunks: the memo warmed on the
        old flows must start over, not serve the old state."""
        old, new = generator.make_flows(40), generator.make_flows(30)
        kw = {"in_port": 0, "reply_port": 1, "reply_fraction": 0.3}
        warm = generator.trace(600, old, **kw)
        steady = shifted(generator.trace(3000, old, **kw), 0.001)
        mixed = shifted(generator.trace(3000, old + new, **kw), 0.004)
        par_ref, par_comp = make_pair("fw")
        run_functional(par_ref, warm, fastpath=False)
        run_functional(par_comp, warm)
        disp = par_comp._compiled_dispatcher

        chain_versions = {}
        memo_for = compiled.CompiledDispatcher._memo_for

        def recording_memo_for(self, pp, cid, store):
            memo = memo_for(self, pp, cid, store)
            chain = tuple(
                v for (_, kind), v in zip(pp.read_objs, memo.versions)
                if kind == "chain"
            )
            chain_versions.setdefault((cid, pp.port), set()).add(chain)
            return memo

        monkeypatch.setattr(
            compiled.CompiledDispatcher, "_memo_for", recording_memo_for
        )
        hits = disp.memo_hits
        run_ref = run_functional(par_ref, steady + mixed, fastpath=False)
        run_comp = run_functional(par_comp, steady + mixed)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
        assert disp.memo_hits > hits
        assert any(len(seen) > 1 for seen in chain_versions.values())


class TestMemoAccounting:
    def test_every_memoizable_lane_is_counted_once(self, make_pair, generator):
        """hits + misses == lanes classified on memoizable ports, also
        when a group mixes memoized and new flows."""
        old, new = generator.make_flows(60), generator.make_flows(20)
        kw = {"in_port": 0, "reply_port": 1, "reply_fraction": 0.3}
        warm = generator.trace(800, old, **kw)
        settled = shifted(generator.trace(800, old, **kw), 0.001)
        later = shifted(generator.trace(800, old + new, **kw), 0.002)
        _, par = make_pair("fw")
        # The second pass allocates nothing, so its memo entries are
        # still valid when ``later`` starts.
        run_functional(par, warm)
        run_functional(par, settled)
        disp = par._compiled_dispatcher
        ports = {
            port for port, pp in disp.ports.items()
            if pp.memoizable and pp.any_supported
        }
        assert ports
        hits, misses = disp.memo_hits, disp.memo_misses
        run_functional(par, later)
        looked_up = sum(port in ports for port, _ in later)
        d_hits = disp.memo_hits - hits
        d_misses = disp.memo_misses - misses
        assert d_hits + d_misses == looked_up
        assert d_hits > 0 and d_misses > 0


def scalar_triggers(ts, last):
    """The interpreter's gate, one timestamp at a time."""
    out = []
    for j, t in enumerate(ts.tolist()):
        if not t - last < 1.0:
            out.append(j)
            last = t
    return out


def float_edge_timestamps(rng, n):
    """Timestamps a few ulps either side of one second after the last
    firing, so float rounding of ``t - last`` decides the gate."""
    out, last = [], 0.1
    for k in rng.integers(-3, 4, size=n).tolist():
        t = last + 1.0
        t = float(t + k * np.spacing(t))
        out.append(t)
        if not t - last < 1.0:
            last = t
    return np.array(out)


class TestExpiryTriggers:
    @pytest.mark.parametrize("case", [
        "sorted", "unsorted", "float_edge", "long_quiet", "nan",
    ])
    @pytest.mark.parametrize("last", [float("-inf"), 0.0, 0.75])
    def test_matches_scalar_replay(self, case, last):
        rng = np.random.default_rng(7)
        if case == "sorted":
            ts = np.sort(rng.random(5000) * 40.0)
        elif case == "unsorted":
            ts = rng.permutation(np.sort(rng.random(5000) * 40.0))
        elif case == "float_edge":
            ts = float_edge_timestamps(rng, 400)
        elif case == "long_quiet":
            ts = np.concatenate([
                np.full(3000, 0.5), [1.75], np.full(1000, 2.0), [3.0],
            ])
        else:
            ts = np.array([0.5, np.nan, 0.7, 2.0, 2.5, 4.0])
        assert compiled._expiry_triggers(ts, last) == scalar_triggers(
            ts, last
        )

    def test_start_run_splits_unsorted_trace_at_scalar_triggers(
        self, make_pair, generator
    ):
        trace, _ = generator.uniform_trace(
            600, 30, in_port=0, reply_port=1, reply_fraction=0.3,
            rate_pps=60.0,
        )
        order = np.random.default_rng(3).permutation(len(trace))
        trace = [trace[i] for i in order.tolist()]
        par_ref, par_comp = make_pair("fw")
        disp = compiled.compile_parallel(par_comp)
        cols = TraceColumns(trace)
        core_ids, _ = par_comp.rss.steer_trace(cols)
        edges = disp.start_run(cols, core_ids, 0)
        try:
            ts = cols.field("timestamp")
            eports = np.fromiter(disp.expire_ports, np.int64)
            want = {}
            for ci, ctx in enumerate(disp._ctxs):
                idxs = np.flatnonzero(
                    np.isin(cols.ports, eports) & (core_ids == ci)
                )
                for j in scalar_triggers(ts[idxs], ctx._last_expiry):
                    want[int(idxs[j])] = ci
            assert want
            assert disp._triggers == want
            assert set(want) <= set(edges)
        finally:
            disp.end_run()
        run_ref = run_functional(par_ref, trace, fastpath=False)
        run_comp = run_functional(par_comp, trace)
        assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
