"""The Table 1 data structures: map, vector, dchain, sketch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StateModelError
from repro.nf.api import StateDecl, StateKind
from repro.nf.runtime import StateStore
from repro.nf.state import DChain, Map, Sketch, Vector


class TestMap:
    def test_get_miss(self):
        assert Map(4).get(("k",)) == (False, 0)

    def test_put_get_roundtrip(self):
        m = Map(4)
        assert m.put(("k",), 7)
        assert m.get(("k",)) == (True, 7)

    def test_capacity_enforced_for_new_keys(self):
        m = Map(2)
        assert m.put("a", 1) and m.put("b", 2)
        assert not m.put("c", 3)

    def test_update_allowed_at_capacity(self):
        m = Map(1)
        assert m.put("a", 1)
        assert m.put("a", 2)
        assert m.get("a") == (True, 2)

    def test_erase(self):
        m = Map(2)
        m.put("a", 1)
        assert m.erase("a")
        assert not m.erase("a")
        assert m.get("a") == (False, 0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(StateModelError):
            Map(0)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers()), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_matches_dict_semantics_under_capacity(self, ops):
        m = Map(1000)
        reference: dict = {}
        for key, value in ops:
            m.put(key, value)
            reference[key] = value
        for key, value in reference.items():
            assert m.get(key) == (True, value)


class TestVector:
    def test_layout_initialized(self):
        v = Vector(3, initial={"x": 0})
        assert v.borrow(0) == {"x": 0}

    def test_put_borrow(self):
        v = Vector(3)
        v.put(1, {"x": 9})
        assert v.borrow(1) == {"x": 9}

    def test_borrow_returns_copy(self):
        v = Vector(2, initial={"x": 1})
        record = v.borrow(0)
        record["x"] = 99
        assert v.borrow(0) == {"x": 1}

    def test_out_of_range(self):
        v = Vector(2)
        with pytest.raises(StateModelError):
            v.borrow(2)
        with pytest.raises(StateModelError):
            v.put(-1, {})
        with pytest.raises(StateModelError):
            v.reset(2)

    def test_never_written_rows_read_the_template(self):
        v = Vector(1 << 20, initial={"x": 3})
        assert v.borrow((1 << 20) - 1) == {"x": 3}
        assert v.row(12345) == {"x": 3}

    def test_put_stores_a_copy(self):
        v = Vector(2, initial={"x": 0})
        record = {"x": 5}
        v.put(1, record)
        record["x"] = 6
        assert v.borrow(1) == {"x": 5}
        assert v.borrow(0) == {"x": 0}

    def test_borrow_of_template_does_not_leak(self):
        v = Vector(2, initial={"x": 0})
        v.borrow(0)["x"] = 9
        assert v.borrow(1) == {"x": 0}

    def test_reset_restores_template_and_bumps_version(self):
        v = Vector(4, initial={"x": 0})
        v.put(2, {"x": 7})
        v.reset(2)
        assert v.borrow(2) == {"x": 0}
        v.reset(3)  # resetting a never-written row is harmless
        assert v.borrow(3) == {"x": 0}


class TestDChain:
    def test_allocates_distinct_indices(self):
        chain = DChain(8)
        indices = [chain.allocate(0.0)[1] for _ in range(8)]
        assert sorted(indices) == list(range(8))

    def test_exhaustion(self):
        chain = DChain(2)
        chain.allocate(0.0)
        chain.allocate(0.0)
        assert chain.allocate(0.0) == (False, 0)

    def test_free_and_reallocate(self):
        chain = DChain(1)
        _, index = chain.allocate(0.0)
        assert chain.free_index(index)
        ok, again = chain.allocate(1.0)
        assert ok and again == index

    def test_rejuvenate_refreshes(self):
        chain = DChain(2)
        _, index = chain.allocate(0.0)
        assert chain.rejuvenate(index, 5.0)
        assert chain.last_touched(index) == 5.0

    def test_rejuvenate_unallocated_fails(self):
        assert not DChain(2).rejuvenate(0, 1.0)

    def test_expire_frees_only_stale(self):
        chain = DChain(4)
        _, old = chain.allocate(0.0)
        _, fresh = chain.allocate(10.0)
        expired = chain.expire(threshold=5.0)
        assert expired == [old]
        assert not chain.is_allocated(old)
        assert chain.is_allocated(fresh)

    def test_flags_mask_out_of_range_cells(self):
        chain = DChain(4)
        chain.allocate(0.0)
        chain.allocate(0.0)
        cells = np.array([-1, 0, 1, 4, 99, 3], dtype=np.int64)
        assert chain.flags(cells).tolist() == [
            False, True, True, False, False, False
        ]
        assert chain.flags(np.array([1, 2, 1])).tolist() == [True, False, True]

    def test_stamp_scatters_timestamps(self):
        chain = DChain(4)
        for _ in range(3):
            chain.allocate(0.0)
        chain.stamp(np.array([2, 1]), np.array([2.5, 7.0]))
        assert [chain.last_touched(i) for i in range(4)] == [0.0, 7.0, 2.5, 0.0]

    def test_reach_is_the_top_of_the_free_stack(self):
        chain = DChain(3)
        assert chain.reach(0) == []
        first = chain.reach(1)
        _, index = chain.allocate(0.0)
        assert first == [index]
        assert sorted(chain.reach(2)) == sorted(
            i for i in range(3) if not chain.is_allocated(i)
        )
        assert chain.reach(5)[-1] == 0  # more pops than free cells fail

    @given(st.lists(st.sampled_from(["alloc", "free", "expire"]), max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_never_double_allocates(self, ops):
        chain = DChain(8)
        live: set[int] = set()
        now = 0.0
        for op in ops:
            now += 1.0
            if op == "alloc":
                ok, index = chain.allocate(now)
                if ok:
                    assert index not in live
                    live.add(index)
            elif op == "free" and live:
                index = live.pop()
                assert chain.free_index(index)
            elif op == "expire":
                for index in chain.expire(now - 10):
                    live.discard(index)
        assert chain.allocated_count() == len(live)


class _SlotChain:
    """Per-slot reference dchain: one ``[allocated, last_touched]`` cell
    per index and a full scan per expiry."""

    def __init__(self, capacity: int):
        self.cells = [[False, 0.0] for _ in range(capacity)]
        self.free = list(range(capacity - 1, -1, -1))

    def allocate(self, now):
        if not self.free:
            return False, 0
        index = self.free.pop()
        self.cells[index] = [True, now]
        return True, index

    def is_allocated(self, index):
        return 0 <= index < len(self.cells) and self.cells[index][0]

    def rejuvenate(self, index, now):
        if not self.is_allocated(index):
            return False
        self.cells[index][1] = now
        return True

    def free_index(self, index):
        if not self.is_allocated(index):
            return False
        self.cells[index][0] = False
        self.free.append(index)
        return True

    def expire(self, threshold):
        expired = [
            i for i, (allocated, touched) in enumerate(self.cells)
            if allocated and touched < threshold
        ]
        for index in expired:
            self.free_index(index)
        return expired


_TIMES = st.integers(0, 40).map(lambda t: t / 4)
_CHAIN_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), _TIMES),
        st.tuples(st.just("rejuv"), st.integers(-2, 9), _TIMES),
        st.tuples(st.just("free"), st.integers(-2, 9)),
        st.tuples(st.just("expire"), _TIMES),
    ),
    max_size=80,
)


class TestDChainModel:
    """The columnar dchain against the per-slot model, under random
    allocate/rejuvenate/free/expire with non-monotone timestamps."""

    @given(_CHAIN_OPS)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_slot_model(self, ops):
        chain, model = DChain(8), _SlotChain(8)
        for op, *args in ops:
            if op == "alloc":
                assert chain.allocate(*args) == model.allocate(*args)
            elif op == "rejuv":
                assert chain.rejuvenate(*args) == model.rejuvenate(*args)
            elif op == "free":
                assert chain.free_index(*args) == model.free_index(*args)
            else:
                assert chain.expire(*args) == model.expire(*args)
        cells = np.arange(-2, 10)
        assert chain.flags(cells).tolist() == [
            model.is_allocated(int(c)) for c in cells
        ]
        for index in range(8):
            assert chain.is_allocated(index) is model.is_allocated(index)
            assert chain.last_touched(index) == model.cells[index][1]
        # The free stacks agree: the allocation order from here on is
        # the same index sequence.
        order = [chain.allocate(99.0) for _ in range(9)]
        assert order == [model.allocate(99.0) for _ in range(9)]


class _FullScanIndex:
    """The value->key index with the full-scan erase it replaced."""

    def __init__(self):
        self.reverse: dict = {}

    def note_put(self, key, value):
        self.reverse[int(value)] = key

    def note_erase(self, key):
        for v in [v for v, k in self.reverse.items() if k == key]:
            del self.reverse[v]


_KEYS = st.tuples(st.integers(0, 4), st.integers(0, 1))
_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, st.integers(0, 7)),
        st.tuples(st.just("map_erase"), _KEYS),
        st.tuples(st.just("extract"), _KEYS),
        st.tuples(st.just("expire"), st.integers(0, 7)),
    ),
    max_size=80,
)


class TestStateStoreIndex:
    """``StateStore``'s two-way index against the full-scan erase."""

    @staticmethod
    def _store():
        return StateStore([StateDecl("m", StateKind.MAP, 64)])

    def _check(self, store, model):
        for v in range(8):
            assert store.key_for_value("m", v) == model.reverse.get(v)

    @given(_STORE_OPS)
    @settings(max_examples=150, deadline=None)
    def test_matches_full_scan_erase(self, ops):
        store, model = self._store(), _FullScanIndex()
        flow_map = store["m"]
        for op, arg, *rest in ops:
            if op == "put":
                # ConcreteContext.map_put and migration's install.
                if flow_map.put(arg, rest[0]):
                    store.note_put("m", arg, rest[0])
                    model.note_put(arg, rest[0])
            elif op == "map_erase":
                # ConcreteContext.map_erase: the index forgets the key
                # whether or not the map holds it.
                store.note_erase("m", arg)
                model.note_erase(arg)
                flow_map.erase(arg)
            elif op == "extract":
                # Migration's extract_bucket: erase only present keys.
                if flow_map.get(arg)[0]:
                    flow_map.erase(arg)
                    store.note_erase("m", arg)
                    model.note_erase(arg)
            else:
                # ConcreteContext.expire_flows: erase by freed value.
                key = store.key_for_value("m", arg)
                assert key == model.reverse.get(arg)
                if key is not None:
                    flow_map.erase(key)
                    store.note_erase("m", key)
                    model.note_erase(key)
            self._check(store, model)

    def test_value_reput_under_second_key(self):
        store, model = self._store(), _FullScanIndex()
        for key in ("a", "b"):
            store.note_put("m", key, 1)
            model.note_put(key, 1)
        store.note_erase("m", "a")  # "a" no longer owns value 1
        model.note_erase("a")
        self._check(store, model)
        assert store.key_for_value("m", 1) == "b"
        store.note_erase("m", "b")
        assert store.key_for_value("m", 1) is None

    def test_key_updated_to_new_value(self):
        store, model = self._store(), _FullScanIndex()
        for value in (1, 2):
            store.note_put("m", "a", value)
            model.note_put("a", value)
        self._check(store, model)
        assert store.key_for_value("m", 1) == "a"
        store.note_erase("m", "a")  # both values go with the key
        model.note_erase("a")
        self._check(store, model)
        assert store.key_for_value("m", 2) is None

    def test_non_map_names_are_ignored(self):
        store = StateStore([StateDecl("c", StateKind.DCHAIN, 4)])
        store.note_put("c", "a", 1)
        store.note_erase("c", "a")
        assert store.key_for_value("c", 1) is None


class TestSketch:
    def test_initial_count_zero(self):
        assert Sketch(64).fetch(("a",)) == 0

    def test_touch_increments(self):
        sketch = Sketch(64)
        for _ in range(5):
            sketch.touch(("a",))
        assert sketch.fetch(("a",)) >= 5

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_never_undercounts(self, keys):
        sketch = Sketch(256, depth=5)
        true_counts: dict[int, int] = {}
        for key in keys:
            sketch.touch(key)
            true_counts[key] = true_counts.get(key, 0) + 1
        for key, count in true_counts.items():
            assert sketch.fetch(key) >= count

    def test_reset(self):
        sketch = Sketch(64)
        sketch.touch("a", amount=3)
        sketch.reset()
        assert sketch.fetch("a") == 0

    def test_depth_default_matches_paper(self):
        # "indexing a configurable number of entries based on different
        # hashes (5 by default in our case)" (§6.1, CL)
        assert Sketch(100).depth == 5

