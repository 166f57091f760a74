"""Table 1 microbenchmarks: the stateful constructors' operation costs.

Not a figure, but the substrate every result rests on: map/vector/dchain/
sketch operation throughput in the concrete runtime.
"""

import numpy as np
import pytest

from repro.nf.state import DChain, Map, Sketch, Vector


def test_map_get_hit(benchmark):
    m = Map(65536)
    for i in range(10000):
        m.put((i, i + 1), i)
    benchmark(lambda: m.get((5000, 5001)))


def test_map_put_update(benchmark):
    m = Map(65536)
    m.put((1, 2), 0)
    benchmark(lambda: m.put((1, 2), 7))


def test_vector_borrow_put(benchmark):
    v = Vector(4096, initial={"a": 0, "b": 0})

    def cycle():
        record = v.borrow(100)
        record["a"] += 1
        v.put(100, record)

    benchmark(cycle)


def test_vector_borrow_template(benchmark):
    """A never-written row: the sparse vector reads the template."""
    v = Vector(4096, initial={"a": 0, "b": 0})
    benchmark(lambda: v.borrow(100))


def test_dchain_allocate_free(benchmark):
    chain = DChain(4096)

    def cycle():
        ok, index = chain.allocate(0.0)
        assert ok
        chain.free_index(index)

    benchmark(cycle)


def test_dchain_rejuvenate(benchmark):
    chain = DChain(4096)
    _, index = chain.allocate(0.0)
    benchmark(lambda: chain.rejuvenate(index, 1.0))


def test_dchain_expire_8k(benchmark):
    """One sweep over a full 8k shard whose stale 5% is scattered."""
    stale = np.random.default_rng(0).random(8192) < 0.05

    def full_chain():
        chain = DChain(8192)
        for old in stale.tolist():
            chain.allocate(0.0 if old else 1.0)
        return (chain,), {}

    expired = benchmark.pedantic(
        lambda chain: chain.expire(0.5), setup=full_chain, rounds=50
    )
    assert len(expired) == int(stale.sum())


def test_sketch_touch(benchmark):
    sketch = Sketch(2**16, depth=5)
    benchmark(lambda: sketch.touch((0x0A000001, 0x08080808)))


def test_sketch_fetch(benchmark):
    sketch = Sketch(2**16, depth=5)
    sketch.touch((1, 2))
    benchmark(lambda: sketch.fetch((1, 2)))
