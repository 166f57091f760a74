"""Exact allocation in the compiled dataplane.

Nothing frees a dchain index inside a chunk (a sweeping packet runs
alone in its own chunk), so the k-th allocation of a chunk on a shard
pops the k-th cell of that shard's free stack at chunk start: allocating
kernel lanes take their pops in lane order, past the stack's end they
get ``(False, 0)``, and the cells any allocation of the chunk can return
are the top of the stack — its *reach*, which keys the allocation dirt
interpreter lanes publish.  Every run here must be bit-identical to
``fastpath=False``.
"""

from __future__ import annotations

from repro.core.pipeline import Maestro
from repro.nf.nfs.firewall import Firewall
from repro.nf.nfs.lb import LoadBalancer
from repro.nf.nfs.nat import Nat
from repro.nf.nfs.policer import Policer
from repro.nf.packet import Packet
from repro.sim.functional import run_functional
from tests.sim.test_compiled import assert_runs_identical

SERVER = 0x08080808
NAT_IP = 0xC0A80101  # Nat's default external address
PORT_BASE = 1024


def _pair(nf_factory, n_cores=1):
    def build():
        return Maestro(seed=7).parallelize(nf_factory(), n_cores=n_cores)

    return build(), build()


def _run_both(par_ref, par_comp, trace):
    run_ref = run_functional(par_ref, trace, fastpath=False)
    run_comp = run_functional(par_comp, trace)
    assert_runs_identical(run_ref, run_comp, par_ref, par_comp)
    return run_comp


def _lowered_alloc_pids(parallel, port):
    """Path ids of the supported programs that cross an allocation."""
    pp = parallel._compiled_dispatcher.ports[port]
    return {
        prog.pid for prog in pp.programs
        if prog.supported
        and any(s.sig[0] == "dchain_allocate" for s in prog.steps)
    }


def _lan(i, t):
    return (0, Packet(src_ip=0x0A000000 + i, dst_ip=SERVER,
                      src_port=4000 + i, dst_port=53, timestamp=t))


def _nat_reply(cell, t):
    return (1, Packet(src_ip=SERVER, dst_ip=NAT_IP, src_port=53,
                      dst_port=PORT_BASE + cell, timestamp=t))


class TestReachKeyedDirt:
    def _warm_nat(self, n_flows=5):
        """A NAT pair whose chain already holds ``n_flows`` flows, so the
        free stack's top is a cell other than 0."""
        par_ref, par_comp = _pair(Nat)
        _run_both(par_ref, par_comp,
                  [_lan(i, i * 1e-6) for i in range(n_flows)])
        return par_ref, par_comp

    def test_nat_reply_on_next_free_cell_is_demoted(self):
        """The reply to a flow opened earlier in the same chunk targets
        the cell that flow allocated: its frozen flag read says free, so
        the lane must be demoted and translated by the interpreter, after
        the opening lane's kernel allocation."""
        par_ref, par_comp = self._warm_nat()
        chain = par_comp.cores[0].ctx.store["nat_chain"]
        nxt = chain._free[-1]
        assert nxt != 0
        trace = [_lan(100, 1e-3), _nat_reply(nxt, 2e-3)]
        run = _run_both(par_ref, par_comp, trace)
        _, reply = run.results[1]
        assert reply.port == 0 and reply.mods["dst_port"] == 4100
        assert run.compiled_path_ids.tolist()[1] == -1
        assert run.compiled["fallback_packets"] == 1

    def test_nat_reply_outside_reach_stays_kernel(self):
        """One allocating lane reaches one cell: a stray reply on a free
        cell further down the stack cannot see it allocated this chunk,
        so both lanes run on kernels (and the reply drops)."""
        par_ref, par_comp = self._warm_nat()
        chain = par_comp.cores[0].ctx.store["nat_chain"]
        far = chain._free[-10]
        trace = [_lan(100, 1e-3), _nat_reply(far, 2e-3)]
        run = _run_both(par_ref, par_comp, trace)
        assert run.results[1][1].port is None
        assert run.compiled["kernel_packets"] == 2
        assert run.compiled["fallback_packets"] == 0

    def test_policer_new_key_keeps_known_keys_on_kernels(self):
        """A new user's bucket is written at the cell its allocation
        pops, which no known user's bucket shares: the new key runs on
        kernels beside the known keys."""
        par_ref, par_comp = _pair(Policer)

        def down(user, t):
            return (1, Packet(src_ip=SERVER, dst_ip=0x0A000000 + user,
                              src_port=80, dst_port=5000, timestamp=t))

        users = range(1, 41)
        _run_both(par_ref, par_comp,
                  [down(u, u * 1e-4) for u in users])
        trace = [down(u, 0.5 + u * 1e-4) for u in users]
        trace.insert(20, down(999, 0.5 + 20.5e-4))
        run = _run_both(par_ref, par_comp, trace)
        assert run.compiled["kernel_packets"] == len(users) + 1
        assert run.compiled["fallback_packets"] == 0


class TestFullChainAllocation:
    def test_fw_allocation_cycles_stay_lowered(self):
        """An 8-entry chain fills, then new flows fail; an expiry sweep
        frees every cell and the refill runs out mid-chunk.  Every lane
        but the sweeping packets runs on kernels, each allocation popping
        the cell the interpreter would or failing where it would."""
        par_ref, par_comp = _pair(
            lambda: Firewall(capacity=8, expiration_time=2.0)
        )
        # The once-per-second sweep fires at t = 0, 1.0, 3.5 and 4.5.
        fill = [_lan(i, 0.01 * i) for i in range(8)]             # t < 1
        refused = [_lan(100 + i, 1.0 + 0.01 * i) for i in range(6)]
        refill = [_lan(200 + i, 3.5 + 0.01 * i) for i in range(10)]
        refused2 = [_lan(300 + i, 4.5 + 0.01 * i) for i in range(6)]
        trace = fill + refused + refill + refused2
        run = _run_both(par_ref, par_comp, trace)
        pids = run.compiled_path_ids
        lowered = _lowered_alloc_pids(par_comp, 0)
        assert lowered
        start = len(fill) + len(refused)
        sweeps = (0, len(fill), start, start + len(refill))
        for i in range(len(trace)):
            if i in sweeps:
                assert pids[i] == -1
            else:
                assert int(pids[i]) in lowered
        # The sweep at t=3.5 freed all 8 flows; its packet took one cell
        # and the refill's last two new flows found the chain full.
        refill_flows = [
            r.new_flow for _, r in run.results[start:start + len(refill)]
        ]
        assert refill_flows == [True] * 8 + [False] * 2
        assert sum(r.new_flow for _, r in run.results) == 16

    def test_lb_full_backend_chain_runs_on_kernels(self):
        """``lb`` port 0 registers backends into a 4-entry chain; once
        it is full, heartbeats from unknown backends pass through on
        kernels.  The flow chain meanwhile fills and expires under a 2 s
        expiry.  The backend chain has no sweep, so once full its
        allocation stays lowered."""
        par_ref, par_comp = _pair(
            lambda: LoadBalancer(backend_capacity=4, flow_capacity=8,
                                 expiration_time=2.0),
            n_cores=2,
        )

        def heartbeat(i, t):
            return (0, Packet(src_ip=0x0B000000 + i, dst_ip=SERVER,
                              src_port=7, dst_port=7, timestamp=t))

        def wan(i, t):
            return (1, Packet(src_ip=0x0C000000 + i, dst_ip=SERVER,
                              src_port=6000 + i, dst_port=80, timestamp=t))

        trace = []
        for second in range(6):
            t0 = float(second)
            trace.append(wan(1000 + second, t0))  # fires the sweep gate
            trace.extend(heartbeat(second * 3 + i, t0 + 0.01 + 0.01 * i)
                         for i in range(3))
            trace.extend(wan(second * 6 + i, t0 + 0.1 + 0.01 * i)
                         for i in range(6))
        run = _run_both(par_ref, par_comp, trace)
        lowered = _lowered_alloc_pids(par_comp, 0)
        assert lowered
        hb = [i for i, (port, _) in enumerate(trace) if port == 0]
        on_kernels = [int(run.compiled_path_ids[i]) in lowered for i in hb]
        # Seconds 0 and 1 start with a free backend index: their six
        # heartbeats run interpreted (four register, the chain fills).
        # Every later chunk starts full.
        assert on_kernels == [False] * 6 + [True] * 12
