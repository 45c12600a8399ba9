"""The exchange bound to the plan: one slot transport, strided puts, one
fence per reshape (or, under the credit rule, a header and a credit per
message).

``Fft3d.forward_spmd`` binds the plan to the communicator on a rank's
first transform (four exchange objects, one :class:`SlotTransport`, slot
tables derived from ``ReshapePlan.pairs``) and every later reshape is
puts plus one fence.  These tests pin the protocol (what is and is not
collective per call), its equivalence to one-shot exchanges driven
through ``ReshapePlan.run_spmd``, the single fence under skew, the
binding's lifetime, and the slot-overflow rule of the compressed path.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import resource
import threading
import time

import numpy as np
import pytest

from repro.collectives import make_exchange
from repro.collectives.base import ExchangeStats
from repro.collectives import SlotExchange
from repro.collectives.slots import SlotTransport
from repro.compression import CastCodec
from repro.compression.base import Codec, CompressedMessage, IdentityCodec
from repro.compression.mantissa import MantissaTrimCodec
from repro.faults import FaultPlan, FaultRule
from repro.fft import Fft3d
from repro.fft.plan import FftStats
from repro.machine.spec import laptop_spec
from repro.machine.topology import Topology
from repro.resilience.checkpoint import ResilientFft3d
from repro.runtime import RUNTIMES, make_world
from repro.runtime.shm import fork_available
from repro.runtime.thread_rt import ThreadWorld
from repro.trace import tracing
from repro.tuning.profile import TuningEntry, TuningProfile
from tests.test_exchange_factory import _CountingComm

if not fork_available():  # pragma: no cover - non-POSIX
    RUNTIMES = tuple(r for r in RUNTIMES if r != "proc")


def _arenas(world) -> list[str]:
    """The window arenas left in a thread world's segment namespace
    (survivor worlds share it)."""
    return [name for name in world.segments.names() if name.startswith("w")]


def _field(shape, seed=0, batch=()):
    rng = np.random.default_rng(seed)
    full = tuple(batch) + tuple(shape)
    return rng.standard_normal(full) + 1j * rng.standard_normal(full)


def _oneshot_transform(plan: Fft3d, comm, block, *, inverse=False, method="osc", stats=None):
    """``forward_spmd`` the way it ran before the binding: every reshape
    through ``ReshapePlan.run_spmd`` with an exchange built, called once
    and freed (its accounting appended to ``stats``, an ``FftStats``)."""
    entry = plan._tuned_entry
    block = np.ascontiguousarray(block, dtype=plan.dtype)
    for stage in plan._pipeline(inverse):
        op = make_exchange(
            comm,
            codec=plan.codec,
            method=method,
            variant=entry.variant if entry is not None else "flat",
            topology=plan.topology,
            e_tol=plan.share,
            pipeline_chunks=entry.pipeline_chunks if entry is not None else 1,
        )
        rstats = ExchangeStats()
        try:
            block = stage.reshape.run_spmd(comm, block, op, stats=rstats)
        finally:
            op.free()
        if stats is not None:
            stats.reshapes.append(rstats)
        block = plan._fft_stage(comm, block, stage)
    return block


def _bound_vs_oneshot(plan: Fft3d, x, runtime="thread", *, method="osc", trips=2):
    """Per rank: are ``trips`` bound round trips bit-identical to one-shot ones?"""
    blocks = plan.scatter(x)

    def kernel(comm):
        b = blocks[comm.rank]
        same = True
        for _ in range(trips):
            y = plan.forward_spmd(comm, b, method=method)
            z = plan.forward_spmd(comm, y, method=method, inverse=True)
            y1 = _oneshot_transform(plan, comm, b, method=method)
            z1 = _oneshot_transform(plan, comm, y1, inverse=True, method=method)
            same = same and np.array_equal(y, y1) and np.array_equal(z, z1)
        return same, y

    results = make_world(runtime, plan.nranks, timeout=60.0).run(kernel)
    assert all(same for same, _ in results)
    return plan.gather([y for _, y in results])


# -- (c) bound == unbound ------------------------------------------------------------


class TestBoundEqualsOneShot:
    @pytest.mark.parametrize(
        "shape,nranks",
        [((7, 5, 9), 3), ((5, 7, 3), 5), ((6, 10, 4), 6), ((7, 7, 7), 7)],
    )
    def test_prime_and_non_divisible_geometries(self, shape, nranks):
        """Empty pairs, ranks with nothing incoming, uneven boxes."""
        x = _field(shape)
        for codec in (None, CastCodec("fp32")):
            got = _bound_vs_oneshot(Fft3d(shape, nranks, codec=codec), x)
            tol = 1e-12 if codec is None else 1e-5
            assert np.linalg.norm(got - np.fft.fftn(x)) <= tol * np.linalg.norm(x) * x.size**0.5

    def test_leading_batch_dimension_rebinds(self):
        """The binding is keyed on the batch shape: a plan transforms
        unbatched, batched and differently batched blocks on one comm."""
        shape, p = (8, 6, 4), 4
        plan = Fft3d(shape, p)
        fields = [_field(shape, 1), _field(shape, 2, batch=(3,)), _field(shape, 3, batch=(5,))]
        blocks = [plan.scatter(x) for x in fields]

        def kernel(comm):
            out = []
            for _ in range(2):  # second pass runs on warm bindings
                out = [plan.forward_spmd(comm, b[comm.rank]) for b in blocks]
            windows = {id(v.transport) for v in comm.attrs.values()}
            return out, len(windows)

        results = make_world("thread", p).run(kernel)
        assert [n for _, n in results] == [3] * p
        for i, x in enumerate(fields):
            got = plan.gather([out[i] for out, _ in results])
            assert np.allclose(got, np.fft.fftn(x, axes=(-3, -2, -1)))

    def test_fp32_precision(self):
        shape = (8, 8, 8)
        _bound_vs_oneshot(Fft3d(shape, 4, precision="fp32"), _field(shape))

    def test_codec_schedule(self):
        """An e_tol plan: one allocated codec, every message held against
        the share."""
        shape = (8, 8, 8)
        plan = Fft3d(shape, 4, e_tol=1e-10)
        _bound_vs_oneshot(plan, _field(shape))

    @pytest.mark.parametrize("variant", ["flat", "two-level"])
    def test_pipeline_chunks_from_a_tuning_profile(self, variant):
        """Several frames per slot (the reader parses exactly that many),
        flat and through the node-aware two-level exchange."""
        shape, p = (12, 12, 12), 4
        profile = TuningProfile(machine="laptop")
        profile.record(
            p, shape,
            TuningEntry(codec="cast_fp32", pipeline_chunks=3, variant=variant, measured_s=0.001),
        )
        plan = Fft3d(shape, p, topology=Topology(laptop_spec(), p), tuning=profile)
        assert plan._tuned_entry.pipeline_chunks == 3
        _bound_vs_oneshot(plan, _field(shape))

    @pytest.mark.parametrize("method", ["pairwise", "reference"])
    def test_two_sided_methods_bind_without_a_window(self, method):
        """``reference`` binds no window; ``pairwise`` binds one arena of
        fixed pair slots (a credit-rule transport: its ring takes no fence)."""
        shape = (8, 8, 8)
        plan = Fft3d(shape, 4)
        _bound_vs_oneshot(plan, _field(shape), method=method)

        def kernel(comm):
            plan.forward_spmd(comm, plan.scatter(_field(shape))[comm.rank], method=method)
            return [b.transport and b.transport.rule for b in comm.attrs.values()]

        want = "credit" if method == "pairwise" else None
        assert make_world("thread", 4).run(kernel) == [[want]] * 4

    @pytest.mark.parametrize(
        "codec", [None, CastCodec("fp32"), MantissaTrimCodec(35)], ids=["raw", "fp32", "trim35"]
    )
    @pytest.mark.parametrize("method", ["osc", "pairwise"])
    def test_codec_under_either_completion_rule(self, method, codec):
        """A codec writes the same frames under the fence and the credit
        rule: bound == one-shot == the virtual plan, bit for bit, and so
        are the ``FftStats`` totals."""
        shape = (6, 4, 4)
        x = _field(shape)
        worlds = [("thread", p) for p in (1, 2, 3, 4, 8)] + [(r, 4) for r in RUNTIMES if r != "thread"]
        for runtime, p in worlds:
            plan = Fft3d(shape, p, codec=codec)
            want, virtual = plan.forward(x), plan.last_stats.totals()
            blocks = plan.scatter(x)

            def kernel(comm):
                bound, oneshot = FftStats(), FftStats()
                y = plan.forward_spmd(comm, blocks[comm.rank], method=method, stats=bound)
                y1 = _oneshot_transform(plan, comm, blocks[comm.rank], method=method, stats=oneshot)
                return y, y1, bound.totals(), oneshot.totals()

            results = make_world(runtime, p, timeout=60.0).run(kernel)
            for k in (0, 1):
                assert np.array_equal(plan.gather([r[k] for r in results]), want), (runtime, p, k)
            for k in (2, 3):
                summed = ExchangeStats().merge(*(r[k] for r in results))
                for name in ("messages", "logical_bytes", "wire_bytes", "achieved_error"):
                    assert getattr(summed, name) == getattr(virtual, name), (runtime, p, k, name)

    def test_two_plans_bound_to_one_comm(self):
        shape, p = (8, 8, 8), 4
        raw, lossy = Fft3d(shape, p), Fft3d(shape, p, codec=CastCodec("fp32"))
        x = _field(shape)
        blocks = raw.scatter(x)

        def kernel(comm):
            b = blocks[comm.rank]
            outs = []
            for _ in range(3):  # interleaved: each binding keeps its own epoch
                outs = [raw.forward_spmd(comm, b), lossy.forward_spmd(comm, b)]
            return outs, len(comm.attrs)

        results = make_world("thread", p).run(kernel)
        assert [n for _, n in results] == [2] * p
        ref = np.fft.fftn(x)
        assert np.allclose(raw.gather([o[0] for o, _ in results]), ref)
        assert np.allclose(lossy.gather([o[1] for o, _ in results]), ref, rtol=1e-4, atol=1e-3)

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_raw_osc_on_both_runtimes(self, runtime):
        """Raw OSC over shm windows is covered by no benchmark workload."""
        shape = (8, 12, 8)
        x = _field(shape)
        got = _bound_vs_oneshot(Fft3d(shape, 4), x, runtime, trips=3)
        assert np.allclose(got, np.fft.fftn(x))

    def test_epoch_parity_is_per_binding_not_per_transform(self):
        """An odd number of exchanges between transforms (a resilient
        restart from a middle stage does this) keeps the halves alternating."""
        shape, p = (8, 8, 8), 4
        plan = Fft3d(shape, p)
        x = _field(shape)
        blocks = plan.scatter(x)
        pencils = plan.reshapes[1].src.scatter(x, plan.dtype)

        def kernel(comm):
            b = blocks[comm.rank]
            plan.forward_spmd(comm, b)  # 3 epochs: reshape 0 is all self at p = 4
            crossing = plan._bind(comm, "osc", "flat", ()).bound[1]
            for _ in range(4):  # 4 lone reshapes across ranks: the epoch is now odd
                plan._reshape_stage(crossing, pencils[comm.rank], FftStats(), None)
            (binding,) = comm.attrs.values()
            return binding.transport.epoch, plan.forward_spmd(comm, b)

        results = make_world("thread", p).run(kernel)
        assert [e for e, _ in results] == [7] * p
        assert np.allclose(plan.gather([y for _, y in results]), np.fft.fftn(x))


# -- (b) what a warm reshape costs ----------------------------------------------------


class TestWarmRoundTripProtocol:
    @pytest.mark.parametrize("codec", [None, CastCodec("fp32")], ids=["raw", "fp32"])
    def test_no_allgather_no_win_create_when_warm(self, codec):
        shape, p = (8, 8, 8), 4
        plan = Fft3d(shape, p, codec=codec)
        blocks = plan.scatter(_field(shape))

        def kernel(comm):
            counting = _CountingComm(comm)
            b = blocks[comm.rank]

            def roundtrip():
                y = plan.forward_spmd(counting, b)
                plan.forward_spmd(counting, y, inverse=True)
                return dict(counting.calls)

            return roundtrip(), roundtrip(), roundtrip()

        for cold, warm, warmer in make_world("thread", p).run(kernel):
            assert cold["win_create"] == 1 and cold["allgather"] == 0
            assert warm == cold and warmer == cold

    @pytest.mark.parametrize("codec", [None, CastCodec("fp32")], ids=["raw", "fp32"])
    def test_six_fences_no_self_put_per_round_trip(self, codec):
        """At p = 4 a rank sends 14 messages per round trip, 8 of them
        (ranks 0, 3) or 6 (ranks 1, 2) to itself, which take no put; and
        reshape 0 (bricks -> x-pencils) moves nothing across ranks in
        either direction, so it takes no fence: 6 fences, and 6 puts
        (ranks 0, 3) or 8 (ranks 1, 2)."""
        shape, p = (8, 8, 8), 4
        plan = Fft3d(shape, p, codec=codec)
        blocks = plan.scatter(_field(shape))
        remote = [sum(d != rank for r in plan.reshapes for d, _ in r.pairs[rank]) for rank in range(p)]
        assert [2 * n for n in remote] == [6, 8, 8, 6]

        def kernel(comm):
            b = blocks[comm.rank]
            for _ in range(3):
                y = plan.forward_spmd(comm, b)
                plan.forward_spmd(comm, y, inverse=True)

        with tracing() as tracer:
            make_world("thread", p).run(kernel)
        spans = tracer.span_events()
        for rank in range(p):
            mine = [e for e in spans if e.rank == rank]
            assert sum(e.kind == "fence" for e in mine) == 3 * 6
            assert {e.attrs["epoch"] for e in mine if e.kind == "fence"} == {"close"}
            assert sum(e.kind == "put" for e in mine) == 3 * 2 * remote[rank]
            assert not any(e.kind == "put" and e.attrs["peer"] == rank for e in mine)
            # no bound window path has a pack copy left to span: the raw
            # one puts the strided box, the lossy one encodes it into the slot
            assert not any(e.kind == "pack" for e in mine)
            # ... and only the raw one unpacks (the lossy decode fills the box)
            assert any(e.kind == "unpack" for e in mine) == (codec is None)
            if codec is not None:  # every put is a reserve scope around its compress
                puts = [e for e in mine if e.kind == "put"]
                assert all(
                    any(c.kind == "compress" and p.t0_ns <= c.t0_ns and c.t1_ns <= p.t1_ns for c in mine)
                    for p in puts
                )
                assert all(0 < p.attrs["bytes"] < 8 * 8 * 8 * 16 for p in puts)

    def test_no_window_view_escapes_a_transform(self):
        shape, p = (8, 8, 8), 4
        blocks = Fft3d(shape, p).scatter(_field(shape))

        def kernel(comm):
            escaped = []
            for plan in (Fft3d(shape, p), Fft3d(shape, p, codec=CastCodec("fp32"))):
                y = plan.forward_spmd(comm, blocks[comm.rank])
                z = plan.forward_spmd(comm, y, inverse=True)
                for binding in comm.attrs.values():
                    view = binding.transport.win.local_view()
                    escaped += [np.shares_memory(a, view) for a in (y, z)]
            return escaped

        for runtime in RUNTIMES:
            for escaped in make_world(runtime, p, timeout=60.0).run(kernel):
                assert escaped and not any(escaped)


# -- (a) the single fence under skew --------------------------------------------------


class TestSingleFenceUnderSkew:
    TRIPS = 50

    def _stress(self, runtime, codec, **world_kwargs):
        shape, p = (8, 8, 8), 4
        plan = Fft3d(shape, p, codec=codec)
        blocks = plan.scatter(_field(shape))
        trips = self.TRIPS

        def kernel(comm):
            b = blocks[comm.rank]
            y1 = _oneshot_transform(plan, comm, b)
            z1 = _oneshot_transform(plan, comm, y1, inverse=True)
            bad = 0
            for _ in range(trips):
                y = plan.forward_spmd(comm, b)
                z = plan.forward_spmd(comm, y, inverse=True)
                bad += not (np.array_equal(y, y1) and np.array_equal(z, z1))
            return bad

        world = make_world(runtime, p, timeout=120.0, **world_kwargs)
        assert world.run(kernel) == [0] * p

    @pytest.mark.parametrize("codec", [None, CastCodec("fp32")], ids=["raw", "fp32"])
    def test_fault_plan_straggler(self, codec):
        """A ``FaultPlan`` straggler (thread runtime only): one rank's
        transport ops stall at random, for the whole run."""
        straggler = FaultRule(
            kind="straggle", rank=1, delay=0.0005, probability=0.5, max_triggers=None
        )
        self._stress("thread", codec, faults=FaultPlan(rules=[straggler], seed=3))

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("codec", [None, CastCodec("fp32")], ids=["raw", "fp32"])
    def test_slow_writer(self, runtime, codec, monkeypatch):
        """One rank's puts arrive late, every time: its peers are a whole
        epoch ahead when it writes, and must not have been overwritten."""
        from repro.runtime.window import Window

        reserve = Window.reserve  # every write goes through it, a put included

        def slow_reserve(self, target_rank, offset, nbytes):
            if self._comm.rank == 1:
                time.sleep(0.0003)
            return reserve(self, target_rank, offset, nbytes)

        monkeypatch.setattr(Window, "reserve", slow_reserve)
        self._stress(runtime, codec)

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("codec", [None, CastCodec("fp32")], ids=["raw", "fp32"])
    def test_slow_reader(self, runtime, codec, monkeypatch):
        """One rank dawdles between the fence and its unpack: nobody may
        write the half it is still reading."""
        from repro.runtime.window import Window

        local_view = Window.local_view

        def slow_local_view(self):
            # the transport takes its regions between the fence and the
            # unpack (raw) or the in-place decode (lossy)
            if self._comm.rank == 2:
                time.sleep(0.0005)
            return local_view(self)

        monkeypatch.setattr(Window, "local_view", slow_local_view)
        self._stress(runtime, codec)


# -- the bound two-sided ring: fixed pair slots, release credits ----------------------


class TestPairSlotCredits:
    """A bound pairwise plan takes no fence: a sender rewrites its pair
    slot only once the receiver's release credit says it may."""

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_credit_holds_a_writer_off_a_slot_still_being_read(self, runtime, monkeypatch):
        """Rank 2 dawdles between each header and its unpack while the
        others drive the crossing reshape back to back, a different block
        every round: without the credit wait its peers would overwrite
        the slot under it."""
        shape, p, rounds = (8, 12, 8), 4, 20
        plan = Fft3d(shape, p)
        reshape = plan.reshapes[1]  # x-pencils -> y-pencils: every rank has remote peers
        inputs = [reshape.src.scatter(_field(shape, seed), plan.dtype) for seed in range(rounds)]
        take = SlotTransport.take

        def slow_take(self, source):
            region = take(self, source)
            if self.comm.rank == 2:
                time.sleep(0.002)
            return region

        monkeypatch.setattr(SlotTransport, "take", slow_take)

        def kernel(comm):
            crossing = plan._bind(comm, "pairwise", "flat", ()).bound[1]
            got = [
                plan._reshape_stage(crossing, blocks[comm.rank], FftStats(), None)
                for blocks in inputs
            ]
            want = [reshape.run_spmd(comm, blocks[comm.rank]) for blocks in inputs]
            return sum(not np.array_equal(a, b) for a, b in zip(got, want))

        assert make_world(runtime, p, timeout=60.0).run(kernel) == [0] * p

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_two_pairwise_plans_interleaved_on_one_comm(self, runtime):
        """Each binding has its own arena and its own header and credit
        tags, the same on every rank."""
        p = 4
        plans = [Fft3d((8, 8, 8), p), Fft3d((8, 12, 6), p)]
        fields = [_field(plan.shape, i) for i, plan in enumerate(plans)]
        blocks = [plan.scatter(x) for plan, x in zip(plans, fields)]

        def kernel(comm):
            outs = []
            for _ in range(3):  # interleaved: each binding keeps its own credits
                outs = [
                    plan.forward_spmd(comm, b[comm.rank], method="pairwise")
                    for plan, b in zip(plans, blocks)
                ]
            tags = [(b.transport.header_tag, b.transport.credit_tag) for b in comm.attrs.values()]
            return outs, tags

        results = make_world(runtime, p, timeout=60.0).run(kernel)
        tags = results[0][1]
        assert all(t == tags for _, t in results) and len(set(sum(tags, ()))) == 4
        for i, (plan, x) in enumerate(zip(plans, fields)):
            assert np.allclose(plan.gather([o[i] for o, _ in results]), np.fft.fftn(x))

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_release_takes_every_outstanding_credit(self, runtime):
        from repro.runtime import ANY_SOURCE, ANY_TAG

        shape, p = (8, 8, 8), 4
        plan = Fft3d(shape, p)
        blocks = plan.scatter(_field(shape))

        def kernel(comm):
            y = plan.forward_spmd(comm, blocks[comm.rank], method="pairwise")
            plan.forward_spmd(comm, y, method="pairwise", inverse=True)
            (binding,) = comm.attrs.values()
            owed = sum(binding.transport.owed)
            plan.release(comm)  # collective: credits taken, arena freed
            return owed, comm.irecv(ANY_SOURCE, ANY_TAG).test(), len(comm.attrs)

        for owed, stray, bound in make_world(runtime, p, timeout=60.0).run(kernel):
            assert owed > 0 and not stray and bound == 0


# -- lifetime -------------------------------------------------------------------------


class TestBindingLifetime:
    def test_bindings_die_with_the_run_on_a_long_lived_world(self):
        """50 plans bound and run on one ThreadWorld: fresh comms per run,
        so every binding is released (locally) when its run ends."""
        shape, p = (32, 32, 32), 4
        x = _field(shape)
        world = ThreadWorld(p, timeout=30.0)

        def rss_mb():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        marks = []
        for i in range(50):
            plan = Fft3d(shape, p, codec=CastCodec("fp32") if i % 2 else None)
            blocks = plan.scatter(x)
            world.run(lambda comm: plan.forward_spmd(comm, blocks[comm.rank]))
            assert _arenas(world) == []
            if i in (9, 49):
                marks.append(rss_mb())
        # a leaked binding is >= 1 MiB of window per plan (40 plans apart)
        assert marks[1] - marks[0] < 15.0

    def test_explicit_release_for_a_comm_that_cycles_through_plans(self):
        shape, p = (8, 8, 8), 4
        x = _field(shape)

        def kernel(comm):
            live = []
            for _ in range(5):
                plan = Fft3d(shape, p)
                y = plan.forward_spmd(comm, plan.scatter(x)[comm.rank])
                plan.release(comm)  # collective
                plan.release(comm)  # idempotent
                comm.barrier()
                live.append((len(comm.attrs), len(_arenas(comm.world))))
                comm.barrier()  # nobody binds the next plan before all have looked
            return live, y

        results = make_world("thread", p).run(kernel)
        assert all(live == [(0, 0)] * 5 for live, _ in results)

    @pytest.mark.skipif("proc" not in RUNTIMES, reason="needs fork")
    def test_proc_run_is_clean_without_an_explicit_release(self):
        shape, p = (8, 8, 8), 4
        plan = Fft3d(shape, p, codec=CastCodec("fp32"))
        raw = Fft3d(shape, p)
        blocks = plan.scatter(_field(shape))
        world = make_world("proc", p, timeout=60.0)

        def kernel(comm):
            y = plan.forward_spmd(comm, blocks[comm.rank])
            raw.forward_spmd(comm, blocks[comm.rank])
            return y  # bindings never released by the kernel

        world.run(kernel)
        assert glob.glob(f"/dev/shm/{world.uid}*") == []
        assert mp.active_children() == []


# -- recovery drills on a warm binding -------------------------------------------------


def _transport_ops(fft: ResilientFft3d, data, runtime, halves: int) -> int:
    """Transport ops rank 1 makes in ``halves`` clean transforms (the fault
    injector counts every op against its kill rules, firing or not)."""
    probe = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=10**9)])

    def kernel(comm):
        block = fft.plan.scatter(data)[comm.rank]
        for half in range(halves):
            block = fft.run_spmd(comm, block, inverse=bool(half % 2)).block
        return comm.world.injector._ops[("kill", comm.rank)]

    return make_world(runtime, fft.plan.nranks, timeout=30.0, faults=probe).run(kernel)[1]


class TestRecoveryOnABoundPlan:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("kind", ["kill", "hang"])
    @pytest.mark.parametrize("codec", [None, CastCodec("fp32")], ids=["raw", "fp32"])
    def test_rank_lost_mid_reshape_of_the_third_round_trip(self, runtime, kind, codec):
        shape, p = (8, 8, 8), 4
        data = _field(shape)
        fft = ResilientFft3d(shape, p, codec=codec, method="osc")
        # two warm round trips and the third one's forward transform are
        # behind it; the inverse transform is under way
        after = (_transport_ops(fft, data, runtime, 5) + _transport_ops(fft, data, runtime, 6)) // 2
        faults = FaultPlan(rules=[FaultRule(kind=kind, rank=1, after=after)])
        world = make_world(runtime, p, timeout=20.0, faults=faults, suspect_after=0.4)

        def kernel(comm):
            block = fft.plan.scatter(data)[comm.rank]
            for _ in range(2):
                block = fft.run_spmd(comm, fft.run_spmd(comm, block).block, inverse=True).block
            fwd = fft.run_spmd(comm, block)
            back = fft.run_spmd(fwd.comm, fwd.block, inverse=True)
            epochs = [
                b.transport.epoch for b in back.comm.attrs.values() if hasattr(b, "transport")
            ]
            blocks = back.comm.allgather(back.block)
            if back.comm.rank != 0:
                return None
            return back.plan.gather(blocks), back.recovered, back.comm.size, epochs

        results = [r for r in world.run(kernel) if r is not None]
        assert len(results) == 1
        full, recovered, survivors, epochs = results[0]
        assert recovered and survivors == p - 1
        # the survivors re-bound on the shrunk comm: one binding, whose
        # epoch counts only the reshapes since the restart
        assert len(epochs) == 1 and 1 <= epochs[0] <= 4
        tol = 1e-12 if codec is None else 3 * fft.plan.guaranteed_tolerance
        assert np.linalg.norm(full - data) <= tol * np.linalg.norm(data)
        if runtime == "thread":
            assert _arenas(world) == []
        else:
            assert glob.glob(f"/dev/shm/{world.uid}*") == []
            assert mp.active_children() == []

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_pairwise_rank_lost_mid_reshape_of_the_third_round_trip(self, runtime, kind):
        """A rank lost while its peers wait for a header or a credit is
        detected like any blocked receive; the survivors re-bind a fresh
        arena that owes no credit, restart, and match the virtual plan."""
        shape, p = (8, 8, 8), 4
        data = _field(shape)
        fft = ResilientFft3d(shape, p, method="pairwise")
        # two warm round trips are behind it; the third one's forward
        # transform is under way
        after = (_transport_ops(fft, data, runtime, 4) + _transport_ops(fft, data, runtime, 5)) // 2
        faults = FaultPlan(rules=[FaultRule(kind=kind, rank=1, after=after)])
        world = make_world(runtime, p, timeout=20.0, faults=faults, suspect_after=0.4)

        def kernel(comm):
            block = fft.plan.scatter(data)[comm.rank]
            for _ in range(2):
                block = fft.run_spmd(comm, fft.run_spmd(comm, block).block, inverse=True).block
            fwd = fft.run_spmd(comm, block)
            [binding] = [b for b in fwd.comm.attrs.values() if hasattr(b, "transport")]
            rebound = binding.transport.rule == "credit" and binding.transport.comm is fwd.comm
            blocks = fwd.comm.allgather(fwd.block)
            if fwd.comm.rank != 0:
                return None
            return fwd.plan.gather(blocks), fwd.recovered, fwd.comm.size, rebound

        results = [r for r in world.run(kernel) if r is not None]
        assert len(results) == 1
        full, recovered, survivors, rebound = results[0]
        # re-bound on the shrunk comm: an arena of its own, which has had
        # only the restarted stages to owe credits for
        assert recovered and survivors == p - 1 and rebound
        plan = Fft3d(shape, p)
        want = data
        for _ in range(2):
            want = plan.backward(plan.forward(want))
        assert np.array_equal(full, plan.forward(want))
        if runtime == "thread":
            assert _arenas(world) == []
        else:
            assert glob.glob(f"/dev/shm/{world.uid}*") == []
            assert mp.active_children() == []


# -- identity and degenerate plans -------------------------------------------------------


def _stage_marks(fft: ResilientFft3d, data, runtime, monkeypatch) -> list[int]:
    """Transport ops rank 1 has made as it checkpoints each stage of a clean
    forward transform.  A kill rule ``after`` one less than stage ``k + 1``'s
    mark fires at rank 1's last op of stage ``k``: every rank has passed
    stage ``k``'s checkpoint (rank 1's stage began with a collective) and
    rank 1 never takes stage ``k + 1``'s, so the restart is from ``k``."""
    from repro.resilience.checkpoint import CheckpointStore

    marks, injectors = [], {}

    def save(store, key, block, meta=None, _original=CheckpointStore.save):
        if key[3] == 1:
            marks.append(injectors[1]._ops.get(("kill", 1), 0))
        return _original(store, key, block, meta)

    monkeypatch.setattr(CheckpointStore, "save", save)
    probe = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=10**9)])

    def kernel(comm):
        injectors[comm.rank] = comm.world.injector
        fft.run_spmd(comm, fft.plan.scatter(data)[comm.rank])
        return list(marks)

    try:
        return make_world(runtime, fft.plan.nranks, timeout=30.0, faults=probe).run(kernel)[1]
    finally:
        monkeypatch.undo()


class TestIdentityAndDegeneratePlans:
    """A reshape with no remote message — every reshape at p = 1, reshape 0
    (bricks -> x-pencils) at p = 4 — costs no fence and no epoch, and the
    self blocks it moves in place keep results bit for bit."""

    @pytest.mark.parametrize("codec", [None, CastCodec("fp32")], ids=["raw", "fp32"])
    def test_no_fence_and_no_epoch_without_a_remote_message(self, codec, monkeypatch):
        from repro.runtime.window import Window

        fences, lock = {}, threading.Lock()

        def fence(win, _original=Window.fence):
            with lock:
                fences[win._comm.rank] = fences.get(win._comm.rank, 0) + 1
            return _original(win)

        monkeypatch.setattr(Window, "fence", fence)
        shape = (8, 12, 8)
        x = _field(shape)

        def lone(plan, step):
            def kernel(comm):
                b = plan.scatter(x)[comm.rank]
                y = plan.forward_spmd(comm, b)  # bound and warm
                binding = plan._bind(comm, "osc", "flat", ())
                comm.barrier()
                before = fences.get(comm.rank, 0), binding.transport.epoch
                block = plan.reshapes[step].src.scatter(x, plan.dtype)[comm.rank]
                out = plan._reshape_stage(binding.bound[step], block, FftStats(), None)
                after = fences.get(comm.rank, 0), binding.transport.epoch
                # every cell is its own rank's: the block, through the codec
                want = block if codec is None else codec.decompress(codec.compress(block))
                return y, before, after, np.array_equal(out, want)

            return make_world("thread", plan.nranks).run(kernel)

        single = Fft3d(shape, 1, codec=codec)
        [(y, before, after, same)] = lone(single, 2)
        assert before == after == (0, 0) and same  # p = 1: no fence ever, epoch 0
        assert np.array_equal(y, single.forward(x))
        plan = Fft3d(shape, 4, codec=codec)
        assert plan.reshapes[0].src.grid == plan.reshapes[0].dst.grid
        results = lone(plan, 0)
        for y, before, after, same in results:
            assert before == after and before[1] == 3 and same  # 3 crossing reshapes
        assert np.array_equal(plan.gather([r[0] for r in results]), plan.forward(x))

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("stage", [0, 2])
    def test_restart_from_a_stage_is_bit_identical_to_an_unfailed_run(
        self, runtime, stage, monkeypatch
    ):
        shape, p = (8, 8, 8), 4
        data = _field(shape, 5)
        fft = ResilientFft3d(shape, p, codec=CastCodec("fp32"), method="osc")
        after = _stage_marks(fft, data, runtime, monkeypatch)[stage + 1] - 1
        faults = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=after)])
        world = make_world(runtime, p, timeout=20.0, faults=faults, suspect_after=0.4)

        def kernel(comm):
            res = fft.run_spmd(comm, fft.plan.scatter(data)[comm.rank])
            blocks = res.comm.allgather(res.block)
            if res.comm.rank != 0:
                return None
            return res.plan.gather(blocks), res.report.detail

        [(full, detail)] = [r for r in world.run(kernel) if r is not None]
        assert detail == f"restarted from stage {stage} on {p - 1} survivors"
        assert np.array_equal(full, Fft3d(shape, p, codec=CastCodec("fp32")).forward(data))

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_forward_spmd_never_writes_the_callers_block(self, runtime):
        shape = (8, 6, 4)
        x = _field(shape)
        plans = [Fft3d(shape, p, codec=codec) for p in (1, 4) for codec in (None, CastCodec("fp32"))]

        def kernel(comm):
            untouched = []
            for plan in plans:
                if plan.nranks != comm.size:
                    continue
                local = plan.scatter(x)[comm.rank]
                copy = local.copy()
                for inverse in (False, True, False):
                    out = plan.forward_spmd(comm, local, inverse=inverse)
                    untouched.append(np.array_equal(local, copy) and not np.shares_memory(out, local))
            return untouched

        for p in (1, 4):
            for untouched in make_world(runtime, p, timeout=60.0).run(kernel):
                assert len(untouched) == 6 and all(untouched)


# -- faults on the in-place path ---------------------------------------------------------


def _bound_reshape(comm, reshape, codec, **kwargs):
    """``reshape`` bound to a compressed exchange on plan-supplied slots."""
    from repro.fft.reshape import BoundReshape

    op = SlotExchange(comm, codec, **kwargs)
    elements, leading = reshape.message_elements()
    op.table = op.slot_table(elements, 16, leading)
    op.transport.grow([op.table])
    return BoundReshape(reshape, comm.rank, op), op.transport


class TestInPlaceExchangeUnderFaults:
    """Encoding into the slot and decoding into the block keep the whole
    ladder: a corrupted slot is retransmitted over the partial decode, a
    codec fault is retried where it writes, an ``e_tol`` violation and an
    oversized frame step down in the slot — typed errors or exact data,
    never silent corruption."""

    SHAPE, P = (12, 10, 8), 4

    def _run(self, codec, *, faults=None, epochs=2, **kwargs):
        plan = Fft3d(self.SHAPE, self.P)
        reshape = plan.reshapes[1]  # x-pencils -> y-pencils: every rank has remote peers
        blocks = reshape.src.scatter(_field(self.SHAPE), np.complex128)

        def kernel(comm):
            bound, transport = _bound_reshape(comm, reshape, codec, **kwargs)
            outs, trails = [], []
            try:
                for _ in range(epochs):
                    stats = ExchangeStats()
                    outs.append(bound(blocks[comm.rank], stats=stats))
                    trails.append((stats, [(e.kind, e.codec) for e in stats.reports[0].events]))
            finally:
                transport.free()
            return outs, trails

        world = ThreadWorld(self.P, timeout=30.0, faults=faults)
        return world, world.run(kernel), reshape, blocks

    def _expected(self, reshape, blocks, codec):
        """What the staged exchange delivers: each box through compress -> decompress."""
        outs = [stage.empty_out(blocks[0]) for stage in reshape.rank_stages]
        for s, stage in enumerate(reshape.rank_stages):
            for d in stage.outgoing:
                chunk = stage.pack(blocks[s], d)
                reshape.rank_stages[d].unpack(outs[d], s, codec.decompress(codec.compress(chunk)))
        return outs

    def test_bitflip_in_a_slot_is_retransmitted_over_the_partial_decode(self):
        codec = CastCodec("fp32")
        flip = FaultPlan([FaultRule("bitflip", rank=0, peer=2, max_triggers=1)], seed=4)
        world, results, reshape, blocks = self._run(codec, faults=flip)
        assert world.injector.injected("bitflip") == 1
        want = self._expected(reshape, blocks, codec)
        for rank, (outs, trails) in enumerate(results):
            assert all(np.array_equal(out, want[rank]) for out in outs)
        first = results[2][1][0][0]
        assert first.reports[0].count("integrity-failure") == 1 and first.reports[0].recovered
        assert results[0][1][0][0].retransmissions == 1
        assert all(t[0].clean for r in results for t in r[1][1:])  # the next epoch is clean

    def test_transient_codec_fault_is_retried_where_it_writes(self):
        codec = MantissaTrimCodec(35)
        hiccup = FaultPlan([FaultRule("codec", rank=1, max_triggers=2)], seed=0)
        world, results, reshape, blocks = self._run(codec, faults=hiccup, e_tol=1e-10)
        assert world.injector.injected("codec") == 2
        want = self._expected(reshape, blocks, codec)
        for rank, (outs, trails) in enumerate(results):
            assert all(np.array_equal(out, want[rank]) for out in outs)
        kinds = [k for k, _ in results[1][1][0][1]]
        assert kinds.count("transient-codec") == 2 and kinds.count("retry") == 2
        assert results[1][1][0][0].error_measured

    def test_e_tol_violation_steps_down_to_lossless_in_the_slot(self):
        """zlib's header scalar is known only after the encode: its
        metadata grows and the payload moves up behind it, in the slot."""
        world, results, reshape, blocks = self._run(MantissaTrimCodec(20), e_tol=1e-12)
        for rank, (outs, trails) in enumerate(results):
            exact = reshape.rank_stages[rank].empty_out(blocks[0])
            for s in reshape.rank_stages[rank].incoming:
                chunk = reshape.rank_stages[s].pack(blocks[s], rank)
                reshape.rank_stages[rank].unpack(exact, s, chunk)
            assert all(np.array_equal(out, exact) for out in outs)
            stats, events = trails[0]
            sent = len(reshape.rank_stages[rank].outgoing)
            assert [k for k, _ in events].count("tolerance-exceeded") == sent
            assert {c for k, c in events if k == "degrade"} == {"zlib1_shuffle"}
            assert stats.achieved_error == 0.0 and stats.error_measured

    def test_oversized_payload_steps_down_to_raw_in_the_slot(self):
        """... and in the self block's scratch, which is sized the same way."""
        world, results, reshape, blocks = self._run(_LyingCodec())
        stages = reshape.rank_stages
        assert any(rank in stage.outgoing for rank, stage in enumerate(stages))
        for rank, (outs, trails) in enumerate(results):
            stats, events = trails[0]
            sent = len(stages[rank].outgoing)
            assert events == [("degrade", "identity")] * sent
            assert sorted(e.peer for e in stats.reports[0].events) == sorted(stages[rank].outgoing)
            assert stats.wire_bytes == stats.logical_bytes
            want = self._expected(reshape, blocks, IdentityCodec())
            assert all(np.array_equal(out, want[rank]) for out in outs)

    @pytest.mark.parametrize("chunks", [2, 3, 5])
    def test_pipeline_chunks_cut_leading_axis_slabs(self, chunks):
        """As many frames per slot as the receiver cuts its box into;
        element-wise codecs give the bits of the unchunked exchange,
        per-fragment-state codecs stay within their bound."""
        from repro.compression import ZfpLikeCodec

        for codec, exact in [(CastCodec("fp32"), True), (MantissaTrimCodec(35), True),
                             (CastCodec("fp16", scaled=True), False),
                             (ZfpLikeCodec(tolerance=1e-6), False)]:
            _, results, reshape, blocks = self._run(codec, epochs=1, pipeline_chunks=chunks)
            want = self._expected(reshape, blocks, codec)
            exact_want = self._expected(reshape, blocks, IdentityCodec())
            for rank, (outs, trails) in enumerate(results):
                stats, events = trails[0]
                assert events == []
                lead = [min(chunks, box.shape[0]) for _, box in reshape.pairs[rank]]
                assert stats.messages == sum(lead)
                if exact:
                    assert np.array_equal(outs[0], want[rank])
                else:
                    scale = np.abs(exact_want[rank]).max()
                    assert np.abs(outs[0] - exact_want[rank]).max() <= 2e-3 * scale


# -- a frame that does not fit its slot -------------------------------------------------


class _LyingCodec(Codec):
    """Claims to compress, returns more bytes than it was given."""

    name = "liar"

    def compress(self, data):
        msg = IdentityCodec().compress(data)
        payload = np.concatenate([msg.payload, np.zeros(4096, dtype=np.uint8)])
        return CompressedMessage(self.name, payload, msg.dtype_name, msg.shape)

    def decompress(self, msg):  # pragma: no cover - its frames never reach the wire
        raise AssertionError("an oversized frame was sent")


def _bound_exchange(comm, codec, n, **kwargs):
    """A compressed exchange bound to slots for ``n`` complex items per pair."""
    op = SlotExchange(comm, codec, **kwargs)
    op.table = op.slot_table(np.full((comm.size, comm.size), n), 16)
    op.transport.grow([op.table])
    return op, op.transport


class TestSlotOverflow:
    def test_lossless_fallback_fits_its_slot_at_128_cubed_message_size(self):
        """Unmeetable tolerance on incompressible 4 MiB messages: every one
        goes through zlib, which *expands* them (0.03 % + 5 B per 16 KiB
        block) — into a slot sized for exactly that, so nothing degrades
        further and nothing is truncated."""
        p, n = 2, 128**3 // 8  # one fft128-p4 message: 4 MiB of complex128

        def incompressible(rng):
            bits = rng.integers(0, 2**64, size=2 * n, dtype=np.uint64)
            nonfinite = (bits >> np.uint64(52)) & np.uint64(0x7FF) == np.uint64(0x7FF)
            bits[nonfinite] &= ~np.uint64(1 << 62)
            return bits.view(np.complex128)

        def kernel(comm):
            rng = np.random.default_rng(comm.rank)
            send = [incompressible(rng) for _ in range(p)]
            op, transport = _bound_exchange(comm, MantissaTrimCodec(35), n, e_tol=1e-30)
            recv = [np.empty(n, complex) for _ in range(p)]
            try:
                op.move(send, lambda: recv)  # through the bound, worst-case-sized slots
                back = comm.alltoallv(recv)  # what I sent, as the peers decoded it
                exact = all(
                    np.array_equal(a.view(np.uint64), b.view(np.uint64))
                    for a, b in zip(send, back)
                )
                events = [(e.kind, e.codec) for e in op.last_report.events]
                return exact, events, op.last_stats
            finally:
                transport.free()

        for exact, events, stats in make_world("thread", p, timeout=60.0).run(kernel):
            assert exact
            assert stats.wire_bytes > stats.logical_bytes  # zlib expanded every message
            assert [k for k, _ in events].count("tolerance-exceeded") == p
            assert {c for k, c in events if k == "degrade"} == {"zlib1_shuffle"}

    def test_oversized_frame_steps_down_to_raw_never_truncates(self):
        p, n = 3, 500

        def kernel(comm):
            send = [np.arange(n) * (1.0 + 1j) + comm.rank + d for d in range(p)]
            op, transport = _bound_exchange(comm, _LyingCodec(), n)
            recv = [np.empty(n, complex) for _ in range(p)]
            try:
                op.move(send, lambda: recv)
                return recv, [(e.kind, e.codec) for e in op.last_report.events], op.last_stats
            finally:
                transport.free()

        for rank, (recv, events, stats) in enumerate(make_world("thread", p).run(kernel)):
            for s in range(p):
                assert np.array_equal(recv[s], np.arange(n) * (1.0 + 1j) + s + rank)
            assert events == [("degrade", "identity")] * p
            assert stats.wire_bytes == stats.logical_bytes == 16 * n * p

    def test_a_message_larger_than_its_slot_is_an_error_at_the_window(self):
        """The transport's own guard (the raw path has no ladder to walk)."""
        from repro.errors import CommunicatorError

        def kernel(comm):
            op = make_exchange(comm, method="osc")
            op.table = op.slot_table(np.full((2, 2), 8), 16)
            op.transport.grow([op.table])
            fits = [np.empty(8, complex) for _ in range(2)]
            op.move([np.ones(8, complex)] * 2, lambda: fits)
            try:  # every rank trips at its first put
                op.move([np.ones(9, complex)] * 2, lambda: [np.empty(9, complex)] * 2)
            except CommunicatorError as exc:
                return [r.tolist() for r in fits], str(exc)
            finally:
                op.transport.release()

        for fits, error in make_world("thread", 2, timeout=10.0).run(kernel):
            assert fits == [[1.0] * 8] * 2
            assert "144 B" in error and "128 B window slot" in error

    def test_verify_mode_rides_its_own_allgather_on_a_bound_exchange(self):
        """Integrity on a bound exchange is the identity codec: with
        plan-supplied slots there is no announcement, yet a corrupted
        frame is still caught and recovered (the recovery agrees its
        failure sets in an allgather of its own)."""
        from repro.compression.base import IdentityCodec

        flip = FaultPlan([FaultRule("bitflip", rank=0, peer=1)], seed=2)

        def kernel(comm):
            op = SlotExchange(comm, IdentityCodec())
            op.table = op.slot_table(np.full((2, 2), 32), 8)
            op.transport.grow([op.table])
            send = [np.arange(32.0) + 10 * comm.rank + d for d in range(2)]
            recv = [np.empty(32) for _ in range(2)]
            op.move(send, lambda: recv)
            op.transport.free()
            return recv, op.last_report.recovered

        world = ThreadWorld(2, timeout=20.0, faults=flip)
        for rank, (recv, recovered) in enumerate(world.run(kernel)):
            assert all(np.array_equal(recv[s], np.arange(32.0) + 10 * s + rank) for s in range(2))
            assert recovered == (rank == 1)
        assert world.injector.injected("bitflip") == 1

    def test_split_sizes_mirror_split(self):
        """The fragments a slot is sized for are ``np.array_split``'s slabs of
        the leading axis, and ``_parts`` cuts a block into exactly those."""
        from repro.compression.base import IdentityCodec

        for chunks in (1, 2, 3, 7):
            op = SlotExchange.__new__(SlotExchange)
            op.pipeline_chunks, op._ladder, op._cuts = chunks, [IdentityCodec()], {}
            for n in (1, 2, 5, 7, 64, 100):
                block = np.zeros((n, 3))
                slabs = [c for c in np.array_split(block, chunks) if c.size] if n > 1 else [block]
                assert op._split_sizes(n) == [c.shape[0] for c in slabs]
                assert [block[lo:hi].shape for lo, hi, _ in op._parts_of(block)] == [
                    c.shape for c in slabs
                ]

    def test_zlib_worst_case_bound_holds_on_incompressible_bytes(self):
        from repro.compression.lossless import ShuffleZlibCodec

        codec = ShuffleZlibCodec(level=1)
        rng = np.random.default_rng(5)
        for n in (1, 17, 4096, 300_000):
            data = rng.integers(0, 2**63, size=n, dtype=np.int64).view(np.float64)
            assert codec.compress(data).payload.size <= codec.worst_case_nbytes(n)
