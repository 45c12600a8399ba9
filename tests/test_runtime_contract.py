"""Runtime-agnostic ``Comm`` contract, run against every backend.

Every world that hands SPMD code a :class:`repro.runtime.base.Comm` must
pass this suite unchanged: the thread runtime (ranks are threads), the
process runtime (ranks are forked OS processes talking through shared
memory), and — for the collectives it implements functionally — the
virtual runtime.  The tests are written in *process-safe* style: ranks
never mutate shared Python state, every ordering claim is enforced with
a barrier or a message, and wall-clock assertions use the machine-wide
monotonic clock.

``test_runtime_thread.py`` / ``test_runtime_proc.py`` keep only the
semantics unique to one backend (fault injection, shared-memory rings,
child reaping); everything two backends must *agree* on lives here.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import (
    BarrierBrokenError,
    BarrierStallError,
    CommunicatorError,
    RevokedError,
    RuntimeAbort,
    StallError,
    WireIntegrityError,
)
from repro.runtime import ANY_SOURCE, ANY_TAG, make_world
from repro.runtime.shm import fork_available

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

RUNTIMES_UNDER_TEST = [
    "thread",
    pytest.param(
        "proc",
        marks=pytest.mark.skipif(
            not fork_available(), reason="process runtime needs the fork start method"
        ),
    ),
]


@pytest.fixture(params=RUNTIMES_UNDER_TEST)
def runtime(request) -> str:
    """The backend name under test; parametrizes every contract test."""
    return request.param


def spmd(runtime: str, nranks: int, fn, *, timeout: float = 60.0, **kwargs):
    """Fresh world per call (the process world is one-shot)."""
    return make_world(runtime, nranks, timeout=timeout, **kwargs).run(fn)


def ring_exchange(comm, rounds: int = 200) -> None:
    """Pass a token round the ring — the traffic a fault plan interrupts
    (three transport operations per rank per round)."""
    me = comm.rank
    for i in range(rounds):
        req = comm.isend(np.array([i, me]), (me + 1) % comm.size, tag=5)
        comm.recv((me - 1) % comm.size, tag=5)
        req.wait()


# -- point to point ---------------------------------------------------------------


class TestPointToPointContract:
    def test_send_recv(self, runtime):
        def kernel(comm):
            if comm.rank == 0:
                comm.send(np.arange(5.0), dest=1, tag=7)
                return None
            return comm.recv(source=0, tag=7)

        res = spmd(runtime, 2, kernel)
        assert np.array_equal(res[1], np.arange(5.0))

    def test_send_is_buffered(self, runtime):
        """Mutating the send buffer after send() must not affect receiver."""

        def kernel(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.send(buf, dest=1, tag=1)
                buf[:] = -1.0
                # Only now release the receiver: the mutation happened
                # strictly before the recv, on every backend.
                comm.send(np.zeros(0), dest=1, tag=2)
                return None
            comm.recv(source=0, tag=2)
            return comm.recv(source=0, tag=1)

        res = spmd(runtime, 2, kernel)
        assert np.array_equal(res[1], np.ones(4))

    def test_dtype_and_shape_preserved(self, runtime):
        """Transport is typed: dtype and shape survive the wire."""

        def kernel(comm):
            if comm.rank == 0:
                comm.send(np.arange(6, dtype=np.int32).reshape(2, 3), dest=1)
                comm.send(np.array([1 + 2j, 3 - 4j], dtype=np.complex128), dest=1)
                return None
            a = comm.recv(source=0)
            b = comm.recv(source=0)
            return (a.dtype.str, a.shape, b.dtype.str, complex(b[1]))

        res = spmd(runtime, 2, kernel)
        assert res[1] == ("<i4", (2, 3), "<c16", (3 - 4j))

    def test_tag_matching(self, runtime):
        def kernel(comm):
            if comm.rank == 0:
                comm.send(np.array([1.0]), dest=1, tag=1)
                comm.send(np.array([2.0]), dest=1, tag=2)
                return None
            b = comm.recv(source=0, tag=2)  # out of arrival order, by tag
            a = comm.recv(source=0, tag=1)
            return (float(a[0]), float(b[0]))

        res = spmd(runtime, 2, kernel)
        assert res[1] == (1.0, 2.0)

    def test_non_overtaking_same_tag(self, runtime):
        def kernel(comm):
            if comm.rank == 0:
                for k in range(10):
                    comm.send(np.array([float(k)]), dest=1, tag=0)
                return None
            return [float(comm.recv(source=0, tag=0)[0]) for _ in range(10)]

        res = spmd(runtime, 2, kernel)
        assert res[1] == [float(k) for k in range(10)]

    def test_any_source_any_tag(self, runtime):
        def kernel(comm):
            if comm.rank == 0:
                got = [comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(comm.size - 1)]
                return sorted(float(g[0]) for g in got)
            comm.send(np.array([float(comm.rank)]), dest=0, tag=comm.rank)
            return None

        res = spmd(runtime, 4, kernel)
        assert res[0] == [1.0, 2.0, 3.0]

    def test_isend_irecv(self, runtime):
        def kernel(comm):
            peer = 1 - comm.rank
            sreq = comm.isend(np.full(3, comm.rank), dest=peer)
            rreq = comm.irecv(source=peer)
            data = rreq.wait()
            sreq.wait()
            return float(data[0])

        res = spmd(runtime, 2, kernel)
        assert res == [1.0, 0.0]

    def test_waitall(self, runtime):
        def kernel(comm):
            reqs = [comm.irecv(source=s) for s in range(comm.size) if s != comm.rank]
            for d in range(comm.size):
                if d != comm.rank:
                    comm.send(np.array([float(comm.rank)]), dest=d)
            vals = [r.wait() for r in reqs]
            return sorted(float(v[0]) for v in vals)

        res = spmd(runtime, 3, kernel)
        assert res[0] == [1.0, 2.0]

    def test_self_send_recv(self, runtime):
        def kernel(comm):
            comm.send(np.array([41.0 + comm.rank]), dest=comm.rank, tag=3)
            return float(comm.recv(source=comm.rank, tag=3)[0])

        res = spmd(runtime, 2, kernel)
        assert res == [41.0, 42.0]

    def test_invalid_rank_rejected(self, runtime):
        def kernel(comm):
            comm.send(np.zeros(1), dest=99)

        with pytest.raises(CommunicatorError):
            spmd(runtime, 2, kernel)

    def test_recv_timeout_detects_deadlock(self, runtime):
        def kernel(comm):
            if comm.rank == 1:
                comm.recv(source=0)  # never sent

        with pytest.raises((CommunicatorError, RuntimeAbort)):
            spmd(runtime, 2, kernel, timeout=0.4)

    def test_recv_explicit_timeout_is_stall_error(self, runtime):
        """A per-call deadline turns into a StallError on the calling rank."""

        def kernel(comm):
            if comm.rank == 1:
                try:
                    comm.recv(source=0, timeout=0.2)
                except StallError:
                    return "stalled"
                return "no error"
            time.sleep(0.5)  # never send; outlive the peer's deadline
            return None

        res = spmd(runtime, 2, kernel, timeout=30.0)
        assert res[1] == "stalled"


class TestRequestProbeContract:
    """Regression: ``Request.test()`` is a real completion probe.

    It must be False before the matching send exists, flip to True once
    the peer's message arrives — *before* any ``wait()`` — and must not
    consume the message (``wait()`` still returns the data).
    """

    def test_probe_flips_after_peer_sends(self, runtime):
        def kernel(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=5)
                assert req.test() is False  # peer has not sent yet
                comm.barrier()  # release the sender
                deadline = time.monotonic() + 30.0
                while not req.test():
                    if time.monotonic() > deadline:
                        raise AssertionError("test() never became true")
                    time.sleep(0.002)
                assert req.test() is True  # probing does not consume
                return float(req.wait()[0])
            comm.barrier()
            comm.send(np.array([7.5]), dest=0, tag=5)
            return None

        res = spmd(runtime, 2, kernel)
        assert res[0] == 7.5

    def test_probe_respects_tag(self, runtime):
        def kernel(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=9)
                comm.barrier()
                comm.recv(source=1, tag=8)  # wrong-tag message has arrived
                assert req.test() is False  # ...and must not satisfy tag 9
                comm.barrier()  # release the tag-9 send
                return float(req.wait()[0])
            comm.barrier()
            comm.send(np.array([1.0]), dest=0, tag=8)
            comm.barrier()
            comm.send(np.array([2.0]), dest=0, tag=9)
            return None

        res = spmd(runtime, 2, kernel)
        assert res[0] == 2.0

    def test_completed_isend_tests_true(self, runtime):
        def kernel(comm):
            peer = 1 - comm.rank
            req = comm.isend(np.zeros(1), dest=peer)
            ok = req.test()
            comm.recv(source=peer)
            return ok

        res = spmd(runtime, 2, kernel)
        assert res == [True, True]


# -- collectives ------------------------------------------------------------------


class TestCollectivesContract:
    def test_barrier_orders_wallclock(self, runtime):
        """No rank leaves the barrier before every rank has entered it.

        Uses the machine-wide monotonic clock instead of a shared Python
        list so the assertion is valid across processes too.
        """

        def kernel(comm):
            if comm.rank == 0:
                time.sleep(0.15)
            entered = time.monotonic()
            comm.barrier()
            left = time.monotonic()
            return (entered, left)

        res = spmd(runtime, 3, kernel)
        latest_entry = max(entered for entered, _ in res)
        earliest_exit = min(left for _, left in res)
        assert earliest_exit >= latest_entry

    def test_bcast(self, runtime):
        def kernel(comm):
            data = {"x": 42, "arr": np.arange(3.0)} if comm.rank == 0 else None
            got = comm.bcast(data, root=0)
            return (got["x"], got["arr"].tolist())

        res = spmd(runtime, 4, kernel)
        assert all(r == (42, [0.0, 1.0, 2.0]) for r in res)

    def test_bcast_nonzero_root(self, runtime):
        def kernel(comm):
            data = "payload" if comm.rank == 2 else None
            return comm.bcast(data, root=2)

        res = spmd(runtime, 3, kernel)
        assert res == ["payload"] * 3

    def test_gather(self, runtime):
        def kernel(comm):
            return comm.gather(comm.rank * 10, root=2)

        res = spmd(runtime, 4, kernel)
        assert res[2] == [0, 10, 20, 30]
        assert res[0] is None

    def test_allgather(self, runtime):
        def kernel(comm):
            return comm.allgather(comm.rank**2)

        res = spmd(runtime, 4, kernel)
        assert all(r == [0, 1, 4, 9] for r in res)

    def test_alltoallv_reference(self, runtime):
        def kernel(comm):
            send = [np.full(d + 1, comm.rank * 100 + d, dtype=np.float64) for d in range(comm.size)]
            recv = comm.alltoallv(send)
            return [
                (len(recv[s]), float(recv[s][0]) if len(recv[s]) else None)
                for s in range(comm.size)
            ]

        res = spmd(runtime, 3, kernel)
        for me, row in enumerate(res):
            for s, (length, head) in enumerate(row):
                assert length == me + 1
                assert head == s * 100 + me

    def test_alltoallv_none_entries(self, runtime):
        def kernel(comm):
            send = [None] * comm.size
            send[(comm.rank + 1) % comm.size] = np.array([float(comm.rank)])
            recv = comm.alltoallv(send)
            src = (comm.rank - 1) % comm.size
            return float(recv[src][0]), sum(len(r) for i, r in enumerate(recv) if i != src)

        res = spmd(runtime, 4, kernel)
        for me, (val, rest) in enumerate(res):
            assert val == float((me - 1) % 4)
            assert rest == 0

    def test_alltoallv_all_empty(self, runtime):
        def kernel(comm):
            recv = comm.alltoallv([np.zeros(0)] * comm.size)
            return [len(r) for r in recv]

        res = spmd(runtime, 3, kernel)
        assert all(row == [0, 0, 0] for row in res)

    def test_alltoallv_wrong_length_rejected(self, runtime):
        def kernel(comm):
            comm.alltoallv([np.zeros(1)] * (comm.size + 1))

        with pytest.raises(CommunicatorError):
            spmd(runtime, 2, kernel)


# -- one-sided windows -------------------------------------------------------------


class TestWindowContract:
    def test_put_fence_local_view(self, runtime):
        def kernel(comm):
            win = comm.win_create(8)
            win.fence()
            win.put(np.full(8, comm.rank + 1, dtype=np.uint8), (comm.rank + 1) % comm.size)
            win.fence()
            got = int(win.local_view()[0])
            win.free()
            return got

        res = spmd(runtime, 4, kernel)
        assert res == [4, 1, 2, 3]  # each rank sees its left neighbour's put

    def test_put_offset_and_bounds(self, runtime):
        def kernel(comm):
            win = comm.win_create(16)
            win.fence()
            if comm.rank == 0:
                win.put(np.full(4, 9, dtype=np.uint8), 1, offset=12)
            win.fence()
            view = win.local_view().copy()
            win.free()
            return view.tolist()

        res = spmd(runtime, 2, kernel)
        assert res[1] == [0] * 12 + [9] * 4

    def test_put_strided_nd_source_at_unaligned_offset(self, runtime):
        """A non-contiguous N-d source goes to the window as it is — the
        target holds its C-order bytes — at any byte offset."""
        block = np.arange(4 * 6 * 5).reshape(4, 6, 5) * (1.0 + 0.5j)
        box = block[1:3, ::2, 1:4]
        assert not box.flags.c_contiguous

        def kernel(comm):
            win = comm.win_create(5 + box.nbytes + 3)
            win.fence()
            if comm.rank == 0:
                win.put(box, 1, offset=5)
            win.fence()
            view = win.local_view()
            got = view[5 : 5 + box.nbytes].copy().view(np.complex128).reshape(box.shape)
            untouched = (int(view[:5].sum()), int(view[5 + box.nbytes :].sum()))
            win.free()
            return got, untouched

        got, untouched = spmd(runtime, 2, kernel)[1]
        assert np.array_equal(got, box) and untouched == (0, 0)

    def test_strided_put_out_of_bounds_raises(self, runtime):
        from repro.errors import WindowError

        box = np.arange(64.0).reshape(8, 8)[::2, ::2]  # 16 values, 128 B

        def kernel(comm):
            win = comm.win_create(128)
            win.fence()
            outcomes = []
            for offset in (0, 1, -1):
                try:
                    win.put(box, comm.rank, offset=offset)
                    outcomes.append("ok")
                except WindowError:
                    outcomes.append("bounds")
            win.fence()
            win.free()
            return outcomes

        assert spmd(runtime, 2, kernel) == [["ok", "bounds", "bounds"]] * 2

    def test_reserve_writes_in_place_what_the_target_reads_after_a_fence(self, runtime):
        """A reservation is the target's own bytes: what is produced
        through the view — by a ufunc with ``out=``, at an unaligned
        offset — is what ``local_view`` holds after the fence."""
        values = np.arange(24.0).reshape(4, 6)[:, ::2]  # strided source

        def kernel(comm):
            win = comm.win_create(3 + 4 * values.size + 9)
            win.fence()
            with win.reserve((comm.rank + 1) % comm.size, 3, 4 * values.size + 9) as slot:
                assert slot.view.dtype == np.uint8 and slot.written == slot.view.size
                room = slot.view[: 4 * values.size].view(np.float32).reshape(values.shape)
                np.add(values, comm.rank, out=room, casting="same_kind")
                slot.written = 4 * values.size
            win.fence()
            view = win.local_view()
            got = view[3 : 3 + 4 * values.size].copy().view(np.float32).reshape(values.shape)
            untouched = int(view[:3].sum()) + int(view[3 + 4 * values.size :].sum())
            win.free()
            return got, untouched

        for rank, (got, untouched) in enumerate(spmd(runtime, 3, kernel)):
            assert np.array_equal(got, (values + (rank - 1) % 3).astype(np.float32))
            assert untouched == 0

    def test_reserve_out_of_range_or_after_free_raises(self, runtime):
        from repro.errors import WindowError

        def kernel(comm):
            win = comm.win_create(64)
            win.fence()
            outcomes = []
            for target, offset, nbytes in [(0, 0, 64), (0, 1, 64), (0, -1, 8), (0, 8, -1),
                                           (comm.size, 0, 8), (1, 64, 0)]:
                try:
                    with win.reserve(target, offset, nbytes) as slot:
                        outcomes.append(slot.view.size)
                except (WindowError, CommunicatorError) as exc:
                    outcomes.append(type(exc).__name__)
            win.fence()
            win.free()
            try:
                win.reserve(0, 0, 8)
            except WindowError:
                outcomes.append("freed")
            return outcomes

        expected = [64, "WindowError", "WindowError", "WindowError", "CommunicatorError", 0, "freed"]
        assert spmd(runtime, 2, kernel) == [expected] * 2

    def test_reserve_holds_the_target_lock_for_its_scope(self, runtime):
        """Two origins fill the same bytes of one target, each in two
        steps with a pause between: per-target exclusion means the slot
        ends up wholly one writer's, never a mix."""

        def kernel(comm):
            win = comm.win_create(4096)
            win.fence()
            if comm.rank > 0:
                with win.reserve(0, 0, 4096) as slot:
                    slot.view[:2048] = comm.rank
                    time.sleep(0.05)
                    slot.view[2048:] = comm.rank
            win.fence()
            seen = sorted(set(win.local_view().tolist()))
            win.free()
            return seen

        assert spmd(runtime, 3, kernel)[0] in ([1], [2])

    def test_process_faults_fire_on_reserve_entry(self, runtime):
        """``kill`` lands in the preamble of the reservation (the beacon
        and fault hook a put runs), before the lock is taken.  Rank 1
        reserves only once rank 0 has written and said so: a thread
        rank's kill revokes the world at once."""
        from repro.faults import FaultPlan, FaultRule

        def kernel(comm, probe):
            win = comm.win_create(16)
            win.fence()
            if comm.rank == 0:
                if not probe:
                    with win.reserve(0, 0, 16) as slot:
                        slot.view[...] = 1
                comm.send(np.zeros(0), 1, tag=9)
                return int(win.local_view().sum())
            comm.recv(0, tag=9)
            if probe:
                return comm.world.injector._ops.get(("kill", comm.rank), 0)
            with win.reserve(comm.rank, 0, 16) as slot:
                slot.view[...] = 1
            return int(win.local_view().sum())

        never = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=10**9)])
        after = make_world(runtime, 2, faults=never).run(kernel, True)[1]
        faults = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=after)])
        world = make_world(runtime, 2, timeout=10.0, faults=faults, suspect_after=0.3)
        results = world.run(kernel, False)
        assert results[0] == 16 and results[1] is None  # rank 1 died entering; rank 0 wrote
        if runtime == "thread":
            (fired,) = [e for e in world.injector.log if e["kind"] == "kill"]
            assert fired["at"] == "put" and fired["rank"] == 1

    def test_release_is_local_and_final(self, runtime):
        """``release`` is ``free`` without the barrier: one rank lets go
        while its peer still uses its own handle."""
        from repro.errors import WindowError

        def kernel(comm):
            win = comm.win_create(4)
            win.fence()
            if comm.rank == 0:
                win.release()
                win.release()  # idempotent
                try:
                    win.local_view()
                except WindowError:
                    comm.send(np.zeros(1), 1, tag=3)
                    return "released"
            comm.recv(0, tag=3)  # rank 0 is gone from the window by now
            win.put(np.full(4, 7, dtype=np.uint8), 1)
            got = win.local_view().tolist()
            win.release()
            return got

        assert spmd(runtime, 2, kernel) == ["released", [7, 7, 7, 7]]

    def test_windows_are_independent(self, runtime):
        """Two live windows must not alias each other's buffers."""

        def kernel(comm):
            a = comm.win_create(4)
            b = comm.win_create(4)
            a.fence()
            b.fence()
            if comm.rank == 0:
                a.put(np.full(4, 1, dtype=np.uint8), 1)
                b.put(np.full(4, 2, dtype=np.uint8), 1)
            a.fence()
            b.fence()
            got = (int(a.local_view()[0]), int(b.local_view()[0]))
            a.free()
            b.free()
            return got

        res = spmd(runtime, 2, kernel)
        assert res[1] == (1, 2)


# -- error propagation --------------------------------------------------------------


class TestErrorContract:
    def test_exception_propagates_and_unblocks_peers(self, runtime):
        def kernel(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            comm.recv(source=0)  # would deadlock without abort

        with pytest.raises(ValueError, match="boom"):
            spmd(runtime, 2, kernel, timeout=10.0)

    def test_abort_wakes_a_blocked_recv_on_the_notify(self, runtime, monkeypatch):
        """The rings hold no abort state of their own; an abort notifies
        every ring, and the woken receiver's progress callback raises.
        With the ring wait's quantum stretched to 5 s, only the notify can
        be what ends the run in time."""
        from repro.runtime.shm import ShmRing

        monkeypatch.setitem(ShmRing.wait.__kwdefaults__, "quantum", 5.0)

        def kernel(comm):
            if comm.rank == 0:
                time.sleep(0.2)  # rank 1 is parked on its ring by now
                raise ValueError("boom")
            comm.recv(source=0, tag=1)

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="boom"):
            spmd(runtime, 2, kernel, timeout=20.0)
        assert time.monotonic() - t0 < 2.5

    def test_explicit_abort(self, runtime):
        def kernel(comm):
            if comm.rank == 1:
                comm.abort("giving up")
            comm.barrier()

        with pytest.raises((RuntimeAbort, CommunicatorError)):
            spmd(runtime, 2, kernel, timeout=10.0)

    def test_blocked_peers_get_the_abort_not_the_broken_barrier(self, runtime):
        """Two ranks wait in a barrier and one in a receive when the
        fourth aborts: each of them unwinds with the abort and its reason
        — never the "barrier broken" echo, never its own deadline."""

        def kernel(comm):
            try:
                if comm.rank == 3:
                    time.sleep(0.3)  # the others are blocked by now
                    comm.abort("giving up")
                elif comm.rank == 2:
                    comm.recv(source=3, tag=1)
                else:
                    comm.barrier()
            except RuntimeAbort as exc:
                return str(exc)
            return "passed"

        t0 = time.monotonic()
        res = spmd(runtime, 4, kernel, timeout=20.0)
        assert time.monotonic() - t0 < 10.0
        assert res == ["rank 3: giving up"] * 3 + ["giving up"]

    def test_echoes_are_told_by_type_not_by_message(self):
        from repro.runtime.base import is_echo

        assert is_echo(BarrierBrokenError("barrier broken (timeout or aborted peer)"))
        assert is_echo(BarrierStallError("barrier broken (rank timed out after 1.000s)"))
        assert is_echo(RuntimeAbort("x")) and is_echo(RevokedError("x"))
        assert not is_echo(StallError("rank 0: recv(source=rank 1, tag=1) timed out"))
        assert not is_echo(CommunicatorError("my kernel said: barrier broken"))
        assert not is_echo(ValueError("boom"))

    def test_world_rejects_zero_ranks(self, runtime):
        with pytest.raises(CommunicatorError):
            make_world(runtime, 0)

    def test_results_in_rank_order(self, runtime):
        res = spmd(runtime, 5, lambda comm: comm.rank * 2)
        assert res == [0, 2, 4, 6, 8]


# -- control-plane hardening ---------------------------------------------------------


class _EvilPayload:
    """Pickles to a call of a global outside the control-plane allow-list."""

    def __reduce__(self):
        import os

        return (os.getcwd, ())


class TestControlPlaneHardening:
    """bcast/gather deserialize through the restricted unpickler.

    A payload whose pickle stream names a global outside the allow-list
    (here ``os.getcwd`` — harmless if it *were* executed, which is the
    point of using it) must be rejected with
    :class:`~repro.errors.WireIntegrityError` on the deserializing rank,
    on every backend.
    """

    def test_malicious_bcast_rejected(self, runtime):
        def kernel(comm):
            payload = _EvilPayload() if comm.rank == 0 else None
            comm.bcast(payload, root=0)

        with pytest.raises(WireIntegrityError, match="disallowed global"):
            spmd(runtime, 2, kernel, timeout=10.0)

    def test_malicious_gather_rejected(self, runtime):
        def kernel(comm):
            comm.gather(_EvilPayload() if comm.rank == 1 else comm.rank, root=0)

        with pytest.raises(WireIntegrityError, match="disallowed global"):
            spmd(runtime, 2, kernel, timeout=10.0)

    def test_benign_numpy_payload_allowed(self, runtime):
        """The allow-list must still admit the payloads the library uses."""

        def kernel(comm):
            data = (
                {"arr": np.arange(4.0), "scalar": np.float64(3.5), "set": {1, 2}}
                if comm.rank == 0
                else None
            )
            got = comm.bcast(data, root=0)
            return (got["arr"].sum(), float(got["scalar"]), sorted(got["set"]))

        res = spmd(runtime, 2, kernel)
        assert all(r == (6.0, 3.5, [1, 2]) for r in res)


# -- ULFM failure handling (agree / revoke / shrink) ----------------------------------


class TestUlfmContract:
    """Both runtimes implement the same ULFM analogue semantics.

    The thread backend injects death into rank threads; the process
    backend delivers a *real* ``SIGKILL`` to the victim's forked pid —
    the contract (revocation surfaces as :class:`RevokedError`, agree
    decides one bitmap, shrink yields a dense working communicator with
    the survivor map in ``parent_ranks``) must be identical.
    """

    def test_agree_full_bitmap_when_all_alive(self, runtime):
        def kernel(comm):
            return comm.agree()

        res = spmd(runtime, 3, kernel)
        assert res == [0b111] * 3

    def test_agree_decides_and_of_contributions(self, runtime):
        def kernel(comm):
            # Rank 1 claims rank 2 is gone; everyone else contributes the
            # full view.  The decision is the pessimistic AND, identical
            # on every rank.
            mine = 0b011 if comm.rank == 1 else 0b111
            return comm.agree(mine)

        res = spmd(runtime, 3, kernel)
        assert res == [0b011] * 3

    def test_revoke_unblocks_peers_with_revoked_error(self, runtime):
        def kernel(comm):
            if comm.rank == 0:
                comm.revoke("contract test")
                return "revoked-by-me"
            try:
                for i in range(1000):
                    comm.recv(0, tag=99)  # rank 0 never sends: must not hang
            except RevokedError as exc:
                return "revoked" if "contract test" in str(exc) else f"odd: {exc}"
            return "not revoked"

        res = spmd(runtime, 3, kernel, timeout=30.0)
        assert res[0] == "revoked-by-me"
        assert res[1:] == ["revoked"] * 2

    def test_kill_then_shrink_yields_working_comm(self, runtime):
        from repro.faults import FaultPlan, FaultRule

        victim = 1

        def kernel(comm):
            try:
                ring_exchange(comm)
            except (RevokedError, StallError):
                sub = comm.shrink()
                gathered = sub.allgather(sub.parent_ranks[sub.rank])
                report = comm.failure_report()
                return (
                    sub.size,
                    tuple(sub.parent_ranks),
                    tuple(gathered),
                    report.failed_ranks,
                    sorted(report.survivors),
                )
            return "victim-finished"  # must be unreachable for survivors

        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=victim, after=8)])
        res = spmd(runtime, 4, kernel, timeout=30.0, faults=plan, suspect_after=0.5)
        assert res[victim] is None  # the dead rank returns nothing
        survivors = [res[r] for r in range(4) if r != victim]
        expected = (3, (0, 2, 3), (0, 2, 3), [victim], [0, 2, 3])
        assert survivors == [expected] * 3

    def test_shrunk_comm_moves_data(self, runtime):
        from repro.faults import FaultPlan, FaultRule

        def kernel(comm):
            try:
                for i in range(200):
                    req = comm.isend(
                        np.full(8, comm.rank, dtype=np.float64),
                        (comm.rank + 1) % comm.size,
                        tag=6,
                    )
                    comm.recv((comm.rank - 1) % comm.size, tag=6)
                    req.wait()
            except (RevokedError, StallError):
                sub = comm.shrink()
                # Point-to-point + barrier + alltoallv on the shrunk comm.
                peer = (sub.rank + 1) % sub.size
                req = sub.isend(np.arange(4) + sub.rank, peer, tag=7)
                got = sub.recv((sub.rank - 1) % sub.size, tag=7)
                req.wait()
                sub.barrier()
                rows = sub.alltoallv(
                    [np.array([sub.rank * 10 + d]) for d in range(sub.size)]
                )
                return (int(got[0]), [int(r[0]) for r in rows])
            return "victim-finished"

        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=2, after=8)])
        res = spmd(runtime, 3, kernel, timeout=30.0, faults=plan, suspect_after=0.5)
        assert res[2] is None
        # Shrunk ranks 0,1 (old 0,1): recv carries the predecessor's rank,
        # alltoallv rows carry sender*10+dest.
        assert res[0] == (1, [0, 10])
        assert res[1] == (0, [1, 11])


    def test_agreement_rounds_are_bounded_per_generation(self, runtime):
        """16 slots per generation; the 17th round is one typed error."""

        def kernel(comm):
            decided = [comm.agree() for _ in range(16)]
            try:
                comm.agree()
            except CommunicatorError as exc:
                return decided, "rounds exhausted" in str(exc)
            return decided, False

        assert spmd(runtime, 2, kernel) == [([0b11] * 16, True)] * 2

    def test_hang_is_detected_and_classified(self, runtime):
        """A wedged rank — alive, silent — is declared ``deadlock`` by its
        blocked peers within 2 x ``suspect_after``; they wake with
        ``RevokedError``, not ``StallError`` after ``timeout``."""
        from repro.faults import FaultPlan, FaultRule

        suspect = 0.3

        def kernel(comm):
            try:
                ring_exchange(comm)
            except RevokedError:
                (failure,) = comm.failure_report().failures
                return (failure.rank, failure.kind, failure.classification, failure.last_beat_age)
            except StallError:
                return "sat out the timeout"
            return "finished"

        plan = FaultPlan(rules=[FaultRule(kind="hang", rank=1, after=8)])
        t0 = time.monotonic()
        res = spmd(runtime, 3, kernel, timeout=8.0, faults=plan, suspect_after=suspect)
        assert time.monotonic() - t0 < 8.0
        assert res[1] is None
        for rank, kind, classification, silence in (res[0], res[2]):
            assert (rank, kind, classification) == (1, "hang", "deadlock")
            assert suspect < silence <= 2 * suspect

    def test_contributor_dying_mid_agreement_drops_out(self, runtime):
        from repro.faults import FaultPlan, FaultRule

        def kernel(comm):
            if comm.rank == 2:
                time.sleep(0.3)  # the others already wait for this contribution
                comm.barrier()  # its first transport operation: killed here
                return "unreachable"
            return comm.agree()

        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=2, after=0)])
        res = spmd(runtime, 3, kernel, timeout=20.0, faults=plan, suspect_after=0.5)
        assert res == [0b011, 0b011, None]  # decided without it, identically

    def test_two_sequential_failures(self, runtime):
        """Shrink, lose another rank, shrink again: a working communicator
        and one report with both failures, in original-world ranks."""
        from repro.faults import FaultPlan, FaultRule

        def kernel(comm):
            try:
                ring_exchange(comm)
            except (RevokedError, StallError):
                sub = comm.shrink()  # original ranks (0, 2, 3)
            else:
                return "victim-finished"
            if sub.rank == sub.size - 1:
                # Second episode: this survivor goes silent — no operation,
                # no beacon — until its peers have declared it.
                while sub.world.revoked is None:
                    time.sleep(0.01)
                return "lost"
            try:
                sub.barrier()
            except RevokedError:
                last = sub.shrink()
            else:
                return "the barrier passed without its third member"
            gathered = last.allgather(last.parent_ranks[last.rank])
            report = comm.failure_report()
            second = report.failures[1]
            return (
                last.size,
                tuple(last.parent_ranks),
                tuple(gathered),
                report.failed_ranks,
                (second.kind, second.classification),
                sub.failure_report().failed_ranks,  # the same failure, in sub's ranks
            )

        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=8)])
        res = spmd(runtime, 4, kernel, timeout=30.0, faults=plan, suspect_after=0.5)
        assert res[1] is None and res[3] == "lost"
        expected = (2, (0, 2), (0, 2), [1, 3], ("hang", "deadlock"), [2])
        assert [res[0], res[2]] == [expected] * 2

    def test_failure_report_carries_the_whole_recovery_timeline(self, runtime):
        from repro.faults import FaultPlan, FaultRule
        from repro.resilience import ResilientFft3d

        shape, p = (8, 8, 8), 4
        fft = ResilientFft3d(shape, p)
        rng = np.random.default_rng(5)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def kernel(comm):
            out = fft.run_spmd(comm, fft.plan.scatter(data)[comm.rank])
            report = comm.failure_report()
            return out.recovered, report.failed_ranks, report.phase_sequence_complete()

        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=8)])
        res = spmd(runtime, p, kernel, timeout=20.0, faults=plan, suspect_after=0.5)
        assert res[1] is None
        assert [res[0], res[2], res[3]] == [(True, [1], True)] * 3


class TestShrunkBarrierContract:
    """After a shrink the survivors' barrier is the one barrier, in the
    row of their generation: it synchronises, it carries a plan's
    fences, and a survivor that leaves it breaks it for its peers."""

    @staticmethod
    def _survive(comm):
        """Lose rank 1 of the world, return the survivors' communicator
        (``None`` on the victim, which never gets here)."""
        try:
            ring_exchange(comm)
        except (RevokedError, StallError):
            return comm.shrink()
        return None

    @staticmethod
    def _kill_rank_1():
        from repro.faults import FaultPlan, FaultRule

        return FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=8)])

    def test_barrier_and_plan_window_fence_on_a_shrunk_communicator(self, runtime):
        from repro.collectives import make_exchange

        n, epochs = 8, 5

        def kernel(comm):
            sub = self._survive(comm)
            if sub is None:
                return "victim-finished"
            # Lockstep through the barrier: a token goes round only after
            # everyone passed barrier k, and is read before barrier k + 1.
            for k in range(40):
                sub.barrier()
                sub.send(np.array([k]), (sub.rank + 1) % sub.size, tag=3)
                assert int(sub.recv((sub.rank - 1) % sub.size, tag=3)[0]) == k
            # A bound exchange: one fence per call on the survivors' window.
            op = make_exchange(sub, method="osc")
            op.table = op.slot_table(np.full((sub.size, sub.size), n), 16)
            op.transport.grow([op.table])
            got = []
            for epoch in range(epochs):
                recv = [np.empty(n, complex) for _ in range(sub.size)]
                send = [np.full(n, 100 * epoch + 10 * sub.rank + d, complex) for d in range(sub.size)]
                op.move(send, lambda: recv)
                got.append([int(r[0].real) for r in recv])
            op.transport.free()
            return sub.size, got

        res = spmd(runtime, 4, kernel, timeout=30.0, faults=self._kill_rank_1(), suspect_after=0.5)
        assert res[1] is None
        for new_rank, old_rank in enumerate((0, 2, 3)):
            size, got = res[old_rank]
            assert size == 3
            assert got == [[100 * e + 10 * s + new_rank for s in range(3)] for e in range(5)]

    def test_a_survivor_leaving_a_shrunk_barrier_breaks_it_for_its_peers(self, runtime):
        """Three survivors, one of which never joins.  The first to have
        entered is the first whose deadline passes (a stall, classified);
        its departure releases the one that entered later at once, with
        the typed echo — it does not wait out a deadline of its own."""
        timeout = 2.0

        def stay_busy(sub, seconds):  # visibly alive: every operation beacons
            until = time.monotonic() + seconds
            while time.monotonic() < until:
                sub.send(np.zeros(1), sub.rank, tag=9)
                sub.recv(sub.rank, tag=9)
                time.sleep(0.01)

        def kernel(comm):
            sub = self._survive(comm)
            if sub is None:
                return "victim-finished"
            if sub.rank == 2:
                stay_busy(sub, 1.5 * timeout)
                return "never joined"
            if sub.rank == 1:
                stay_busy(sub, timeout / 2)
            t0 = time.monotonic()
            try:
                sub.barrier()
            except BarrierBrokenError as exc:
                stalled = isinstance(exc, StallError)
                return stalled, getattr(exc, "classification", None), time.monotonic() - t0
            return "the barrier passed without its third member"

        res = spmd(runtime, 4, kernel, timeout=timeout, faults=self._kill_rank_1(), suspect_after=0.3)
        assert res[1] is None and res[3] == "never joined"
        stalled, classification, waited = res[0]
        # (the peer blocked beside it may already have left when it is classified)
        assert stalled and classification in ("straggler", "alive") and waited >= timeout
        stalled, classification, waited = res[2]
        assert not stalled and classification is None
        assert waited < 0.85 * timeout  # entered at timeout / 2, released when rank 0 left


class TestStallContract:
    """A deadline miss says the same thing on both runtimes: the
    ``FailureReport`` and the watchdog's classification of the awaited
    peer, from the blocked-op rows every rank publishes."""

    SUSPECT = 0.4

    def test_late_but_beaconing_peer_is_a_straggler(self, runtime):
        def kernel(comm):
            if comm.rank == 0:
                try:
                    comm.recv(source=1, tag=1, timeout=1.0)
                except StallError as exc:
                    verdict = (exc.classification, exc.report.failed_ranks)
                comm.recv(source=1, tag=1)  # it does arrive, late
                return verdict
            if comm.rank == 1:  # waits on rank 2 in turn: blocked, beaconing
                comm.send(comm.recv(source=2, tag=1), 0, tag=1)
                return None
            busy_until = time.monotonic() + 1.6  # rank 2 works on: every op beacons
            while time.monotonic() < busy_until:
                comm.send(np.zeros(1), 2, tag=9)
                comm.recv(2, tag=9)
                time.sleep(0.01)
            comm.send(np.zeros(1), 1, tag=1)
            return None

        res = spmd(runtime, 3, kernel, timeout=30.0, suspect_after=self.SUSPECT)
        assert res[0] == ("straggler", [])

    def test_everyone_blocked_past_the_deadline_is_a_deadlock(self, runtime):
        def kernel(comm):
            peer = 1 - comm.rank
            comm.barrier()
            if comm.rank == 1:
                comm.recv(source=peer, tag=1)  # until rank 0 breaks the cycle
                return None
            try:
                comm.recv(source=peer, tag=1, timeout=1.0)
            except StallError as exc:
                verdict = (exc.classification, exc.report.failed_ranks)
            comm.send(np.zeros(1), peer, tag=1)
            return verdict

        res = spmd(runtime, 2, kernel, timeout=30.0, suspect_after=self.SUSPECT)
        assert res[0] == ("deadlock", [])  # a wait cycle; nobody was declared dead

    def test_barrier_deadline_miss_is_a_stall_too(self, runtime):
        def kernel(comm):
            if comm.rank == 1:  # never joins, but is visibly alive
                busy_until = time.monotonic() + 0.9
                while time.monotonic() < busy_until:
                    comm.send(np.zeros(1), 1, tag=9)
                    comm.recv(1, tag=9)
                    time.sleep(0.01)
                return "busy"
            try:
                comm.barrier()
            except StallError as exc:
                return exc.classification, exc.report.nranks, "barrier broken" in str(exc)
            return "the barrier passed without its second member"

        res = spmd(runtime, 2, kernel, timeout=0.6, suspect_after=5.0)
        assert res == [("alive", 2, True), "busy"]


class TestShrunkWorldCache:
    def test_same_object_within_run_fresh_across_runs(self):
        """A ThreadWorld is multi-shot: every run() epoch must get its own
        shrunk world for a given (survivor set, generation) — a stale one
        carries dead mailboxes."""
        from repro.runtime.thread_rt import ThreadWorld

        def kernel(comm):
            return id(comm.world.shrunk_world((0, 1), 1))

        world = ThreadWorld(2, timeout=10.0)
        first = world.run(kernel)
        second = world.run(kernel)
        assert first[0] == first[1]  # one shared world per survivor set...
        assert second[0] == second[1]
        assert first[0] != second[0]  # ...but never reused across runs


# -- cross-runtime differential -------------------------------------------------------


class TestCrossRuntimeDifferential:
    """Both runtimes agree on alltoallv with its definition,
    ``recv[d][s] = send[s][d]``."""

    def test_dense_alltoallv_three_ways(self, rng):
        p = 4
        send = [[rng.random(3 + (s + d) % 4) for d in range(p)] for s in range(p)]

        def kernel(comm):
            return [np.asarray(b) for b in comm.alltoallv(send[comm.rank])]

        reference = [[send[s][d] for s in range(p)] for d in range(p)]
        threaded = spmd("thread", p, kernel)
        worlds = {"thread": threaded}
        if fork_available():
            worlds["proc"] = spmd("proc", p, kernel)
        for name, got in worlds.items():
            for d in range(p):
                for s in range(p):
                    assert np.array_equal(got[d][s], reference[d][s]), (
                        f"{name} runtime disagrees with the definition at "
                        f"dest={d} src={s}"
                    )
