"""The exchange matrix: everything ``make_exchange`` builds, on both runtimes.

One object shape for every algorithm — ``op(send)``, ``op.free()``,
``op.last_stats``, ``op.last_report`` — is only worth having if every
cell of (configuration × runtime) delivers the reference exchange's
bytes and accounts for exactly what it was given.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import (
    CompressedOscAlltoallv,
    make_exchange,
    osc_alltoallv,
    pairwise_alltoallv,
)
from repro.compression import CastCodec, IdentityCodec
from repro.errors import PlanError
from repro.fft import Fft3d
from repro.fft.plan import FftStats
from repro.machine.spec import GpuSpec, MachineSpec, NetworkSpec
from repro.machine.topology import Topology
from repro.runtime import make_world
from repro.runtime.shm import fork_available
from repro.runtime.thread_rt import ThreadWorld
from repro.trace import tracing

RUNTIMES = [
    "thread",
    pytest.param(
        "proc",
        marks=pytest.mark.skipif(
            not fork_available(), reason="process runtime needs the fork start method"
        ),
    ),
]

P = 4
#: Two nodes of two ranks: the smallest machine the two-level exchange aggregates on.
TWO_NODES = Topology(
    MachineSpec(name="test", gpus_per_node=2, gpu=GpuSpec(), network=NetworkSpec()), P
)

#: name -> (make_exchange configuration, fragments per non-empty message)
CONFIGS = {
    "reference": (dict(method="reference"), 1),
    "pairwise": (dict(method="pairwise"), 1),
    "pairwise-topology": (dict(method="pairwise", topology=TWO_NODES), 1),
    "osc": (dict(method="osc"), 1),
    "identity": (dict(codec=IdentityCodec()), 1),
    "identity-chunks3": (dict(codec=IdentityCodec(), pipeline_chunks=3), 3),
    "fp32": (dict(codec=CastCodec("fp32")), 1),
    "fp32-etol": (dict(codec=CastCodec("fp32"), e_tol=1e-6), 1),
    "fp32-etol-chunks3": (dict(codec=CastCodec("fp32"), e_tol=1e-6, pipeline_chunks=3), 3),
    "two-level": (dict(codec=IdentityCodec(), variant="two-level", topology=TWO_NODES), 1),
    "two-level-fp32-chunks3": (
        dict(codec=CastCodec("fp32"), variant="two-level", topology=TWO_NODES, pipeline_chunks=3),
        3,
    ),
}


def _send(rank: int) -> list[np.ndarray | None]:
    """Uneven float64 messages in [0.5, 1.5); one ``None`` and one empty
    destination per rank, so "non-empty destinations" is not "all"."""
    rng = np.random.default_rng(40 + rank)
    send: list[np.ndarray | None] = [rng.random(5 + 3 * rank + d) + 0.5 for d in range(P)]
    send[(rank + 1) % P] = None
    send[(rank + 2) % P] = np.zeros(0)
    return send


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_reference_and_accounts_for_its_send_list(runtime: str, name: str) -> None:
    config, fragments = CONFIGS[name]
    codec = config.get("codec")

    def kernel(comm):
        send = _send(comm.rank)
        want = comm.alltoallv(send)
        op = make_exchange(comm, **config)
        try:
            got = op(send)
        finally:
            op.free()
        return want, got, op.last_stats, op.last_report.clean

    for rank, (want, got, stats, clean) in enumerate(make_world(runtime, P, timeout=60.0).run(kernel)):
        for s in range(P):
            if codec is None or codec.lossless:
                assert np.asarray(got[s]).tobytes() == want[s].tobytes(), f"{rank} <- {s}"
            else:
                bound = codec.error_bound * np.abs(want[s])
                assert got[s].shape == want[s].shape
                assert np.all(np.abs(got[s] - want[s]) <= bound), f"{rank} <- {s}"
        sizes = [c.nbytes for c in _send(rank) if c is not None and c.size]
        assert stats.messages == fragments * len(sizes)
        assert stats.logical_bytes == sum(sizes)
        if codec is None or isinstance(codec, IdentityCodec):
            assert stats.wire_bytes == sum(sizes)
        else:
            assert stats.wire_bytes == sum(sizes) // 2  # fp32 halves fp64
        assert stats.error_measured == ("e_tol" in config)
        assert clean


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("method", ["reference", "pairwise", "osc"])
def test_exact_fft_stats_equal_the_plan(runtime: str, method: str) -> None:
    """Raw exchanges used to report nothing; now an exact transform's
    totals are the plan's own message and byte counts."""
    plan = Fft3d((8, 8, 8), P)
    blocks = plan.scatter(np.random.default_rng(1).standard_normal((8, 8, 8)))

    def kernel(comm):
        stats = FftStats()
        plan.forward_spmd(comm, blocks[comm.rank], method=method, stats=stats)
        return stats.totals()

    totals = make_world(runtime, P, timeout=60.0).run(kernel)
    volume = sum(r.total_bytes(16) for r in plan.reshapes)
    assert sum(t.messages for t in totals) == sum(r.n_messages for r in plan.reshapes)
    assert sum(t.logical_bytes for t in totals) == volume
    assert sum(t.wire_bytes for t in totals) == volume
    assert all(t.clean and len(t.reports) == 4 for t in totals)


class _CountingComm:
    """Delegating ``Comm`` stand-in that counts the collectives it relays."""

    def __init__(self, comm) -> None:
        self._comm = comm
        self.calls = {"allgather": 0, "win_create": 0}

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def allgather(self, data):
        self.calls["allgather"] += 1
        return self._comm.allgather(data)

    def win_create(self, nbytes):
        self.calls["win_create"] += 1
        return self._comm.win_create(nbytes)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_compressed_window_policy_and_single_allgather(runtime: str) -> None:
    """The compressed exchange follows ``OscAlltoallv``'s window policy
    (tests/test_faults.py::TestOscWindowReuse: keep on shrink, recreate
    on growth) and a clean call costs exactly one allgather — the size
    matrix; the growth decision is a pure function of its history."""

    def kernel(comm):
        counting = _CountingComm(comm)
        op = CompressedOscAlltoallv(counting, CastCodec("fp32"), pipeline_chunks=2)
        seen = []
        try:
            for n in (64, 8, 64, 128):
                op([np.full(n, comm.rank + 0.5)] * comm.size)
                seen.append((op.transport.win, dict(counting.calls)))
        finally:
            op.free()
        (w0, _), (w1, _), (w2, _), (w3, _) = seen
        return w0 is w1, w1 is w2, w2 is w3, [calls for _, calls in seen]

    for kept_small, kept_big, kept_huge, calls in make_world(runtime, P, timeout=60.0).run(kernel):
        assert kept_small and kept_big, "a shrinking size matrix re-created the window"
        assert not kept_huge, "an outgrown window was not re-created"
        assert [c["allgather"] for c in calls] == [1, 2, 3, 4]
        assert [c["win_create"] for c in calls] == [1, 1, 1, 2]


class _WireComm(_CountingComm):
    """... that also records the size of every two-sided message it sends."""

    def __init__(self, comm) -> None:
        super().__init__(comm)
        self.sent: list[int | str] = []

    def send(self, data, dest, tag=0):
        self.sent.append(int(np.asarray(data).nbytes))
        return self._comm.send(data, dest, tag=tag)

    def isend(self, data, dest, tag=0):
        self.sent.append("isend")
        return self._comm.isend(data, dest, tag=tag)


def _compressed(comm, send, **config):
    op = make_exchange(comm, codec=CastCodec("fp32"), **config)
    try:
        return op(send)
    finally:
        op.free()


#: name -> (one-shot call, the completion rule it runs under; None: routed two-sided)
ONE_SHOT = {
    "osc": (osc_alltoallv, "fence"),
    "pairwise": (pairwise_alltoallv, "credit"),
    "compressed": (_compressed, "fence"),
    "compressed-pairwise": (lambda comm, send: _compressed(comm, send, method="pairwise"), "credit"),
    "two-level": (
        lambda comm, send: _compressed(comm, send, variant="two-level", topology=TWO_NODES),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_SHOT))
def test_one_shot_call_is_one_announcement_and_one_move(name: str) -> None:
    """A clean one-shot call is one allgather (the announcement) and the
    move a bound plan makes: under the fence rule one fence and no
    opening one; under the credit rule no fence, and nothing two-sided
    but 8-byte headers and empty credits — no payload byte.  A routed
    two-level call's one allgather is its counts allgather."""
    call, rule = ONE_SHOT[name]
    calls = 3

    def kernel(comm):
        wire = _WireComm(comm)
        for _ in range(calls):
            got = call(wire, _send(comm.rank))
        return wire.calls["allgather"], wire.sent, got

    with tracing() as tracer:
        results = ThreadWorld(P, timeout=30.0).run(kernel)
    spans = tracer.span_events()
    for rank, (allgathers, sent, got) in enumerate(results):
        assert allgathers == calls
        fences = [e for e in spans if e.rank == rank and e.kind == "fence"]
        assert len(fences) == (calls if rule == "fence" else 0)
        assert all(e.attrs["epoch"] == "close" for e in fences)
        if rule == "fence":
            assert sent == []
        elif rule == "credit":
            assert sent and set(sent) <= {0, 8}
        for s, block in enumerate(got):
            want = _send(s)[rank]
            assert block.shape == (0,) if want is None else block.shape == want.shape


@pytest.mark.parametrize("codec", [None, IdentityCodec()])
def test_unknown_method_or_variant_is_always_rejected(codec) -> None:
    def kernel(comm):
        for bad in (dict(method="bogus"), dict(variant="bogus")):
            with pytest.raises(PlanError, match="bogus"):
                make_exchange(comm, codec=codec, **bad)
        with pytest.raises(PlanError, match="bogus"):
            Fft3d((8, 8, 8), 2, codec=codec).forward_spmd(
                comm, np.zeros((4, 8, 8), dtype=complex), method="bogus"
            )

    make_world("thread", 2, timeout=30.0).run(kernel)
