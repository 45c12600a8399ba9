"""The user-facing approximate 3-D FFT (Algorithm 1).

:class:`Fft3d` assembles the full heFFTe pipeline of Fig. 1 — bricks →
x-pencils → y-pencils → z-pencils → bricks, four reshapes and three
batched 1-D FFT phases — with optional lossy compression inside every
reshape, controlled either by an explicit codec or by an error
tolerance ``e_tol`` on the round trip (Section III), which one rule
splits into a share per compressed reshape
(:mod:`repro.compression.selection`).

A transform is data: an ordered list of :class:`Stage` — *reshape, then
transform the local pencils* — built once by the constructor.
:class:`StagedTransform` is everything else a plan needs (codec
resolution, the virtual stage loop, the accuracy metric and
``describe``), shared with :class:`~repro.fft.plan2d.Fft2d` and
:class:`~repro.fft.real.Rfft3d`, which supply only their lists.

Two execution styles:

* **virtual** (default): all rank-local blocks live in one process;
  :meth:`Fft3d.forward` / :meth:`Fft3d.backward` take and return the
  *global* array (scatter/gather included) and move every byte through
  the same pack→compress→exchange→decompress→unpack path the SPMD code
  uses.  This is how the paper-scale accuracy experiments (Table II,
  1536 ranks) run.
* **SPMD**: :meth:`Fft3d.forward_spmd` executes one rank's part on a
  real communicator (thread or process runtime).  The exchange is
  *bound to the plan*: a rank's first transform on a communicator
  builds the four exchange objects and — every message size being
  known from the plan — one slot transport sized for all four
  (:class:`~repro.collectives.slots.SlotTransport`); every later
  reshape is puts and, under the fence rule, one fence, nothing else
  collective (``method="pairwise"``: the credit rule, a header and a
  release credit per message, no fence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.collectives.base import ExchangeStats
from repro.collectives.exchange import make_exchange
from repro.collectives.slots import SlotTransport
from repro.compression.base import Codec
from repro.compression.selection import codec_for_tolerance, error_share, guaranteed_error
from repro.errors import PlanError
from repro.fft.decomposition import (
    CartesianDecomp,
    brick_decomposition,
    pencil_decomposition,
)
from repro.fft.local_fft import complex_dtype, fft_over
from repro.fft.reshape import BoundReshape, ReshapePlan
from repro.machine.topology import Topology
from repro.telemetry import scope
from repro.runtime.base import Comm
from repro.runtime.virtual import VirtualWorld
from repro.trace import span as trace_span
from repro.tuning.pool import BufferPool
from repro.tuning.profile import TuningEntry, TuningProfile

__all__ = ["Fft3d", "FftStats", "Stage", "StagedTransform"]


def _summed(name: str) -> property:
    return property(lambda self: sum(getattr(r, name) for r in self.reshapes))


@dataclass
class FftStats:
    """Communication accounting of one transform: one record per reshape."""

    reshapes: list[ExchangeStats] = field(default_factory=list)

    messages = _summed("messages")
    logical_bytes = _summed("logical_bytes")
    wire_bytes = _summed("wire_bytes")
    retries = _summed("retries")
    degradations = _summed("degradations")

    @property
    def achieved_rate(self) -> float:
        """``logical / wire`` (see :func:`~repro.collectives.base.volume_rate`)."""
        return self.totals().achieved_rate

    def totals(self) -> ExchangeStats:
        """All reshapes merged into one :class:`ExchangeStats`."""
        return ExchangeStats().merge(*self.reshapes)


@dataclass(frozen=True)
class Stage:
    """One step of a transform: a reshape, then the local 1-D transforms
    it made possible (``op=None``: nothing follows the last reshape), which
    may write over the block: every executor hands it the reshape's own."""

    reshape: ReshapePlan
    op: Callable[[np.ndarray], np.ndarray] | None = None
    axis: int | None = None  # the grid axis ``op`` transforms

    def apply(self, rank: int, block: np.ndarray) -> np.ndarray:
        """``op`` on virtual rank ``rank``'s block (the SPMD executor runs
        it in :meth:`Fft3d._fft_stage`, a phase of a live rank)."""
        with trace_span("local_fft", rank=rank, axis=self.axis):
            return self.op(block)


class StagedTransform:
    """What every plan is besides its stage lists (``stages`` and
    ``inverse_stages``, set by the subclass constructor)."""

    def _configure(
        self,
        shape: Sequence[int],
        ndim: int,
        nranks: int,
        *,
        precision: str = "fp64",
        codec: Codec | None = None,
        e_tol: float | None = None,
        data_hint: str = "random",
        topology: Topology | None = None,
    ) -> None:
        """The one resolution of shape, precision and ``codec``/``e_tol``.

        ``e_tol`` is the round trip's total: its ``events`` compressions —
        one per reshape (``ndim + 1`` of them) each way — share what the
        transform's round-off leaves, and each exchange holds every
        message against that ``share``."""
        if len(shape) != ndim or any(n < 2 for n in shape):
            raise PlanError(f"shape must be {ndim} dims >= 2, got {shape}")
        if codec is not None and e_tol is not None:
            raise PlanError("pass at most one of codec=, e_tol=")
        self.shape = tuple(shape)
        self.events = 2 * (ndim + 1)
        n = math.prod(self.shape)
        if e_tol is not None:
            codec = codec_for_tolerance(e_tol, self.events, n, data_hint=data_hint)
        self.nranks = int(nranks)
        self.precision = precision.lower()
        self.dtype = complex_dtype(self.precision)
        if codec is not None and self.precision != "fp64":
            raise PlanError("compressed reshapes require fp64 working precision")
        self.codec = codec
        self.e_tol = e_tol
        self.share = None if e_tol is None else error_share(e_tol, self.events, n)
        self.topology = topology
        self.last_stats = FftStats()

    @property
    def reshapes(self) -> list[ReshapePlan]:
        return [stage.reshape for stage in self.stages]

    @property
    def guaranteed_tolerance(self) -> float:
        """The round-trip error the codec's bound guarantees, by the rule
        that split ``e_tol`` (``inf``: an unbounded codec)."""
        bound = 0.0 if self.codec is None else self.codec.error_bound
        return guaranteed_error(bound, self.events, math.prod(self.shape))

    def describe(self) -> str:
        """One-paragraph plan summary (layouts, codec, message counts)."""
        lines = [
            f"{type(self).__name__} {self.shape} on {self.nranks} ranks",
            f"  precision: {self.precision}",
            f"  codec: {'none (exact)' if self.codec is None else self.codec.name}",
            f"  bricks grid: {self.stages[0].reshape.src.grid}",
        ]
        for i, stage in enumerate(self.stages):
            then = "bricks" if stage.op is None else f"transform axis {stage.axis}"
            lines.append(
                f"  reshape {i}: {stage.reshape.n_messages} messages -> "
                f"grid {stage.reshape.dst.grid}, {then}"
            )
        return "\n".join(lines)

    def _pipeline(self, inverse: bool) -> list[Stage]:
        return self.inverse_stages if inverse else self.stages

    def _run_virtual(
        self, x: np.ndarray, stages: list[Stage], world: VirtualWorld | None, dtype=None
    ) -> np.ndarray:
        """The virtual executor: scatter, then *reshape, transform the local
        pencils* once per stage, then gather — for every transform."""
        world = world or VirtualWorld(self.nranks, topology=self.topology)
        stats = FftStats()
        locals_ = stages[0].reshape.src.scatter(np.asarray(x), dtype or self.dtype)
        for stage in stages:
            rstats = ExchangeStats()
            locals_ = stage.reshape.run_virtual(world, locals_, codec=self.codec, stats=rstats)
            stats.reshapes.append(rstats)
            if stage.op is not None:
                locals_ = [stage.apply(r, b) for r, b in enumerate(locals_)]
        self.last_stats = stats
        return stages[-1].reshape.dst.gather(locals_)

    def forward(self, x: np.ndarray, *, world: VirtualWorld | None = None) -> np.ndarray:
        """Approximate forward transform of the global array ``x``."""
        return self._run_virtual(x, self.stages, world)

    def backward(self, x: np.ndarray, *, world: VirtualWorld | None = None) -> np.ndarray:
        """Approximate inverse transform (``1/N`` normalised)."""
        return self._run_virtual(x, self.inverse_stages, world)

    def roundtrip_error(self, x: np.ndarray) -> float:
        """Paper's accuracy metric: ``||x - IFFT(FFT(x))|| / ||x||``."""
        x = np.asarray(x)
        back = self.backward(self.forward(x))
        return float(np.linalg.norm((x - back).reshape(-1)) / np.linalg.norm(x.reshape(-1)))


def fft_stages(layouts: Sequence[CartesianDecomp]) -> tuple[list[Stage], list[Stage]]:
    """Forward and inverse stage lists of a c2c pipeline: one reshape per
    consecutive pair of ``layouts``, a batched FFT along grid axis ``k``
    after reshape ``k`` (negative axes: transparent to batch dimensions)
    and nothing after the last."""
    reshapes = [ReshapePlan(a, b) for a, b in zip(layouts, layouts[1:])]
    forward, inverse = (
        [Stage(reshape, partial(fft_over, axis=k - 3, inverse=inverse), k)
         for k, reshape in enumerate(reshapes[:-1])]
        + [Stage(reshapes[-1])]
        for inverse in (False, True)
    )
    return forward, inverse


class _Binding(NamedTuple):
    """What a rank keeps per (plan, communicator): the four reshapes bound
    to their exchanges, and the transport those exchanges share (``None``
    for the reference exchange, which drives no window)."""

    bound: list[BoundReshape]
    transport: SlotTransport | None

    def release(self) -> None:
        """Local, no barrier: the communicator retired (see ``Comm.release``)."""
        if self.transport is not None:
            self.transport.release()

    def free(self) -> None:
        """Collective (see :meth:`Fft3d.release`)."""
        if self.transport is not None:
            self.transport.free()


class Fft3d(StagedTransform):
    """Distributed (or virtually distributed) approximate 3-D FFT plan.

    Parameters
    ----------
    shape:
        Global grid shape ``(n0, n1, n2)``.
    nranks:
        Number of (virtual) MPI ranks.
    precision:
        Working precision of the local FFTs: ``"fp64"`` (reference) or
        ``"fp32"`` (the all-FP32 comparison run).
    codec:
        Compressor applied to every reshape message (Algorithm 1).
        Mutually exclusive with ``e_tol``.  ``None`` = exact exchange.
    e_tol:
        Error tolerance on the round trip; picks the cheapest codec
        meeting it via
        :func:`repro.compression.selection.codec_for_tolerance`, and
        every exchange holds each message against its share.
    data_hint:
        ``"random"`` or ``"smooth"`` — steers codec selection.
    topology:
        Optional machine topology (used for traffic classification and
        the node-aware ring in SPMD mode).
    tuning:
        Optional :class:`~repro.tuning.profile.TuningProfile` (or a path
        to its JSON) from ``python -m repro tune``.  When it holds an
        entry for this plan's ``(machine, nranks, shape)`` key, the SPMD
        exchanges adopt the tuned ``pipeline_chunks`` and flat/two-level
        variant — and, if no ``codec``/``e_tol`` was
        given explicitly, the tuned codec as well.  The key is stamped
        on every exchange span so the perf gate can see which profile
        drove a run.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        nranks: int,
        *,
        precision: str = "fp64",
        codec: Codec | None = None,
        e_tol: float | None = None,
        data_hint: str = "random",
        topology: Topology | None = None,
        tuning: TuningProfile | str | None = None,
    ) -> None:
        self.tuned_key: str | None = None
        self._tuned_entry: TuningEntry | None = None
        if tuning is not None:
            profile = TuningProfile.load(tuning) if isinstance(tuning, str) else tuning
            machine = topology.machine.name if topology is not None else profile.machine
            entry = profile.lookup(nranks, tuple(shape), machine=machine)
            if entry is not None:
                self._tuned_entry = entry
                self.tuned_key = TuningProfile.key(machine, nranks, tuple(shape))
                if codec is None and e_tol is None and precision.lower() == "fp64":
                    codec = entry.make_codec()
        self._configure(
            shape, 3, nranks, precision=precision, codec=codec, e_tol=e_tol,
            data_hint=data_hint, topology=topology,
        )

        # Layout pipeline of Fig. 1: bricks -> x -> y -> z -> bricks.
        self.bricks: CartesianDecomp = brick_decomposition(self.shape, nranks)
        pencils = [pencil_decomposition(self.shape, nranks, axis) for axis in range(3)]
        self.stages, self.inverse_stages = fft_stages([self.bricks, *pencils, self.bricks])

    # -- scatter / gather -----------------------------------------------------------

    def scatter(self, x: np.ndarray) -> list[np.ndarray]:
        """Split a global array into per-rank brick blocks.

        ``x`` may carry leading batch dimensions (``(..., n0, n1, n2)``)
        — all batch entries of a cell travel together, heFFTe-style.
        """
        return self.bricks.scatter(np.asarray(x), self.dtype)

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Assemble per-rank brick blocks back into a global array."""
        return self.bricks.gather(locals_)

    # -- SPMD execution ------------------------------------------------------------------

    def _bind(
        self, comm: Comm, method: str, variant: str, batch: tuple[int, ...]
    ) -> _Binding:
        """This rank's binding of the plan to ``comm`` (collective when new).

        Built on the first transform and cached *on the communicator*
        (``comm.attrs``, MPI-attribute style): it is per-rank state, so
        the plan object stays shared and stateless across rank threads,
        and it dies with the communicator — a shrink yields a new one,
        hence a fresh binding with its epoch back at 0 (a pairwise one:
        no credit owed) on every survivor.  Every rank derives the same
        slot tables from ``ReshapePlan.pairs`` alone, so nothing is
        negotiated: the first exchange's transport (its rule is the
        method's) is sized once for all four tables and serves all four.
        """
        key = (self, method, variant, batch)
        binding = comm.attrs.get(key)
        if binding is not None:
            return binding
        entry, reshapes = self._tuned_entry, self.reshapes
        exchanges = [
            make_exchange(
                comm,
                codec=self.codec,
                method=method,
                variant=variant,
                topology=self.topology,
                # with a tolerance configured the exchange also holds each
                # message against its share (achieved-error / headroom
                # telemetry)
                e_tol=self.share,
                pipeline_chunks=entry.pipeline_chunks if entry is not None else 1,
                tuned=self.tuned_key,
            )
            for _ in reshapes
        ]
        tables = []
        for exchange, reshape in zip(exchanges, reshapes):
            elements, leading = reshape.message_elements(batch)
            tables.append(exchange.slot_table(elements, self.dtype.itemsize, leading))
        transport = exchanges[0].transport
        if transport is not None:
            transport.grow(tables)
            for exchange, table in zip(exchanges, tables):
                exchange.transport, exchange.table = transport, table
                exchange.route = transport.route(table)
        binding = comm.attrs[key] = _Binding(
            [
                BoundReshape(reshape, comm.rank, exchange, batch)
                for reshape, exchange in zip(reshapes, exchanges)
            ],
            transport,
        )
        return binding

    def release(self, comm: Comm) -> None:
        """Collectively free what this plan bound to ``comm`` (every rank calls).

        Only long-lived communicators that cycle through plans need it:
        a binding is otherwise released, without a barrier, when its
        communicator retires (the run ends, or a shrink replaces it).
        """
        for key in [k for k in comm.attrs if isinstance(k, tuple) and k[0] is self]:
            comm.attrs.pop(key).free()

    def _reshape_stage(
        self, bound: BoundReshape, block: np.ndarray, stats: FftStats, pool: BufferPool | None
    ) -> np.ndarray:
        """One bound reshape of an SPMD transform (the first half of a stage);
        its record is its exchange's, which the next call replaces, not updates."""
        block = bound(block, pool=pool)
        stats.reshapes.append(bound.exchange.last_stats)
        return block

    def _fft_stage(self, comm: Comm, block: np.ndarray, stage: Stage) -> np.ndarray:
        """The local transforms that follow ``stage``'s reshape (the second half).

        A call of its own rather than the tail of :meth:`_reshape_stage`:
        a caller's frame keeps its argument alive for the whole call, and
        the pre-reshape block must not outlive the reshape into the FFT's
        peak working set.
        """
        if stage.op is None:
            return block
        with scope("local_fft", comm.rank, axis=stage.axis):
            return stage.op(block)

    def forward_spmd(
        self,
        comm: Comm,
        local: np.ndarray,
        *,
        method: str = "osc",
        inverse: bool = False,
        stats: FftStats | None = None,
        pool: BufferPool | None = None,
    ) -> np.ndarray:
        """Run this rank's part of the transform on a real communicator.

        ``local`` is the rank's brick block (see :meth:`scatter`); the
        return value is the rank's brick block of the transform.  With a
        codec configured, every reshape goes through the compressed
        all-to-all; a loaded tuning profile additionally selects the
        pipeline depth and the flat vs. node-aware two-level exchange.
        ``method`` picks the completion rule of the window exchange —
        ``"osc"`` a fence, ``"pairwise"`` a header and a release credit
        per message — or, without a codec, ``"reference"``: the
        communicator's two-sided ``alltoallv``.

        Pass ``stats`` to collect this rank's accounting race-free: the
        plan object is shared across rank threads, so ``last_stats``
        only reliably reflects the *last* rank to finish.  ``pool`` is
        per-rank staging-buffer state (one :class:`BufferPool` per rank
        thread) for the pack scratch of ``method="reference"``; the
        window exchanges stage nothing.

        The first call on a communicator is collective beyond the data
        (it binds the plan: see :meth:`_bind`); ranks must agree on
        ``method`` and on the batch shape of ``local``, as they must on
        the transform itself.
        """
        if comm.size != self.nranks:
            raise PlanError("communicator size does not match plan")
        if stats is None:
            stats = FftStats()
        block = np.ascontiguousarray(local, dtype=self.dtype)
        with scope(
            "fft", comm.rank, shape=self.shape, nranks=self.nranks, inverse=inverse, method=method
        ):
            entry = self._tuned_entry
            variant = entry.variant if entry is not None else "flat"
            bound = self._bind(comm, method, variant, block.shape[:-3]).bound
            for reshape, stage in zip(bound, self._pipeline(inverse)):
                block = self._reshape_stage(reshape, block, stats, pool)
                block = self._fft_stage(comm, block, stage)
        self.last_stats = stats
        return block
