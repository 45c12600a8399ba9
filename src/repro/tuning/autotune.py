"""Measured exchange autotuner: sweep configurations, persist the winner.

Analytic models (:mod:`repro.netsim`) predict *which* exchange should
win, but the actual crossover between codecs, pipeline depths and the
flat vs. two-level schedule depends on the machine the code really runs
on.  The autotuner settles it empirically: it executes the first
reshape of the target FFT geometry (bricks → x-pencils, the exchange
whose pattern dominates Algorithm 1) on the thread runtime for every
candidate ``(codec, pipeline_chunks, variant)`` triple, timing the
steady state with a warm window and a warm buffer pool, and records the
fastest candidate in a versioned
:class:`~repro.tuning.profile.TuningProfile` keyed by
``(machine, rank count, geometry)``.

Timing discipline mirrors the PR4 perf harness: per repeat, every rank
times its own inner loop with ``perf_counter`` and the repeat's cost is
the **max over ranks** (a collective is as slow as its slowest rank);
the candidate's score is the **median over repeats**.  The warm-up
iteration that creates the window and fills the pool is excluded.

This module imports the FFT layer, which imports the collectives, which
import :mod:`repro.tuning.pool` — so it must never be imported from
``repro.tuning.__init__`` (see the note there).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.collectives.exchange import make_exchange
from repro.compression.selection import codec_for_tolerance
from repro.errors import TuningError
from repro.fft.decomposition import brick_decomposition, pencil_decomposition
from repro.fft.reshape import ReshapePlan
from repro.machine.spec import MachineSpec, laptop_spec, summit_spec
from repro.machine.topology import Topology
from repro.tuning.pool import BufferPool
from repro.tuning.profile import TuningEntry, TuningProfile, codec_from_name

__all__ = ["Candidate", "SweepResult", "resolve_machine", "sweep", "tune"]

#: Codec names swept by default — the no-compression baseline, the
#: lossless fallback and the cheapest native lossy cast.
DEFAULT_CODECS = ("identity", "zlib1_shuffle", "cast_fp32")
DEFAULT_CHUNKS = (1, 2, 4)

_MACHINES = {"laptop": laptop_spec, "summit": summit_spec}


@dataclass(frozen=True)
class Candidate:
    """One point of the sweep grid."""

    codec: str
    pipeline_chunks: int
    variant: str


@dataclass
class SweepResult:
    """Measured cost of one candidate."""

    candidate: Candidate
    median_s: float
    samples: list[float] = field(default_factory=list)

    def as_payload(self) -> dict:
        return {
            "codec": self.candidate.codec,
            "pipeline_chunks": self.candidate.pipeline_chunks,
            "variant": self.candidate.variant,
            "median_s": self.median_s,
            "samples": list(self.samples),
        }


def resolve_machine(machine: MachineSpec | str | None) -> MachineSpec:
    """Accept a spec, a preset name (``laptop``/``summit``) or ``None``."""
    if machine is None:
        return laptop_spec()
    if isinstance(machine, MachineSpec):
        return machine
    try:
        return _MACHINES[machine]()
    except KeyError:
        raise TuningError(
            f"unknown machine preset {machine!r} (have {sorted(_MACHINES)})"
        ) from None


def _topology_for(machine: MachineSpec, nranks: int) -> Topology | None:
    """A topology when the ranks pack whole nodes; ``None`` otherwise."""
    if nranks % machine.gpus_per_node:
        return None
    try:
        return Topology(machine, nranks)
    except Exception:
        return None


def _measure_candidate(
    cand: Candidate,
    plan: ReshapePlan,
    topology: Topology | None,
    nranks: int,
    *,
    iters: int,
    repeats: int,
    seed: int,
    timeout: float,
    runtime: str = "thread",
) -> SweepResult:
    """Median-over-repeats, max-over-ranks steady-state reshape time."""
    from repro.runtime import make_world

    samples: list[float] = []
    for rep in range(repeats):
        def kernel(comm):
            codec = codec_from_name(cand.codec)
            rng = np.random.default_rng(seed * 10_000 + rep * 100 + comm.rank)
            box = plan.src.box_of(comm.rank)
            local = (
                rng.standard_normal(box.shape) + 1j * rng.standard_normal(box.shape)
            ).astype(np.complex128)
            pool = BufferPool()
            op = make_exchange(
                comm,
                codec=codec,
                variant=cand.variant,
                topology=topology,
                pipeline_chunks=cand.pipeline_chunks,
                pool=pool,
            )
            try:
                # Warm-up: creates the cached window, fills the pool.
                plan.run_spmd(comm, local, op, pool=pool)
                comm.barrier()
                t0 = time.perf_counter()
                for _ in range(iters):
                    plan.run_spmd(comm, local, op, pool=pool)
                elapsed = time.perf_counter() - t0
            finally:
                op.free()
            return elapsed / iters
        per_rank = make_world(runtime, nranks, timeout=timeout).run(kernel)
        samples.append(max(float(t) for t in per_rank))
    return SweepResult(cand, statistics.median(samples), samples)


def sweep(
    shape: tuple[int, int, int],
    nranks: int,
    *,
    machine: MachineSpec | str | None = None,
    codecs: tuple[str, ...] | None = None,
    chunk_candidates: tuple[int, ...] = DEFAULT_CHUNKS,
    variants: tuple[str, ...] | None = None,
    e_tol: float | None = None,
    repeats: int = 3,
    iters: int = 2,
    seed: int = 0,
    timeout: float = 120.0,
    runtime: str = "thread",
) -> tuple[list[SweepResult], MachineSpec]:
    """Measure every candidate; returns (results sorted fastest-first, spec).

    ``e_tol`` replaces the default lossy candidate with the cheapest
    codec honouring the tolerance, so the sweep never proposes a codec
    the accuracy budget forbids.
    """
    spec = resolve_machine(machine)
    topology = _topology_for(spec, nranks)
    if codecs is None:
        codecs = DEFAULT_CODECS
        if e_tol is not None:
            codecs = tuple(
                c for c in codecs if codec_from_name(c).lossless
            ) + (codec_for_tolerance(e_tol, 1, n=1).name,)  # one bare exchange
    if variants is None:
        variants = (
            ("flat", "two-level")
            if topology is not None and topology.nnodes > 1
            else ("flat",)
        )
    # dict.fromkeys: dedupe while keeping the caller's order.
    grid = [
        Candidate(c, k, v)
        for c in dict.fromkeys(codecs)
        for k in dict.fromkeys(chunk_candidates)
        for v in dict.fromkeys(variants)
    ]
    if not grid:
        raise TuningError("empty sweep grid (no codecs, chunks or variants)")
    plan = ReshapePlan(
        brick_decomposition(shape, nranks), pencil_decomposition(shape, nranks, 0)
    )
    results = [
        _measure_candidate(
            cand, plan, topology, nranks,
            iters=iters, repeats=repeats, seed=seed, timeout=timeout,
            runtime=runtime,
        )
        for cand in grid
    ]
    results.sort(key=lambda r: r.median_s)
    return results, spec


def tune(
    shape: tuple[int, int, int],
    nranks: int,
    *,
    machine: MachineSpec | str | None = None,
    profile: TuningProfile | None = None,
    **sweep_kwargs,
) -> tuple[TuningProfile, str, list[SweepResult]]:
    """Sweep and record the winner; returns (profile, key, all results).

    Appends to ``profile`` when given (one profile file can cover many
    geometries of one machine) or starts a fresh one for the machine.
    """
    shape = tuple(int(n) for n in shape)
    results, spec = sweep(shape, nranks, machine=machine, **sweep_kwargs)
    best = results[0]
    if profile is None:
        profile = TuningProfile(machine=spec.name)
    elif profile.machine != spec.name:
        raise TuningError(
            f"profile is for machine {profile.machine!r}, sweep ran on {spec.name!r}"
        )
    entry = TuningEntry(
        codec=best.candidate.codec,
        pipeline_chunks=best.candidate.pipeline_chunks,
        variant=best.candidate.variant,
        measured_s=best.median_s,
        swept=len(results),
    )
    key = profile.record(nranks, shape, entry)
    return profile, key, results
