"""The five workloads of the benchmark, and what turns one into a plan and an input.

A workload is one (grid, runtime, exchange method, codec) point; the
operation measured on it is always one *round trip* — forward then
inverse ``Fft3d.forward_spmd`` on 4 ranks.  Why each one was chosen is
recorded in ``BENCHMARK.json`` and explained in the README.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))

#: Smallest rank count with a real 2 x 2 pencil grid (at p = 2 two of
#: the four reshapes are self-only), and no more than 2x oversubscribed
#: on the 2-core box the bounds were derived on.
NRANKS = 4


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    The suite measures the program in *this* checkout; without its
    sources there is nothing to measure, so the absence is fatal rather
    than an invitation to import some other installed ``repro``.
    """
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"benchmarks/suite: no program to measure ({src}/repro is missing)")
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass(frozen=True)
class Workload:
    n: int  # grid is n^3
    runtime: str  # "thread" | "proc"
    method: str  # exchange used when no codec is configured
    codec: str | None = None  # CastCodec format name
    e_tol: float | None = None  # selects the codec and turns on per-message verification
    warmup: int = 2  # untimed round trips before the first timed one

    @property
    def lossy(self) -> bool:
        return self.codec is not None or self.e_tol is not None


WORKLOADS: dict[str, Workload] = {
    "fft64-p4-thread-exact": Workload(64, "thread", "osc"),
    "fft64-p4-thread-fp32": Workload(64, "thread", "osc", codec="fp32"),
    "fft128-p4-proc-trim": Workload(128, "proc", "osc", e_tol=1e-10, warmup=1),
    "fft64-p4-proc-pairwise": Workload(64, "proc", "pairwise"),
    "fft32-p4-thread-fp32": Workload(32, "thread", "osc", codec="fp32", warmup=5),
}


def build_plan(w: Workload, n: int):
    from repro.compression import CastCodec
    from repro.fft import Fft3d

    codec = CastCodec(w.codec) if w.codec is not None else None
    return Fft3d((n, n, n), NRANKS, codec=codec, e_tol=w.e_tol)


def tolerance(w: Workload, plan) -> float:
    """Largest acceptable ``||x - IFFT(FFT(x))|| / ||x||`` on this workload."""
    if not w.lossy:
        return 1e-12
    return w.e_tol if w.e_tol is not None else plan.guaranteed_tolerance


def make_input(n: int, seed: int, round_index: int = 0) -> np.ndarray:
    rng = np.random.default_rng([seed, round_index])
    return rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))


def wire_size_fn(plan, x: np.ndarray):
    """``n complex values -> (bytes on the wire, frame overhead)`` for one message.

    Exact workloads ship the packed bytes as they are.  Lossy ones ship
    a v2 frame around the codec payload; the size is taken from a real
    compress + frame of ``n`` values of the input (cached per length —
    a p = 4 plan has two distinct message lengths).
    """
    from repro.collectives.wire import wire_overhead

    cache: dict[int, tuple[int, int]] = {}
    flat = x.reshape(-1)

    def size(n: int) -> tuple[int, int]:
        if plan.codec is None:
            return 16 * n, 0
        if n not in cache:
            msg = plan.codec.compress(flat[:n])
            overhead = wire_overhead(msg)
            cache[n] = (msg.nbytes + overhead, overhead)
        return cache[n]

    return size
