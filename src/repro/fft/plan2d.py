"""Distributed 2-D FFT (heFFTe also ships 2-D transforms).

The 2-D pipeline is the 3-D one with a unit third dimension: bricks →
x-pencils → y-pencils → bricks, i.e. three reshapes and two compute
phases.  We embed the 2-D grid as ``(n0, n1, 1)``; the plan is that
stage list and nothing else — the executor, the accounting and the
invariants are :class:`~repro.fft.plan.StagedTransform`'s.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec
from repro.fft.decomposition import brick_decomposition, pencil_decomposition
from repro.fft.plan import StagedTransform, fft_stages
from repro.machine.topology import Topology
from repro.runtime.virtual import VirtualWorld

__all__ = ["Fft2d"]


class Fft2d(StagedTransform):
    """Virtually-distributed approximate 2-D FFT (Algorithm 1, 2-D case).

    >>> import numpy as np
    >>> plan = Fft2d((32, 32), nranks=4)
    >>> x = np.random.default_rng(0).random((32, 32))
    >>> np.allclose(plan.forward(x), np.fft.fft2(x))
    True
    """

    def __init__(
        self,
        shape: tuple[int, int],
        nranks: int,
        *,
        precision: str = "fp64",
        codec: Codec | None = None,
        e_tol: float | None = None,
        data_hint: str = "random",
        topology: Topology | None = None,
    ) -> None:
        self._configure(
            shape, 2, nranks, precision=precision, codec=codec, e_tol=e_tol,
            data_hint=data_hint, topology=topology,
        )
        shape3 = (*self.shape, 1)
        self.bricks = brick_decomposition(shape3, nranks)
        pencils = [pencil_decomposition(shape3, nranks, axis) for axis in (0, 1)]
        self.stages, self.inverse_stages = fft_stages([self.bricks, *pencils, self.bricks])

    def scatter(self, x: np.ndarray) -> list[np.ndarray]:
        """Per-rank ``(a, b, 1)`` brick blocks of a global ``(..., n0, n1)`` array."""
        return self.bricks.scatter(np.asarray(x)[..., None], self.dtype)

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        return self.bricks.gather(locals_)[..., 0]

    def _run_virtual(self, x, stages, world: VirtualWorld | None, dtype=None) -> np.ndarray:
        return super()._run_virtual(np.asarray(x)[..., None], stages, world, dtype)[..., 0]
