"""Real-input (r2c / c2r) distributed 3-D FFT.

heFFTe's second flagship transform: real input of shape ``(n0, n1, n2)``
produces the half-spectrum ``(n0, n1, n2//2 + 1)`` (Hermitian symmetry
makes the other half redundant), halving both compute and — crucially
for this paper — *communication* volume after the first stage.

Stage list (mirror of Fig. 1, starting along the contracted axis):

    bricks(real) --reshape--> z-pencils(real) --rfft(z)-->
    z-pencils(half complex) --reshape--> y-pencils --fft(y)-->
    --reshape--> x-pencils --fft(x)--> --reshape--> bricks(out)

Four reshapes, like the complex transform; the first moves float64
reals (8 B/cell), the rest move complex128 on the reduced grid.  The
inverse list is the mirror image (each reshape reversed, c2r last).  All
reshapes accept the same codecs as :class:`~repro.fft.plan.Fft3d` —
real-data messages compress through the identical float64 stream path.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.compression.base import Codec
from repro.errors import PlanError
from repro.fft.decomposition import brick_decomposition, pencil_decomposition
from repro.fft.local_fft import fft_over
from repro.fft.plan import Stage, StagedTransform
from repro.fft.reshape import ReshapePlan
from repro.machine.topology import Topology
from repro.runtime.virtual import VirtualWorld

__all__ = ["Rfft3d"]


class Rfft3d(StagedTransform):
    """Distributed real-to-complex 3-D FFT with compressed reshapes.

    Parameters mirror :class:`~repro.fft.plan.Fft3d`; the working
    precision is FP64 (the only one the paper compresses from).

    >>> import numpy as np
    >>> plan = Rfft3d((16, 16, 16), nranks=4)
    >>> x = np.random.default_rng(0).random((16, 16, 16))
    >>> X = plan.forward(x)
    >>> X.shape
    (16, 16, 9)
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        nranks: int,
        *,
        codec: Codec | None = None,
        e_tol: float | None = None,
        data_hint: str = "random",
        topology: Topology | None = None,
    ) -> None:
        self._configure(
            shape, 3, nranks, codec=codec, e_tol=e_tol, data_hint=data_hint, topology=topology
        )
        self.half = self.shape[2] // 2 + 1
        self.out_shape = (self.shape[0], self.shape[1], self.half)

        # Real-side layouts (full grid) and spectral-side layouts (half grid).
        bricks_in = brick_decomposition(self.shape, nranks)
        z_in = pencil_decomposition(self.shape, nranks, 2)
        z_out, y, x = (pencil_decomposition(self.out_shape, nranks, axis) for axis in (2, 1, 0))
        bricks_out = brick_decomposition(self.out_shape, nranks)
        if z_in.grid[:2] != z_out.grid[:2]:
            raise PlanError("internal: z-pencil grids diverge between real/half layouts")

        reshapes = [
            ReshapePlan(a, b) for a, b in ((bricks_in, z_in), (z_out, y), (y, x), (x, bricks_out))
        ]
        # local r2c along z: real (..., nz) -> complex (..., nz//2+1), and back
        r2c = partial(np.fft.rfft, axis=-1)
        c2r = partial(np.fft.irfft, n=self.shape[2], axis=-1)
        self.stages = [
            Stage(reshapes[0], r2c, 2),
            Stage(reshapes[1], partial(fft_over, axis=-2), 1),
            Stage(reshapes[2], partial(fft_over, axis=-3), 0),
            Stage(reshapes[3]),
        ]
        back = [ReshapePlan(r.dst, r.src) for r in reversed(reshapes)]
        self.inverse_stages = [
            Stage(back[0], partial(fft_over, axis=-3, inverse=True), 0),
            Stage(back[1], partial(fft_over, axis=-2, inverse=True), 1),
            Stage(back[2], c2r, 2),
            Stage(back[3]),
        ]

    def forward(self, x: np.ndarray, *, world: VirtualWorld | None = None) -> np.ndarray:
        """Half-spectrum FFT of the real field ``x``."""
        if np.iscomplexobj(x):
            raise PlanError("r2c forward expects real input; use Fft3d for complex")
        return self._run_virtual(x, self.stages, world, np.float64)

    @property
    def communication_savings_vs_complex(self) -> float:
        """Wire-volume ratio of the complex transform over this one."""
        full = 4 * int(np.prod(self.shape)) * 16
        half = int(np.prod(self.shape)) * 8 + 3 * int(np.prod(self.out_shape)) * 16
        return full / half
