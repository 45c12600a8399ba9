"""heFFTe-style distributed 3-D FFT with compressed reshapes (the core).

The paper's Algorithm 1 runs on top of heFFTe's pencil pipeline
(Fig. 1): data starts in *bricks* on a 3-D process grid, is reshaped to
x-pencils, transformed along x, reshaped to y-pencils, ... and finally
reshaped back to bricks — four all-to-all *reshapes* interleaved with
three batched 1-D FFT phases.  This package re-implements that pipeline:

* :mod:`~repro.fft.box` / :mod:`~repro.fft.decomposition` — box algebra
  and brick/pencil Cartesian decompositions;
* :mod:`~repro.fft.reshape` — overlap-based reshape plans (pack →
  alltoallv → unpack) with optional per-message compression; the
  functional :class:`~repro.runtime.virtual.VirtualWorld` walk and the
  SPMD code on a real communicator execute the same per-rank stage;
* :mod:`~repro.fft.local_fft` — batched 1-D FFTs per precision;
* :mod:`~repro.fft.plan` — the user-facing :class:`~repro.fft.plan.Fft3d`
  (Algorithm 1: forward/backward with an ``e_tol``-driven codec) and the
  stage list + one executor loop the 2-D and r2c plans share with it.
"""

from repro.fft.box import Box3d
from repro.fft.decomposition import (
    CartesianDecomp,
    brick_decomposition,
    partition1d,
    pencil_decomposition,
    process_grid,
)
from repro.fft.local_fft import batched_fft, batched_ifft
from repro.fft.plan import Fft3d, FftStats
from repro.fft.plan2d import Fft2d
from repro.fft.real import Rfft3d
from repro.fft.reshape import ReshapePlan

__all__ = [
    "Box3d",
    "partition1d",
    "process_grid",
    "CartesianDecomp",
    "brick_decomposition",
    "pencil_decomposition",
    "ReshapePlan",
    "batched_fft",
    "batched_ifft",
    "Fft3d",
    "Fft2d",
    "Rfft3d",
    "FftStats",
]
