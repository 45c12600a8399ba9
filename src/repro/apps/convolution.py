"""Distributed fast convolution via the (approximate) 3-D FFT.

Convolution in real space is ``O(N^3 K^3)``; through the FFT it is two
forward transforms, a pointwise product and an inverse — ``O(N^3 log N)``
— which is why convolution headlines the paper's list of FFT consumers.
Each transform's reshapes may be compressed: for a convolution the
pointwise product *multiplies* the two relative errors' effects, so the
tolerance algebra is ``e_conv <~ e_fft(signal) + e_fft(kernel) +
e_ifft``: :func:`DistributedConvolution.for_tolerance` shares one budget
over the three transforms' reshapes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.base import Codec
from repro.errors import PlanError
from repro.fft.real import Rfft3d

__all__ = ["DistributedConvolution"]


class DistributedConvolution:
    """Periodic (circular) or zero-padded linear convolution of real fields.

    Parameters
    ----------
    shape:
        Grid shape of the *signal*.
    nranks:
        Virtual ranks of the underlying distributed transforms.
    mode:
        ``"periodic"`` (circular, no padding) or ``"linear"``
        (zero-padded to ``shape + kernel_shape - 1``; requires
        ``kernel_shape`` at construction).
    codec:
        Reshape compressor shared by all three transforms.
    kernel_shape:
        Support of the kernel for linear mode.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        nranks: int = 1,
        *,
        mode: str = "periodic",
        codec: Codec | None = None,
        kernel_shape: tuple[int, int, int] | None = None,
    ) -> None:
        if mode not in ("periodic", "linear"):
            raise PlanError(f"mode must be 'periodic' or 'linear', got {mode!r}")
        self.mode = mode
        self.shape = tuple(shape)
        self.codec = codec
        if mode == "linear":
            if kernel_shape is None:
                raise PlanError("linear mode needs kernel_shape")
            self.work_shape = tuple(
                s + k - 1 for s, k in zip(shape, kernel_shape)
            )
        else:
            self.work_shape = self.shape
        self.fft = Rfft3d(self.work_shape, nranks, codec=codec)

    @classmethod
    def for_tolerance(
        cls,
        shape: tuple[int, int, int],
        e_tol: float,
        *,
        nranks: int = 1,
        mode: str = "periodic",
        kernel_shape: tuple[int, int, int] | None = None,
        data_hint: str = "random",
    ) -> "DistributedConvolution":
        """Pick the codec from a *convolution-level* error tolerance.

        Three transforms contribute — the signal's, the kernel's and the
        inverse — so the budget is shared by all their reshapes.
        """
        from repro.compression.selection import codec_for_tolerance

        exact = cls(shape, nranks, mode=mode, kernel_shape=kernel_shape)
        codec = codec_for_tolerance(
            e_tol, 3 * len(exact.fft.stages), n=math.prod(exact.work_shape), data_hint=data_hint
        )
        return cls(shape, nranks, mode=mode, codec=codec, kernel_shape=kernel_shape)

    # -- the operation ------------------------------------------------------------

    def _pad(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.work_shape, dtype=np.float64)
        out[tuple(slice(0, s) for s in x.shape)] = x
        return out

    def convolve(self, signal: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        """Convolve ``signal`` with ``kernel`` (both real).

        Periodic mode returns the circular convolution on ``shape``;
        linear mode returns the full linear convolution of size
        ``signal.shape + kernel.shape - 1``.
        """
        signal = np.asarray(signal, dtype=np.float64)
        kernel = np.asarray(kernel, dtype=np.float64)
        if self.mode == "periodic":
            if signal.shape != self.shape or kernel.shape != self.shape:
                raise PlanError(
                    f"periodic mode needs both operands of shape {self.shape}"
                )
            s, k = signal, kernel
        else:
            if signal.shape != self.shape:
                raise PlanError(f"signal shape {signal.shape} != {self.shape}")
            expect = tuple(w - s + 1 for w, s in zip(self.work_shape, self.shape))
            if kernel.shape != expect:
                raise PlanError(f"kernel shape {kernel.shape} != {expect}")
            s, k = self._pad(signal), self._pad(kernel)

        S = self.fft.forward(s)
        K = self.fft.forward(k)
        return self.fft.backward(S * K)
