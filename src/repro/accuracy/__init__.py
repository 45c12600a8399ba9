"""FFT accuracy analysis (Section III, Fig. 2).

* :mod:`~repro.accuracy.metrics` — the paper's accuracy metric
  ``||x - IFFT(FFT(x))|| / ||x||`` and friends;
* :mod:`~repro.accuracy.bounds` — the Gentleman–Sande round-off bounds
  (``1.06 (2N)^{3/2} eps`` for DFT, ``1.06 sum (2 p_j)^{3/2} eps`` over
  the prime factors for FFT) and the truncation error model;
* :mod:`~repro.accuracy.analysis` — the Fig. 2 sweep driver (accuracy
  vs. retained mantissa bits, plus the MP 64/32 point and the
  theoretical acceleration) and the ``e_a = e_d + e_r`` decomposition
  used to justify tolerance balancing.
"""

from repro.accuracy.analysis import ErrorDecomposition, mantissa_sweep
from repro.accuracy.bounds import (
    dft_roundoff_bound,
    fft_roundoff_bound,
    truncation_error_model,
)
from repro.accuracy.metrics import rel_error

__all__ = [
    "rel_error",
    "dft_roundoff_bound",
    "fft_roundoff_bound",
    "truncation_error_model",
    "mantissa_sweep",
    "ErrorDecomposition",
]
