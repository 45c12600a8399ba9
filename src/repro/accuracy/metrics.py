"""Accuracy metrics used throughout the evaluation.

The paper measures FFT accuracy as "the norm of the difference between
the input problem and the inverse of the FFT", i.e. a forward/backward
round trip — both legs of which compress their reshapes in the
approximate algorithm.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rel_error"]


def rel_error(x: np.ndarray, y: np.ndarray, *, ord: float | None = 2) -> float:
    """Relative norm error ``||x - y|| / ||x||`` (0/0 -> 0)."""
    xf = np.asarray(x).reshape(-1)
    yf = np.asarray(y).reshape(-1)
    denom = np.linalg.norm(xf, ord)
    if denom == 0.0:
        return float(np.linalg.norm(yf, ord))
    return float(np.linalg.norm(xf - yf, ord) / denom)
