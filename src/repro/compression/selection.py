"""One error budget: tolerance-driven codec selection (Section III, Algorithm 1).

The approximate FFT takes one user tolerance ``e_tol`` on the round trip
and must pick a compression scheme whose communication error stays below
it.  Because the normalised FFT is orthogonal — condition number one —
"truncating the input will result in roughly the same error in the
output", so the budget is split by one rule:

* the transform's own FP64 round-off ``e_fft`` (Gentleman–Sande,
  :func:`~repro.accuracy.bounds.fft_roundoff_bound`) comes off first;
* what is left is shared by the ``events`` compressions the budget
  covers (8 for a 3-D round trip: 4 reshapes each way), whose
  independent rounding perturbations add in quadrature:

      share = sqrt(e_tol**2 - e_fft**2) / sqrt(events)

Every codec states its per-message bound (:attr:`Codec.error_bound`);
:func:`codec_for_tolerance` picks the cheapest whose bound fits the
share, :func:`guaranteed_error` applies the rule in reverse, and an
exchange holds each message against the share.
"""

from __future__ import annotations

import math

from repro.compression.base import Codec, IdentityCodec
from repro.compression.mantissa import MantissaTrimCodec
from repro.compression.truncation import CastCodec
from repro.compression.zfp_like import ZfpLikeCodec
from repro.errors import ToleranceError
from repro.precision.formats import FP16, FP32

__all__ = ["codec_for_tolerance", "error_share", "guaranteed_error", "mantissa_bits_for_tolerance"]

def _roundoff(n: int) -> float:
    """Round-off of a length-``n`` transform's forward and inverse (0 for
    ``n = 1``: a bare exchange transforms nothing)."""
    # Imported here: repro.accuracy pulls in the FFT layer, which itself
    # imports this module at load time.
    from repro.accuracy.bounds import fft_roundoff_bound

    return 2.0 * fft_roundoff_bound(n)


def error_share(e_tol: float, events: float, n: int) -> float:
    """Each compression's share of the round-trip total ``e_tol``: what is
    left after the round-off of a length-``n`` transform, split in
    quadrature over ``events`` compressions (0 when nothing is left).

    >>> error_share(1e-10, 8, 128**3) < 1e-10 / 8**0.5
    True
    """
    if not e_tol > 0:
        raise ToleranceError(f"e_tol must be positive, got {e_tol}")
    if not events >= 1:
        raise ToleranceError(f"events must be >= 1, got {events}")
    left = e_tol**2 - _roundoff(n) ** 2
    return math.sqrt(left) / math.sqrt(events) if left > 0 else 0.0


def guaranteed_error(bound: float | None, events: float, n: int) -> float:
    """The rule in reverse: the error ``events`` compressions of
    per-message bound ``bound`` guarantee with the round-off of a length-``n``
    transform (``inf``: an unbounded codec)."""
    if bound is None:
        return math.inf
    return math.hypot(_roundoff(n), math.sqrt(events) * bound)


def mantissa_bits_for_tolerance(share: float) -> int:
    """Fewest mantissa bits whose unit round-off stays below ``share``.

    >>> mantissa_bits_for_tolerance(1e-8)
    26
    """
    if not share > 0:
        raise ToleranceError(f"tolerance must be positive, got {share}")
    # need 2**-(m+1) <= share  =>  m >= -log2(share) - 1
    return max(1, min(52, math.ceil(-math.log2(share) - 1.0)))


def codec_for_tolerance(e_tol: float, events: float, n: int, *, data_hint: str = "random") -> Codec:
    """The cheapest codec whose bound keeps a round trip within ``e_tol``.

    Parameters
    ----------
    e_tol:
        The total relative error the caller accepts.
    events, n:
        What the budget covers, derived by the caller: ``events``
        compressions — 8 for a 3-D round trip, 6 for a 2-D one, 1 for one
        bare exchange — and the round-off of a length-``n`` transform (1:
        none).
    data_hint:
        ``"random"`` (default) — no spatial correlation: the truncation
        family, matching the paper's Section VI choice, snapped to a
        hardware cast (FP16, FP32) when its bound fits — truncation "is
        highly efficient due to the hardware support"; ``"smooth"`` —
        spatially correlated fields: the ZFP-like fixed-accuracy codec,
        which wins rate at equal error (Section IV-A), above its floor.

    Returns
    -------
    Codec
        The first whose bound fits of ZFP (smooth data), the FP16 and FP32
        casts and the fewest trim bits; ``IdentityCodec`` when the share
        demands more than 44 kept bits.
    """
    if data_hint not in ("random", "smooth"):
        raise ToleranceError(f"data_hint must be 'random' or 'smooth', got {data_hint!r}")
    share = error_share(e_tol, events, n)
    if share == 0.0:
        return IdentityCodec()
    m = mantissa_bits_for_tolerance(share)
    ladder: list[Codec] = []
    if data_hint == "smooth":
        # ZFP quantises to the power of two below its tolerance anyway, and
        # states twice the tolerance as its bound
        ladder.append(ZfpLikeCodec(tolerance=2.0 ** math.floor(math.log2(share / 2.0))))
    # m + 1 too: at a share that is a power of two, rounding may put m a hair over
    ladder += [CastCodec(FP16, scaled=True), CastCodec(FP32), MantissaTrimCodec(m)]
    ladder.append(MantissaTrimCodec(min(m + 1, 52)))
    chosen = next((c for c in ladder if guaranteed_error(c.error_bound, events, n) <= e_tol), None)
    # past 44 bits a trimmed value packs to 8 B: no cheaper than exact transport
    if chosen is None or (chosen.rate is not None and chosen.rate <= 1.0):
        return IdentityCodec()
    return chosen
