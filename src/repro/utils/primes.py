"""Integer factorisation helpers.

Used by the round-off bound of Gentleman & Sande (the FFT error bound is
expressed in terms of the prime factors of the transform length, see
Section III of the paper) and by the process-grid factoriser.
"""

from __future__ import annotations

__all__ = ["prime_factors", "next_pow2"]


def prime_factors(n: int) -> list[int]:
    """Return the prime factorisation of ``n`` (with multiplicity), sorted.

    >>> prime_factors(360)
    [2, 2, 2, 3, 3, 5]
    """
    if n < 1:
        raise ValueError(f"prime_factors requires n >= 1, got {n}")
    out: list[int] = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def next_pow2(n: int) -> int:
    """Smallest power of two ``>= n`` (``n >= 1``)."""
    if n < 1:
        raise ValueError(f"next_pow2 requires n >= 1, got {n}")
    return 1 << (n - 1).bit_length()
