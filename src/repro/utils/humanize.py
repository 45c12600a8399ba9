"""Human-readable formatting of byte counts, rates and durations."""

from __future__ import annotations

__all__ = ["format_bytes", "format_time"]

_BYTE_UNITS = ["B", "KB", "MB", "GB", "TB", "PB"]


def format_bytes(n: float) -> str:
    """Format a byte count with a binary-ish decimal unit (1 KB = 1e3 B).

    The paper quotes network numbers in decimal units (25 GB/s links,
    80 KB messages), so we follow the same convention.

    >>> format_bytes(80_000)
    '80.0 KB'
    """
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit in _BYTE_UNITS:
        if n < 1000.0 or unit == _BYTE_UNITS[-1]:
            return f"{sign}{n:.1f} {unit}"
        n /= 1000.0
    raise AssertionError("unreachable")


def format_time(seconds: float) -> str:
    """Format a duration with an adaptive unit (s, ms, us, ns).

    >>> format_time(3.2e-6)
    '3.200 us'
    """
    s = float(seconds)
    if s != s:  # NaN
        return "nan"
    a = abs(s)
    if a >= 1.0 or a == 0.0:
        return f"{s:.3f} s"
    if a >= 1e-3:
        return f"{s * 1e3:.3f} ms"
    if a >= 1e-6:
        return f"{s * 1e6:.3f} us"
    return f"{s * 1e9:.3f} ns"
