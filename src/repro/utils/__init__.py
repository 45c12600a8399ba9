"""Small shared helpers (no heavy dependencies, no package-internal imports)."""

from repro.utils.arrays import no_alias_copy
from repro.utils.humanize import format_bytes, format_time
from repro.utils.primes import next_pow2, prime_factors

__all__ = [
    "format_bytes",
    "format_time",
    "no_alias_copy",
    "prime_factors",
    "next_pow2",
]
