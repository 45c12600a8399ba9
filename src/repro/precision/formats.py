"""Descriptions of binary floating-point formats (paper Table I).

A :class:`FloatFormat` is a ``(sign, exponent, mantissa)`` bit budget plus
derived quantities: smallest subnormal, smallest/largest normal and the
unit round-off.  The registry contains the four formats of Table I
(FP64, FP32, FP16, BFloat16) and :func:`trimmed_format` manufactures the
intermediate "FP64 with ``m`` mantissa bits" formats swept in Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PrecisionError

__all__ = [
    "FloatFormat",
    "FP64",
    "FP32",
    "FP16",
    "BF16",
    "get_format",
    "known_formats",
    "trimmed_format",
]


@dataclass(frozen=True)
class FloatFormat:
    """An IEEE-754-style binary floating-point format.

    Parameters
    ----------
    name:
        Human-readable identifier (``"FP64"``, ``"FP64m40"``...).
    exponent_bits:
        Width of the biased exponent field.
    mantissa_bits:
        Number of *stored* fraction bits (the implicit leading 1 is not
        counted, matching IEEE conventions: FP64 has 52, FP32 has 23).
    numpy_dtype:
        The native NumPy dtype when one exists (``None`` for synthetic
        trimmed formats, which are stored inside a float64 container).
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    numpy_dtype: np.dtype | None = field(default=None)

    def __post_init__(self) -> None:
        if self.exponent_bits < 2:
            raise PrecisionError(f"{self.name}: need >= 2 exponent bits")
        if self.mantissa_bits < 1:
            raise PrecisionError(f"{self.name}: need >= 1 mantissa bit")

    # -- derived quantities (Table I columns) --------------------------------

    @property
    def bits(self) -> int:
        """Total storage width in bits (sign + exponent + mantissa)."""
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def exponent_bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def min_exponent(self) -> int:
        """Smallest normal (unbiased) exponent."""
        return 1 - self.exponent_bias

    @property
    def max_exponent(self) -> int:
        """Largest normal (unbiased) exponent."""
        return self.exponent_bias

    @property
    def smallest_subnormal(self) -> float:
        r"""Table I column :math:`x_{\min,s}` = :math:`2^{e_{\min}-m}`."""
        return float(2.0 ** (self.min_exponent - self.mantissa_bits))

    @property
    def smallest_normal(self) -> float:
        r"""Table I column :math:`x_{\min}` = :math:`2^{e_{\min}}`."""
        return float(2.0**self.min_exponent)

    @property
    def largest_normal(self) -> float:
        r"""Table I column :math:`x_{\max}` = :math:`2^{e_{\max}}(2 - 2^{-m})`."""
        return float(2.0**self.max_exponent * (2.0 - 2.0**-self.mantissa_bits))

    @property
    def unit_roundoff(self) -> float:
        r"""Table I unit round-off :math:`u = 2^{-(m+1)}` (round-to-nearest)."""
        return float(2.0 ** -(self.mantissa_bits + 1))

    @property
    def machine_epsilon(self) -> float:
        """Gap between 1 and the next representable value, ``2 * u``."""
        return 2.0 * self.unit_roundoff

    def compression_rate_from(self, other: "FloatFormat") -> float:
        """Compression rate achieved by storing ``other`` data in this format.

        E.g. ``FP32.compression_rate_from(FP64) == 2.0`` (Section IV-A).
        """
        return other.bits / self.bits

    def describe(self) -> dict[str, float | int | str]:
        """Columns of Table I for this format, as a plain dict."""
        return {
            "name": self.name,
            "bits": self.bits,
            "xmin_subnormal": self.smallest_subnormal,
            "xmin_normal": self.smallest_normal,
            "xmax": self.largest_normal,
            "unit_roundoff": self.unit_roundoff,
        }


#: IEEE binary64 — the working precision of the paper's reference FFT.
FP64 = FloatFormat("FP64", exponent_bits=11, mantissa_bits=52, numpy_dtype=np.dtype(np.float64))
#: IEEE binary32.
FP32 = FloatFormat("FP32", exponent_bits=8, mantissa_bits=23, numpy_dtype=np.dtype(np.float32))
#: IEEE binary16 (half precision).
FP16 = FloatFormat("FP16", exponent_bits=5, mantissa_bits=10, numpy_dtype=np.dtype(np.float16))
#: bfloat16: FP32 exponent range with an 8-bit mantissa budget (7 stored bits).
BF16 = FloatFormat("BFloat16", exponent_bits=8, mantissa_bits=7, numpy_dtype=None)

_REGISTRY: dict[str, FloatFormat] = {
    "fp64": FP64,
    "float64": FP64,
    "double": FP64,
    "fp32": FP32,
    "float32": FP32,
    "single": FP32,
    "fp16": FP16,
    "float16": FP16,
    "half": FP16,
    "bf16": BF16,
    "bfloat16": BF16,
}


def known_formats() -> tuple[FloatFormat, ...]:
    """The four named formats of Table I, widest first."""
    return (FP64, FP32, FP16, BF16)


def get_format(name: str | FloatFormat) -> FloatFormat:
    """Look a format up by (case-insensitive) name; passes formats through.

    >>> get_format("fp32").bits
    32
    """
    if isinstance(name, FloatFormat):
        return name
    try:
        return _REGISTRY[name.strip().lower()]
    except KeyError:
        raise PrecisionError(
            f"unknown float format {name!r}; known: {sorted(set(_REGISTRY))}"
        ) from None


def trimmed_format(mantissa_bits: int) -> FloatFormat:
    """An FP64-exponent format keeping only ``mantissa_bits`` fraction bits.

    This is the "truncation" format of Section IV-B / Fig. 2: the value
    keeps binary64's exponent field (11 bits) but only ``mantissa_bits``
    of the 52 fraction bits.  ``trimmed_format(52)`` is FP64 itself and
    ``trimmed_format(23)`` has FP32's significand accuracy while keeping
    FP64's range (total 35 bits).
    """
    if not 1 <= mantissa_bits <= 52:
        raise PrecisionError(f"mantissa_bits must be in [1, 52], got {mantissa_bits}")
    if mantissa_bits == 52:
        return FP64
    return FloatFormat(f"FP64m{mantissa_bits}", exponent_bits=11, mantissa_bits=mantissa_bits)
