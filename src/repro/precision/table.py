"""Regeneration of paper Table I.

Table I lists, for BFloat16/FP16/FP32/FP64: the storage width, the
smallest subnormal, the smallest and largest normals, the unit round-off,
and the peak Tflop/s of NVIDIA V100 and AMD MI100 GPUs in that precision.
The format-derived columns are *computed* from
:class:`repro.precision.formats.FloatFormat`; the peaks are hardware
datasheet constants carried by the machine specs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.precision.formats import BF16, FP16, FP32, FP64, FloatFormat

__all__ = ["TableIRow", "table1_rows", "format_table1"]

#: Peak Tflop/s per (gpu, format name) from the paper's Table I.
PEAK_TFLOPS: dict[str, dict[str, float | None]] = {
    "V100": {"BFloat16": None, "FP16": 125.0, "FP32": 15.7, "FP64": 7.8},
    "MI100": {"BFloat16": 92.0, "FP16": 184.0, "FP32": 23.0, "FP64": 11.5},
}


@dataclass(frozen=True)
class TableIRow:
    """One row of Table I."""

    fmt: FloatFormat
    peak_v100_tflops: float | None
    peak_mi100_tflops: float | None


def table1_rows() -> list[TableIRow]:
    """All four rows of Table I, in the paper's order (narrowest first)."""
    rows = []
    for fmt in (BF16, FP16, FP32, FP64):
        rows.append(
            TableIRow(
                fmt,
                PEAK_TFLOPS["V100"][fmt.name],
                PEAK_TFLOPS["MI100"][fmt.name],
            )
        )
    return rows


def format_table1() -> str:
    """Render Table I as fixed-width text (one line per format)."""
    header = (
        f"{'Arithmetic':<10} {'bits':>4} {'x_min,s':>10} {'x_min':>10} "
        f"{'x_max':>10} {'roundoff':>10} {'V100':>7} {'MI100':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in table1_rows():
        f = row.fmt
        v100 = "N/A" if row.peak_v100_tflops is None else f"{row.peak_v100_tflops:g}"
        mi100 = "N/A" if row.peak_mi100_tflops is None else f"{row.peak_mi100_tflops:g}"
        lines.append(
            f"{f.name:<10} {f.bits:>4d} {f.smallest_subnormal:>10.1e} "
            f"{f.smallest_normal:>10.1e} {f.largest_normal:>10.1e} "
            f"{f.unit_roundoff:>10.1e} {v100:>7} {mi100:>7}"
        )
    return "\n".join(lines)
