"""The serial reference: ``python serial.py N`` prints the milliseconds one
process needs for ``np.fft.ifftn(np.fft.fftn(x))`` on an N^3 complex128 grid.

Round-trip times are divided by this number, measured before and after
every round, so a machine that is slow for a while moves numerator and
denominator together.

It runs in a process of its own, like the rounds do, because the time of
a power-of-two FFT depends on how its input and temporaries happen to be
aligned to each other: inside the long-lived driver the same call
measured anywhere from 0.84 to 1.81 ms at 32^3 depending on what had been
allocated before it, while a fresh process — same allocation history
every time — repeats within about 5 %.

It reports the lower quartile of at least five calls (and at least 0.4 s
of them), the same statistic the rounds report for their round trips:
low enough to shed the calls a burst from another tenant hit, not so low
that it stops following a machine that is slow throughout.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

MIN_REPEATS = 5
MIN_SECONDS = 0.4


def serial_roundtrip_ms(n: int) -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    times: list[float] = []
    started = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - started < MIN_SECONDS:
        t0 = time.perf_counter()
        np.fft.ifftn(np.fft.fftn(x))
        times.append(time.perf_counter() - t0)
    return statistics.quantiles(times, n=4, method="inclusive")[0] * 1e3


if __name__ == "__main__":
    print(repr(serial_roundtrip_ms(int(sys.argv[1]))))
