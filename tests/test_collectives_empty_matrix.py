"""Zero-byte / empty-message matrix across every alltoallv variant.

Empty blocks are where vector all-to-alls historically break: cumulative
offsets collapse, ``None`` sends meet zero-length arrays, windows shrink
to zero bytes, count exchanges carry all-zero rows.  Every variant must
agree with the transposition oracle ``recv[d][s] = send[s][d]`` on every
pattern — including the degenerate all-empty exchange.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import SlotExchange, bruck_alltoall
from repro.compression.base import IdentityCodec
from repro.conformance.oracles import assert_blocks_equal, expected_recv, make_send_matrix
from repro.runtime.thread_rt import ThreadWorld

P = 4

#: name -> p x p element-count matrix exercising a distinct empty pattern.
PATTERNS = {
    "all-empty": [[0] * P for _ in range(P)],
    "self-only": [[7 if s == d else 0 for d in range(P)] for s in range(P)],
    "one-sender": [[3] * P if s == 1 else [0] * P for s in range(P)],
    "one-receiver": [[5 if d == 2 else 0 for d in range(P)] for _ in range(P)],
    "empty-diagonal": [[0 if s == d else 2 + s + d for d in range(P)] for s in range(P)],
    "checkerboard": [[((s + d) % 2) * 3 for d in range(P)] for s in range(P)],
    "single-pair": [[11 if (s, d) == (3, 0) else 0 for d in range(P)] for s in range(P)],
}

VARIANTS = ("reference", "linear", "pairwise", "osc", "osc-verify", "compressed")


def _once(comm, row, **config):
    """One call of a fresh slot exchange of ``config``: built, called, freed."""
    op = SlotExchange(comm, **config)
    try:
        return op(row)
    finally:
        op.free()


def _exchange(variant: str, send):
    def kernel(comm):
        row = send[comm.rank]
        if variant in ("reference", "linear"):  # the linear message storm is alltoallv
            return comm.alltoallv(row)
        if variant == "pairwise":
            return _once(comm, row, rule="credit")
        if variant == "osc":
            return _once(comm, row)
        if variant == "compressed":
            return _once(comm, row, codec=IdentityCodec())
        # "osc-verify": integrity is the identity codec's frames (here under the credit rule)
        return _once(comm, row, codec=IdentityCodec(), rule="credit")

    return ThreadWorld(P).run(kernel)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_empty_patterns_match_oracle(variant: str, pattern: str) -> None:
    send = make_send_matrix(PATTERNS[pattern], "float64", data_seed=7)
    want = expected_recv(send)
    results = _exchange(variant, send)
    for d in range(P):
        for s in range(P):
            assert_blocks_equal(
                results[d][s], want[d][s], where=f"{variant}/{pattern}: rank {d} <- {s}"
            )


@pytest.mark.parametrize("variant", ("pairwise", "osc"))
def test_none_sends_are_empty_blocks(variant: str) -> None:
    """``None`` in the send list must behave exactly like a zero-size block."""

    def kernel(comm):
        row = [None if d != comm.rank else np.full(3, float(comm.rank)) for d in range(P)]
        return _once(comm, row, rule="credit" if variant == "pairwise" else "fence")

    results = ThreadWorld(P).run(kernel)
    for d in range(P):
        for s in range(P):
            if s == d:
                got = np.asarray(results[d][s])
                if got.dtype == np.uint8:
                    got = got.view(np.float64)
                np.testing.assert_array_equal(got, np.full(3, float(s)))
            else:
                assert np.asarray(results[d][s]).size == 0


@pytest.mark.parametrize("p", [1, 2, 4])
def test_bruck_zero_size_blocks(p: int) -> None:
    """Equal-block Bruck with zero-element blocks: shapes survive the rounds."""

    def kernel(comm):
        return bruck_alltoall(comm, [np.zeros(0) for _ in range(p)])

    results = ThreadWorld(p).run(kernel)
    for out in results:
        assert len(out) == p
        for block in out:
            assert block.size == 0
