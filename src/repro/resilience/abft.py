"""Algorithm-based fault tolerance (ABFT) checksums for reshapes.

A reshape is a *permutation*: every grid cell leaves exactly one rank
and lands on exactly one rank, bit-identical when the exchange is exact
and within the codec's ``e_tol`` when it is lossy.  That makes linear
checksums a natural invariant — the sum of the elements of each
(src → dst) message is preserved by pack → compress → exchange →
decompress → unpack, up to compression error.

Protocol (driven by :mod:`repro.resilience.checkpoint`):

1. before the exchange every rank computes :func:`reshape_checksums`
   over its *outgoing* messages from the pre-reshape block;
2. the per-rank checksum tables are allgathered (tiny control-plane
   traffic — two scalars per message);
3. after the exchange every rank recomputes the sums over the regions
   it *received* (same cells, new layout) and calls
   :func:`verify_checksums`, which raises :class:`~repro.errors.AbftError`
   on any disagreement beyond the tolerance.

Unlike the wire CRC (which protects one put's bytes in flight), these
checksums travel out-of-band and survive a restart: a resumed rank can
validate a checkpointed block against sums computed before the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.errors import AbftError

__all__ = ["AbftChecksums", "reshape_checksums", "verify_checksums"]

#: Floor on the comparison tolerance, in units of machine epsilon, to
#: absorb benign non-associativity of the two summation orders.
_EPS_FACTOR = 64.0


@dataclass
class AbftChecksums:
    """Per-message linear checksums of one rank's side of a reshape.

    ``entries`` maps ``(src, dst)`` to ``(sum, abs_sum)`` where ``sum``
    is the (complex) element sum of the message and ``abs_sum`` the sum
    of magnitudes — the scale against which a deviation is judged.
    """

    rank: int
    stage: int
    direction: str  # "send" | "recv"
    entries: dict[tuple[int, int], tuple[complex, float]] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "stage": self.stage,
            "direction": self.direction,
            "entries": {
                f"{s}->{d}": {"sum": [val.real, val.imag], "abs_sum": mag}
                for (s, d), (val, mag) in sorted(self.entries.items())
            },
        }


def reshape_checksums(
    plan, rank: int, block: np.ndarray, *, stage: int = 0, direction: str = "send"
) -> AbftChecksums:
    """Checksum one rank's messages of a reshape.

    ``direction="send"`` sums the chunks ``rank`` is about to pack from
    its pre-reshape ``block`` (one entry per ``plan.pairs[rank]``);
    ``direction="recv"`` sums the regions of the post-reshape ``block``
    that each source delivered (one entry per ``plan.incoming[rank]``).
    Both sides sum the *same cells*, so the entries are comparable.
    """
    if direction not in ("send", "recv"):
        raise AbftError(f"direction must be 'send' or 'recv', got {direction!r}")
    out = AbftChecksums(rank=rank, stage=stage, direction=direction)
    if direction == "send":
        for d, box in plan.pairs[rank]:
            chunk = plan.pack(rank, block, d, box)
            out.entries[(rank, d)] = (complex(chunk.sum()), float(np.abs(chunk).sum()))
    else:
        for s, where in plan.rank_stages[rank].incoming.items():
            chunk = block[where]
            out.entries[(s, rank)] = (complex(chunk.sum()), float(np.abs(chunk).sum()))
    return out


def verify_checksums(
    sent: Mapping[tuple[int, int], tuple[complex, float]] | AbftChecksums,
    received: AbftChecksums,
    e_tol: float | None = None,
    *,
    eps: float | None = None,
) -> int:
    """Compare receiver-side sums against the senders' (raises on mismatch).

    ``sent`` is either one sender's :class:`AbftChecksums` or a merged
    ``(src, dst) -> (sum, abs_sum)`` mapping covering all senders.  The
    per-message tolerance is ``max(e_tol, 64·eps) * abs_sum`` — a lossy
    codec may perturb each element by ``e_tol`` relative to its scale,
    so the sum may drift by at most that fraction of the magnitude sum.
    A missing sender entry for a received message is itself an error
    (the cell's provenance cannot be validated).

    Returns the number of messages checked.
    """
    sent_entries = sent.entries if isinstance(sent, AbftChecksums) else sent
    if eps is None:
        eps = float(np.finfo(np.float64).eps)
    rel = max(float(e_tol or 0.0), _EPS_FACTOR * eps)
    checked = 0
    problems: list[str] = []
    for key, (got_sum, got_mag) in sorted(received.entries.items()):
        ref = sent_entries.get(key)
        if ref is None:
            problems.append(f"message {key[0]}->{key[1]}: no sender checksum")
            continue
        ref_sum, ref_mag = ref
        scale = max(ref_mag, got_mag)
        tol = rel * scale + _EPS_FACTOR * eps  # absolute floor near zero
        err = abs(got_sum - ref_sum)
        if err > tol:
            problems.append(
                f"message {key[0]}->{key[1]}: checksum off by {err:.3e} "
                f"(tolerance {tol:.3e}, scale {scale:.3e})"
            )
        checked += 1
    if problems:
        raise AbftError(
            f"rank {received.rank} stage {received.stage}: "
            f"{len(problems)} ABFT checksum violation(s): " + "; ".join(problems)
        )
    return checked
