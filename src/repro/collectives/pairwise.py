"""One-shot classical ring (credit rule), kept for the frozen benchmark suite."""

from repro.collectives.slot_exchange import SlotExchange

__all__ = ["pairwise_alltoallv"]


def pairwise_alltoallv(comm, send):
    """Build a raw credit-rule :class:`SlotExchange`, exchange once, free it."""
    op = SlotExchange(comm, rule="credit")
    try:
        return op(send)
    finally:
        op.free()
