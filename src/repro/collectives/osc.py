"""One-shot fence-rule exchange, kept for the frozen benchmark suite."""

from repro.collectives.slot_exchange import SlotExchange

__all__ = ["osc_alltoallv"]


def osc_alltoallv(comm, send, *, pool=None):
    """Build a raw fence-rule :class:`SlotExchange`, exchange once, free it
    (``pool`` is accepted, as the suite passes one, and unused)."""
    op = SlotExchange(comm)
    try:
        return op(send)
    finally:
        op.free()
