"""The compressed exchange's old name, kept for the frozen benchmark suite."""

from repro.collectives.slot_exchange import SlotExchange as CompressedOscAlltoallv

__all__ = ["CompressedOscAlltoallv"]
