"""All-to-all exchanges (Section V): the reference, one window exchange, two-level.

Every exchange has one object shape
(:class:`~repro.collectives.base.Exchange`) and is built by
:func:`~repro.collectives.exchange.make_exchange`.  There are three:

* :class:`~repro.collectives.exchange.ReferenceAlltoallv` — the
  communicator's own two-sided ``alltoallv``, the oracle of the others;
* :class:`~repro.collectives.slot_exchange.SlotExchange` — Algorithm 3:
  each message is put straight into its slot of the peer's window
  through one :class:`~repro.collectives.slots.SlotTransport`, completed
  by its ``rule``: ``"fence"`` (the one-sided ring, one fence per
  exchange) or ``"credit"`` (the classical "pairwise" ring, optionally
  node-aware: a header and a release credit per message).  Without a
  codec a message is its raw bytes; with one (Section V-B) it is encoded
  into its slot as a checksummed frame, decoded into its box, and
  recovered down the lossy -> lossless -> raw FP64 ladder;
* :class:`~repro.collectives.twolevel.TwoLevelCompressedAlltoallv` — the
  compressed exchange routed through node leaders.
"""

from repro.collectives.base import Exchange, ExchangeStats
from repro.collectives.exchange import ReferenceAlltoallv, make_exchange
from repro.collectives.slot_exchange import SlotExchange
from repro.collectives.twolevel import TwoLevelCompressedAlltoallv
from repro.collectives.variants import bruck_alltoall
from repro.collectives.wire import WIRE_MAGIC, WIRE_VERSION, decode_wire, encode_wire

__all__ = [
    "make_exchange",
    "Exchange",
    "ExchangeStats",
    "ReferenceAlltoallv",
    "SlotExchange",
    "TwoLevelCompressedAlltoallv",
    "bruck_alltoall",
    "encode_wire",
    "decode_wire",
    "WIRE_MAGIC",
    "WIRE_VERSION",
]
