"""All-to-all algorithms (Section V): OSC ring, pairwise ring, compressed.

Interchangeable implementations of the generalized all-to-all
(``MPI_Alltoallv``) run on the :mod:`repro.runtime` API, all of one
object shape (:class:`~repro.collectives.base.Exchange`) and all built by
:func:`~repro.collectives.exchange.make_exchange`.  Every one but the
communicator's own ``alltoallv`` (the reference) moves its messages
through one data plane, a
:class:`~repro.collectives.slots.SlotTransport`: each message is put
straight into its slot of the peer's window, completed by one of two
rules:

* ``"fence"`` — :class:`~repro.collectives.osc.OscAlltoallv`, Algorithm 3:
  the one-sided ring on an RMA window, one fence per exchange;
* ``"credit"`` — :class:`~repro.collectives.pairwise.PairwiseAlltoallv`,
  the classical ring ("pairwise"), optionally with the node-aware
  permutation of Section V: a header and a release credit per message;
* :class:`~repro.collectives.compressed.CompressedOscAlltoallv` —
  Section V-B, under either rule: each message is encoded straight into
  its slot and decoded straight into its box.
"""

from repro.collectives.base import Exchange, ExchangeStats
from repro.collectives.compressed import CompressedOscAlltoallv
from repro.collectives.exchange import make_exchange
from repro.collectives.osc import OscAlltoallv, osc_alltoallv
from repro.collectives.pairwise import PairwiseAlltoallv, pairwise_alltoallv
from repro.collectives.twolevel import TwoLevelCompressedAlltoallv
from repro.collectives.variants import bruck_alltoall, linear_alltoallv
from repro.collectives.wire import WIRE_MAGIC, WIRE_VERSION, decode_wire, encode_wire

__all__ = [
    "make_exchange",
    "Exchange",
    "PairwiseAlltoallv",
    "pairwise_alltoallv",
    "OscAlltoallv",
    "osc_alltoallv",
    "CompressedOscAlltoallv",
    "TwoLevelCompressedAlltoallv",
    "ExchangeStats",
    "linear_alltoallv",
    "bruck_alltoall",
    "encode_wire",
    "decode_wire",
    "WIRE_MAGIC",
    "WIRE_VERSION",
]
