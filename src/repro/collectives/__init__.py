"""All-to-all algorithms (Section V): pairwise ring, OSC ring, compressed OSC.

Interchangeable implementations of the generalized all-to-all
(``MPI_Alltoallv``) run on the :mod:`repro.runtime` API, all of one
object shape (:class:`~repro.collectives.base.Exchange`) and all built by
:func:`~repro.collectives.exchange.make_exchange`:

* :func:`~repro.collectives.pairwise.pairwise_alltoallv` — the classical
  two-sided ring ("pairwise") algorithm: ``p`` steps, each rank sending
  and receiving one message per step, optionally with the node-aware
  permutation of Section V;
* :class:`~repro.collectives.osc.OscAlltoallv` — Algorithm 3: one-sided
  ring on an RMA window, with window caching across repeated exchanges;
* :class:`~repro.collectives.compressed.CompressedOscAlltoallv` —
  Section V-B: the OSC ring with per-destination compression staged
  through internal buffers (the send buffer stays const) and chunked
  puts mirroring the GPU-stream pipeline.
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
