"""Declarative machine specifications.

All performance modelling in :mod:`repro.netsim` is parameterised by a
:class:`MachineSpec`; the :data:`SUMMIT` preset carries the numbers the
paper reports or that are public datasheet values for the machine:

* 6 GPUs (V100) per node, one MPI rank per GPU (Section VI);
* 25 GB/s theoretical inter-node bandwidth per node (2 IB lanes);
* 50 GB/s intra-node bandwidth (NVLink, the paper's Section VI-A);
* V100 peak flop rates per precision from Table I.

Latency-type constants are not printed in the paper; we use typical
values for IB EDR + UCX rendezvous vs. RMA put, and expose them so the
ablation benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ModelError

__all__ = ["GpuSpec", "NetworkSpec", "MachineSpec", "SUMMIT", "summit_spec", "laptop_spec"]


@dataclass(frozen=True)
class GpuSpec:
    """Per-GPU compute capabilities.

    ``*_tflops`` are peak rates (Table I); ``fft_efficiency`` is the
    fraction of peak a batched 1-D FFT sustains (cuFFT on V100 reaches
    ~10 % of FP64 peak for large batched transforms — FFTs are memory
    bound).  ``membw_gbs`` is device memory bandwidth, which bounds
    pack/unpack and truncation kernels; ``kernel_launch_us`` is the
    per-kernel launch latency used by the compression pipeline model.
    """

    name: str = "V100"
    fp64_tflops: float = 7.8
    fp32_tflops: float = 15.7
    fp16_tflops: float = 125.0
    membw_gbs: float = 900.0
    fft_efficiency: float = 0.10
    kernel_launch_us: float = 5.0

    def fft_tflops(self, precision: str) -> float:
        """Sustained Tflop/s of the local batched FFT in ``precision``."""
        peak = {"fp64": self.fp64_tflops, "fp32": self.fp32_tflops, "fp16": self.fp16_tflops}
        try:
            return peak[precision.lower()] * self.fft_efficiency
        except KeyError:
            raise ModelError(f"unknown precision {precision!r}") from None


@dataclass(frozen=True)
class NetworkSpec:
    """Network cost parameters.

    ``internode_gbs`` is the achievable one-direction injection bandwidth
    of a node: the paper quotes "two Infiniband lanes for a total
    theoretical bandwidth of 25 GB/s", i.e. 12.5 GB/s each way, which is
    the quantity an all-to-all's sends see.  ``intranode_gbs`` is the
    GPU-to-GPU bandwidth inside a node (50 GB/s, Section VI-A).
    Two-sided messages above ``eager_limit`` pay a rendezvous handshake
    (``rendezvous_us``, one round trip); one-sided puts only pay
    ``put_overhead_us``.  This asymmetry is the mechanism behind Fig. 3
    (Section V: the handshake is "an unnecessary overhead for such a
    synchronous algorithm").
    """

    internode_gbs: float = 12.5
    intranode_gbs: float = 50.0
    base_latency_us: float = 1.5
    rendezvous_us: float = 8.0
    put_overhead_us: float = 0.6
    eager_limit: int = 8192
    #: Multiplicative bandwidth penalty per doubling of the node count for
    #: the *non*-topology-aware collective (congestion from unordered
    #: message storms: collisions and rerouting, Section V-A).
    congestion_per_doubling: float = 0.07


@dataclass(frozen=True)
class MachineSpec:
    """A cluster: homogeneous nodes, ``gpus_per_node`` ranks per node."""

    name: str
    gpus_per_node: int
    gpu: GpuSpec
    network: NetworkSpec
    max_nodes: int = 4608

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ModelError("gpus_per_node must be >= 1")
        if self.max_nodes < 1:
            raise ModelError("max_nodes must be >= 1")

    def nodes_for(self, nranks: int) -> int:
        """Node count hosting ``nranks`` ranks (must pack evenly)."""
        if nranks < 1:
            raise ModelError(f"nranks must be >= 1, got {nranks}")
        nodes, rem = divmod(nranks, self.gpus_per_node)
        if rem:
            raise ModelError(
                f"{nranks} ranks do not fill whole {self.gpus_per_node}-GPU nodes"
            )
        if nodes > self.max_nodes:
            raise ModelError(f"{nodes} nodes exceed machine size {self.max_nodes}")
        return nodes

    def with_network(self, **kwargs: float | int) -> "MachineSpec":
        """Copy of this machine with network parameters overridden."""
        return replace(self, network=replace(self.network, **kwargs))


def summit_spec() -> MachineSpec:
    """The Summit preset used throughout Section VI."""
    return MachineSpec(name="summit", gpus_per_node=6, gpu=GpuSpec(), network=NetworkSpec())


def laptop_spec() -> MachineSpec:
    """A tiny single-node machine, handy for unit tests of the models."""
    return MachineSpec(
        name="laptop",
        gpus_per_node=2,
        gpu=GpuSpec(name="toy", fp64_tflops=0.1, fp32_tflops=0.2, fp16_tflops=0.4, membw_gbs=50.0),
        network=NetworkSpec(internode_gbs=1.0, intranode_gbs=10.0),
        max_nodes=8,
    )


#: Module-level Summit instance (immutable, safe to share).
SUMMIT = summit_spec()
