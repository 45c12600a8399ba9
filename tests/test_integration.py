"""End-to-end integration tests spanning multiple subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CastCodec,
    Fft3d,
    ShuffleZlibCodec,
    SpectralPoissonSolver,
    SUMMIT,
    Topology,
    VirtualWorld,
    codec_for_tolerance,
)
from repro.fft import Rfft3d
from repro.runtime import run_spmd


class TestLosslessFallback:
    """Conclusion: 'this work can be easily extended to lossless
    compression so that we fall back to the classical 3D FFT with a
    potential speedup'."""

    def test_lossless_fft_is_bit_exact(self, rng):
        shape = (16, 16, 16)
        x = (rng.random(shape) + 1j * rng.random(shape)).astype(np.complex128)
        exact = Fft3d(shape, 4).forward(x)
        lossless = Fft3d(shape, 4, codec=ShuffleZlibCodec()).forward(x)
        assert np.array_equal(exact, lossless)

    def test_lossless_rate_on_structured_data(self):
        """Smooth data actually compresses losslessly; the wire shrinks."""
        shape = (16, 16, 16)
        g = np.linspace(0, 2 * np.pi, 16)
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        smooth = (np.sin(X) * np.cos(Y) * np.sin(Z)).astype(np.complex128)
        plan = Fft3d(shape, 4, codec=ShuffleZlibCodec(level=6))
        plan.forward(smooth)
        assert plan.last_stats.achieved_rate > 1.05


class TestColdToHotPath:
    def test_same_answer_on_every_substrate(self, rng):
        """Virtual, SPMD-reference, SPMD-OSC, SPMD-compressed(identity-
        rate lossless) must all agree bit-for-bit."""
        shape = (12, 12, 12)
        x = rng.random(shape) + 0j
        plan = Fft3d(shape, 4)
        virtual = plan.forward(x)
        locals_ = plan.scatter(x)

        for method in ("reference", "pairwise", "osc"):
            def kernel(comm, method=method):
                return plan.forward_spmd(comm, locals_[comm.rank], method=method)

            got = plan.gather(run_spmd(4, kernel))
            assert np.array_equal(virtual, got), method

    def test_topology_aware_everything(self, rng):
        """Full stack with a Summit topology: traffic classification,
        node-aware ring, compression."""
        topo = Topology(SUMMIT, 12)
        shape = (24, 24, 24)
        x = rng.random(shape)
        world = VirtualWorld(12, topology=topo)
        plan = Fft3d(shape, 12, codec=CastCodec("fp32"), topology=topo)
        plan.forward(x, world=world)
        t = world.traffic
        assert t.intra_bytes > 0 and t.inter_bytes > 0
        # compression halves everything, including the intra-node share
        assert t.network_bytes < 4 * shape[0] ** 3 * 16  # < uncompressed volume


class TestScaleSmoke:
    def test_1536_rank_compressed_transform(self, rng):
        """Paper-scale rank count through the full byte path (a 64^3
        grid: 1536 pencils need at least a 64x64 face)."""
        shape = (64, 64, 64)
        x = rng.random(shape)
        plan = Fft3d(shape, 1536, codec=CastCodec("fp32"))
        err = np.linalg.norm(plan.forward(x) - np.fft.fftn(x)) / np.linalg.norm(np.fft.fftn(x))
        assert err < 1e-6
        assert plan.last_stats.achieved_rate == pytest.approx(2.0)
        # every reshape really is all-to-all-ish at this scale
        assert plan.reshapes[0].n_messages > 1536

    def test_r2c_at_scale(self, rng):
        shape = (32, 32, 32)
        x = rng.random(shape)
        plan = Rfft3d(shape, 384)
        ref = np.fft.rfftn(x)
        assert np.linalg.norm(plan.forward(x) - ref) < 1e-10 * np.linalg.norm(ref)


class TestWorkflowComposition:
    def test_pde_solver_uses_selected_codec_end_to_end(self):
        """e_tol -> codec -> compressed reshapes -> solution quality."""
        solver = SpectralPoissonSolver((16, 16, 16), nranks=4, e_tol=1e-5, data_hint="random")
        assert solver.fft.codec is not None
        chosen = codec_for_tolerance(1e-5, 8, n=16**3)
        assert solver.fft.codec.name == chosen.name
        X, Y, Z = solver.grid.mesh()
        f = 4.0 * np.sin(X) * np.cos(Y) * np.sin(Z)
        u = solver.solve(f)
        u_exact = np.sin(X) * np.cos(Y) * np.sin(Z)
        assert np.linalg.norm(u - u_exact) / np.linalg.norm(u_exact) < 1e-5

    def test_stats_survive_repeated_transforms(self, rng):
        plan = Fft3d((16, 16, 16), 4, codec=CastCodec("fp32"))
        x = rng.random((16, 16, 16))
        plan.forward(x)
        first = plan.last_stats.wire_bytes
        plan.forward(x)
        assert plan.last_stats.wire_bytes == first  # fresh stats per call
