"""A transform never writes into the caller's data.

Each c2c stage transforms in place the block its reshape has just
allocated; what a caller hands in is only ever read, on every executor
(SPMD on threads and forked ranks, under either completion rule and
every codec; the virtual one; the resilient one), and the public batched
FFTs stay out of place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CastCodec
from repro.fft import Fft3d, batched_fft, batched_ifft
from repro.resilience.checkpoint import ResilientFft3d
from repro.runtime import ThreadWorld, make_world

SHAPE, P = (8, 8, 8), 4
CODECS = {"raw": {}, "fp32": {"codec": CastCodec("fp32")}, "e_tol": {"e_tol": 1e-10}}


def _field(seed: int = 5, dtype=np.complex128) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)).astype(dtype)


@pytest.mark.parametrize("codec", list(CODECS))
@pytest.mark.parametrize("method", ["osc", "pairwise"])
@pytest.mark.parametrize("runtime", ["thread", "proc"])
def test_forward_spmd_leaves_local_as_it_was(runtime, method, codec):
    plan = Fft3d(SHAPE, P, **CODECS[codec])
    blocks = plan.scatter(_field())

    def kernel(comm):
        local = blocks[comm.rank]
        before = local.copy()
        spectrum = plan.forward_spmd(comm, local, method=method)
        kept = spectrum.copy()
        back = plan.forward_spmd(comm, spectrum, method=method, inverse=True)
        return (
            np.array_equal(local.view(np.uint64), before.view(np.uint64)),
            np.array_equal(spectrum.view(np.uint64), kept.view(np.uint64)),
            np.shares_memory(back, local) or np.shares_memory(spectrum, local),
        )

    for untouched, spectrum_untouched, shares in make_world(runtime, P, timeout=60.0).run(kernel):
        assert untouched and spectrum_untouched and not shares


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_virtual_forward_and_backward_leave_their_input(precision):
    plan = Fft3d(SHAPE, P, precision=precision)
    x = _field(dtype=plan.dtype)
    before = x.copy()
    spectrum = plan.forward(x)
    assert np.array_equal(x, before)
    kept = spectrum.copy()
    plan.backward(spectrum)
    assert np.array_equal(spectrum, kept)


def test_resilient_transform_leaves_local_as_it_was():
    fft = ResilientFft3d(SHAPE, P, codec=CastCodec("fp32"), method="osc")
    blocks = fft.plan.scatter(_field())

    def kernel(comm):
        local = blocks[comm.rank]
        before = local.copy()
        result = fft.run_spmd(comm, local)
        kept = result.block.copy()
        fft.run_spmd(comm, result.block, inverse=True)
        return (
            np.array_equal(local.view(np.uint64), before.view(np.uint64)),
            np.array_equal(result.block.view(np.uint64), kept.view(np.uint64)),
        )

    for untouched, spectrum_untouched in ThreadWorld(P, timeout=60.0).run(kernel):
        assert untouched and spectrum_untouched


@pytest.mark.parametrize("transform", [batched_fft, batched_ifft])
@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_public_batched_ffts_are_out_of_place(transform, precision):
    block = _field(dtype=np.complex128 if precision == "fp64" else np.complex64)
    before = block.copy()
    for axis in range(3):
        out = transform(block, axis, precision)
        assert not np.shares_memory(out, block)
        assert np.array_equal(block, before)
