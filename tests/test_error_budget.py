"""The paper's contract as a property: a round trip planned for ``e_tol``
comes back within ``e_tol`` — no slack — whatever the codec the budget
picks (trim, cast, ZFP for smooth data), the geometry (uneven ``N``,
prime ``p``), the rank count and the runtime, and after a rank death and
a restart, which must not spend the budget twice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.conformance.properties import _valid_fft_geometry
from repro.faults import FaultPlan, FaultRule
from repro.fft import Fft3d
from repro.resilience import ResilientFft3d
from repro.runtime import make_world
from repro.runtime.shm import fork_available
from repro.runtime.thread_rt import ThreadWorld

#: Per codec family: the data hint and the e_tol values the allocator answers with it.
FAMILIES = {
    "cast": ("random", [1e-2, 1e-4, 1e-6]),
    "trim": ("random", [1e-8, 1e-10, 1e-12]),
    "zfp": ("smooth", [1e-3, 1e-6, 1e-9, 1e-10]),  # under ~1e-11 its floor (2**-38) does not fit
}


def _field(shape, hint: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if hint == "random":
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid = np.meshgrid(*[np.arange(n) / n for n in shape], indexing="ij")
    x = np.zeros(shape, dtype=np.complex128)
    for _ in range(3):  # a few low plane waves: spatially correlated, unit peak scale
        k, phase = rng.integers(0, 2, size=3), rng.uniform(0.0, 2.0 * np.pi)
        wave = 2 * np.pi * sum(a * g for a, g in zip(k, grid)) + phase
        x += rng.uniform(0.5, 1.0) * np.exp(1j * wave)
    return x


def _plan(shape, p, family, e_tol):
    hint = FAMILIES[family][0]
    plan = Fft3d(tuple(shape), p, e_tol=e_tol, data_hint=hint)
    assert plan.codec.name.startswith(family), plan.codec.name
    assert plan.guaranteed_tolerance <= e_tol
    return plan, hint


def _relative(a, b) -> float:
    return float(np.linalg.norm((a - b).ravel()) / np.linalg.norm(b.ravel()))


def _spmd_round_trip(plan, x, runtime, method="osc"):
    blocks = plan.scatter(x)

    def kernel(comm):
        y = plan.forward_spmd(comm, blocks[comm.rank], method=method)
        return plan.forward_spmd(comm, y, method=method, inverse=True)

    return plan.gather(make_world(runtime, plan.nranks, timeout=60.0).run(kernel))


geometries = st.tuples(
    st.lists(st.integers(2, 10), min_size=3, max_size=3), st.sampled_from([1, 2, 3, 4, 5, 7, 8])
)
budgets = st.sampled_from(sorted(FAMILIES)).flatmap(
    lambda f: st.tuples(st.just(f), st.sampled_from(FAMILIES[f][1]))
)


@settings(max_examples=25, deadline=None)
@given(geometries, budgets, st.integers(0, 2**31 - 1))
def test_virtual_round_trip_within_e_tol(geometry, budget, seed):
    (shape, p), (family, e_tol) = geometry, budget
    assume(_valid_fft_geometry(shape, p))
    plan, hint = _plan(shape, p, family, e_tol)
    x = _field(tuple(shape), hint, seed)
    assert plan.roundtrip_error(x) <= e_tol


@settings(max_examples=6, deadline=None)
@given(geometries, budgets, st.integers(0, 2**31 - 1), st.sampled_from(["osc", "pairwise"]))
def test_thread_round_trip_within_e_tol(geometry, budget, seed, method):
    (shape, p), (family, e_tol) = geometry, budget
    assume(_valid_fft_geometry(shape, p))
    plan, hint = _plan(shape, p, family, e_tol)
    x = _field(tuple(shape), hint, seed)
    assert _relative(_spmd_round_trip(plan, x, "thread", method), x) <= e_tol


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
@pytest.mark.parametrize(
    "shape, p, family, e_tol",
    [
        ((9, 6, 5), 1, "trim", 1e-10),
        ((7, 10, 6), 2, "cast", 1e-6),
        ((6, 9, 7), 3, "zfp", 1e-9),
        ((12, 10, 9), 4, "trim", 1e-12),
        ((8, 12, 10), 8, "trim", 1e-8),
    ],
)
def test_proc_round_trip_within_e_tol(shape, p, family, e_tol):
    plan, hint = _plan(shape, p, family, e_tol)
    x = _field(shape, hint, 7)
    assert _relative(_spmd_round_trip(plan, x, "proc"), x) <= e_tol


def test_a_restart_does_not_spend_the_budget_twice(rng):
    """Kill a rank mid-transform: the survivors' plan (rebuilt for the
    shrunk world) has the same share, and the stages re-run from the
    checkpoint compress each reshape once — the round trip still meets
    ``e_tol``."""
    shape, p, e_tol = (12, 10, 8), 4, 1e-10
    x = _field(shape, "random", 11)
    fft = ResilientFft3d(shape, p, e_tol=e_tol, method="osc")
    faults = FaultPlan([FaultRule(kind="kill", rank=1, after=12)])
    world = ThreadWorld(p, timeout=20.0, faults=faults, suspect_after=0.5)

    def kernel(comm):
        fwd = fft.run_spmd(comm, fft.plan.scatter(x)[comm.rank])
        back = fft.run_spmd(fwd.comm, fwd.block, inverse=True)
        blocks = back.comm.allgather(back.block)
        if back.comm.rank == 0:
            return back.plan, fwd.recovered or back.recovered, back.plan.gather(blocks)
        return None

    [(survivors, recovered, full)] = [r for r in world.run(kernel) if r is not None]
    assert recovered and survivors.nranks == p - 1
    assert (survivors.codec.name, survivors.share) == (fft.plan.codec.name, fft.plan.share)
    assert _relative(full, x) <= e_tol


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-8, 1e4])
def test_zfp_round_trip_is_within_e_tol_at_every_scale(scale):
    """ZFP's fixed-accuracy quantum is relative to the message's peak: a
    Gaussian bump planned for ``e_tol = 1e-3`` comes back within it
    whatever its amplitude (an absolute quantum returned 0.88 at 1e-4)."""
    n, e_tol = 16, 1e-3
    plan = Fft3d((n,) * 3, 4, e_tol=e_tol, data_hint="smooth")
    assert plan.codec.name.startswith("zfp") and plan.guaranteed_tolerance <= e_tol
    r2 = sum((g - (n - 1) / 2) ** 2 for g in np.indices((n,) * 3))
    x = scale * np.exp(-r2 / (2 * (n / 6) ** 2)).astype(np.complex128)
    assert plan.roundtrip_error(x) <= e_tol
