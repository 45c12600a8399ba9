"""Shared fixtures for the test suite."""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import random
import zlib

import numpy as np
import pytest

from repro.machine.spec import MachineSpec, laptop_spec, summit_spec
from repro.runtime.shm import SEG_PREFIX


@pytest.fixture(autouse=True, scope="session")
def _no_runtime_leaks():
    """The whole session must be leak-clean: every shared-memory segment
    the process runtime created is unlinked and every forked child is
    reaped by the time the last test finishes.  A leak here means some
    world's teardown path (success *or* failure) lost a segment."""
    pattern = f"/dev/shm/{SEG_PREFIX}*"
    before = set(glob.glob(pattern)) if os.path.isdir("/dev/shm") else set()
    yield
    for child in mp.active_children():
        child.join(timeout=10.0)
    leaked_children = mp.active_children()
    assert not leaked_children, f"zombie rank processes after session: {leaked_children}"
    if os.path.isdir("/dev/shm"):
        leaked = sorted(set(glob.glob(pattern)) - before)
        assert not leaked, f"leaked shared-memory segments after session: {leaked}"


@pytest.fixture
def leak_check():
    """The test must leave /dev/shm and the child table as it found them."""

    def segments() -> list[str]:
        return sorted(os.path.basename(p) for p in glob.glob(f"/dev/shm/{SEG_PREFIX}*"))

    before = segments()
    yield
    for proc in mp.active_children():
        proc.join(timeout=5.0)
    assert segments() == before, "leaked shared-memory segments"
    assert mp.active_children() == [], "leaked child processes"


@pytest.fixture(autouse=True)
def _seed_global_rngs(request) -> None:
    """Pin the *global* RNG states per test, keyed by the test's node id.

    Tests should draw from the ``rng`` fixture, but anything that slips
    through to ``random.*`` / legacy ``np.random.*`` (including inside
    the library under test) becomes reproducible instead of
    order-dependent: a test fails the same way alone as in the full run.
    """
    random.seed(f"repro-tests:{request.node.nodeid}")
    np.random.seed(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    """Every test sees a pristine telemetry layer.

    The metrics registry (with the live rows runs fold into it), the
    last-blackbox slot and the switch are process-global by design
    (always-on observability); without this reset a test could pass or
    fail on events another test emitted.  Flight rings are per world.
    """
    from repro import telemetry
    from repro.telemetry import blackbox, metrics

    def fresh():
        telemetry.reset()
        telemetry.bind(None)
        metrics.get_registry().clear()
        blackbox.set_last_blackbox(None)

    fresh()
    yield
    fresh()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests derive all randomness from it."""
    return np.random.default_rng(20220905)


@pytest.fixture
def summit() -> MachineSpec:
    return summit_spec()


@pytest.fixture
def laptop() -> MachineSpec:
    return laptop_spec()


@pytest.fixture
def random_complex(rng) -> np.ndarray:
    """A well-scaled complex128 message (the FFT wire payload dtype)."""
    return (rng.random(4096) - 0.5 + 1j * (rng.random(4096) - 0.5)).astype(np.complex128)


@pytest.fixture
def smooth_field() -> np.ndarray:
    """A spatially-correlated field (where transform codecs shine)."""
    t = np.linspace(0.0, 6.0 * np.pi, 8192)
    return np.sin(t) + 0.25 * np.cos(3.0 * t) + 0.05 * np.sin(11.0 * t)
