"""Test-only mutation hooks: controlled defect injection points.

The conformance harness must be able to prove *it would catch a real
bug*.  Faults injected by :mod:`repro.faults` model the environment
(bit-flips, drops, stragglers) — the self-healing machinery is supposed
to absorb those.  Mutation hooks model *implementation defects*: an
off-by-one in a put offset, a wrong block index in Bruck's rounds.
Production code calls :func:`mutate` at a handful of named points; with
no mutation installed the call returns its input unchanged (one dict
lookup on an empty dict — no measurable hot-path cost), so the hooks
are inert outside the harness's self-test.

This module deliberately imports nothing from the rest of the package:
the collectives import it, and it must never import them back.

Usage (tests only)::

    from repro.conformance import hooks

    with hooks.mutation("osc.put_offset", lambda off, **ctx: max(0, off - 1)):
        ...   # every OSC put now lands one byte early
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["MUTATION_POINTS", "install_mutation", "clear_mutations", "mutation", "mutate", "active_mutations"]

#: Named mutation points wired into production code.  Each receives the
#: original value plus keyword context and returns the (possibly
#: mutated) value.
MUTATION_POINTS = (
    "osc.put_offset",  # byte offset of every slot put (SlotTransport: every window exchange, either rule)
    "bruck.block_index",  # block index set shipped in a Bruck round
    "pairwise.chunk",  # outgoing chunk of one pairwise ring step
)

_MUTATIONS: dict[str, Callable[..., Any]] = {}


def install_mutation(point: str, fn: Callable[..., Any]) -> None:
    """Install ``fn`` at ``point`` (replacing any previous mutation)."""
    if point not in MUTATION_POINTS:
        raise ValueError(f"unknown mutation point {point!r}; expected one of {MUTATION_POINTS}")
    _MUTATIONS[point] = fn


def clear_mutations() -> None:
    """Remove every installed mutation."""
    _MUTATIONS.clear()


def active_mutations() -> tuple[str, ...]:
    """Names of the points that currently have a mutation installed."""
    return tuple(sorted(_MUTATIONS))


@contextmanager
def mutation(point: str, fn: Callable[..., Any]) -> Iterator[None]:
    """Scoped :func:`install_mutation`; restores the previous state."""
    previous = _MUTATIONS.get(point)
    install_mutation(point, fn)
    try:
        yield
    finally:
        if previous is None:
            _MUTATIONS.pop(point, None)
        else:
            _MUTATIONS[point] = previous


def mutate(point: str, value: Any, **context: Any) -> Any:
    """Pass ``value`` through the mutation at ``point`` (identity when none)."""
    fn = _MUTATIONS.get(point)
    return value if fn is None else fn(value, **context)
