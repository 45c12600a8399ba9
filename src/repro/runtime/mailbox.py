"""Tag-matched message queues backing the thread runtime's point-to-point.

One :class:`Mailbox` per rank.  Senders :meth:`post` (source, tag,
payload) envelopes; receivers :meth:`match` with optional wildcards.
Matching follows MPI ordering semantics: messages from the same
(source, tag) are matched in posting order (non-overtaking).

Waiting is *quantised*: instead of parking on the condition for the
whole timeout, :meth:`match` wakes every ``quantum`` seconds and runs a
caller-supplied ``poll`` callback **outside the lock**.  The thread
runtime uses that callback to beacon liveness, run the failure watchdog
and raise (:class:`~repro.errors.RevokedError`,
:class:`~repro.errors.RuntimeAbort`) — so a receiver blocked on a rank
that just died is woken within one quantum instead of sitting out its
full deadline, and an aborting world wakes it at once
(:meth:`Mailbox.kick`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import StallError
from repro.resilience.monitor import QUANTUM

__all__ = ["Envelope", "Mailbox"]


@dataclass
class Envelope:
    source: int
    tag: int
    payload: np.ndarray


def _describe(source: int, tag: int) -> str:
    src = "ANY_SOURCE" if source == -1 else f"rank {source}"
    tg = "ANY_TAG" if tag == -1 else str(tag)
    return f"source={src}, tag={tg}"


class Mailbox:
    """Thread-safe mailbox with MPI-style (source, tag) matching."""

    def __init__(self, owner_rank: int) -> None:
        self.owner_rank = owner_rank
        self._queue: deque[Envelope] = deque()
        self._cond = threading.Condition()

    def post(self, env: Envelope) -> None:
        """Deliver an envelope (called from the sender's thread)."""
        with self._cond:
            self._queue.append(env)
            self._cond.notify_all()

    def kick(self) -> None:
        """Wake all blocked matchers to run their poll callbacks now.

        Used by abort: the world's state says what happened and the
        callbacks raise it; the mailbox itself holds no verdict.
        """
        with self._cond:
            self._cond.notify_all()

    def _find(self, source: int, tag: int) -> Envelope | None:
        for i, env in enumerate(self._queue):
            if (source == -1 or env.source == source) and (tag == -1 or env.tag == tag):
                del self._queue[i]
                return env
        return None

    def peek(self, source: int, tag: int) -> bool:
        """Non-consuming probe: is a matching envelope queued right now?

        Backs ``Request.test()`` — the envelope stays queued so a later
        ``match`` (``wait``) still receives it.
        """
        with self._cond:
            return any(
                (source == -1 or env.source == source) and (tag == -1 or env.tag == tag)
                for env in self._queue
            )

    def match(
        self,
        source: int,
        tag: int,
        timeout: float | None,
        *,
        poll=None,
        quantum: float = QUANTUM,
    ) -> Envelope:
        """Block until a matching envelope arrives (wildcards: -1).

        Raises a :class:`StallError` naming the awaited source, tag and
        elapsed time on deadline.  ``poll`` runs outside the lock once
        per quantum and after a :meth:`kick`; anything it raises
        propagates (that is how abort, revocation and watchdog verdicts
        preempt the deadline).
        """
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        while True:
            with self._cond:
                env = self._find(source, tag)
                if env is not None:
                    return env
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    raise StallError(
                        f"rank {self.owner_rank}: recv({_describe(source, tag)}) "
                        f"timed out after {now - start:.3f}s "
                        f"(limit {timeout}s) — peer dead, wedged, or deadlocked"
                    )
                wait_t = quantum if deadline is None else min(quantum, deadline - now)
                self._cond.wait(timeout=wait_t)
            # Outside the lock: beacon, run the watchdog, surface
            # revocation.  Must not nest under self._cond — the callback
            # takes monitor/world locks of its own.
            if poll is not None:
                poll()
