"""Exception hierarchy for the :mod:`repro` package.

Every subsystem raises a subclass of :class:`ReproError` so downstream
users can catch library failures with a single ``except`` clause while
still being able to discriminate the failing subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PrecisionError",
    "CompressionError",
    "WireIntegrityError",
    "TransientCodecError",
    "ToleranceError",
    "RuntimeAbort",
    "CommunicatorError",
    "WindowError",
    "DecompositionError",
    "PlanError",
    "ModelError",
    "FaultConfigError",
    "RetryExhaustedError",
    "ConformanceFailure",
    "RankFailureError",
    "RankKilledError",
    "RankHungError",
    "RevokedError",
    "StallError",
    "BarrierBrokenError",
    "BarrierStallError",
    "UnsupportedFaultError",
    "CheckpointError",
    "AbftError",
    "TuningError",
    "TelemetryError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class PrecisionError(ReproError):
    """Invalid floating-point format description or conversion."""


class CompressionError(ReproError):
    """Codec misuse: bad rate, shape mismatch, corrupt stream."""


class WireIntegrityError(CompressionError):
    """A wire frame failed validation: bad magic, version, or checksum.

    Raised *before* any attempt to deserialize the frame contents, so a
    corrupted put can never be silently unpickled into garbage.
    """


class TransientCodecError(CompressionError):
    """A codec failed transiently (e.g. device hiccup); safe to retry."""


class ToleranceError(ReproError):
    """An error tolerance cannot be met or is ill-formed."""


class RuntimeAbort(ReproError):
    """A rank aborted inside an SPMD region (mirrors ``MPI_Abort``)."""


class CommunicatorError(ReproError):
    """Invalid communicator usage (bad rank, mismatched collective...)."""


class WindowError(ReproError):
    """Invalid one-sided (RMA) window usage."""


class DecompositionError(ReproError):
    """A domain cannot be decomposed over the requested process grid."""


class PlanError(ReproError):
    """An FFT/reshape plan cannot be constructed or executed."""


class ModelError(ReproError):
    """The performance model was queried with inconsistent parameters."""


class FaultConfigError(ReproError):
    """An ill-formed fault plan, rule, or retry policy."""


class RetryExhaustedError(ReproError):
    """A resilient exchange gave up: every retry and fallback failed."""


class RankFailureError(CommunicatorError):
    """One or more ranks failed; carries the structured failure report.

    Raised by the thread runtime (instead of an opaque join/timeout
    error) when a rank failure is detected and cannot be, or was not,
    recovered.  ``report`` is the
    :class:`~repro.resilience.monitor.FailureReport` describing what the
    watchdog saw (who failed, how the stall was classified, when).
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class RankKilledError(RankFailureError):
    """Raised *inside* a rank murdered by a ``kill`` fault rule.

    This is an *expected terminal failure*: the runtime records the
    death and lets the surviving ranks recover instead of aborting the
    whole world.
    """


class RankHungError(RankFailureError):
    """Raised inside a ``hang``-faulted rank once peers detect it.

    The hung thread is parked (no heartbeats, no progress) until the
    watchdog declares it dead and revokes the world, at which point the
    thread is released with this error so it can unwind.
    """


class RevokedError(CommunicatorError):
    """The communicator was revoked after a failure elsewhere (ULFM).

    Every blocking operation on a revoked world raises this promptly —
    peers blocked in recv/fence must not wait out their full timeout
    when a failure has already been detected.  Recovery proceeds via
    ``comm.agree()`` / ``comm.shrink()``, which stay usable.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class StallError(CommunicatorError):
    """A blocking operation exceeded its deadline (structured timeout).

    Unlike a bare timeout, carries the watchdog's classification of the
    stall (straggler / dead / deadlock) and, when raised through a
    communicator, the :class:`~repro.resilience.monitor.FailureReport`.
    """

    def __init__(self, message: str, report=None, classification: str = "unknown") -> None:
        super().__init__(message)
        self.report = report
        self.classification = classification


class BarrierBrokenError(CommunicatorError):
    """A participant left the barrier this rank waits in.

    Its deadline passed, or it unwound through a revocation or an abort:
    the echo of a failure elsewhere, never a root cause.
    """


class BarrierStallError(StallError, BarrierBrokenError):
    """This rank's own deadline passed in a barrier: a stall to classify,
    and for its peers the departure that breaks the barrier."""


class UnsupportedFaultError(FaultConfigError):
    """A fault plan asks a runtime for an injection it cannot perform.

    The virtual (single-thread, functional) runtime cannot kill or hang
    a rank — there is no rank to kill.  Raising a typed error keeps the
    two runtimes from silently diverging under the same plan.
    """


class CheckpointError(ReproError):
    """A reshape checkpoint is missing, incomplete, or failed its CRC."""


class AbftError(ReproError):
    """An ABFT checksum disagreed beyond the configured tolerance."""


class TuningError(ReproError):
    """A tuning profile is malformed, stale, or names an unknown codec."""


class TelemetryError(ReproError):
    """Telemetry misuse: bad segment, unknown rank, malformed dump."""


class ConformanceFailure(ReproError):
    """A generated conformance property was violated (see repro.conformance).

    Raised by property checkers when an implementation disagrees with
    its oracle; the harness records it alongside the scenario so the
    case can be replayed from its seed and shrunk.
    """
