"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidEdgeError(ReproError):
    """An edge is malformed: a self-loop, or endpoints of the wrong type."""


class DuplicateEdgeError(ReproError):
    """A stream that must be simple saw the same edge twice."""


class EmptyStreamError(ReproError):
    """An operation that needs at least one observed edge saw none."""


class EdgeNotFoundError(ReproError, KeyError):
    """A lookup for a specific edge found no such edge.

    Subclasses :class:`KeyError` too, so ``except KeyError`` works for
    callers treating the stream as a mapping from edges to positions.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return Exception.__str__(self)


class WorkerCrashedError(ReproError):
    """A parallel worker process died without reporting a result.

    Raised for abnormal deaths (OOM kill, segfault) that bypass the
    worker's own Python-level error reporting.
    """


class RetryExhaustedError(ReproError):
    """A supervised worker kept failing past its restart budget.

    Raised by the supervision layer once a worker has crashed (or
    missed its deadline) more than ``max_restarts`` times. The last
    worker traceback rides along both as an ``add_note`` and as the
    :attr:`last_traceback` attribute, so operators and tests can see
    *why* the final incarnation died, not just that it did.
    """

    def __init__(self, message: str, *, last_traceback: str | None = None) -> None:
        super().__init__(message)
        self.last_traceback = last_traceback
        if last_traceback:
            self.add_note(f"last worker traceback:\n{last_traceback}")


class InjectedFaultError(ReproError):
    """An exception deliberately raised by the fault-injection plan.

    Only ever raised when a :class:`~repro.streaming.faults.FaultPlan`
    is installed (tests, chaos drills, recovery benchmarks) -- never
    during normal operation.
    """


class ReproWarning(UserWarning):
    """Base class for all warnings emitted by the repro package."""


class WorkerRestartedWarning(ReproWarning):
    """A supervised worker died and was respawned from its snapshot.

    The run is continuing -- bit-identically, via state restore plus
    batch replay -- but the operator should know a worker is cycling.
    """


class SourceRetryWarning(ReproWarning):
    """A follow-mode source read failed transiently and will be retried."""


class SourceRotatedWarning(ReproWarning):
    """A followed file was rotated or truncated; re-reading from offset 0."""


class CheckpointWriteWarning(ReproWarning):
    """A periodic checkpoint write failed; the run continues.

    The previous checkpoint generation is intact (writes are two-phase),
    so resumability degrades to the last successful snapshot rather
    than aborting a long stream pass over a transient disk error.
    """


class JournalWriteWarning(ReproWarning):
    """A journal append failed (e.g. disk full); the run continues.

    The writer degrades to a no-op for the rest of the run: edges keep
    flowing to the estimators but stop being journaled, so a later
    resume can replay only what was appended before the failure. Same
    warn-and-continue contract as :class:`CheckpointWriteWarning`.
    """


class JournalCorruptError(ReproError):
    """A journal record or segment failed validation on read.

    Raised for a CRC mismatch on a complete record, a short record in
    a non-final segment, or a missing/garbled segment inside a replay
    range. Never raised for a torn *tail* -- an append cut short by a
    crash -- which is expected damage and is truncated on open.
    """


class SourceExhaustedError(ReproError):
    """A one-shot edge source was asked to replay its stream.

    Sources backed by a generator or other single-use iterable can be
    consumed exactly once; build a :class:`~repro.streaming.FileSource`
    or :class:`~repro.streaming.MemorySource` for replayable streams.
    """


class InvalidParameterError(ReproError):
    """A numeric parameter is outside its documented domain."""


class VertexIdError(InvalidParameterError):
    """A vertex id is not an integer in ``[0, 2^31)``.

    Raised by :func:`repro.streaming.batch.check_vertex_ids`, the one
    id check every entry point shares. A well-formed line whose id is
    out of range is a contract violation, not stream corruption, so
    follow-mode scrubbing lets this error through.
    """


class InsufficientSampleError(ReproError):
    """A sampling routine could not produce the requested sample.

    Raised, e.g., when ``unif_triangles(k)`` finds fewer than ``k``
    successful samplers (Theorem 3.8 guarantees success only when the
    number of samplers ``r`` is large enough relative to ``m * delta / tau``).
    """
