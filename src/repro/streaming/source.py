"""Lazy edge sources: the input half of the streaming pipeline.

The paper's model is a one-pass adjacency stream, so no consumer should
ever need the whole edge list in memory. An :class:`EdgeSource` yields
the stream as fixed-size batches, lazily -- and, since the columnar
refactor, as :class:`~repro.streaming.batch.EdgeBatch` objects:
validated, canonicalized ``(w, 2)`` int64 arrays that every estimator
in a fan-out shares (one conversion and one per-batch index per batch,
no matter how many consumers).

- :class:`FileSource` -- reads a SNAP-style edge-list file with the
  columnar block parser (:func:`repro.graph.io.iter_edge_array_chunks`),
  with vectorized streaming dedup by default (pass ``deduplicate=False``
  for constant memory on already-simple inputs); replayable because
  every pass re-opens the file;
- :class:`MemorySource` -- wraps an in-memory sequence, array, or
  :class:`~repro.graph.stream.EdgeStream`, coerced to one columnar
  array once and sliced into zero-copy batches (replayable);
- :class:`IterableSource` -- wraps a generator or other one-shot
  iterable, coercing each batch to columnar form as it is drawn; a
  second pass raises :class:`~repro.errors.SourceExhaustedError`;
- :class:`LineSource` -- wraps an already-open *text* stream (a file
  object, ``sys.stdin``, a socket's ``makefile()``), parsing the lines
  the caller's handle produces; one-shot, bounded memory on unbounded
  streams;
- :class:`FollowSource` -- ``tail -f`` semantics over a *growing*
  edge-list file: reads from the top, then polls for appended data,
  flushing partial batches when the file idles so live consumers see
  progress; an optional stop condition / idle timeout ends the stream.

The three text sources share one parser (:func:`repro.graph.io.parse_blocks`:
whole-line blocks, one ``loadtxt`` fast path, one per-line pass), so
they accept the same ``u v`` / signed layouts and name a bad line the
same way -- ``line N: ...``, counted from where the parse began -- and
every text batch comes out of the same dedup / rebatch steps.

:func:`as_source` coerces whatever a caller holds (path, stream, array,
sequence, generator, ``EdgeBatch``, open file object, or an existing
source) into an :class:`EdgeSource`, which is what the CLI, the
:class:`~repro.streaming.pipeline.Pipeline` runner, the experiment
harness, and the parallel counter all consume.

Batch boundaries are deterministic (``ceil(m / batch_size)`` batches,
all but the last of exactly ``batch_size`` edges), so estimators driven
from a file and from the equivalent in-memory list consume their RNG
identically and produce bit-identical results under a fixed seed.

Every source yields :class:`~repro.streaming.batch.EdgeBatch` objects
only, so vertex ids must lie in ``[0, 2^31)`` (the engines' packed-key
domain, which every SNAP graph satisfies). In-memory input that breaks
:meth:`EdgeBatch.from_edges`'s contract (ids, self-loops, shape) raises
its named error before the first batch.
"""

from __future__ import annotations

import io
import os
import time
import warnings
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import (
    InvalidParameterError,
    SourceExhaustedError,
    SourceRetryWarning,
    SourceRotatedWarning,
)
from ..graph.edge import Edge
from ..graph.io import (
    dedup_edge_arrays,
    iter_edge_array_chunks,
    iter_signed_edge_array_chunks,
    parse_blocks,
    text_blocks,
)
from ..graph.stream import EdgeStream
from . import faults as _faults
from .batch import EdgeBatch, rebatch_arrays

__all__ = [
    "EdgeSource",
    "FileSource",
    "MemorySource",
    "IterableSource",
    "LineSource",
    "FollowSource",
    "as_source",
    "batched_iter",
]

#: Bytes a follow-mode poll reads per ``read`` call (~1 MiB, the chunk
#: parser's natural unit; a burst larger than this just loops).
_FOLLOW_READ_BYTES = 1 << 20

#: Ceiling on the follow-mode retry backoff after repeated read errors.
_FOLLOW_RETRY_CAP = 2.0


def batched_iter(edges: Iterable[Edge], batch_size: int) -> Iterator[list[Edge]]:
    """Group any edge iterable into lists of ``batch_size`` edges.

    The iterator analogue of :func:`repro.graph.stream.batched`: only
    one batch is materialized at a time, so memory stays bounded by
    ``batch_size`` no matter how long the stream is.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    batch: list[Edge] = []
    for edge in edges:
        batch.append(edge)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


class EdgeSource(ABC):
    """A stream of edges consumable in fixed-size batches."""

    #: Whether :meth:`batches` may be called more than once.
    replayable: bool = True

    #: Whether this source declares a turnstile (signed) stream: its
    #: batches carry a ``+1``/``-1`` sign column and may contain edge
    #: deletions. Pipelines check this *before* streaming so an
    #: insert-only estimator aimed at a signed source fails up front
    #: with a clear error instead of mid-stream.
    signed: bool = False

    @abstractmethod
    def batches(self, batch_size: int) -> Iterator[EdgeBatch]:
        """Yield the stream as consecutive batches of ``batch_size``.

        Each batch is a validated, canonical
        :class:`~repro.streaming.batch.EdgeBatch` (which also behaves
        as a sequence of ``(u, v)`` tuples).
        """

    def __iter__(self) -> Iterator[Edge]:
        """Iterate edge by edge (a batch size of one pass)."""
        for batch in self.batches(65_536):
            yield from batch


def _resolve_dedup(deduplicate: bool | None, signed: bool) -> bool:
    """The text sources' dedup setting: ``None`` means on unless signed."""
    if deduplicate is None:
        return not signed
    if deduplicate and signed:
        raise InvalidParameterError(
            "deduplicate=True cannot be combined with signed=True: "
            "dedup would drop re-inserts and deletions of the same edge"
        )
    return deduplicate


def _text_batches(chunks, batch_size: int, deduplicate: bool) -> Iterator[EdgeBatch]:
    """Parsed text chunks -> (dedup) -> exact ``batch_size`` EdgeBatches."""
    if deduplicate:
        chunks = dedup_edge_arrays(chunks)
    return (EdgeBatch.from_wire(arr) for arr in rebatch_arrays(chunks, batch_size))


class FileSource(EdgeSource):
    """Lazily stream a whitespace-separated ``u v`` edge-list file.

    Parsing is columnar: the file is read in ~1 MiB blocks of whole
    lines, each block converted to an int64 array by one ``loadtxt``
    call, self-loops filtered and edges canonicalized with array
    operations, and the chunks re-cut into exact ``batch_size``
    :class:`~repro.streaming.batch.EdgeBatch` slices. ``#`` comments
    and blank lines are skipped, as in SNAP files; vertex ids must lie
    in ``[0, 2^31)``, and a bad line raises an error naming its line.

    Parameters
    ----------
    path:
        The file to read.
    deduplicate:
        When ``True`` (default, matching :func:`repro.graph.io.read_edge_list`
        and the CLI), drop repeated edges on the fly so the stream is a
        simple graph's, as the paper assumes -- SNAP files often list
        both directions of each undirected edge. Dedup is vectorized
        over packed int64 edge keys and costs O(distinct edges) memory,
        so pass ``False`` for constant-memory streaming of inputs that
        are already simple. Defaults to ``True`` for insert-only files
        and is rejected for signed ones (collapsing repeats would eat
        the deletions that make a turnstile stream meaningful).
    signed:
        Parse the file as a turnstile stream
        (:func:`repro.graph.io.iter_signed_edge_array_chunks`): an
        optional third sign column or ``+``/``-`` prefix marks each row
        an insert or a deletion, and batches carry the int8 sign
        column. Plain ``u v`` files stream as all-inserts.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        deduplicate: bool | None = None,
        signed: bool = False,
    ) -> None:
        self.path = os.fspath(path)
        self.deduplicate = _resolve_dedup(deduplicate, signed)
        self.signed = signed

    def batches(self, batch_size: int) -> Iterator[EdgeBatch]:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        # Fail fast on a missing/unreadable path: the parser below is a
        # generator, so without this probe the FileNotFoundError would
        # surface only at the first next() deep inside a pipeline run.
        with open(self.path, "rb"):
            pass
        parse = iter_signed_edge_array_chunks if self.signed else iter_edge_array_chunks
        return _text_batches(parse(self.path), batch_size, self.deduplicate)

    def __repr__(self) -> str:
        signed = ", signed=True" if self.signed else ""
        return f"FileSource({self.path!r}, deduplicate={self.deduplicate}{signed})"


class MemorySource(EdgeSource):
    """Wrap an in-memory edge collection (sequence, array, ``EdgeStream``).

    The collection is coerced to one columnar
    :class:`~repro.streaming.batch.EdgeBatch` on first use (validated
    and canonicalized exactly once, so bad input fails before any
    batch is served); batches are zero-copy slices of that array.
    """

    def __init__(self, edges: Sequence[Edge] | EdgeStream | np.ndarray | EdgeBatch) -> None:
        self._edges = edges
        self._columnar: EdgeBatch | None = None

    def _whole(self) -> EdgeBatch:
        """The full stream as one EdgeBatch (coerced on first use)."""
        if self._columnar is None:
            raw = self._edges
            if isinstance(raw, EdgeStream):
                raw = raw.edges
            self._columnar = EdgeBatch.from_edges(raw)
        return self._columnar

    def batches(self, batch_size: int) -> Iterator[EdgeBatch]:
        return self._whole().batches(batch_size)

    @property
    def signed(self) -> bool:  # type: ignore[override]
        """True when the wrapped collection carries a sign column.

        ``(m, 3)`` arrays, sequences of ``(u, v, sign)`` triples, and
        signed :class:`~repro.streaming.batch.EdgeBatch` objects all
        coerce with their signs attached, so the source declares itself
        signed and pipelines gate estimator capability up front.
        """
        return self._whole().signs is not None

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        return f"MemorySource(<{len(self._edges)} edges>)"


class IterableSource(EdgeSource):
    """Wrap a one-shot edge iterable (generator, file object, socket...).

    The source never materializes the stream: memory is bounded by one
    batch regardless of (possibly unbounded) stream length. Each drawn
    batch is coerced to an :class:`~repro.streaming.batch.EdgeBatch`
    once (shared by every consumer downstream). It can be consumed
    exactly once.
    """

    replayable = False

    def __init__(self, edges: Iterable[Edge]) -> None:
        self._edges: Iterator[Edge] | None = iter(edges)

    def batches(self, batch_size: int) -> Iterator[EdgeBatch]:
        # Validate before marking the source consumed: a bad batch_size
        # used to null out self._edges first, permanently exhausting the
        # source without yielding an edge -- and only raising at the
        # first next() of the returned generator.
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if self._edges is None:
            raise SourceExhaustedError(
                "this IterableSource has already been consumed; wrap a "
                "FileSource or MemorySource for replayable streams"
            )
        edges, self._edges = self._edges, None
        return (EdgeBatch.from_edges(chunk) for chunk in batched_iter(edges, batch_size))

    def __repr__(self) -> str:
        state = "exhausted" if self._edges is None else "fresh"
        return f"IterableSource(<{state}>)"


class LineSource(EdgeSource):
    """Stream edges from an already-open file object.

    The handle can be anything that reads lines -- an open file,
    ``sys.stdin``, a ``StringIO``, a socket's ``makefile()`` -- and is
    parsed by the same block parser as :class:`FileSource` (comments,
    blank lines, and self-loops skipped; extra or ragged columns
    ignored; canonical ``u < v`` rows; a bad line raises an error naming
    its line, counted from the handle's position when reading began).
    A binary handle is wrapped in a UTF-8 text layer automatically.

    Reading is *live*: each block is the next ``batch_size`` lines,
    parsed as soon as they are read, so a slow producer piping into
    ``sys.stdin`` sees its edges surface after about ``batch_size``
    lines -- not after some parser-internal chunk fills. Memory is
    bounded by one block regardless of (possibly unbounded) stream
    length.

    One-shot (``replayable = False``): the handle's position is the
    stream. The caller owns the handle and its lifetime.

    Parameters
    ----------
    handle:
        The open stream to read (text, or binary assumed UTF-8).
    deduplicate:
        Drop repeated edges on the fly (O(distinct edges) memory --
        unbounded on an infinite stream, hence default ``False`` here,
        unlike :class:`FileSource`). Rejected with ``signed=True``.
    signed:
        Parse the stream as turnstile (signed) rows: sign column or
        ``+``/``-`` prefix, layout locked by the first data line
        exactly as in :class:`FileSource`.
    """

    replayable = False

    def __init__(self, handle, *, deduplicate: bool = False, signed: bool = False) -> None:
        if not hasattr(handle, "read"):
            raise InvalidParameterError(
                f"LineSource needs an open file object, got {type(handle).__name__!r}"
            )
        self.deduplicate = _resolve_dedup(deduplicate, signed)
        try:
            probe = handle.read(0)
        except (TypeError, ValueError, OSError):
            probe = ""
        if isinstance(probe, bytes):
            handle = io.TextIOWrapper(handle, encoding="utf-8")
        self._handle = handle
        self.signed = signed

    def batches(self, batch_size: int) -> Iterator[EdgeBatch]:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if self._handle is None:
            raise SourceExhaustedError(
                "this LineSource has already been consumed; re-open the "
                "underlying stream or use a FileSource for replayable input"
            )
        handle, self._handle = self._handle, None
        chunks = parse_blocks(text_blocks(handle, lines=batch_size), signed=self.signed)
        return _text_batches(chunks, batch_size, self.deduplicate)

    def __repr__(self) -> str:
        state = "exhausted" if self._handle is None else "fresh"
        signed = ", signed=True" if self.signed else ""
        return f"LineSource(<{state}>, deduplicate={self.deduplicate}{signed})"


class FollowSource(FileSource):
    """``tail -f`` over a growing edge-list file: a stream that never ends.

    Reads the file from the top exactly like :class:`FileSource`, then
    -- instead of stopping at EOF -- polls for appended data every
    ``poll_interval`` seconds and keeps streaming whatever arrives.
    Each poll parses only the *complete* lines added since the last one
    (a partially-written trailing line waits for its newline), through
    the same block parser as :class:`FileSource`; errors name the line
    of the followed file.

    Batching is best-effort live: full ``batch_size`` batches while
    data is flowing, and a short batch flushing the buffered remainder
    whenever the file idles, so a live consumer (``repro watch``) sees
    edges soon after they land instead of waiting for a full batch.
    Batch boundaries therefore depend on write timing -- follow-mode
    streams are not bit-reproducible across runs (resume from a
    checkpoint still is, because whole consumed edges are skipped).

    The stream ends when ``stop()`` returns true at an idle poll, or
    when the file has not grown for ``idle_timeout`` seconds; with
    neither, it follows forever. At stop, a trailing line without a
    newline is parsed (the writer finished without one). Replayable:
    every :meth:`batches` call re-reads from the top, which is what
    lets a killed-and-resumed pipeline skip to where it stood.

    Follow mode is built to outlive its file's misbehaviour:

    - A failed read (``OSError`` -- NFS hiccup, device stall, the file
      briefly unlinked) is retried with exponential backoff from
      ``poll_interval`` up to a small cap, reopening the file and
      seeking back to the consumed position; each attempt emits a
      :class:`~repro.errors.SourceRetryWarning`, and the ``stop`` /
      ``idle_timeout`` conditions keep being checked during the failure
      streak so the stream can still end.
    - Log rotation (the path now names a different inode) and
      truncation (the file shrank below the consumed position) are
      detected at EOF polls via ``os.stat``; the source emits a
      :class:`~repro.errors.SourceRotatedWarning` and restarts from
      offset zero of the new file.
    - Unparseable lines (a writer crashed mid-record, injected
      corruption) are dropped by the parser's scrub mode with a
      :class:`SourceRetryWarning` naming the count, instead of killing
      the stream. A well-formed line whose id is outside ``[0, 2^31)``
      is not corruption: it raises :class:`~repro.errors.VertexIdError`
      on both the signed and unsigned paths.

    Parameters
    ----------
    path:
        The file to follow (it must exist; it may be empty).
    deduplicate:
        Drop repeated edges across the whole followed stream. The
        membership set grows with distinct edges forever on an
        unbounded stream, hence default ``False`` (unlike
        :class:`FileSource`).
    poll_interval:
        Seconds to sleep between polls once at EOF.
    idle_timeout:
        End the stream after this many seconds without growth
        (``None`` = follow forever).
    stop:
        Optional callable checked at each idle poll; returning true
        ends the stream.
    signed:
        Follow the file as a turnstile stream (sign column or ``+``/
        ``-`` prefix; layout locked by the first parseable data line
        and held across polls). Unparseable or layout-mixed lines are
        scrubbed with a :class:`~repro.errors.SourceRetryWarning` like
        any other follow-mode corruption -- resilience wins over
        strictness on a live stream.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        deduplicate: bool = False,
        poll_interval: float = 0.1,
        idle_timeout: float | None = None,
        stop: Callable[[], bool] | None = None,
        signed: bool = False,
    ) -> None:
        super().__init__(path, deduplicate=deduplicate, signed=signed)
        if poll_interval <= 0:
            raise InvalidParameterError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        if idle_timeout is not None and idle_timeout < 0:
            raise InvalidParameterError(
                f"idle_timeout must be >= 0, got {idle_timeout}"
            )
        self.poll_interval = poll_interval
        self.idle_timeout = idle_timeout
        self.stop = stop

    def batches(self, batch_size: int) -> Iterator[EdgeBatch]:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        with open(self.path, "rb"):
            pass  # fail fast, like FileSource
        chunks = parse_blocks(self._follow(), signed=self.signed, scrub=self._scrubbed)
        return _text_batches(chunks, batch_size, self.deduplicate)

    def _scrubbed(self, dropped: int) -> None:
        warnings.warn(
            SourceRetryWarning(
                f"dropped {dropped} unparseable line(s) from the "
                f"followed stream {self.path!r}"
            ),
            stacklevel=2,
        )

    def _follow(self) -> Iterator[tuple[str, int] | None]:
        """The poll loop: yield grown complete lines as text blocks.

        Yields ``(text, first line number)`` pairs for the parser, and
        ``None`` at each EOF poll, which flushes the partial batch so
        live consumers see every parsed edge before the stream goes
        quiet. The file is read in binary with an explicit consumed
        position, which is what makes the failure handling possible: a
        read error reopens and seeks back to ``pos``, and a
        rotation/truncation restarts ``pos`` at zero. Text only ever
        comes from complete lines (bytes up to the last newline), so a
        block boundary can never split a record or a UTF-8 sequence.
        """
        tail = b""  # partial trailing line awaiting its newline
        pos = 0  # bytes consumed from the current file
        line = 1  # number of the next line of the current file
        failures = 0

        def _reopen(handle, *, from_start: bool) -> object:
            nonlocal pos, tail, line
            if handle is not None:
                try:
                    handle.close()
                except OSError:  # pragma: no cover - close of a bad fd
                    pass
            if from_start:
                pos, tail, line = 0, b"", 1
            handle = open(self.path, "rb")
            handle.seek(pos)
            return handle

        def _should_end(now: float) -> bool:
            return (self.stop is not None and self.stop()) or (
                self.idle_timeout is not None
                and idle_since is not None
                and now - idle_since >= self.idle_timeout
            )

        idle_since: float | None = None
        handle = None
        try:
            handle = _reopen(handle, from_start=True)
            while True:
                try:
                    _faults.fire_source_read()
                    if handle is None:
                        handle = _reopen(handle, from_start=False)
                    data = handle.read(_FOLLOW_READ_BYTES)
                    if data:
                        data = _faults.corrupt_source(data)
                        pos = handle.tell()
                except OSError as exc:
                    # Transient I/O failure: back off, reopen at the
                    # consumed position, and keep the stop/idle checks
                    # live so a dead file cannot wedge the stream.
                    failures += 1
                    delay = min(
                        self.poll_interval * (2 ** (failures - 1)),
                        _FOLLOW_RETRY_CAP,
                    )
                    warnings.warn(
                        SourceRetryWarning(
                            f"read of followed stream {self.path!r} failed "
                            f"(attempt {failures}): {exc}; retrying in "
                            f"{delay:.2g}s"
                        ),
                        stacklevel=2,
                    )
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if _should_end(now):
                        break
                    time.sleep(delay)
                    try:
                        handle = _reopen(handle, from_start=False)
                    except OSError:
                        handle = None  # gone right now; retried next turn
                    continue
                failures = 0
                if data:
                    idle_since = None
                    data = tail + data
                    cut = data.rfind(b"\n")
                    if cut < 0:
                        tail = data
                        continue
                    tail = data[cut + 1 :]
                    text = data[: cut + 1].decode("utf-8", "replace")
                    yield text, line
                    line += text.count("\n")
                    continue
                yield None  # at EOF: flush the partial batch
                try:
                    named = os.stat(self.path)
                    opened = os.fstat(handle.fileno())
                    rotated = named.st_ino != opened.st_ino
                    truncated = not rotated and named.st_size < pos
                except OSError:
                    rotated = truncated = False  # transient: poll again
                if rotated or truncated:
                    what = "rotated" if rotated else "truncated"
                    warnings.warn(
                        SourceRotatedWarning(
                            f"followed stream {self.path!r} was {what}; "
                            "restarting from offset 0"
                        ),
                        stacklevel=2,
                    )
                    handle = _reopen(handle, from_start=True)
                    idle_since = None
                    continue
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if _should_end(now):
                    break
                time.sleep(self.poll_interval)
        finally:
            if handle is not None:
                handle.close()
        if tail.strip():
            # The writer ended the stream without a final newline.
            yield tail.decode("utf-8", "replace"), line

    def __repr__(self) -> str:
        return (
            f"FollowSource({self.path!r}, deduplicate={self.deduplicate}, "
            f"poll_interval={self.poll_interval}, idle_timeout={self.idle_timeout})"
        )


def as_source(obj) -> EdgeSource:
    """Coerce ``obj`` into an :class:`EdgeSource`.

    Accepts an existing source (returned as-is), a path (``str`` /
    ``os.PathLike`` -> :class:`FileSource`), an open text file object
    (anything with ``read`` -- a file, ``sys.stdin``, a ``StringIO``, a
    socket's ``makefile()`` -> one-shot :class:`LineSource`), an
    ``(m, 2)`` array or :class:`~repro.streaming.batch.EdgeBatch`, an
    ``EdgeStream`` or any sequence (-> :class:`MemorySource`), or any
    other iterable (-> one-shot :class:`IterableSource`).
    """
    if isinstance(obj, EdgeSource):
        return obj
    if isinstance(obj, (str, os.PathLike)):
        return FileSource(obj)
    if isinstance(obj, io.IOBase) or (
        hasattr(obj, "read") and hasattr(obj, "readline")
    ):
        return LineSource(obj)
    if isinstance(obj, (EdgeBatch, np.ndarray, EdgeStream, Sequence)):
        return MemorySource(obj)
    if isinstance(obj, Iterable):
        return IterableSource(obj)
    raise TypeError(
        f"cannot build an EdgeSource from {type(obj).__name__!r}; expected a "
        "path, file object, sequence, array, EdgeStream, iterable, or EdgeSource"
    )
