"""Plain-text edge-list I/O.

The paper streams SNAP edge-list files from disk and reports I/O time
separately (Table 3). These helpers read and write the same whitespace-
separated ``u v`` format (``#`` comments and blank lines are skipped,
as in SNAP files), plus its signed ``u v +1`` / ``+ u v`` turnstile
variants, so the experiment harness can reproduce the disk-backed
streaming setup.

:func:`iter_edge_list` is the per-line tuple parser (lazy, one edge at
a time), kept as the reference the columnar parser is tested against.
Every other text reader -- :func:`iter_edge_array_chunks`,
:func:`iter_signed_edge_array_chunks`, :func:`read_edge_list`, and the
streaming sources ``FileSource``, ``LineSource`` and ``FollowSource``
-- runs one block parser in three steps:

1. a block reader (:func:`text_blocks`) cuts the text into whole-line
   blocks, ~1 MiB each (or a fixed number of lines, so a live pipe is
   never asked for more than it has), each tagged with its first line
   number;
2. a fast path parses each block with one :func:`numpy.loadtxt` call
   (C tokenizer, native ``#`` comment and blank-line handling) and
   validates and canonicalizes it with array operations;
3. when ``loadtxt`` fails, or a column count, sign, or vertex id breaks
   the contract, a per-line pass re-parses that same in-memory block
   and raises a named error prefixed with ``line N:`` -- or, in scrub
   mode (live follow mode), drops the unparseable lines and reports
   how many.

:func:`dedup_edge_arrays` deduplicates chunk streams with packed
``(u << 32) | v`` int64 keys instead of a Python set of tuples.
"""

from __future__ import annotations

import io
import itertools
import os
import warnings
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from ..errors import InvalidParameterError, VertexIdError
from .edge import Edge, canonical_edge

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "write_signed_edge_list",
    "iter_edge_list",
    "dedup_edges",
    "iter_edge_array_chunks",
    "iter_signed_edge_array_chunks",
    "text_blocks",
    "parse_blocks",
    "dedup_chunk",
    "dedup_edge_arrays",
]

_CHUNK_CHARS = 1 << 20  # target text volume per parsed block
_VERTEX_LIMIT = 1 << 31  # the engines' packed-key id domain

#: Text layouts. ``edges`` is the unsigned format; the three signed
#: layouts are locked by the first data line of a signed stream.
_EDGES = "edges"  # "u v [...]" -> first two columns, extra columns ignored
_BARE = "bare"  # "u v"      -> every row is an insert
_COLUMN = "column"  # "u v +1" -> third column is the sign
_PREFIX = "prefix"  # "+ u v"  -> leading +/- token is the sign
_SIGNED_SHAPES = {
    _BARE: "2 columns ('u v')",
    _COLUMN: "3 columns ('u v +1')",
    _PREFIX: "3 columns ('+ u v')",
}
_SIGN_TOKENS = {"+": 1, "-": -1}


def dedup_edges(edges: Iterable[Edge]) -> Iterator[Edge]:
    """Lazily drop repeated edges; first occurrence keeps its position.

    The per-tuple streaming-dedup primitive (see :func:`dedup_edge_arrays`
    for the columnar equivalent). Costs O(distinct edges) memory for the
    membership set.
    """
    seen: set[Edge] = set()
    for e in edges:
        if e not in seen:
            seen.add(e)
            yield e


def iter_edge_list(path: str | os.PathLike) -> Iterator[Edge]:
    """Lazily yield canonical edges from a text edge-list file.

    Lines starting with ``#`` and blank lines are skipped. Self-loops
    are skipped as well (SNAP files occasionally contain them; the
    paper's model assumes simple graphs).
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                continue
            yield canonical_edge(u, v)


def _canonical_rows(arr: np.ndarray, signs: np.ndarray | None = None) -> np.ndarray:
    """Vectorized canonicalization + id validation + self-loop filter.

    Returns int64 ``(n, 2)`` rows with ``u < v``; given a ``signs``
    column, ``(n, 3)`` rows with the sign riding along untouched by the
    swap. Ids are checked on the min/max columns (one compare per row).
    """
    # Deferred: repro.streaming imports this module at package import.
    from ..streaming.batch import check_vertex_ids

    out = np.empty((arr.shape[0], 2 if signs is None else 3), dtype=np.int64)
    np.minimum(arr[:, 0], arr[:, 1], out=out[:, 0])
    np.maximum(arr[:, 0], arr[:, 1], out=out[:, 1])
    if out.shape[0] and (out[:, 0].min() < 0 or out[:, 1].max() >= _VERTEX_LIMIT):
        check_vertex_ids(arr)  # raises, naming the first bad id
    if signs is not None:
        out[:, 2] = signs
    keep = out[:, 0] != out[:, 1]
    return out if keep.all() else out[keep]


def text_blocks(
    handle, *, chunk_chars: int = _CHUNK_CHARS, lines: int | None = None
) -> Iterator[tuple[str, int]]:
    """Cut an open text handle into ``(block, first line number)`` pairs.

    Every block holds whole lines: ``chunk_chars`` characters read in
    one call, completed to the next newline. With ``lines``, a block is
    instead the next ``lines`` lines, drawn by iterating the handle --
    a live pipe answers that as soon as the lines exist, where
    ``read(n)`` would block until ``n`` characters arrive. Line numbers
    count from where the handle stood when reading began.
    """
    first = 1
    while True:
        if lines is None:
            block = handle.read(chunk_chars)
            if block and not block.endswith("\n"):
                block += handle.readline()
        else:
            block = "".join(itertools.islice(handle, lines))
        if not block:
            return
        yield block, first
        # str.count walks the text one character at a time; one vector
        # compare over the UTF-8 bytes counts newlines ~6x faster.
        first += int(np.count_nonzero(np.frombuffer(block.encode(), np.uint8) == 10))


def parse_blocks(
    blocks: Iterable[tuple[str, int] | None],
    *,
    signed: bool = False,
    scrub: Callable[[int], None] | None = None,
) -> Iterator[np.ndarray | None]:
    """Parse text blocks into canonical int64 chunks.

    ``blocks`` yields ``(text, first line number)`` pairs, as
    :func:`text_blocks` does. Unsigned chunks are ``(n, 2)`` rows;
    signed ones are ``(n, 3)`` ``(u, v, sign)`` rows in the layout the
    first data line of the stream set. A ``None`` item (a follow-mode
    flush marker) passes through unchanged.

    Strict by default: a bad line raises
    :class:`~repro.errors.InvalidParameterError` (or
    :class:`~repro.errors.VertexIdError` for an id outside
    ``[0, 2^31)``) naming its line. With ``scrub``, unparseable lines
    are dropped instead and ``scrub`` is called with their count per
    block; out-of-range ids still raise, since a well-formed line that
    breaks the id contract is not corruption.
    """
    layout = None if signed else _EDGES
    for item in blocks:
        if item is None:
            yield None
            continue
        block, first = item
        if layout is None:
            layout = _probe_layout(block, first, scrub)
            if layout is None:
                continue  # no data line yet: keep probing the next block
        try:
            arr = _loadtxt_rows(block, layout)
        except (ValueError, VertexIdError):
            arr = _per_line_rows(block, first, layout, scrub)
        if arr.shape[0]:
            yield arr


def _loadtxt_rows(block: str, layout: str) -> np.ndarray:
    """The fast path: one ``loadtxt`` call over a whole block.

    Raises ``ValueError`` (or ``VertexIdError``) whenever the block
    breaks the layout, so the caller re-parses it line by line to name
    the offending line. Tokens parse as int32, which is both faster
    than int64 and exactly wide enough: an id at or past ``2^31`` fails
    here and is named by the per-line pass.
    """
    if layout == _PREFIX:
        raise ValueError("a '+'/'-' prefix token never parses as an integer")
    with warnings.catch_warnings():
        # loadtxt warns when a block holds only comments/blank lines.
        warnings.simplefilter("ignore", UserWarning)
        arr = np.loadtxt(
            io.StringIO(block),
            dtype=np.int32,
            comments="#",
            ndmin=2,
            usecols=(0, 1) if layout == _EDGES else None,
        )
    if arr.shape[1] != (3 if layout == _COLUMN else 2):
        raise ValueError("column count breaks the layout")
    if layout == _EDGES:
        return _canonical_rows(arr)
    if layout == _BARE:
        return _canonical_rows(arr, np.ones(arr.shape[0], dtype=np.int64))
    if (np.abs(arr[:, 2]) != 1).any():
        raise ValueError("a sign is not +1 or -1")
    return _canonical_rows(arr[:, :2], arr[:, 2])


def _data_lines(block: str, first: int) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each data line, comments cut as loadtxt does.

    Lazy, so probing a block for its first data line costs one line,
    not a split of the whole block.
    """
    start, lineno = 0, first
    while start < len(block):
        end = block.find("\n", start)
        if end < 0:
            end = len(block)
        text = block[start:end].split("#", 1)[0].strip()
        if text:
            yield lineno, text
        start, lineno = end + 1, lineno + 1


def _per_line_rows(
    block: str, first: int, layout: str, scrub: Callable[[int], None] | None
) -> np.ndarray:
    """The per-line pass: re-parse a block, naming (or dropping) bad lines."""
    rows = []
    dropped = 0
    for lineno, text in _data_lines(block, first):
        try:
            rows.append(_parse_row(text, layout))
        except InvalidParameterError as exc:
            if scrub is None or isinstance(exc, VertexIdError):
                raise type(exc)(f"line {lineno}: {exc}") from None
            dropped += 1
    if dropped:
        scrub(dropped)
    arr = np.array(rows, dtype=np.int64).reshape(-1, 2 if layout == _EDGES else 3)
    return _canonical_rows(arr[:, :2], None if layout == _EDGES else arr[:, 2])


def _token(text: str) -> int:
    """One decimal integer token, no looser than ``loadtxt`` reads it."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


def _parse_row(text: str, layout: str) -> tuple[int, ...]:
    """One data line as ``(u, v)``, or ``(u, v, sign)`` for a signed layout.

    Raises the named error without a line number; the caller adds it.
    Ids are checked as Python ints, so a value beyond int64 is named
    like any other out-of-range id.
    """
    parts = text.split()
    if layout != _EDGES and len(parts) != (2 if layout == _BARE else 3):
        raise InvalidParameterError(
            f"expected {_SIGNED_SHAPES[layout]} like the first data line, got "
            f"{len(parts)} column(s); mixed signed/unsigned rows are not allowed"
        )
    at = 1 if layout == _PREFIX else 0
    try:
        u, v = _token(parts[at]), _token(parts[at + 1])
    except (IndexError, ValueError):
        what = "an edge" if layout == _EDGES else "a signed edge"
        raise InvalidParameterError(f"cannot parse {text!r} as {what}") from None
    for x in (u, v):
        if not 0 <= x < _VERTEX_LIMIT:
            raise VertexIdError(f"vertex ids must be integers in [0, 2^31); got {x}")
    if layout == _EDGES:
        return u, v
    if layout == _BARE:
        return u, v, 1
    sign = parts[2] if layout == _COLUMN else parts[0]
    try:
        value = _SIGN_TOKENS.get(sign) or _token(sign)
    except ValueError:
        value = 0
    if value not in (1, -1):
        raise InvalidParameterError("signs must be +1 or -1")
    return u, v, value


def _probe_layout(
    block: str, first: int, scrub: Callable[[int], None] | None
) -> str | None:
    """The signed layout of the first data line; ``None`` if there is none.

    In scrub mode, lines that do not parse under the layout they look
    like are skipped (and, if no line in the block qualifies, reported
    as dropped), so one corrupt line cannot lock the wrong layout.
    """
    skipped = 0
    for lineno, text in _data_lines(block, first):
        parts = text.split()
        layout = _PREFIX if parts[0] in _SIGN_TOKENS else (
            {2: _BARE, 3: _COLUMN}.get(len(parts))
        )
        if scrub is None:
            if layout is None:
                raise InvalidParameterError(
                    f"line {lineno}: cannot infer a signed edge layout from "
                    f"{text!r}: expected 'u v', 'u v +1', or '+ u v'"
                )
            return layout
        if layout is not None:
            try:
                _parse_row(text, layout)
                return layout
            except VertexIdError:
                return layout  # well-formed: the parse pass names it
            except InvalidParameterError:
                pass
        skipped += 1
    if skipped:
        scrub(skipped)
    return None


def iter_edge_array_chunks(
    source, *, chunk_chars: int = _CHUNK_CHARS
) -> Iterator[np.ndarray]:
    """Parse an edge-list file into canonical ``(n, 2)`` int64 arrays.

    The columnar counterpart of :func:`iter_edge_list`: same skipping of
    comments, blank lines, and self-loops, same canonical ``u < v``
    rows, same order -- but parsed ~1 MiB of whole lines at a time by
    the block parser (see the module docstring). Memory is bounded by
    one block regardless of file size. Rows with extra or ragged columns
    (weights, timestamps) take their first two fields. Vertex ids must
    lie in ``[0, 2^31)`` (the engines' packed-key domain); a line
    without two integer fields, or with an id out of range, raises a
    named error starting ``line N:``.

    ``source`` is a path or an already-open *text* file object (a
    ``StringIO``, a socket's ``makefile()``, ``sys.stdin``), read from
    its current position and left open for the caller to manage.
    """
    return _parse_text(source, chunk_chars, signed=False)


def iter_signed_edge_array_chunks(
    source, *, chunk_chars: int = _CHUNK_CHARS
) -> Iterator[np.ndarray]:
    """Parse a signed edge-list into canonical ``(n, 3)`` int64 chunks.

    The turnstile counterpart of :func:`iter_edge_array_chunks`. Three
    line layouts are supported, detected once from the first data line
    and then required of the whole stream:

    - ``u v`` -- a plain edge list; every row becomes an insert (+1);
    - ``u v s`` -- a third sign column, ``s`` one of ``+1``/``1``/``-1``
      (literal ``+``/``-`` also accepted);
    - ``+ u v`` / ``- u v`` -- a sign *prefix* token.

    Rows come back as ``(u, v, sign)`` with the same canonicalization
    as the unsigned parser (ids validated into ``[0, 2^31)``,
    self-loops skipped, ``u < v``); signs survive the swap unchanged.
    A line whose column count differs from the first data line's raises
    :class:`~repro.errors.InvalidParameterError` naming it -- a 2-column
    row in a 3-column file (or vice versa) is ambiguous about deletions,
    never a silent fallback.
    """
    return _parse_text(source, chunk_chars, signed=True)


def _parse_text(source, chunk_chars: int, *, signed: bool) -> Iterator[np.ndarray]:
    """Run the block parser over a handle, opening ``source`` if it is a path."""
    if hasattr(source, "read"):
        yield from parse_blocks(text_blocks(source, chunk_chars=chunk_chars), signed=signed)
        return
    with open(source, "r", encoding="utf-8") as handle:
        yield from _parse_text(handle, chunk_chars, signed=signed)


def dedup_chunk(
    arr: np.ndarray, seen: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop already-seen edges from one canonical chunk.

    The stateless core of :func:`dedup_edge_arrays`: ``seen`` is the
    sorted array of packed ``(u << 32) | v`` int64 keys observed so
    far; the return value is ``(fresh_rows, updated_seen)``, so a
    caller can thread the key array through separate parses itself.
    """
    if not arr.shape[0]:
        return arr, seen
    keys = (arr[:, 0] << np.int64(32)) | arr[:, 1]
    uniq, first = np.unique(keys, return_index=True)
    if seen.size:
        pos = np.searchsorted(seen, uniq)
        pos_clipped = np.minimum(pos, seen.size - 1)
        fresh = seen[pos_clipped] != uniq
        uniq, first = uniq[fresh], first[fresh]
    if not uniq.size:
        return arr[:0], seen
    if seen.size:
        # Both runs are sorted: np.insert at the searchsorted
        # positions is a linear merge (no re-sort of the seen set).
        seen = np.insert(seen, np.searchsorted(seen, uniq), uniq)
    else:
        seen = uniq
    return arr[np.sort(first)], seen


def dedup_edge_arrays(chunks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Vectorized streaming dedup over canonical ``(n, 2)`` arrays.

    First occurrence keeps its stream position, exactly like
    :func:`dedup_edges`. Membership state is a sorted array of packed
    ``(u << 32) | v`` int64 keys (O(distinct edges) memory, no Python
    tuples): each chunk is reduced to its first occurrences with
    ``np.unique``, filtered against the seen keys by binary search, and
    the survivors are emitted in stream order. A ``None`` item (a
    follow-mode flush marker) passes through.
    """
    seen = np.empty(0, dtype=np.int64)
    for arr in chunks:
        if arr is None:
            yield None
            continue
        fresh, seen = dedup_chunk(arr, seen)
        if fresh.shape[0]:
            yield fresh


def read_edge_list(path: str | os.PathLike, *, deduplicate: bool = True) -> list[Edge]:
    """Read an edge-list file into a list of canonical edges.

    With ``deduplicate=True`` (default), repeated edges are dropped so
    the result is a simple graph's stream; the first occurrence keeps
    its stream position. Parsing is columnar (see
    :func:`iter_edge_array_chunks`); the result is identical to feeding
    :func:`iter_edge_list` through :func:`dedup_edges`.
    """
    chunks = iter_edge_array_chunks(path)
    if deduplicate:
        chunks = dedup_edge_arrays(chunks)
    edges: list[Edge] = []
    for arr in chunks:
        edges.extend(map(tuple, arr.tolist()))
    return edges


def write_edge_list(path: str | os.PathLike, edges: Iterable[Edge]) -> int:
    """Write edges to a text file, one ``u v`` pair per line.

    Returns the number of edges written.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for u, v in edges:
            handle.write(f"{u} {v}\n")
            count += 1
    return count


def write_signed_edge_list(path: str | os.PathLike, events: Iterable) -> int:
    """Write signed edge events, one ``u v s`` row per line.

    ``events`` yields ``(u, v, sign)`` triples with ``sign`` in
    ``{+1, -1}``; the output is the column layout
    :func:`iter_signed_edge_array_chunks` parses on its columnar fast
    path. Returns the number of events written.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for u, v, sign in events:
            if sign not in (1, -1):
                raise InvalidParameterError("signs must be +1 or -1")
            handle.write(f"{u} {v} {sign:+d}\n")
            count += 1
    return count
