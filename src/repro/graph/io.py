"""Plain-text edge-list I/O.

The paper streams SNAP edge-list files from disk and reports I/O time
separately (Table 3). These helpers read and write the same whitespace-
separated ``u v`` format (``#``-prefixed comment lines are skipped, as
in SNAP files) so the experiment harness can reproduce the disk-backed
streaming setup.

Two parsers are provided. :func:`iter_edge_list` is the per-line tuple
parser (lazy, one edge at a time). :func:`iter_edge_array_chunks` is
the columnar parser behind :class:`repro.streaming.FileSource` and
:func:`read_edge_list`: it pulls ~1 MiB worth of rows at a time through
:func:`numpy.loadtxt` (C-backed since numpy 1.23, with native comment
and blank-line handling -- the supported successor to the deprecated
``np.fromstring`` text mode this module used to build on) and filters
self-loops / canonicalizes with vectorized operations -- the same edges
in the same order, several times faster than the line loop
(``benchmarks/bench_io_parse.py`` measures both and checks the loadtxt
path did not regress the old fast path). Its companion
:func:`dedup_edge_arrays` deduplicates chunk streams with packed
``(u << 32) | v`` int64 keys instead of a Python set of tuples.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from ..errors import InvalidParameterError
from .edge import Edge, canonical_edge

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "write_signed_edge_list",
    "iter_edge_list",
    "dedup_edges",
    "iter_edge_array_chunks",
    "iter_signed_edge_array_chunks",
    "dedup_chunk",
    "dedup_edge_arrays",
]

_CHUNK_CHARS = 1 << 20  # target text volume per parsed chunk
_ROW_CHARS = 12  # ~"12345 67890\n": sizes loadtxt chunks from chunk_chars


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


def _canonical_rows(arr: np.ndarray) -> np.ndarray:
    """Vectorized self-loop filter + canonicalization + id validation."""
    # Deferred: repro.streaming imports this module at package import.
    from ..streaming.batch import check_vertex_ids

    check_vertex_ids(arr)
    u, v = arr[:, 0], arr[:, 1]
    keep = u != v
    if not keep.all():
        u, v = u[keep], v[keep]
    out = np.empty((u.shape[0], 2), dtype=np.int64)
    np.minimum(u, v, out=out[:, 0])
    np.maximum(u, v, out=out[:, 1])
    return out


def iter_edge_array_chunks(
    source, *, chunk_chars: int = _CHUNK_CHARS
) -> Iterator[np.ndarray]:
    """Parse an edge-list file into canonical ``(n, 2)`` int64 arrays.

    The columnar counterpart of :func:`iter_edge_list`: same skipping of
    comments, blank lines, and self-loops, same canonical ``u < v``
    rows, same order -- but parsed ~1 MiB worth of rows at a time with
    :func:`numpy.loadtxt` pulling straight from the file handle (its
    C tokenizer handles comments and blank lines natively). Memory is
    bounded by one chunk regardless of file size. Vertex ids must lie
    in ``[0, 2^31)`` (the engines' packed-key domain).

    ``source`` is a path or an already-open *text* file object (a
    ``StringIO``, a socket's ``makefile()``, ``sys.stdin``): the
    streaming sources (:class:`repro.streaming.LineSource`,
    :class:`repro.streaming.FollowSource`) feed handles they own, and
    the handle is left open for the caller to manage.

    Rows with extra columns (weights, timestamps) take their first two
    fields, as the per-line parser does; files whose rows are *ragged*
    make ``loadtxt`` balk, so the parser falls back to a careful
    per-line pass that resumes exactly after the rows already emitted
    (replaying from the path, or by seeking the handle back; a
    non-seekable handle with ragged rows is an error because its
    already-consumed text cannot be re-read).
    """
    if hasattr(source, "read"):
        yield from _chunks_from_handle(source, chunk_chars, path=None)
        return
    with open(source, "r", encoding="utf-8") as handle:
        yield from _chunks_from_handle(handle, chunk_chars, path=source)


def _chunks_from_handle(
    handle, chunk_chars: int, path: str | os.PathLike | None
) -> Iterator[np.ndarray]:
    """The loadtxt chunk loop over an open text handle (see above)."""
    max_rows = max(1, chunk_chars // _ROW_CHARS)
    consumed = 0  # data rows yielded so far, pre self-loop filter
    try:
        start = handle.tell() if handle.seekable() else None
    except (OSError, AttributeError):
        start = None
    while True:
        try:
            with warnings.catch_warnings():
                # loadtxt warns on empty input (our EOF probe) and
                # on comment lines not counting toward max_rows.
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(
                    handle,
                    dtype=np.int64,
                    comments="#",
                    ndmin=2,
                    max_rows=max_rows,
                )
        except ValueError:
            # Ragged rows (varying column counts): re-parse the
            # remainder line by line, skipping what was emitted.
            if path is not None:
                with open(path, "r", encoding="utf-8") as reread:
                    yield from _ragged_row_chunks(
                        reread, consumed, max_rows, numbered=True
                    )
                return
            if start is not None:
                handle.seek(start)
                yield from _ragged_row_chunks(handle, consumed, max_rows)
                return
            raise InvalidParameterError(
                "edge rows have inconsistent column counts and the input "
                "handle is not seekable, so the consumed text cannot be "
                "re-parsed; feed complete uniform rows or a seekable handle"
            ) from None
        if arr.size == 0:
            return
        if arr.shape[1] < 2:
            raise InvalidParameterError(
                f"edge-list rows need at least two fields, got {arr.shape[1]}"
            )
        consumed += arr.shape[0]
        out = _canonical_rows(arr[:, :2])
        if out.shape[0]:
            yield out


def _ragged_row_chunks(
    lines: Iterable[str], skip_rows: int, max_rows: int, *, numbered: bool = False
) -> Iterator[np.ndarray]:
    """Careful per-line parse for ragged inputs: first two fields per row.

    ``skip_rows`` data rows (comment/blank lines excluded -- the same
    rows :func:`numpy.loadtxt` counts) were already emitted by the fast
    path and are skipped so the combined stream has every edge once.
    ``lines`` is any iterable of text lines (an open handle positioned
    at the start of the stream's text). A line without two integer
    fields raises :class:`~repro.errors.InvalidParameterError` quoting
    it, prefixed with its physical line number when ``numbered`` (the
    lines start at the top of a file).
    """
    rows: list[tuple[int, int]] = []
    data_rows = 0
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_rows += 1
        if data_rows <= skip_rows:
            continue
        parts = stripped.split()
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except (IndexError, ValueError):
            where = f"line {lineno}: " if numbered else ""
            raise InvalidParameterError(
                f"{where}cannot parse {stripped!r} as an edge"
            ) from None
        if len(rows) >= max_rows:
            arr = _canonical_rows(np.array(rows, dtype=np.int64).reshape(-1, 2))
            rows = []
            if arr.shape[0]:
                yield arr
    if rows:
        arr = _canonical_rows(np.array(rows, dtype=np.int64).reshape(-1, 2))
        if arr.shape[0]:
            yield arr


def _canonical_signed_rows(arr: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """:func:`_canonical_rows` for signed rows; returns ``(n, 3)``.

    Same id validation and self-loop skip, same canonical ``u < v``
    columns; the sign column rides along untouched by the min/max swap.
    """
    from ..streaming.batch import check_vertex_ids

    check_vertex_ids(arr)
    u, v = arr[:, 0], arr[:, 1]
    keep = u != v
    if not keep.all():
        u, v, signs = u[keep], v[keep], signs[keep]
    out = np.empty((u.shape[0], 3), dtype=np.int64)
    np.minimum(u, v, out=out[:, 0])
    np.maximum(u, v, out=out[:, 1])
    out[:, 2] = signs
    return out


#: The three signed-line layouts, keyed by how the probe line reads.
_FMT_BARE = "bare"  # "u v"          -> every row is an insert
_FMT_COLUMN = "column"  # "u v +1"   -> third column is the sign
_FMT_PREFIX = "prefix"  # "+ u v"    -> leading +/- token is the sign


def _parse_sign_tokens(col: np.ndarray, lineno: int | None = None) -> np.ndarray:
    """Sign tokens (``+1``/``-1``/``1``, or literal ``+``/``-``) to int64."""
    try:
        signs = col.astype(np.int64)
    except ValueError:
        signs = np.where(col == "+", np.int64(1), np.int64(0))
        signs[col == "-"] = -1
    if not np.isin(signs, (-1, 1)).all():
        where = f"line {lineno}: " if lineno is not None else ""
        raise InvalidParameterError(f"{where}signs must be +1 or -1")
    return signs


def _signed_block_rows(block: str, fmt: str, lineno_base: int) -> np.ndarray:
    """Parse one text block of uniform signed rows into ``(n, 3)`` int64.

    The columnar fast path: when the block has no comments and every
    line carries exactly the probe's column count (cross-checked by
    ``token count == columns x line count``, so a blank, short, or long
    line can never slip through), one ``str.split`` plus one vectorized
    ``astype`` parses the whole block. Anything else drops to a
    per-line pass that skips comments/blanks and raises
    :class:`~repro.errors.InvalidParameterError` naming the first line
    whose column count disagrees with the probe -- mixed 2/3-column
    files are ambiguous about signs, so they are an error, never a
    silent fallback.
    """
    ncols = 2 if fmt == _FMT_BARE else 3
    tokens = block.split()
    nlines = block.count("\n")
    if "#" not in block and len(tokens) == ncols * nlines:
        sarr = np.array(tokens, dtype=str).reshape(-1, ncols)
        try:
            if fmt == _FMT_BARE:
                uv = sarr.astype(np.int64)
                signs = np.ones(uv.shape[0], dtype=np.int64)
            elif fmt == _FMT_COLUMN:
                uv = sarr[:, :2].astype(np.int64)
                signs = _parse_sign_tokens(sarr[:, 2])
            else:
                uv = sarr[:, 1:].astype(np.int64)
                signs = _parse_sign_tokens(sarr[:, 0])
            return _canonical_signed_rows(uv, signs)
        except ValueError:
            pass  # non-numeric token: the per-line pass names the line
        except InvalidParameterError as exc:
            if "signs must be" not in str(exc):
                raise  # id-range/self-loop errors carry no line ambiguity
            # a bad sign token: re-parse per line to name the offender
    rows: list[tuple[int, int, int]] = []
    expect = "2 columns ('u v')" if ncols == 2 else (
        "3 columns ('u v +1')" if fmt == _FMT_COLUMN else "3 columns ('+ u v')"
    )
    for offset, line in enumerate(block.splitlines()):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lineno = lineno_base + offset
        parts = stripped.split()
        if len(parts) != ncols:
            raise InvalidParameterError(
                f"line {lineno}: expected {expect} like the first data "
                f"line, got {len(parts)} column(s); mixed signed/unsigned "
                "rows are not allowed"
            )
        col = np.array(parts, dtype=str)
        try:
            if fmt == _FMT_BARE:
                u, v = int(parts[0]), int(parts[1])
                sign = 1
            elif fmt == _FMT_COLUMN:
                u, v = int(parts[0]), int(parts[1])
                sign = int(_parse_sign_tokens(col[2:], lineno)[0])
            else:
                sign = int(_parse_sign_tokens(col[:1], lineno)[0])
                u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise InvalidParameterError(
                f"line {lineno}: cannot parse {stripped!r} as a signed edge"
            ) from None
        rows.append((u, v, sign))
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    arr = np.array(rows, dtype=np.int64)
    return _canonical_signed_rows(arr[:, :2], arr[:, 2])


def iter_signed_edge_array_chunks(
    source, *, chunk_chars: int = _CHUNK_CHARS
) -> Iterator[np.ndarray]:
    """Parse a signed edge-list into canonical ``(n, 3)`` int64 chunks.

    The turnstile counterpart of :func:`iter_edge_array_chunks`. Three
    line layouts are supported, detected once from the first data line
    (the probe) and then required of the whole file:

    - ``u v`` -- a plain edge list; every row becomes an insert (+1);
    - ``u v s`` -- a third sign column, ``s`` one of ``+1``/``1``/``-1``
      (literal ``+``/``-`` also accepted);
    - ``+ u v`` / ``- u v`` -- a sign *prefix* token.

    Rows come back as ``(u, v, sign)`` with the same canonicalization
    as the unsigned parser (ids validated into ``[0, 2^31)``,
    self-loops skipped, ``u < v``); signs survive the swap unchanged.
    Comments and blank lines are skipped. A file that mixes column
    counts raises :class:`~repro.errors.InvalidParameterError` naming
    the offending line -- a 2-column row in a 3-column file (or vice
    versa) is ambiguous about deletions, never a silent fallback.

    ``source`` is a path or an open text handle, exactly as for the
    unsigned parser; memory is bounded by one ``chunk_chars`` block.
    """
    if hasattr(source, "read"):
        yield from _signed_chunks_from_handle(source, chunk_chars)
        return
    with open(source, "r", encoding="utf-8") as handle:
        yield from _signed_chunks_from_handle(handle, chunk_chars)


def _probe_signed_format(block: str) -> str | None:
    """Classify the first data line of ``block``; ``None`` if it has none."""
    for line in block.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if parts[0] in ("+", "-"):
            return _FMT_PREFIX
        if len(parts) == 2:
            return _FMT_BARE
        if len(parts) == 3:
            return _FMT_COLUMN
        raise InvalidParameterError(
            f"cannot infer a signed edge layout from {stripped!r}: "
            "expected 'u v', 'u v +1', or '+ u v'"
        )
    return None  # only comments/blanks: keep probing the next block


def _signed_chunks_from_handle(handle, chunk_chars: int) -> Iterator[np.ndarray]:
    """The block loop behind :func:`iter_signed_edge_array_chunks`."""
    fmt: str | None = None
    lineno_base = 1
    while True:
        block = handle.read(chunk_chars)
        if not block:
            return
        # Complete the trailing partial line so every block holds
        # whole lines and the line accounting stays exact.
        if not block.endswith("\n"):
            rest = handle.readline()
            if rest:
                block += rest
            if not block.endswith("\n"):
                block += "\n"
        if fmt is None:
            # The probe chunk: the first data line locks the layout for
            # the rest of the file (all-comment blocks keep probing).
            fmt = _probe_signed_format(block)
            if fmt is None:
                lineno_base += block.count("\n")
                continue
        out = _signed_block_rows(block, fmt, lineno_base)
        lineno_base += block.count("\n")
        if out.shape[0]:
            yield out


def dedup_chunk(
    arr: np.ndarray, seen: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop already-seen edges from one canonical chunk.

    The stateless core of :func:`dedup_edge_arrays`: ``seen`` is the
    sorted array of packed ``(u << 32) | v`` int64 keys observed so
    far; the return value is ``(fresh_rows, updated_seen)``. Callers
    that dedup across *separate* parses of a growing stream (the
    follow-mode source polls the file repeatedly) thread the key array
    through themselves.
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
    the survivors are emitted in stream order.
    """
    seen = np.empty(0, dtype=np.int64)
    for arr in chunks:
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
