"""Columnar edge batches: the unit that flows from sources to estimators.

The paper's throughput experiments are all about edges/second, and at
Python scale the per-edge constant factor -- tuple allocation, per-batch
``np.asarray`` calls, repeated validation -- dominates the array math.
:class:`EdgeBatch` eliminates that overhead structurally: a batch is a
canonicalized, validated ``(w, 2)`` int64 array, built **once** when the
stream is read, and every consumer shares it.

Two cached views serve the two kinds of consumers:

- vectorized engines read the ``u`` / ``v`` columns directly and share
  the :class:`BatchContext` per-batch index (built lazily, exactly once,
  no matter how many estimators a
  :class:`~repro.streaming.pipeline.Pipeline` fans out to);
- per-edge Python engines iterate the batch, which materializes the
  plain ``(u, v)`` tuple list once (:meth:`EdgeBatch.tuples`) and reuses
  it for every such consumer.

:class:`BatchContext` is the per-batch index formerly private to
:mod:`repro.core.vectorized` (``_BatchContext``), hoisted here so the
streaming layer can build it once per batch and hand it to every
fan-out estimator. All positions it reports are *local* (1-based within
the batch); engines add their own stream offset, so one context is
valid for every consumer regardless of its ``edges_seen``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..errors import InvalidParameterError, VertexIdError

__all__ = [
    "EdgeBatch",
    "BatchContext",
    "VERTEX_LIMIT",
    "check_vertex_ids",
    "rebatch_arrays",
]

#: Vertex ids must fit in 31 bits so an edge packs into one int64 key.
VERTEX_LIMIT = np.int64(1) << 31
_ID_LIMIT = int(VERTEX_LIMIT)


def check_vertex_ids(arr: np.ndarray) -> None:
    """Raise unless ``arr`` holds integer vertex ids in ``[0, 2^31)``.

    The one vertex-id contract every entry point applies -- batch
    construction, the file parsers and the exact counter -- so they
    all accept and reject the same inputs. Integer dtypes only: floats
    are never truncated into ids, and strings or bools never pass as
    numbers. Raises :class:`~repro.errors.VertexIdError` naming the
    first offending id.
    """
    if arr.dtype.kind in "iu" and not (
        (arr < 0).any() or (arr >= VERTEX_LIMIT).any()
    ):
        return
    values = arr.ravel().tolist()
    first = next(
        (x for x in values if not _is_vertex_id(x)), values[0] if values else None
    )
    dtype = "" if arr.dtype.kind in "iu" else f" (dtype {arr.dtype})"
    raise VertexIdError(
        f"vertex ids must be integers in [0, 2^31); got {first!r}{dtype}"
    )


def _is_vertex_id(x) -> bool:
    return (
        isinstance(x, (int, float))
        and not isinstance(x, bool)
        and 0 <= x < _ID_LIMIT
        and x == int(x)
    )


class EdgeBatch(Sequence):
    """A canonicalized, validated ``(w, 2)`` int64 batch of stream edges.

    Construct with :meth:`from_edges` (validates and canonicalizes any
    edge sequence or array); the plain constructor trusts its input --
    it is for sources and engines that already hold canonical arrays
    (slices of a validated stream, arrays shipped between processes).

    Behaves as a ``Sequence`` of canonical ``(u, v)`` tuples, so every
    per-edge consumer (exact counters, clique/window estimators,
    baselines) iterates it unchanged; the tuple list is materialized
    lazily, once, and shared by all of them.

    Turnstile streams attach an optional ``signs`` column: a ``(w,)``
    int8 array of ``+1`` (insert) / ``-1`` (delete) entries, canonical
    alongside the edge columns (the min/max swap never touches it).
    ``signs is None`` means insert-only, and every insert-only code
    path -- construction, slicing, context building, transport -- is
    byte-for-byte what it was before signs existed.
    """

    __slots__ = ("array", "signs", "_tuples", "_context")

    def __init__(self, array: np.ndarray, signs: np.ndarray | None = None) -> None:
        self.array = array
        self.signs = signs
        self._tuples: list[tuple[int, int]] | None = None
        self._context: BatchContext | None = None

    @classmethod
    def from_edges(cls, edges, signs=None) -> "EdgeBatch":
        """Validate and canonicalize any edge collection into a batch.

        Accepts an existing :class:`EdgeBatch` (returned as-is), an
        ``(w, 2)`` array, any sequence of ``(u, v)`` pairs, or -- for
        turnstile streams -- an ``(w, 3)`` array whose third column
        holds ``+1`` / ``-1`` signs (equivalently, pass ``signs=``
        alongside an ``(w, 2)`` input). Raises
        :class:`~repro.errors.InvalidParameterError` on self-loops, on
        vertex ids that are not integers in ``[0, 2^31)`` (see
        :func:`check_vertex_ids`), on a non-``(w, 2)`` shape, and on
        sign values other than ``+1`` / ``-1``.
        """
        if isinstance(edges, EdgeBatch):
            if signs is not None:
                raise InvalidParameterError(
                    "cannot attach signs to an existing EdgeBatch"
                )
            return edges
        try:
            arr = np.asarray(edges)
        except ValueError as exc:  # ragged rows
            raise InvalidParameterError(
                "batch must be an (w, 2) array of edges"
            ) from exc
        if signs is None and arr.ndim == 2 and arr.shape[1] == 3:
            signs, arr = arr[:, 2], arr[:, :2]
        if signs is not None:
            signs = np.asarray(signs)
            if signs.ndim != 1 or signs.shape[0] != arr.shape[0]:
                raise InvalidParameterError(
                    "signs must be a (w,) column matching the edge batch"
                )
        if arr.size == 0:
            empty = np.empty((0, 2), dtype=np.int64)
            if signs is not None:
                return cls(empty, np.empty(0, dtype=np.int8))
            return cls(empty)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidParameterError("batch must be an (w, 2) array of edges")
        check_vertex_ids(arr)
        arr = arr.astype(np.int64, copy=False)
        u, v = arr[:, 0], arr[:, 1]
        if (u == v).any():
            raise InvalidParameterError("self-loops are not allowed")
        if signs is not None:
            if not np.isin(signs, (-1, 1)).all():
                raise InvalidParameterError("signs must be +1 or -1")
            signs = np.ascontiguousarray(signs, dtype=np.int8)
        if (u < v).all():
            return cls(arr, signs)  # already canonical: keep zero-copy
        out = np.empty_like(arr)
        np.minimum(u, v, out=out[:, 0])
        np.maximum(u, v, out=out[:, 1])
        return cls(out, signs)

    @classmethod
    def from_wire(cls, array: np.ndarray) -> "EdgeBatch":
        """Rebuild a batch from its transport array (see :attr:`wire`).

        The counterpart of :attr:`wire` for arrays that crossed a
        process boundary: ``(w, 2)`` arrays come back as plain
        insert-only batches, ``(w, 3)`` arrays split back into edge
        columns plus the int8 sign column. Trusts its input (the wire
        array was canonical when it was sent).
        """
        if array.ndim == 2 and array.shape[1] == 3:
            return cls(array[:, :2], array[:, 2].astype(np.int8))
        return cls(array)

    @property
    def wire(self) -> np.ndarray:
        """The batch as one transport-ready int64 array.

        Insert-only batches ship their ``(w, 2)`` array unchanged (the
        zero-copy path); signed batches widen to ``(w, 3)`` with the
        sign column attached, which the shared-memory ring deliberately
        declines -- signed batches ride the pickled fallback, keeping
        the zero-copy fast path insert-only and untouched.
        """
        if self.signs is None:
            return self.array
        out = np.empty((len(self), 3), dtype=np.int64)
        out[:, :2] = self.array
        out[:, 2] = self.signs
        return out

    # ------------------------------------------------------------------
    # columnar views
    # ------------------------------------------------------------------
    @property
    def u(self) -> np.ndarray:
        """The smaller endpoints (the canonical ``min`` column)."""
        return self.array[:, 0]

    @property
    def v(self) -> np.ndarray:
        """The larger endpoints (the canonical ``max`` column)."""
        return self.array[:, 1]

    @property
    def context(self) -> "BatchContext":
        """The shared per-batch index, built lazily exactly once."""
        if self._context is None:
            if self.signs is None:
                self._context = BatchContext(self.u, self.v)
            else:
                self._context = BatchContext(self.u, self.v, self.signs)
        return self._context

    # ------------------------------------------------------------------
    # sequence-of-tuples behaviour (the per-edge consumer surface)
    # ------------------------------------------------------------------
    def tuples(self) -> list[tuple[int, int]]:
        """The batch as plain ``(u, v)`` tuples (materialized once)."""
        if self._tuples is None:
            self._tuples = list(map(tuple, self.array.tolist()))
        return self._tuples

    def __len__(self) -> int:
        return self.array.shape[0]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.tuples())

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self.signs is None:
                return EdgeBatch(self.array[index])
            return EdgeBatch(self.array[index], self.signs[index])
        u, v = self.array[index]
        return (int(u), int(v))

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeBatch):
            if not np.array_equal(self.array, other.array):
                return False
            if self.signs is None and other.signs is None:
                return True
            if self.signs is None or other.signs is None:
                return False
            return np.array_equal(self.signs, other.signs)
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return self.tuples() == list(other)
        return NotImplemented

    __hash__ = None  # mutable array payload

    def __repr__(self) -> str:
        kind = " signed" if self.signs is not None else ""
        return f"EdgeBatch(<{len(self)}{kind} edges>)"

    def batches(self, batch_size: int) -> Iterator["EdgeBatch"]:
        """Yield consecutive zero-copy slices of ``batch_size`` edges."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        for start in range(0, len(self), batch_size):
            if self.signs is None:
                yield EdgeBatch(self.array[start : start + batch_size])
            else:
                yield EdgeBatch(
                    self.array[start : start + batch_size],
                    self.signs[start : start + batch_size],
                )


def rebatch_arrays(
    arrays: Iterator[np.ndarray] | Sequence[np.ndarray], batch_size: int
) -> Iterator[np.ndarray]:
    """Regroup a stream of irregular ``(n, 2)`` arrays into exact batches.

    Chunked parsers produce arrays whose sizes depend on text-block
    boundaries; estimators need deterministic batch boundaries
    (``ceil(m / batch_size)`` batches, all but the last exactly
    ``batch_size``) so a file-fed run consumes its RNG identically to a
    memory-fed one. Only ``O(batch + chunk)`` edges are held at a time.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    buffer: list[np.ndarray] = []
    buffered = 0
    for arr in arrays:
        if not arr.shape[0]:
            continue
        buffer.append(arr)
        buffered += arr.shape[0]
        if buffered < batch_size:
            continue
        merged = np.concatenate(buffer) if len(buffer) > 1 else buffer[0]
        start = 0
        while merged.shape[0] - start >= batch_size:
            yield merged[start : start + batch_size]
            start += batch_size
        rest = merged[start:]
        buffer = [rest] if rest.shape[0] else []
        buffered = rest.shape[0]
    if buffered:
        yield np.concatenate(buffer) if len(buffer) > 1 else buffer[0]


#: Above this many queries, sort them first: binary search with sorted
#: queries streams through the reference array instead of thrashing it
#: (measured ~4-6x on 10^5-scale query sets).
_SORTED_QUERY_MIN = 8192


def _lookup_sorted(
    queries: np.ndarray,
    sorted_ref: np.ndarray,
    values: np.ndarray,
    *,
    offset: int = 0,
) -> np.ndarray:
    """``values[i] + offset`` where ``sorted_ref[i] == query`` else 0.

    The shared binary-search kernel behind ``final_degree`` and
    ``position_in_batch`` (they must stay behaviorally identical for
    the engines' bit-identity contract). ``sorted_ref`` must be
    non-empty; duplicate reference keys resolve to the first (the
    ``searchsorted`` left side).
    """
    n = queries.shape[0]
    top = sorted_ref.shape[0] - 1
    if n >= _SORTED_QUERY_MIN:
        order = np.argsort(queries)
        sorted_queries = queries[order]
        pos = np.minimum(np.searchsorted(sorted_ref, sorted_queries), top)
        found = sorted_ref[pos] == sorted_queries
        result = np.where(found, values[pos] + offset, 0)
        out = np.empty(n, dtype=np.int64)
        out[order] = result
        return out
    pos = np.minimum(np.searchsorted(sorted_ref, queries), top)
    found = sorted_ref[pos] == queries
    return np.where(found, values[pos] + offset, 0)


def _pack_index_sort(values: np.ndarray, shift: np.int64) -> np.ndarray:
    """Sorted ``(values[i] << shift) | i`` -- the stable-sort-by-pack trick.

    ``shift`` must exceed ``bit_length(len(values) - 1)`` so the index
    bits never collide; the result is then a stable (value, position)
    order in one quicksort.
    """
    packed = (values << shift) | np.arange(values.shape[0], dtype=np.int64)
    packed.sort()
    return packed


def _pack2_index_sort(
    hi_vals: np.ndarray, lo_vals: np.ndarray, lo_shift: np.int64, idx_shift: np.int64
) -> np.ndarray:
    """Sorted ``(((hi << lo_shift) | lo) << idx_shift) | i`` packing."""
    packed = (((hi_vals << lo_shift) | lo_vals) << idx_shift) | np.arange(
        hi_vals.shape[0], dtype=np.int64
    )
    packed.sort()
    return packed


class BatchContext:
    """Per-batch indexes shared by every estimator consuming the batch.

    Precomputes, from the canonical column arrays ``bu`` / ``bv``:

    - per-edge running endpoint degrees (``deg_at_edge_u/v``), i.e. the
      paper's ``deg`` table at each EVENTA;
    - the (vertex, occurrence) -> edge-index decoder for EVENTB
      subscriptions (table ``P``);
    - the sorted edge-key index for closing-edge (table ``Q``) lookups.

    The context is position-free: lookups report 1-based positions
    *within the batch* and callers add their own stream offset, so one
    context serves every fan-out estimator regardless of how many edges
    each has seen.

    Implementation notes. The stable (vertex, time) event sort is done
    as a single ``np.sort`` over packed ``(value << bits) | index`` keys
    -- considerably faster than a stable ``argsort`` -- and the same
    trick orders the edge keys whenever the ids are small enough to
    share an int64 with the index bits (stable ``argsort`` fallback
    otherwise). When the vertex-id space is compact, degree and
    group-start lookups use dense gather tables instead of per-query
    binary search.
    """

    __slots__ = (
        "bu",
        "bv",
        "signs",
        "_sign_delta",
        "_insert_mask",
        "_delete_mask",
        "deg_at_edge_u",
        "deg_at_edge_v",
        "_uniq_verts",
        "_group_starts",
        "_uniq_counts",
        "_event_order",
        "_key_order",
        "_sorted_keys",
        "_deg_table",
        "_gs_table",
        "_table_hi",
        "_uniq_keys",
        "_uniq_key_pos",
        "_remaining",
        "_decode_bases",
        "_vertex_mask",
    )

    #: Use dense lookup tables when ``max_id`` is at most this factor of
    #: the batch size (bounds table memory to a few times the batch).
    _DENSE_FACTOR = 8
    _DENSE_MIN = 65_536
    #: Build the vertex membership mask (one bool per id) only while
    #: ``max_id`` is at most this factor of the batch's endpoint count,
    #: or at most ``_MASK_MIN``, so it stays bounded by the batch size.
    _MASK_FACTOR = 64
    _MASK_MIN = 1 << 20

    def __init__(
        self, bu: np.ndarray, bv: np.ndarray, signs: np.ndarray | None = None
    ) -> None:
        self.bu = bu
        self.bv = bv
        self.signs = signs
        self._sign_delta = None
        self._insert_mask = None
        self._delete_mask = None
        w = bu.shape[0]
        n = 2 * w

        # Endpoint event array: events 2j (u of edge j) and 2j+1 (v of
        # edge j). Sorting packed (vertex << bits) | event keys gives the
        # stable (vertex, time) order and the inverse permutation in one
        # quicksort: the low bits *are* the original event index.
        events = np.empty(n, dtype=np.int64)
        events[0::2] = bu
        events[1::2] = bv
        shift = np.int64(max(1, int(max(n - 1, 1)).bit_length()))
        packed = _pack_index_sort(events, shift)
        order = packed & ((np.int64(1) << shift) - 1)
        sorted_events = packed >> shift

        is_start = np.ones(n, dtype=bool)
        if n:
            is_start[1:] = sorted_events[1:] != sorted_events[:-1]
        group_starts = np.flatnonzero(is_start)
        counts = np.diff(np.append(group_starts, n))
        # Rank of each event within its vertex group = running degree.
        rank = np.arange(n, dtype=np.int64) - np.repeat(group_starts, counts) + 1
        occ = np.empty(n, dtype=np.int64)
        occ[order] = rank
        self.deg_at_edge_u = occ[0::2]
        self.deg_at_edge_v = occ[1::2]

        self._uniq_verts = sorted_events[is_start]
        self._group_starts = group_starts
        self._uniq_counts = counts
        self._event_order = order

        # Dense degree / group-start tables (index = vertex id + 1, with
        # zero sentinels at both ends so -1 and too-large queries read 0).
        max_id = int(self._uniq_verts[-1]) if w else -1
        if 0 <= max_id <= max(self._DENSE_MIN, self._DENSE_FACTOR * n):
            self._deg_table = np.zeros(max_id + 3, dtype=np.int64)
            self._gs_table = np.zeros(max_id + 3, dtype=np.int64)
            self._deg_table[self._uniq_verts + 1] = counts
            self._gs_table[self._uniq_verts + 1] = group_starts
            self._table_hi = max_id + 2
        else:
            self._deg_table = None
            self._gs_table = None
            self._table_hi = 0

        # Sorted edge keys for closing-edge lookups. The packed-index
        # sort applies whenever (u, v, index) fits one int64; the order
        # (and hence every lookup result) is identical to the stable
        # argsort it replaces.
        keys = (bu << np.int64(32)) | bv
        kbits = int(max(w - 1, 1)).bit_length()
        ubits = int(bu.max()).bit_length() if w else 0
        vbits = int(bv.max()).bit_length() if w else 0
        if w and ubits + vbits + kbits <= 63:
            kshift = np.int64(kbits)
            pk = _pack2_index_sort(bu, bv, np.int64(vbits), kshift)
            self._key_order = pk & ((np.int64(1) << kshift) - 1)
            self._sorted_keys = keys[self._key_order]
        else:
            self._key_order = np.argsort(keys, kind="stable")
            self._sorted_keys = keys[self._key_order]

        self._uniq_keys = None
        self._uniq_key_pos = None
        self._remaining = None
        self._decode_bases = None
        self._vertex_mask = None

    # ------------------------------------------------------------------
    # signed (turnstile) views shared by every deletion-aware consumer
    # ------------------------------------------------------------------
    @property
    def insert_mask(self) -> np.ndarray:
        """Boolean mask of the batch's insertions (all-true when unsigned).

        Built lazily, once, and shared by every fan-out estimator that
        partitions the batch into insert/delete halves.
        """
        if self._insert_mask is None:
            if self.signs is None:
                self._insert_mask = np.ones(self.bu.shape[0], dtype=bool)
            else:
                self._insert_mask = self.signs > 0
        return self._insert_mask

    @property
    def delete_mask(self) -> np.ndarray:
        """Boolean mask of the batch's deletions (all-false when unsigned)."""
        if self._delete_mask is None:
            if self.signs is None:
                self._delete_mask = np.zeros(self.bu.shape[0], dtype=bool)
            else:
                self._delete_mask = self.signs < 0
        return self._delete_mask

    @property
    def sign_delta(self) -> np.ndarray:
        """The signs widened to int64 (all-ones when unsigned).

        The per-edge ``+1`` / ``-1`` column in accumulator width, so
        vectorized consumers fold a signed batch with one dot product
        instead of re-widening the int8 column each.
        """
        if self._sign_delta is None:
            if self.signs is None:
                self._sign_delta = np.ones(self.bu.shape[0], dtype=np.int64)
            else:
                self._sign_delta = self.signs.astype(np.int64)
        return self._sign_delta

    # ------------------------------------------------------------------
    # intersection views shared by every watch-index consumer
    # ------------------------------------------------------------------
    @property
    def unique_vertices(self) -> np.ndarray:
        """The batch's distinct endpoints, sorted ascending.

        The query-key set the output-sensitive engine intersects against
        its vertex watch index; computed with the event sort, so it is
        free, and shared by every fan-out estimator.
        """
        return self._uniq_verts

    @property
    def unique_vertex_counts(self) -> np.ndarray:
        """``degB`` of each vertex in :attr:`unique_vertices`.

        Aligned with :attr:`unique_vertices`, so a vertex-watch hit
        (which knows which unique vertex matched) reads the endpoint's
        batch degree with one gather instead of a degree lookup.
        """
        return self._uniq_counts

    @property
    def unique_edge_keys(self) -> np.ndarray:
        """The batch's distinct packed edge keys, sorted ascending.

        The query-key set for closing-edge (table ``Q``) watch lookups.
        Deduplicated from the already-sorted key index, lazily and
        exactly once per batch no matter how many estimators intersect
        against it.
        """
        if self._uniq_keys is None:
            sorted_keys = self._sorted_keys
            if sorted_keys.shape[0] == 0:
                self._uniq_keys = sorted_keys
                self._uniq_key_pos = sorted_keys
            else:
                keep = np.empty(sorted_keys.shape[0], dtype=bool)
                keep[0] = True
                np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=keep[1:])
                first = np.flatnonzero(keep)
                self._uniq_keys = sorted_keys[first]
                # The key sort is stable by batch position, so the head
                # of each key group is the key's first occurrence.
                self._uniq_key_pos = self._key_order[first] + 1
        return self._uniq_keys

    @property
    def unique_edge_key_positions(self) -> np.ndarray:
        """1-based first-occurrence position of each unique edge key.

        Aligned with :attr:`unique_edge_keys`;
        ``position_in_batch``'s answer for exactly those keys, exposed
        so a watch-index hit (which already knows *which* unique key
        matched) reads its closing position with one gather instead of
        a fresh binary search.
        """
        if self._uniq_key_pos is None:
            self.unique_edge_keys  # noqa: B018 -- builds both caches
        return self._uniq_key_pos

    @property
    def remaining_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge ``degB(endpoint) - deg-at-arrival`` for both columns.

        ``remaining_degrees[0][j]`` is how many later batch edges touch
        ``bu[j]`` (and ``[1][j]`` for ``bv[j]``) -- the per-edge form of
        Observation 3.6's ``a``/``b`` candidate counts. An estimator
        whose ``r1`` was resampled to batch edge ``j`` reads its counts
        with one gather instead of recomputing degree lookups per slot;
        computed lazily, once, and shared across the fan-out.
        """
        if self._remaining is None:
            self._remaining = (
                self.final_degree(self.bu) - self.deg_at_edge_u,
                self.final_degree(self.bv) - self.deg_at_edge_v,
            )
        return self._remaining

    @property
    def event_decode_bases(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge base offsets for Algorithm 3's EVENTB decode.

        For an estimator whose ``r1`` is batch edge ``j`` and whose phi
        draw is ``phi`` (with ``a = remaining_degrees[0][j]`` new
        candidates on the ``u`` side), the selected EVENTB's position in
        the sorted endpoint-event array is ``bases[0][j] + phi`` when
        ``phi <= a`` and ``bases[1][j] + phi`` otherwise; the edge index
        is then ``event_order[...] // 2``. Equivalent to (and verified
        against) :meth:`event_edge_index` on ``(v, beta + phi - ...)``
        queries, but a pure per-edge table, so a wholesale-resampled
        estimator pool decodes with two gathers per slot instead of
        per-slot degree lookups.
        """
        if self._decode_bases is None:
            if self._gs_table is not None:
                gs_u = self._gs_table[self.bu + 1]
                gs_v = self._gs_table[self.bv + 1]
            else:
                gs_u = self._group_starts[
                    np.searchsorted(self._uniq_verts, self.bu)
                ]
                gs_v = self._group_starts[
                    np.searchsorted(self._uniq_verts, self.bv)
                ]
            remaining_u, _ = self.remaining_degrees
            self._decode_bases = (
                gs_u + self.deg_at_edge_u - 1,
                gs_v + self.deg_at_edge_v - remaining_u - 1,
            )
        return self._decode_bases

    @property
    def vertex_mask(self) -> np.ndarray | None:
        """Batch-vertex membership by id, or ``None`` past the size bound.

        ``mask[v]`` is true iff ``v`` is an endpoint of some batch edge,
        for ``0 <= v < len(mask) - 1``; the last cell is a false
        sentinel, so callers clip larger ids to it. Taken from the dense
        degree table when that exists, else built lazily, once per
        batch, and only while the id space is within
        ``max(_MASK_MIN, _MASK_FACTOR * 2w)``.
        """
        if self._vertex_mask is None and self._uniq_verts.shape[0]:
            if self._deg_table is not None:
                self._vertex_mask = self._deg_table[1:] > 0
            else:
                max_id = int(self._uniq_verts[-1])
                bound = max(self._MASK_MIN, self._MASK_FACTOR * 2 * self.bu.shape[0])
                if max_id <= bound:
                    mask = np.zeros(max_id + 2, dtype=bool)
                    mask[self._uniq_verts] = True
                    self._vertex_mask = mask
        return self._vertex_mask

    @property
    def event_order(self) -> np.ndarray:
        """The inverse event permutation behind :attr:`event_decode_bases`."""
        return self._event_order

    def final_degree(self, verts: np.ndarray) -> np.ndarray:
        """``degB(v)`` for each query vertex (0 when absent; -1 maps to 0)."""
        if self._deg_table is not None:
            return self._deg_table[np.clip(verts + 1, 0, self._table_hi)]
        if self._uniq_verts.shape[0] == 0:
            return np.zeros(verts.shape[0], dtype=np.int64)
        return _lookup_sorted(verts, self._uniq_verts, self._uniq_counts)

    def event_edge_index(
        self, verts: np.ndarray, d: np.ndarray, degrees: np.ndarray | None = None
    ) -> np.ndarray:
        """Edge index of EVENTB ``(v, d)``: the d-th batch edge touching v.

        Callers guarantee ``1 <= d <= degB(v)`` (Algorithm 3 only
        produces in-range subscriptions). The contract is *verified*,
        with the same guard discipline as :meth:`final_degree`: an
        out-of-range query raises instead of silently reading a
        neighboring vertex group (dense-table path) or an arbitrary
        group (binary-search path). A caller that already holds the
        endpoints' batch degrees (the watch-index path assembles them
        with the candidate hits) passes them as ``degrees`` to spare
        the guard its own lookup; they must equal
        ``final_degree(verts)``.
        """
        if degrees is None:
            degrees = self.final_degree(verts)
        bad = (d < 1) | (d > degrees)
        if bad.any():
            raise InvalidParameterError(
                f"{int(bad.sum())} EVENTB queries out of contract: "
                "need 1 <= d <= degB(v) for a vertex v in the batch"
            )
        # The guard established that every vertex occurs in the batch,
        # so the unclipped table read and the group lookup are in range.
        if self._gs_table is not None:
            event_pos = self._gs_table[verts + 1] + d - 1
        else:
            g = np.searchsorted(self._uniq_verts, verts)
            event_pos = self._group_starts[g] + d - 1
        return self._event_order[event_pos] // 2

    def position_in_batch(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """1-based batch position of each edge ``(cu, cv)``; 0 if absent.

        ``cu <= cv`` (canonical order) is assumed. Duplicate edges
        resolve to their first occurrence (the stable order).
        """
        return self.position_in_batch_keys((cu << np.int64(32)) | cv)

    def position_in_batch_keys(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`position_in_batch` for already-packed edge keys.

        The watch-driven step 3 computes the packed closing keys anyway
        (the wedge-geometry kernel emits them); this entry point spares
        it re-packing. The empty-batch case is guarded *before* the
        binary search, so the lookup is total.
        """
        if self._sorted_keys.shape[0] == 0:
            return np.zeros(keys.shape[0], dtype=np.int64)
        return _lookup_sorted(keys, self._sorted_keys, self._key_order, offset=1)
