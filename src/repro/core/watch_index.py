"""Persistent inverted watch indexes for the output-sensitive engine.

The paper's per-edge cost argument (Section 3.3) is that an arriving
edge only does work proportional to the number of estimators it
actually *affects*: the level-1 reservoir slots it resamples, the
``r1`` endpoints it is incident on (table ``L``/``P``), and the open
wedges it closes (table ``Q``). The vectorized engine historically paid
``Theta(r)`` per batch anyway, because it recomputed every estimator's
view of every batch. :class:`WatchIndex` is the structure that makes
the engine output-sensitive: a persistent ``int64 key -> estimator
slot`` inverted index, maintained incrementally across batches, that
the engine intersects with the batch's unique vertices (vertex index
over ``r1`` endpoints) or unique edge keys (closing-edge index over
open wedges) to find the touched slots in ``O(w log r)``.

Design, in the classic LSM spirit -- three tiers plus lazy deletion:

- a **sorted base** (binary-searchable; held as packed
  ``(key << slot_bits) | slot`` int64 values whenever they fit, so one
  ``np.sort`` builds it and range queries need no gather indirection).
  For very compact key spaces (at most 8x the entry count) the base
  also carries dense CSR offsets, so a range lookup is two gathers;
- a **membership bitmap** over the key space, kept whenever a bool
  per key stays within 64x the entry count (or 2**20 keys), which at
  two entries per estimator is about 1.6x the pool's own state bytes.
  It is independent of the offsets: a vertex watch over a vertex space
  far larger than the pool still gets one. It prefilters query keys to
  the watched ones before any binary search runs; ``add`` sets its
  bits and grows it by doubling while the bound holds, and drops it
  (until the next :meth:`rebuild`) only once a key passes the bound.
  Edge-key watches never qualify;
- a **sorted run**: recent additions, kept sorted and binary-searched
  like the base, re-sorted only when the unsorted tail spills into it;
- an **unsorted tail** of the newest entries, probed linearly --
  ``add`` is O(1) amortized, so maintenance costs are proportional to
  the number of *replacements*, never to ``r``;
- deletions are lazy: a replaced or retired entry simply becomes
  *stale* (a tombstone that is never materialized -- the caller
  re-derives liveness from the estimator state, so a stale hit is a
  false positive that costs a little work, never a wrong answer), and
  :meth:`note_stale` just counts it toward the compaction budget. When
  total churn (run + tail + stale entries) passes the caller's
  threshold, the caller rebuilds from its authoritative state via
  :meth:`rebuild`, which resets all counters. Amortized maintenance is
  therefore ``O(replacements * log r)``, not ``O(r)`` per batch.

The index never appears in checkpoints: it is derived state, rebuilt
from the estimator arrays after ``load_state_dict`` or ``merge`` (see
:class:`~repro.core.vectorized.VectorizedTriangleCounter`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["WatchIndex"]

_EMPTY = np.empty(0, dtype=np.int64)


def _expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-query ranges into ``(positions, query indices)``.

    Concatenates ``arange(lo[i], hi[i])`` for every query ``i`` (in
    query order) and pairs each produced position with ``i``.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    query_idx = np.arange(lo.shape[0], dtype=np.int64)
    nonempty = counts > 0
    if not nonempty.all():
        lo = lo[nonempty]
        counts = counts[nonempty]
        query_idx = query_idx[nonempty]
    starts = np.cumsum(counts) - counts
    positions = np.repeat(lo - starts, counts) + np.arange(total, dtype=np.int64)
    return positions, np.repeat(query_idx, counts)


def _packed_range_lookup(
    packed: np.ndarray, shift: np.int64, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slots of all ``packed`` entries whose key is in sorted ``queries``.

    ``packed`` holds sorted ``(key << shift) | slot`` values; returns
    ``(slots, query_indices)`` in query-major order.
    """
    lo = np.searchsorted(packed, queries << shift)
    hi = np.searchsorted(packed, (queries + 1) << shift)
    span, qidx = _expand_ranges(lo, hi)
    if span.shape[0] == 0:
        return _EMPTY, _EMPTY
    return packed[span] & ((np.int64(1) << shift) - 1), qidx


def _sorted_range_lookup(
    sorted_keys: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of all ``sorted_keys`` entries matching sorted ``queries``.

    Returns ``(positions, query_indices)`` in query-major order; the
    caller gathers its parallel value array at ``positions``.
    """
    lo = np.searchsorted(sorted_keys, queries, side="left")
    hi = np.searchsorted(sorted_keys, queries, side="right")
    return _expand_ranges(lo, hi)


def _tail_probe(
    queries: np.ndarray, tail_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Match each tail key against sorted unique ``queries``.

    Returns ``(tail_indices, query_indices)`` for the tail entries whose
    key occurs in ``queries`` (tail order). ``queries`` must be
    non-empty.
    """
    q = queries.shape[0]
    pos = np.searchsorted(queries, tail_keys)
    np.minimum(pos, q - 1, out=pos)
    hit = queries[pos] == tail_keys
    return np.flatnonzero(hit), pos[hit]


def _pack_sort_pairs(keys: np.ndarray, slots: np.ndarray, shift: np.int64) -> np.ndarray:
    """Sorted ``(keys << shift) | slots`` (key-major, slot-minor)."""
    packed = (keys << shift) | slots
    packed.sort()
    return packed


def _sort_pairs(keys: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``(key, slot)`` pairs by key (ties by slot order)."""
    if keys.shape[0] == 0:
        return _EMPTY, _EMPTY
    key_bits = int(keys.max()).bit_length()
    slot_bits = max(int(slots.max()).bit_length(), 1)
    if key_bits + slot_bits <= 63:
        shift = np.int64(slot_bits)
        packed = _pack_sort_pairs(keys, slots, shift)
        return packed >> shift, packed & ((np.int64(1) << shift) - 1)
    order = np.argsort(keys, kind="stable")
    return keys[order], slots[order]


class WatchIndex:
    """A persistent ``int64 key -> estimator slot`` inverted index.

    Contract: the owner guarantees that every *live* subscription has an
    entry (``add`` on creation, :meth:`rebuild` after wholesale state
    changes) and re-checks liveness on every hit; the index may contain
    stale entries (lazy deletion) and therefore over-report candidates,
    but never under-report. Arrays passed to :meth:`add`/:meth:`rebuild`
    are kept by reference and must not be mutated afterwards. Keys and
    slots must be non-negative.
    """

    __slots__ = ("_packed", "_shift", "_base_keys", "_base_slots", "_offsets",
                 "_offsets_hi", "_bitmap", "_bitmap_hi", "_run_keys",
                 "_run_slots", "_tail_keys", "_tail_slots", "_tail_size",
                 "_stale")

    #: Merge the unsorted tail into the sorted run once it exceeds this
    #: (linear probes stay cheap; the run re-sort amortizes).
    _TAIL_MAX = 4096
    #: Build dense per-key offsets when the key space is at most this
    #: factor of the entry count...
    _DENSE_OFFSETS_FACTOR = 8
    #: ...or at most this absolute size, whichever is larger.
    _DENSE_OFFSETS_MIN = 65_536
    #: Keep the membership bitmap while the key space is at most this
    #: factor of the entry count, or at most ``_BITMAP_MIN`` keys.
    _BITMAP_FACTOR = 64
    _BITMAP_MIN = 1 << 20
    # (delta_size / nbytes / consolidate are introspection surface for
    # tests and capacity accounting; the engine compacts via rebuild.)

    def __init__(self) -> None:
        # Base: either packed (key << shift | slot) in _packed, or
        # parallel _base_keys/_base_slots when a pair does not fit one
        # int64. Dense offsets and the bitmap only for bounded key
        # spaces; the bitmap covers keys [0, _bitmap_hi) and its last
        # cell (index _bitmap_hi) is a False sentinel for clipped keys.
        self._packed = _EMPTY
        self._shift = np.int64(0)
        self._base_keys = _EMPTY
        self._base_slots = _EMPTY
        self._offsets: np.ndarray | None = None
        self._offsets_hi = 0
        self._bitmap: np.ndarray | None = None
        self._bitmap_hi = 0
        self._run_keys = _EMPTY
        self._run_slots = _EMPTY
        self._tail_keys: list[np.ndarray] = []
        self._tail_slots: list[np.ndarray] = []
        self._tail_size = 0
        self._stale = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def add(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Append new live entries (O(1) amortized, tail-buffered)."""
        n = keys.shape[0]
        if n == 0:
            return
        self._tail_keys.append(keys)
        self._tail_slots.append(slots)
        self._tail_size += n
        if self._bitmap is not None:
            key_max = int(keys.max())
            if key_max >= self._bitmap_hi:
                self._grow_bitmap(key_max)
            if self._bitmap is not None:
                self._bitmap[keys] = True
        if self._tail_size > self._TAIL_MAX:
            self._merge_tail_into_run()

    def note_stale(self, count: int) -> None:
        """Record ``count`` entries going stale (lazy tombstones)."""
        self._stale += int(count)

    def rebuild(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Replace everything with the authoritative live entries."""
        self._set_base(keys, slots)
        self._run_keys = _EMPTY
        self._run_slots = _EMPTY
        self._tail_keys = []
        self._tail_slots = []
        self._tail_size = 0
        self._stale = 0

    def consolidate(self) -> None:
        """Merge run and tail into the sorted base (stales remain)."""
        if self._tail_size == 0 and self._run_keys.shape[0] == 0:
            return
        parts_k = [self._base_keys_view(), self._run_keys, *self._tail_keys]
        parts_s = [self._base_slots_view(), self._run_slots, *self._tail_slots]
        self._set_base(
            np.concatenate([p for p in parts_k if p.shape[0]] or [_EMPTY]),
            np.concatenate([p for p in parts_s if p.shape[0]] or [_EMPTY]),
        )
        self._run_keys = _EMPTY
        self._run_slots = _EMPTY
        self._tail_keys = []
        self._tail_slots = []
        self._tail_size = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lookup(self, query_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entries whose key is in ``query_keys``: (slots, query indices).

        ``query_keys`` must be sorted and unique (duplicate query keys
        would be answered inconsistently across tiers: the sorted tiers
        report every duplicate position, the tail probe only the
        leftmost); the second array maps each returned slot to the
        position in ``query_keys`` its key matched. The result may
        contain duplicate slots and stale slots -- callers deduplicate
        and re-check liveness against the estimator state.
        """
        q = query_keys.shape[0]
        if q == 0 or self.size == 0:
            return _EMPTY, _EMPTY
        query_idx = None
        if self._bitmap is not None:
            watched = self._bitmap[np.minimum(query_keys, self._bitmap_hi)]
            if not watched.all():
                query_idx = np.flatnonzero(watched)
                query_keys = query_keys[query_idx]
                q = query_keys.shape[0]
                if q == 0:
                    return _EMPTY, _EMPTY
        slot_parts = []
        query_parts = []
        self._lookup_base(query_keys, slot_parts, query_parts)
        if self._run_keys.shape[0]:
            span, idx = _sorted_range_lookup(self._run_keys, query_keys)
            if span.shape[0]:
                slot_parts.append(self._run_slots[span])
                query_parts.append(idx)
        if self._tail_size:
            tail_keys, tail_slots = self._tail_arrays()
            tail_idx, pos_hit = _tail_probe(query_keys, tail_keys)
            if tail_idx.shape[0]:
                slot_parts.append(tail_slots[tail_idx])
                query_parts.append(pos_hit)
        if not slot_parts:
            return _EMPTY, _EMPTY
        slots = (
            slot_parts[0]
            if len(slot_parts) == 1
            else np.concatenate(slot_parts)
        )
        idx = (
            query_parts[0]
            if len(query_parts) == 1
            else np.concatenate(query_parts)
        )
        if query_idx is not None:
            idx = query_idx[idx]
        return slots, idx

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def churn(self) -> int:
        """Additions plus stale entries: the compaction budget spent."""
        return self._run_keys.shape[0] + self._tail_size + self._stale

    @property
    def delta_size(self) -> int:
        """Entries not yet merged into the base (run + tail)."""
        return self._run_keys.shape[0] + self._tail_size

    @property
    def size(self) -> int:
        """Total entries held (live and stale, all tiers)."""
        return self._base_size() + self._run_keys.shape[0] + self._tail_size

    def nbytes(self) -> int:
        return int(
            self._packed.nbytes
            + self._base_keys.nbytes
            + self._base_slots.nbytes
            + (self._offsets.nbytes if self._offsets is not None else 0)
            + (self._bitmap.nbytes if self._bitmap is not None else 0)
            + self._run_keys.nbytes
            + self._run_slots.nbytes
            + sum(a.nbytes for a in self._tail_keys)
            + sum(a.nbytes for a in self._tail_slots)
        )

    def __repr__(self) -> str:
        return (
            f"WatchIndex(base={self._base_size()}, "
            f"run={self._run_keys.shape[0]}, tail={self._tail_size}, "
            f"stale={self._stale})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _lookup_base(
        self, query_keys: np.ndarray, slot_parts: list, query_parts: list
    ) -> None:
        if self._offsets is not None:
            clipped = np.minimum(query_keys, self._offsets_hi)
            span, idx = _expand_ranges(
                self._offsets[clipped], self._offsets[clipped + 1]
            )
        elif self._packed.shape[0]:
            slots, idx = _packed_range_lookup(
                self._packed, self._shift, query_keys
            )
            if slots.shape[0]:
                slot_parts.append(slots)
                query_parts.append(idx)
            return
        elif self._base_keys.shape[0]:
            span, idx = _sorted_range_lookup(self._base_keys, query_keys)
        else:
            return
        if span.shape[0] == 0:
            return
        if self._packed.shape[0]:
            slot_parts.append(self._packed[span] & ((np.int64(1) << self._shift) - 1))
        else:
            slot_parts.append(self._base_slots[span])
        query_parts.append(idx)

    def _set_base(self, keys: np.ndarray, slots: np.ndarray) -> None:
        n = keys.shape[0]
        if n == 0:
            self._packed = _EMPTY
            self._base_keys = _EMPTY
            self._base_slots = _EMPTY
            self._offsets = None
            self._bitmap = None
            return
        key_max = int(keys.max())
        key_bits = key_max.bit_length()
        slot_bits = max(int(slots.max()).bit_length(), 1)
        if key_bits + slot_bits <= 63:
            # One sort over packed values, no gather, and range lookups
            # search the packed array directly.
            shift = np.int64(slot_bits)
            self._packed = _pack_sort_pairs(keys, slots, shift)
            self._shift = shift
            self._base_keys = _EMPTY
            self._base_slots = _EMPTY
        else:
            order = np.argsort(keys, kind="stable")
            self._packed = _EMPTY
            self._base_keys = keys[order]
            self._base_slots = slots[order]
        if key_max <= max(self._DENSE_OFFSETS_MIN, self._DENSE_OFFSETS_FACTOR * n):
            # Compact key space: dense CSR offsets turn a range lookup
            # into two gathers.
            counts = np.bincount(keys, minlength=key_max + 1)
            offsets = np.zeros(key_max + 3, dtype=np.int64)
            np.cumsum(counts, out=offsets[1 : key_max + 2])
            offsets[key_max + 2] = n
            self._offsets = offsets
            self._offsets_hi = key_max + 1
        else:
            self._offsets = None
        if key_max < self._bitmap_bound(n):
            bitmap = np.zeros(key_max + 2, dtype=bool)
            bitmap[keys] = True
            self._bitmap = bitmap
            self._bitmap_hi = key_max + 1
        else:
            self._bitmap = None

    def _bitmap_bound(self, entries: int) -> int:
        """Largest bitmap span (keys covered) allowed for ``entries``."""
        return max(self._BITMAP_MIN, self._BITMAP_FACTOR * entries)

    def _grow_bitmap(self, key_max: int) -> None:
        """Re-span the bitmap past ``key_max`` by doubling, or drop it.

        The span at least doubles (so growth amortizes) but never passes
        the memory bound; a key past the bound drops the bitmap until
        the next :meth:`rebuild` re-spans it.
        """
        bound = self._bitmap_bound(self.size)
        if key_max >= bound:
            self._bitmap = None
            return
        hi = min(max(2 * self._bitmap_hi, key_max + 1), bound)
        bitmap = np.zeros(hi + 1, dtype=bool)
        bitmap[: self._bitmap_hi] = self._bitmap[: self._bitmap_hi]
        self._bitmap = bitmap
        self._bitmap_hi = hi

    def _base_size(self) -> int:
        return self._packed.shape[0] or self._base_keys.shape[0]

    def _base_keys_view(self) -> np.ndarray:
        if self._packed.shape[0]:
            return self._packed >> self._shift
        return self._base_keys

    def _base_slots_view(self) -> np.ndarray:
        if self._packed.shape[0]:
            return self._packed & ((np.int64(1) << self._shift) - 1)
        return self._base_slots

    def _merge_tail_into_run(self) -> None:
        tail_keys, tail_slots = self._tail_arrays()
        if self._run_keys.shape[0]:
            keys = np.concatenate([self._run_keys, tail_keys])
            slots = np.concatenate([self._run_slots, tail_slots])
        else:
            keys, slots = tail_keys, tail_slots
        self._run_keys, self._run_slots = _sort_pairs(keys, slots)
        self._tail_keys = []
        self._tail_slots = []
        self._tail_size = 0

    def _tail_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self._tail_keys) > 1:
            self._tail_keys = [np.concatenate(self._tail_keys)]
            self._tail_slots = [np.concatenate(self._tail_slots)]
        return self._tail_keys[0], self._tail_slots[0]
