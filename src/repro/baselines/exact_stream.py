"""Exact streaming triangle and wedge counting (ground truth).

Maintains the full graph (O(m) space -- this is *not* a sublinear
algorithm; it is the reference the approximations are judged against,
and the triangle counter used by the Theorem 3.13 lower-bound protocol
demo). Event ``i`` on edge ``{u, v}`` adds ``|N_i(u) cap N_i(v)|``
triangles and ``deg_i(u) + deg_i(v)`` wedges, where ``N_i`` and
``deg_i`` count the neighbours whose edge *first* arrived before event
``i``: a repeated edge is a fresh event over an unchanged graph.

State is columnar: sorted int64 *directed* keys ``(x << 32) | y``
holding both directions of every distinct edge, so a vertex's
neighbours are one contiguous key range -- 16 bytes per distinct edge.
Arrival order only matters inside a batch (every indexed edge predates
every later event), so the index carries no arrival column; restored
checkpoints need none either. The keys live in a large sorted base plus
a small sorted run of recent keys. Each batch merges into the run, and
the run folds into the base once it outgrows ``1 / _FOLD_FACTOR`` of
it, so small batches never pay a ``Theta(m)`` merge each. A one-hash
bitmap over the keys (8 to 16 bits per key, derived state that is
rebuilt rather than checkpointed) answers "certainly absent" for most
lookups before any binary search runs.

A batch is counted in a handful of vectorized passes over the shared
:class:`~repro.streaming.batch.BatchContext` (its ``(vertex, time)``
endpoint-event order and its sorted distinct edge keys):

1. distinct batch keys the index lacks are the batch's new edges,
   first-arriving at their first occurrence;
2. each endpoint event's degree at arrival is its index range length
   plus the endpoint's earlier in-batch first arrivals; their sum is
   the wedge delta;
3. each event enumerates the neighbours of its endpoint with the lower
   degree at arrival -- ``sum_i min(deg_i(u), deg_i(v))`` candidates,
   the Chiba--Nishizeki bound -- and looks up each closing edge. An
   indexed closing edge only needs a membership test; an in-batch one
   must have first-arrived before the event. Most candidates close
   nothing, and the bitmap drops nearly all of those; the rest are
   looked up as sorted queries, which walk the index in order and run
   several times faster than the same queries unsorted.

Plain edge sequences are validated here, under the contract every
other estimator applies (:func:`~repro.streaming.batch.check_vertex_ids`):
ids that are not integers in ``[0, 2^31)`` raise
:class:`~repro.errors.InvalidParameterError`, self-loops
:class:`~repro.errors.InvalidEdgeError`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import EmptyStreamError, InvalidEdgeError, InvalidParameterError
from ..streaming.batch import EdgeBatch, check_vertex_ids

__all__ = ["ExactStreamingCounter"]

_SHIFT = np.int64(32)
_LOW = (np.int64(1) << _SHIFT) - 1
_EMPTY = np.empty(0, dtype=np.int64)

#: Fold the recent run into the base once it holds more than
#: ``1 / _FOLD_FACTOR`` of the base's keys.
_FOLD_FACTOR = 8
#: Membership-filter bits per indexed key, at least. With one hash, at
#: most about one absent key in eight passes the filter.
_FILTER_BITS = 8
#: Fibonacci-hashing multiplier (2^64 over the golden ratio).
_HASH = np.uint64(0x9E3779B97F4A7C15)


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted union of two sorted, disjoint key arrays.

    A stable sort of the concatenation: timsort finds the two runs and
    merges them in linear time, well ahead of ``np.insert``.
    """
    if not a.size:
        return b
    if not b.size:
        return a
    out = np.concatenate((a, b))
    out.sort(kind="stable")
    return out


def _find(index: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each query sits in the sorted ``index``, and whether it is there."""
    if not index.size:
        return np.zeros(queries.size, dtype=np.int64), np.zeros(queries.size, dtype=bool)
    at = np.searchsorted(index, queries)
    np.minimum(at, index.size - 1, out=at)
    return at, index[at] == queries


def _ranges(index: np.ndarray, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each sorted vertex's key range in a sorted index.

    The upper bound ``(x << 32) | (2^32 - 1)`` is never a key (ids stay
    below ``2^31``) and, unlike ``(x + 1) << 32``, cannot overflow.
    """
    bounds = np.empty(2 * verts.size, dtype=np.int64)
    bounds[0::2] = verts << _SHIFT
    bounds[1::2] = bounds[0::2] | _LOW
    at = np.searchsorted(index, bounds)
    return at[0::2], at[1::2] - at[0::2]


def _slots(keys: np.ndarray, log_bits: int) -> np.ndarray:
    """Filter bit positions of ``keys``: the top ``log_bits`` bits of a Fibonacci hash."""
    return (keys.view(np.uint64) * _HASH >> np.uint64(64 - log_bits)).astype(np.int64)


def _expand(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``[starts[i], starts[i] + lens[i])``."""
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(int(offsets[-1] + lens[-1]))


def _validated(batch) -> EdgeBatch:
    """A plain edge sequence as a canonical batch, under the id contract."""
    arr = np.asarray(batch if isinstance(batch, (np.ndarray, Sequence)) else list(batch))
    if arr.size == 0:
        return EdgeBatch(np.empty((0, 2), dtype=np.int64))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidParameterError("batch must be an (w, 2) array of edges")
    check_vertex_ids(arr)
    arr = arr.astype(np.int64, copy=False)
    u, v = arr[:, 0], arr[:, 1]
    loops = np.flatnonzero(u == v)
    if loops.size:
        raise InvalidEdgeError(
            f"self-loop at vertex {int(u[loops[0]])} is not allowed in a simple graph"
        )
    return EdgeBatch(np.stack((np.minimum(u, v), np.maximum(u, v)), axis=1))


class ExactStreamingCounter:
    """Exact triangle/wedge counts with the streaming ``update`` API."""

    #: Reads the shared per-batch index (``batch.context``).
    uses_batch_context = True

    def __init__(self) -> None:
        self._base = _EMPTY
        self._run = _EMPTY
        self._rebuild_filter()
        self.edges_seen = 0
        self.triangles = 0
        self.wedges = 0

    def update(self, edge: tuple[int, int]) -> None:
        """Insert one stream edge and update all counts incrementally."""
        self.update_batch([edge])

    def update_batch(self, batch: Sequence[tuple[int, int]]) -> None:
        """Insert a batch; :class:`EdgeBatch` rows are already canonical."""
        if not isinstance(batch, EdgeBatch):
            batch = _validated(batch)
        w = len(batch)
        if not w:
            return
        ctx = batch.context
        ev = batch.array.reshape(-1)  # event 2j is u of edge j, 2j + 1 its v
        order = ctx.event_order
        counts = ctx.unique_vertex_counts
        group = np.repeat(np.arange(counts.size), counts)
        indexes = (self._base, self._run)
        spans = [_ranges(index, ctx.unique_vertices) for index in indexes]

        # 1. New edges: distinct batch keys the index lacks, first-
        # arriving at their first occurrence. ``fresh`` holds both
        # directions, sorted, beside their arrivals; the filter learns
        # them now so in-batch closing edges pass it in step 3.
        keys = ctx.unique_edge_keys
        new = ~self._holds(keys)
        new_keys = keys[new]
        new_at = ctx.unique_edge_key_positions[new] - 1
        first = np.zeros(w, dtype=bool)
        first[new_at] = True
        fresh = np.concatenate(
            (new_keys, ((new_keys & _LOW) << _SHIFT) | (new_keys >> _SHIFT))
        )
        by_key = np.argsort(fresh)
        fresh, fresh_at = fresh[by_key], np.tile(new_at, 2)[by_key]
        self._remember(fresh)

        # 2. Degree at arrival of every endpoint event, in the context's
        # (vertex, time) order: the indexed degree plus earlier in-batch
        # first arrivals. ``fstart`` is each vertex's offset into the
        # first-arrival events ``fevents`` (same order, repeats dropped).
        is_first = first[order >> 1]
        before = np.cumsum(is_first) - is_first
        fstart = before[np.cumsum(counts) - counts]
        prior = before - fstart[group]
        deg = (spans[0][1] + spans[1][1])[group] + prior
        self.wedges += int(deg.sum())

        # 3. Triangles: each event enumerates its endpoint with the lower
        # degree at arrival and looks up ``(other endpoint, neighbour)``.
        # Candidates the filter rules out close nothing; the rest are
        # sorted, then an indexed closing edge always counts and an
        # in-batch one only if it arrived before the event.
        deg_by_event = np.empty_like(deg)
        deg_by_event[order] = deg
        other = deg_by_event[order ^ 1]
        pick = np.flatnonzero((deg < other) | ((deg == other) & ((order & 1) == 0)))
        g = group[pick]
        fevents = order[is_first]
        lens = [n[g] for _, n in spans] + [prior[pick]]
        nbrs = np.concatenate(
            [index[_expand(lo[g], n[g])] & _LOW for index, (lo, n) in zip(indexes, spans)]
            + [ev[fevents[_expand(fstart[g], prior[pick])] ^ 1]]
        )
        ends, at = ev[order[pick] ^ 1], order[pick] >> 1
        closing = (np.concatenate([np.repeat(ends, n) for n in lens]) << _SHIFT) | nbrs
        event = np.concatenate([np.repeat(at, n) for n in lens])
        maybe = np.flatnonzero(self._may_hold(closing))
        perm = maybe[np.argsort(closing[maybe])]
        closing, event = closing[perm], event[perm]
        slot, in_batch = _find(fresh, closing)
        found = np.flatnonzero(in_batch)
        self.triangles += int(
            np.count_nonzero(self._indexed(closing))
            + np.count_nonzero(fresh_at[slot[found]] < event[found])
        )

        # 4. Index the new edges.
        if fresh.size:
            self._run = _merge(self._run, fresh)
            if self._run.size * _FOLD_FACTOR > self._base.size:
                self._base, self._run = _merge(self._base, self._run), _EMPTY
        self.edges_seen += w

    def _holds(self, keys: np.ndarray) -> np.ndarray:
        """Which of the sorted ``keys`` the index holds (filter first)."""
        held = self._may_hold(keys)
        maybe = np.flatnonzero(held)
        held[maybe] = self._indexed(keys[maybe])
        return held

    def _indexed(self, keys: np.ndarray) -> np.ndarray:
        """Which of the sorted ``keys`` the base or the run holds."""
        return _find(self._base, keys)[1] | _find(self._run, keys)[1]

    # ------------------------------------------------------------------
    # membership filter: one hashed bit per key, derived from the index
    # ------------------------------------------------------------------
    def _may_hold(self, keys: np.ndarray) -> np.ndarray:
        """False for keys that are certainly absent (no false negatives).

        Most closing candidates close no triangle, so the filter spares
        them the binary searches.
        """
        at = _slots(keys, self._log_bits)
        return ((self._filter[at >> 3] >> (at & 7).astype(np.uint8)) & 1).astype(bool)

    def _remember(self, keys: np.ndarray) -> None:
        """Set the bits of keys about to join the index."""
        if (self._base.size + self._run.size + keys.size) * _FILTER_BITS > 1 << self._log_bits:
            self._rebuild_filter(keys)
            return
        at = _slots(keys, self._log_bits)
        np.bitwise_or.at(self._filter, at >> 3, np.left_shift(1, at & 7).astype(np.uint8))

    def _rebuild_filter(self, extra: np.ndarray = _EMPTY) -> None:
        """Size the filter to the index plus ``extra`` and set every bit."""
        keys = np.concatenate((self._base, self._run, extra))
        self._log_bits = max(16, int(keys.size * _FILTER_BITS).bit_length())
        bits = np.zeros(1 << self._log_bits, dtype=bool)
        bits[_slots(keys, self._log_bits)] = True
        self._filter = np.packbits(bits, bitorder="little")

    def _keys(self) -> np.ndarray:
        """Every directed key, sorted (base and run merged)."""
        return _merge(self._base, self._run)

    def estimate(self) -> float:
        """The exact triangle count (named for API compatibility)."""
        return float(self.triangles)

    def transitivity(self) -> float:
        """Exact transitivity coefficient ``3 tau / zeta`` so far."""
        if self.wedges == 0:
            raise EmptyStreamError("no wedges observed yet")
        return 3.0 * self.triangles / self.wedges

    # ------------------------------------------------------------------
    # checkpoint/ship surface
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot: the graph as a sorted canonical edge array plus counts."""
        keys = self._keys()
        hi, lo = keys >> _SHIFT, keys & _LOW
        canonical = hi < lo
        return {
            "edges": np.stack((hi[canonical], lo[canonical]), axis=1),
            "edges_seen": self.edges_seen,
            "triangles": self.triangles,
            "wedges": self.wedges,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        The edges must be what :meth:`state_dict` writes: a ``(k, 2)``
        integer array of canonical ``u < v`` rows in ``[0, 2^31)``,
        sorted and unique. Anything else raises
        :class:`InvalidParameterError` (it would restore wrong degrees).
        """
        missing = [
            k
            for k in ("edges", "edges_seen", "triangles", "wedges")
            if k not in state
        ]
        if missing:
            raise InvalidParameterError(f"state dict missing fields: {missing}")
        edges = np.asarray(state["edges"])
        if edges.size == 0:
            edges = np.empty((0, 2), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
            raise InvalidParameterError("state edges must be a (k, 2) integer array")
        edges = edges.astype(np.int64, copy=False)
        u, v = edges[:, 0], edges[:, 1]
        if (u >= v).any():
            raise InvalidParameterError(
                "state edges must be canonical u < v rows (no self-loops)"
            )
        check_vertex_ids(edges)
        keys = (u << _SHIFT) | v
        if (keys[1:] <= keys[:-1]).any():
            raise InvalidParameterError("state edges must be sorted and unique")
        self._base = _merge(keys, np.sort((v << _SHIFT) | u))
        self._run = _EMPTY
        self._rebuild_filter()
        self.edges_seen = int(state["edges_seen"])
        self.triangles = int(state["triangles"])
        self.wedges = int(state["wedges"])

    def merge(self, other: "ExactStreamingCounter") -> None:
        """Merging exact counters over the same stream is a no-op.

        Exact counting is deterministic, so two counters that observed
        the same stream hold identical state; a disagreement means they
        did not, which is an error.
        """
        if (
            other.edges_seen != self.edges_seen
            or other.triangles != self.triangles
            or other.wedges != self.wedges
        ):
            raise InvalidParameterError(
                "cannot merge exact counters with diverging state "
                f"(edges {other.edges_seen} vs {self.edges_seen})"
            )

    def max_degree(self) -> int:
        """Maximum degree observed so far."""
        vertex = self._keys() >> _SHIFT
        if not vertex.size:
            return 0
        starts = np.flatnonzero(np.diff(vertex)) + 1
        return int(np.diff(starts, prepend=0, append=vertex.size).max())

    def state_size_edges(self) -> int:
        """Number of distinct edges held -- the Omega(n) state the
        lower bound (Theorem 3.13) says any accurate algorithm must pay
        on the Index-reduction graphs."""
        return (self._base.size + self._run.size) // 2
