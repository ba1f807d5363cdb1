"""Vectorized (numpy) implementation of bulk neighborhood sampling.

Same sampling semantics as :class:`repro.core.bulk.BulkTriangleCounter`
-- the three conceptual steps of Section 3.3 -- but with all ``r``
estimator states held in flat numpy arrays and each step expressed as
array operations. This is the engine that makes paper-scale estimator
counts (``r`` in the hundreds of thousands) practical in Python.

Correspondence to the paper's tables:

- table ``L`` (estimators whose ``r1`` is batch edge ``j``) becomes a
  gather of per-edge running degrees at the estimators' ``r1``
  positions;
- table ``P`` (EVENTB subscriptions) becomes an index computation: the
  ``d``-th batch edge incident on vertex ``v`` is found by binary search
  over the batch's endpoint-event array sorted by (vertex, time);
- table ``Q`` (closing-edge watch) becomes a binary search of each
  estimator's closing edge key in the sorted batch edge keys, plus a
  position comparison.

**Output sensitivity.** The paper's cost argument is that an arriving
edge only does work proportional to the estimators it actually affects;
the engine realizes it with two persistent
:class:`~repro.core.watch_index.WatchIndex` structures maintained
incrementally across batches:

- a *vertex watch*: ``r1`` endpoint -> slot, the inverted form of
  tables ``L``/``P``. Intersecting the batch's unique vertices against
  it yields exactly the slots that can gain level-2 candidates;
- a *wedge watch*: closing-edge key -> slot over open wedges, the
  inverted form of table ``Q``. Intersecting the batch's unique edge
  keys against it yields exactly the wedges this batch can close.

Steps 2-3 then compute betas, candidate counts, phi draws, and closings
only for the touched subset, so per-batch cost is ``O(touched + w log
r)`` instead of ``Theta(r)``; index maintenance is O(replacements),
amortized by churn-triggered compaction. When a batch is cheaper to
scan densely (small pools, or heavy-resample batches early in a
stream), the engine falls back to full-pool scans of the *same*
arithmetic -- the touched-set computation recovers exactly the dense
path's active set and consumes the generator in the same slot order,
so both query strategies (and ``sparse=False``, the retained dense
reference path) are bit-identical.

Triangle identities are retained (not just a "closed" bit), so the
sampling algorithms of Section 3.4 can run on this engine too.

The per-batch tables live in :class:`repro.streaming.batch.BatchContext`
(hoisted out of this module so a :class:`~repro.streaming.pipeline.Pipeline`
fan-out builds them once per batch for all estimators) -- including the
unique-vertex / unique-edge-key intersection views the watch indexes
query, so ``n`` fanned-out estimators share one intersection
precomputation per batch; the engine sets ``uses_batch_context`` so a
fan-out builds that index up front. ``update_batch`` accepts any edge
collection and defers to :meth:`update_prepared`, its body.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import InvalidParameterError
from ..streaming.batch import BatchContext, EdgeBatch, _pack_index_sort
from ..streaming.registry import register_engine
from .watch_index import WatchIndex

__all__ = ["STATE_FIELDS", "PoolView", "VectorizedTriangleCounter"]

#: The per-estimator state arrays, in checkpoint order. The single
#: source of truth shared by :meth:`VectorizedTriangleCounter.state_dict`,
#: :meth:`~VectorizedTriangleCounter.state_nbytes`,
#: :meth:`~VectorizedTriangleCounter.load_state_dict` and
#: :meth:`~VectorizedTriangleCounter.merge`. The watch indexes are
#: deliberately NOT here: they are derived state, rebuilt from these
#: arrays after ``load_state_dict``/``merge``.
STATE_FIELDS = (
    "r1u", "r1v", "r1pos", "r2u", "r2v", "r2pos", "c", "tset", "ta", "tb", "tc",
)


def _pack_edge_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical packed edge keys ``(min << 32) | max`` per pair."""
    return (np.minimum(a, b) << np.int64(32)) | np.maximum(a, b)


def _wedge_geometry(
    r1u: np.ndarray, r1v: np.ndarray, r2u: np.ndarray, r2v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared vertex, outer endpoints, and closing key of each wedge.

    The shared vertex is the endpoint ``r1`` and ``r2`` have in common;
    the two outer endpoints form the closing edge, returned packed as
    a canonical int64 key.
    """
    shared = np.where((r1u == r2u) | (r1u == r2v), r1u, r1v)
    out1 = r1u + r1v - shared
    out2 = r2u + r2v - shared
    keys = (np.minimum(out1, out2) << np.int64(32)) | np.maximum(out1, out2)
    return shared, out1, out2, keys


def _phi_from_draws(draws: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Algorithm 3's ``randInt(1, total)`` from uniform float64 draws.

    ``1 + int64(draw * total)`` clamped to ``total`` -- the clamp closes
    the rounding hole where a draw close to 1 against a large total
    rounds the product up to ``total`` itself (see the phi-clamp
    regression tests).
    """
    phi = 1 + (draws * totals).astype(np.int64)
    np.minimum(phi, totals, out=phi)
    return phi


def _step2_totals(
    deg_bx: np.ndarray,
    deg_by: np.ndarray,
    beta_x: np.ndarray,
    beta_y: np.ndarray,
    c_minus: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observation 3.6's candidate counts: ``(a, c_plus, total)``.

    ``a`` is the new-candidate count on the ``x`` side, ``c_plus`` the
    total new candidates, ``total = c_minus + c_plus`` the updated
    running count.
    """
    a = deg_bx - beta_x
    c_plus = a + (deg_by - beta_y)
    return a, c_plus, c_minus + c_plus


@register_engine("vectorized")
class VectorizedTriangleCounter:
    """``r`` neighborhood-sampling estimators in numpy arrays.

    Parameters
    ----------
    num_estimators:
        The number of parallel estimators ``r``.
    seed:
        Seed for the numpy ``Generator``; anything
        :func:`numpy.random.default_rng` accepts (an ``int``, a
        ``SeedSequence`` -- as the parallel counter's spawned worker
        seeds are -- or ``None`` for OS entropy).
    sparse:
        ``True`` (default) maintains the persistent watch indexes and
        drives steps 2-3 output-sensitively; ``False`` is the dense
        reference path (every batch scans all ``r`` slots). Both paths
        are bit-identical under the same seed -- the property the test
        suite asserts -- so the flag is a pure performance choice.

    Notes
    -----
    Unset edges are stored as ``-1``. All vertex ids must be in
    ``[0, 2^31)`` so an edge packs into one ``int64`` key. The state
    arrays (:data:`STATE_FIELDS`) must not be mutated externally in
    ``sparse`` mode: the watch indexes are derived from them and are
    only rebuilt on :meth:`load_state_dict`/:meth:`merge`.
    """

    #: Steps 2-3 read the shared per-batch index (``batch.context``).
    uses_batch_context = True

    #: Scan the full pool in step 2 when ``r`` is at most this fraction
    #: of the batch's unique vertices (index intersection costs more
    #: than it saves), and likewise in step 3 against the batch width.
    _SCAN_FRACTION = 4
    #: Close wedges with a pool scan when ``r`` is at most this multiple
    #: of the batch width (see :meth:`_step3_sparse`).
    _STEP3_SCAN_RATIO = 1
    #: Resampling at least ``r / 2**_SCAN_CHURN_SHIFT`` slots in one
    #: batch means most of the pool is touched anyway -- scan.
    _SCAN_CHURN_SHIFT = 3
    #: Watch indexes are compacted when their churn (delta + stale
    #: entries) exceeds ``max(_COMPACT_MIN, r)``.
    _COMPACT_MIN = 2048

    def __init__(
        self,
        num_estimators: int,
        *,
        seed: int | np.random.SeedSequence | None = None,
        sparse: bool = True,
    ) -> None:
        if num_estimators < 1:
            raise InvalidParameterError(
                f"num_estimators must be >= 1, got {num_estimators}"
            )
        r = num_estimators
        self._rng = np.random.default_rng(seed)
        self.edges_seen = 0
        self.r1u = np.full(r, -1, dtype=np.int64)
        self.r1v = np.full(r, -1, dtype=np.int64)
        self.r1pos = np.zeros(r, dtype=np.int64)
        self.r2u = np.full(r, -1, dtype=np.int64)
        self.r2v = np.full(r, -1, dtype=np.int64)
        self.r2pos = np.zeros(r, dtype=np.int64)
        self.c = np.zeros(r, dtype=np.int64)
        self.tset = np.zeros(r, dtype=bool)
        # Triangle vertices (sorted), for the sampling algorithms.
        self.ta = np.full(r, -1, dtype=np.int64)
        self.tb = np.full(r, -1, dtype=np.int64)
        self.tc = np.full(r, -1, dtype=np.int64)
        # Performance mode, not state: sparse and reference scans are
        # bit-identical, so checkpoints deliberately omit the flag.
        self._sparse = bool(sparse)  # repro: derived
        # Derived watch indexes (sparse mode): None means "rebuild from
        # the state arrays before next use".
        self._vertex_watch: WatchIndex | None = None
        self._wedge_watch: WatchIndex | None = None
        # A pool read by several views (see share()) owes the others a
        # skip of the batch it absorbed last, so each advances it once.
        self._views = 1  # repro: derived
        self._skips = 0  # repro: derived
        self._last_batch: EdgeBatch | None = None  # repro: derived

    # ------------------------------------------------------------------
    # public protocol shared by all engines
    # ------------------------------------------------------------------
    @property
    def num_estimators(self) -> int:
        return self.r1u.shape[0]

    def update(self, edge: tuple[int, int]) -> None:
        """Process one edge (a batch of size one)."""
        self.update_batch([edge])

    def update_batch(
        self, batch: Sequence[tuple[int, int]] | np.ndarray | EdgeBatch
    ) -> None:
        """Process a batch of ``w`` edges (Section 3.3 semantics).

        Coerces ``batch`` to an :class:`~repro.streaming.batch.EdgeBatch`
        (an ``EdgeBatch`` is returned unchanged; anything else is
        validated and canonicalized) and defers to
        :meth:`update_prepared`. A :meth:`share`-d pool skips the batch
        object it absorbed last while other views still owe a feed of it.
        """
        batch = EdgeBatch.from_edges(batch)
        if self._skips and batch is self._last_batch:
            self._skips -= 1
            return
        self.update_prepared(batch)
        if self._views > 1:
            self._last_batch, self._skips = batch, self._views - 1

    def share(self) -> "VectorizedTriangleCounter":
        """Add a view reading this pool; returns ``self``.

        A pool read by ``k`` views absorbs a batch object at the first
        of each ``k`` feeds of it, whichever view is fed first, so a
        fan-out that hands every view each batch advances it once per
        batch (a source that repeats one batch object included).
        """
        self._views += 1
        return self

    def update_prepared(self, batch: EdgeBatch) -> None:
        """Consume a validated batch: the body behind :meth:`update_batch`.

        Skips conversion and validation and reuses ``batch.context``
        (the per-batch index), which a pipeline fan-out builds exactly
        once and shares across all estimators -- including the
        unique-vertex and unique-edge-key views the watch indexes
        intersect against, so the intersection precomputation is also
        shared.
        """
        w = len(batch)
        if w == 0:
            return
        bu, bv = batch.u, batch.v
        base = self.edges_seen
        ctx = batch.context
        if not self._sparse or self.num_estimators <= w // self._SCAN_FRACTION:
            # Reference mode, or a pool small against the batch: full
            # scans win outright and index maintenance would cost more
            # than it saves. The indexes are dropped and lazily rebuilt
            # if a later (smaller) batch flips back to index queries.
            new_mask, new_j = self._step1(bu, bv, w)
            self._step2(ctx, new_mask, new_j, base)
            self._step3(ctx, base)
            self.edges_seen += w
            self._vertex_watch = None
            self._wedge_watch = None
            return
        if base:
            # A fresh pool (base == 0) always resamples every slot in
            # step 1, which resets the indexes wholesale -- skip the
            # rebuild entirely in that case.
            if self._vertex_watch is None:
                self._rebuild_vertex_watch()
            if self._wedge_watch is None:
                self._rebuild_wedge_watch()
        new_idx, new_j = self._step1_sparse(bu, bv, w)
        cand_info = self._candidate_slots(ctx, new_idx)
        self._step2_sparse(ctx, cand_info, new_idx, new_j, base)
        self._step3_sparse(ctx, base)
        self.edges_seen += w
        self._maybe_compact()

    def estimates(self) -> np.ndarray:
        """Per-estimator unbiased triangle estimates ``tau~`` (Lemma 3.2)."""
        m = float(self.edges_seen)
        return np.where(self.tset, self.c.astype(np.float64) * m, 0.0)

    def estimate(self) -> float:
        """Mean of the per-estimator estimates (Theorem 3.3 aggregation)."""
        return float(self.estimates().mean())

    def wedge_estimates(self) -> np.ndarray:
        """Per-estimator unbiased wedge estimates ``m * c`` (Lemma 3.10)."""
        return self.c.astype(np.float64) * float(self.edges_seen)

    def triangles_held(self) -> list[tuple[int, int, int]]:
        """The distinct-slot triangles currently held (for sampling)."""
        idx = np.nonzero(self.tset)[0]
        return [
            (int(self.ta[i]), int(self.tb[i]), int(self.tc[i])) for i in idx
        ]

    def state_dict(self) -> dict:
        """Serializable snapshot of the estimator state.

        The :class:`~repro.streaming.protocol.CheckpointableEstimator`
        surface; see :mod:`repro.streaming.checkpoint` for the on-disk
        format. The generator state rides along under ``"rng"`` so
        :meth:`load_state_dict` resumes the random stream bit-exactly
        (reservoir decisions are memoryless, so consumers that drop the
        key -- e.g. a restore under a fresh seed -- remain correct,
        just not bit-identical). The watch indexes are derived state
        and never serialized.
        """
        state = {name: getattr(self, name).copy() for name in STATE_FIELDS}
        state["edges_seen"] = self.edges_seen
        state["rng"] = self._rng.bit_generator.state
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Adopts the snapshot's pool size wholesale (the arrays are
        replaced, not copied into); when the snapshot carries a
        ``"rng"`` entry the generator state is restored too, making a
        resumed run bit-identical to an uninterrupted one. The watch
        indexes are dropped and rebuilt from the restored arrays on the
        next batch.
        """
        missing = [k for k in (*STATE_FIELDS, "edges_seen") if k not in state]
        if missing:
            raise InvalidParameterError(f"state dict missing fields: {missing}")
        r = int(np.asarray(state["r1u"]).shape[0])
        for name in STATE_FIELDS:
            arr = np.asarray(state[name])
            if arr.shape[0] != r:
                raise InvalidParameterError(
                    f"field {name} has {arr.shape[0]} entries, expected {r}"
                )
            template = getattr(self, name)
            setattr(self, name, arr.astype(template.dtype, copy=True))
        self.edges_seen = int(state["edges_seen"])
        rng_state = state.get("rng")
        if rng_state is not None:
            self._rng = np.random.default_rng()
            self._rng.bit_generator.state = rng_state
        self._vertex_watch = None
        self._wedge_watch = None
        self._last_batch, self._skips = None, 0

    def merge(self, other: "VectorizedTriangleCounter") -> None:
        """Absorb ``other``'s estimator pool (same stream observed).

        Estimators are independent, so pools built over the same stream
        on different cores combine by concatenation; the merged counter
        keeps this counter's generator and can continue streaming. Slot
        numbers shift for the absorbed pool, so the watch indexes are
        dropped and rebuilt from the merged arrays on the next batch.
        """
        if other.edges_seen != self.edges_seen:
            raise InvalidParameterError(
                "cannot merge counters that observed different streams "
                f"({other.edges_seen} edges vs {self.edges_seen})"
            )
        for name in STATE_FIELDS:
            setattr(
                self,
                name,
                np.concatenate([getattr(self, name), getattr(other, name)]),
            )
        self._vertex_watch = None
        self._wedge_watch = None

    def state_nbytes(self) -> int:
        """Total bytes of estimator state (the paper's memory table, 4.3)."""
        return int(sum(getattr(self, name).nbytes for name in STATE_FIELDS))

    # ------------------------------------------------------------------
    # dense reference path (bit-identical to the sparse path)
    # ------------------------------------------------------------------
    def _step1(
        self, bu: np.ndarray, bv: np.ndarray, w: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level-1 reservoir resampling over ``m`` old + ``w`` new edges."""
        m = self.edges_seen
        draw = self._rng.integers(1, m + w + 1, size=self.num_estimators)
        new_mask = draw > m
        new_j = draw[new_mask] - m - 1
        self.r1u[new_mask] = bu[new_j]
        self.r1v[new_mask] = bv[new_j]
        self.r1pos[new_mask] = m + new_j + 1
        self.r2u[new_mask] = -1
        self.r2v[new_mask] = -1
        self.r2pos[new_mask] = 0
        self.c[new_mask] = 0
        self.tset[new_mask] = False
        return new_mask, new_j

    def _step2(
        self,
        ctx: BatchContext,
        new_mask: np.ndarray,
        new_j: np.ndarray,
        base: int,
    ) -> None:
        """Level-2 selection: betas, candidate counts, event decoding.

        ``base`` is the stream position before this batch (the context
        itself is position-free so it can be shared across estimators).
        """
        r = self.num_estimators
        # beta values: batch-degrees of r1's endpoints at r1's arrival
        # (0 for estimators whose r1 predates this batch) -- Obs. 3.6.
        beta_x = np.zeros(r, dtype=np.int64)
        beta_y = np.zeros(r, dtype=np.int64)
        beta_x[new_mask] = ctx.deg_at_edge_u[new_j]
        beta_y[new_mask] = ctx.deg_at_edge_v[new_j]

        c_minus = self.c
        a, c_plus, total = _step2_totals(
            ctx.final_degree(self.r1u),
            ctx.final_degree(self.r1v),
            beta_x,
            beta_y,
            c_minus,
        )

        active = c_plus > 0
        phi = np.ones(r, dtype=np.int64)
        if active.any():
            # randInt(1, c- + c+) per estimator with new candidates; the
            # kernel clamps the float-rounding hole where random() close
            # to 1 against a large total rounds the product up to total
            # itself, which would push phi one past the contract.
            phi[active] = _phi_from_draws(
                self._rng.random(int(active.sum())), total[active]
            )
        self.c = total
        replace = active & (phi > c_minus)
        if not replace.any():
            return

        # Algorithm 3: translate phi into an EVENTB (vertex, degree) pair.
        use_x = replace & (phi <= c_minus + a)
        use_y = replace & ~use_x
        target_v = np.where(use_x, self.r1u, self.r1v)
        target_d = np.where(
            use_x, beta_x + phi - c_minus, beta_y + phi - c_minus - a
        )
        j = ctx.event_edge_index(target_v[replace], target_d[replace])
        self.r2u[replace] = ctx.bu[j]
        self.r2v[replace] = ctx.bv[j]
        self.r2pos[replace] = base + j + 1
        self.tset[replace] = False

    def _step3(self, ctx: BatchContext, base: int) -> np.ndarray | None:
        """Close wedges: find each open wedge's closing edge in the batch.

        Returns the closed slot indices (``None`` when nothing closed)
        so the sparse driver can account wedge-watch staleness when it
        delegates a dense-direction scan here.

        A closing edge can only be in the batch if both outer endpoints
        are batch vertices, so when the context has a vertex mask only
        those wedges are binary-searched against the batch keys.
        """
        open_wedge = (~self.tset) & (self.r2u >= 0) & (self.r1u >= 0)
        if not open_wedge.any():
            return None
        r1u, r1v = self.r1u[open_wedge], self.r1v[open_wedge]
        r2u, r2v = self.r2u[open_wedge], self.r2v[open_wedge]
        # Shared vertex of the wedge; outer endpoints form the closing edge.
        shared, out1, out2, keys = _wedge_geometry(r1u, r1v, r2u, r2v)
        mask = ctx.vertex_mask
        if mask is None:
            local = ctx.position_in_batch_keys(keys)
        else:
            hi = mask.shape[0] - 1
            both = np.flatnonzero(
                mask[np.minimum(out1, hi)] & mask[np.minimum(out2, hi)]
            )
            local = np.zeros(keys.shape[0], dtype=np.int64)
            local[both] = ctx.position_in_batch_keys(keys[both])
        closed = (local > 0) & (base + local > self.r2pos[open_wedge])
        if not closed.any():
            return None
        idx = np.nonzero(open_wedge)[0][closed]
        tri = np.sort(
            np.stack([shared[closed], out1[closed], out2[closed]], axis=1), axis=1
        )
        self.ta[idx] = tri[:, 0]
        self.tb[idx] = tri[:, 1]
        self.tc[idx] = tri[:, 2]
        self.tset[idx] = True
        return idx

    # ------------------------------------------------------------------
    # output-sensitive path (watch-index driven)
    # ------------------------------------------------------------------
    def _step1_sparse(
        self, bu: np.ndarray, bv: np.ndarray, w: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step 1 with vertex-watch maintenance; returns (slots, edges).

        Identical draws and state transitions to :meth:`_step1`; the
        resampled slots come back as a sorted index array (the form the
        candidate machinery consumes) instead of a mask.
        """
        m = self.edges_seen
        r = self.num_estimators
        draw = self._rng.integers(1, m + w + 1, size=r)
        new_mask = draw > m
        k = int(np.count_nonzero(new_mask))
        if k == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if k == r:
            # Wholesale resample (always the case on a fresh pool): the
            # previous subscriptions are all void, so start both indexes
            # over. The vertex index build is deferred -- a stream that
            # ends here (one huge batch) never needs it.
            new_j = draw - (m + 1)
            self.r1u = bu[new_j]
            self.r1v = bv[new_j]
            self.r1pos = draw  # m + new_j + 1 == draw, and draw is ours
            self.r2u.fill(-1)
            self.r2v.fill(-1)
            self.r2pos.fill(0)
            self.c.fill(0)
            self.tset.fill(False)
            self._vertex_watch = None
            self._wedge_watch = WatchIndex()
            return np.arange(r, dtype=np.int64), new_j
        idx = np.flatnonzero(new_mask)
        new_j = draw[idx] - m - 1
        had_wedge = int(np.count_nonzero((self.r2u[idx] >= 0) & ~self.tset[idx]))
        new_u = bu[new_j]
        new_v = bv[new_j]
        self.r1u[idx] = new_u
        self.r1v[idx] = new_v
        self.r1pos[idx] = m + new_j + 1
        self.r2u[idx] = -1
        self.r2v[idx] = -1
        self.r2pos[idx] = 0
        self.c[idx] = 0
        self.tset[idx] = False
        self._vertex_watch.add(
            np.concatenate([new_u, new_v]), np.concatenate([idx, idx])
        )
        self._vertex_watch.note_stale(2 * k)
        if had_wedge:
            self._wedge_watch.note_stale(had_wedge)
        return idx, new_j

    def _candidate_slots(
        self, ctx: BatchContext, new_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Step-2 candidates ``(slots, deg_bx, deg_by)``; ``None``: scan all.

        The slots are sorted and form a superset of the dense path's
        ``active`` set: resampled slots plus every slot holding a
        vertex-watch subscription on a batch vertex (stale
        subscriptions over-report, which costs a little work but never
        changes the result -- liveness is re-derived from the state
        arrays). Each hit also knows *which* unique batch vertex it
        matched, so the candidates' endpoint batch degrees
        (``final_degree`` of ``r1u``/``r1v``) are assembled from the
        context's per-unique-vertex counts for free; endpoints without
        a matching live entry are not in the batch and keep degree 0.
        Scanning the whole pool is chosen when it is cheaper than
        intersecting (small pools, heavy-resample batches).

        Deduplication is one sort of packed ``(slot << b) | i`` values
        over ``concat(new_idx, hits)``: the heads of equal-slot runs
        are the sorted unique candidates, and a running count of heads,
        scattered back through the low bits, is every entry's position
        among them. That is ``O(h log h)`` in the ``h`` hits, with no
        temporary sized by the pool.
        """
        r = self.num_estimators
        k = new_idx.shape[0]
        if k >= max(1, r >> self._SCAN_CHURN_SHIFT):
            return None
        if r <= ctx.unique_vertices.shape[0] // self._SCAN_FRACTION:
            return None
        hits, qidx = self._vertex_watch.lookup(ctx.unique_vertices)
        if hits.shape[0] == 0:
            cand = new_idx
        else:
            merged = np.concatenate([new_idx, hits])
            n = merged.shape[0]
            shift = np.int64(max(1, (n - 1).bit_length()))
            packed = _pack_index_sort(merged, shift)
            sorted_slots = packed >> shift
            head = np.empty(n, dtype=bool)
            head[0] = True
            np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=head[1:])
            cand = sorted_slots[head]
            rank = np.cumsum(head) - 1
            pos = np.empty(n, dtype=np.int64)
            pos[packed & ((np.int64(1) << shift) - 1)] = rank
            pos = pos[k:]
        n_c = cand.shape[0]
        deg_bx = np.zeros(n_c, dtype=np.int64)
        deg_by = np.zeros(n_c, dtype=np.int64)
        if hits.shape[0]:
            verts_h = ctx.unique_vertices[qidx]
            counts_h = ctx.unique_vertex_counts[qidx]
            is_u = verts_h == self.r1u[hits]
            deg_bx[pos[is_u]] = counts_h[is_u]
            is_v = verts_h == self.r1v[hits]
            deg_by[pos[is_v]] = counts_h[is_v]
        return cand, deg_bx, deg_by

    def _step2_sparse(
        self,
        ctx: BatchContext,
        cand_info: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
        new_idx: np.ndarray,
        new_j: np.ndarray,
        base: int,
    ) -> None:
        """Step 2 restricted to the candidates (``None``: whole pool).

        Consumes the generator exactly as :meth:`_step2` does: the
        active subset of the candidates equals the dense path's active
        set, in the same ascending slot order, so the ``random(n)``
        draw is identical.
        """
        r = self.num_estimators
        k = new_idx.shape[0]
        if k == r and 2 * r >= ctx.bu.shape[0]:
            # Wholesale resample with a pool at least batch-sized: the
            # per-edge gather formulation wins. (For r << w the general
            # full scan below is cheaper than building O(w) tables.)
            self._step2_fresh(ctx, new_j, base)
            return
        full = cand_info is None
        if full:
            cand = None
            n_c = r
            r1u_c, r1v_c = self.r1u, self.r1v
            c_minus = self.c
        else:
            cand, deg_bx_c, deg_by_c = cand_info
            n_c = cand.shape[0]
            if n_c == 0:
                return
            r1u_c = self.r1u[cand]
            r1v_c = self.r1v[cand]
            c_minus = self.c[cand]
        beta_x = np.zeros(n_c, dtype=np.int64)
        beta_y = np.zeros(n_c, dtype=np.int64)
        if k:
            pos = new_idx if full else np.searchsorted(cand, new_idx)
            beta_x[pos] = ctx.deg_at_edge_u[new_j]
            beta_y[pos] = ctx.deg_at_edge_v[new_j]
        if full:
            deg_bx_c = ctx.final_degree(r1u_c)
            deg_by_c = ctx.final_degree(r1v_c)
        # On the candidate path the endpoint batch degrees came for free
        # with the watch hits.
        a, c_plus, total = _step2_totals(deg_bx_c, deg_by_c, beta_x, beta_y, c_minus)
        if full:
            self.c = total
        else:
            self.c[cand] = total
        active = np.flatnonzero(c_plus > 0)
        n = active.shape[0]
        if n == 0:
            return
        phi = _phi_from_draws(self._rng.random(n), total[active])
        replace = np.flatnonzero(phi > c_minus[active])
        if replace.shape[0] == 0:
            return
        sel = active[replace]
        phi_r = phi[replace]
        cm_r = c_minus[sel]
        beta_x_r = beta_x[sel]
        beta_y_r = beta_y[sel]
        slots = sel if full else cand[sel]
        a_r = a[sel]
        r1u_r = r1u_c[sel]
        r1v_r = r1v_c[sel]
        use_x = phi_r <= cm_r + a_r
        target_v = np.where(use_x, r1u_r, r1v_r)
        target_d = np.where(
            use_x, beta_x_r + phi_r - cm_r, beta_y_r + phi_r - cm_r - a_r
        )
        # The candidate path already holds the endpoints' batch degrees
        # (assembled with the watch hits): hand them to the decode guard
        # so it needs no lookup of its own.
        target_degrees = (
            None if full else np.where(use_x, deg_bx_c[sel], deg_by_c[sel])
        )
        j = ctx.event_edge_index(target_v, target_d, target_degrees)
        new_r2u = ctx.bu[j]
        new_r2v = ctx.bv[j]
        had_wedge = int(
            np.count_nonzero((self.r2u[slots] >= 0) & ~self.tset[slots])
        )
        self.r2u[slots] = new_r2u
        self.r2v[slots] = new_r2v
        self.r2pos[slots] = base + j + 1
        self.tset[slots] = False
        # Subscribe the fresh wedges' closing edges in the wedge watch.
        # The shared vertex is the EVENTB target; the outer endpoints
        # are the two non-shared ones.
        out1 = np.where(use_x, r1v_r, r1u_r)
        out2 = new_r2u + new_r2v - target_v
        self._wedge_watch.add(_pack_edge_keys(out1, out2), slots)
        if had_wedge:
            self._wedge_watch.note_stale(had_wedge)

    def _step2_fresh(self, ctx: BatchContext, new_j: np.ndarray, base: int) -> None:
        """Step 2 for a wholesale-resampled pool (every slot is new).

        Every per-slot quantity is a per-edge quantity gathered through
        ``new_j``: candidate counts come from the context's
        remaining-degree table and the EVENTB decode from its per-edge
        base offsets, with ``c_minus`` identically zero (so every
        active slot replaces). Consumes the generator exactly as the
        general path does.
        """
        remaining_u, remaining_v = ctx.remaining_degrees
        a = remaining_u[new_j]
        c_plus = a + remaining_v[new_j]
        self.c = c_plus
        active = np.flatnonzero(c_plus > 0)
        n = active.shape[0]
        if n == 0:
            return
        phi = _phi_from_draws(self._rng.random(n), c_plus[active])
        # phi in [1, a]: the u-side EVENTB run; else the v-side run.
        new_j_a = new_j[active]
        a_r = a[active]
        use_x = phi <= a_r
        base_u, base_v = ctx.event_decode_bases
        event_pos = np.where(use_x, base_u[new_j_a], base_v[new_j_a]) + phi
        j = ctx.event_order[event_pos] >> 1
        new_r2u = ctx.bu[j]
        new_r2v = ctx.bv[j]
        self.r2u[active] = new_r2u
        self.r2v[active] = new_r2v
        self.r2pos[active] = base + j + 1
        # tset is already all-False after the wholesale resample.
        r1u_a = ctx.bu[new_j_a]
        r1v_a = ctx.bv[new_j_a]
        shared = np.where(use_x, r1u_a, r1v_a)
        out1 = np.where(use_x, r1v_a, r1u_a)
        out2 = new_r2u + new_r2v - shared
        self._wedge_watch.add(_pack_edge_keys(out1, out2), active)

    def _step3_sparse(self, ctx: BatchContext, base: int) -> None:
        """Step 3 via the wedge watch (or a dense scan when cheaper).

        The index direction costs ``O(w log size)``; the dense scan
        ``O(r)`` plus a binary search for only the wedges whose outer
        endpoints are both batch vertices. Scan when the pool is no
        larger than the batch (the scan's pass over the pool then costs
        no more than the index direction's pass over the batch keys) or
        the batch's key set outweighs the watched wedges.
        """
        w = ctx.bu.shape[0]
        if (
            self.num_estimators <= w * self._STEP3_SCAN_RATIO
            or self._wedge_watch.size <= w
        ):
            closed = self._step3(ctx, base)
            if closed is not None:
                self._wedge_watch.note_stale(closed.shape[0])
            return
        slots, qidx = self._wedge_watch.lookup(ctx.unique_edge_keys)
        if slots.shape[0] == 0:
            return
        # Duplicate candidates (a live entry plus stale ones for the
        # same slot) are tolerated rather than deduplicated: the close
        # below recomputes from current state and writes identical
        # values, so repeats are idempotent.
        alive = (~self.tset[slots]) & (self.r2u[slots] >= 0) & (self.r1u[slots] >= 0)
        slots = slots[alive]
        if slots.shape[0] == 0:
            return
        qidx = qidx[alive]
        r1u, r1v = self.r1u[slots], self.r1v[slots]
        r2u, r2v = self.r2u[slots], self.r2v[slots]
        shared, out1, out2, keys = _wedge_geometry(r1u, r1v, r2u, r2v)
        # A hit is real when the slot's *current* closing key still is
        # the matched batch key (a stale entry's slot re-derives a
        # different key -- or the same one via its own live entry); the
        # closing position is then the matched key's first occurrence.
        local = ctx.unique_edge_key_positions[qidx]
        closed = (keys == ctx.unique_edge_keys[qidx]) & (
            base + local > self.r2pos[slots]
        )
        if not closed.any():
            return
        idx = slots[closed]
        tri = np.sort(
            np.stack([shared[closed], out1[closed], out2[closed]], axis=1), axis=1
        )
        self.ta[idx] = tri[:, 0]
        self.tb[idx] = tri[:, 1]
        self.tc[idx] = tri[:, 2]
        self.tset[idx] = True
        self._wedge_watch.note_stale(idx.shape[0])

    # ------------------------------------------------------------------
    # watch-index maintenance
    # ------------------------------------------------------------------
    def _rebuild_vertex_watch(self) -> None:
        live = np.flatnonzero(self.r1u >= 0)
        watch = WatchIndex()
        watch.rebuild(
            np.concatenate([self.r1u[live], self.r1v[live]]),
            np.concatenate([live, live]),
        )
        self._vertex_watch = watch

    def _rebuild_wedge_watch(self) -> None:
        open_slots = np.flatnonzero(
            (~self.tset) & (self.r2u >= 0) & (self.r1u >= 0)
        )
        watch = WatchIndex()
        watch.rebuild(self._closing_keys(open_slots), open_slots)
        self._wedge_watch = watch

    def _closing_keys(self, slots: np.ndarray) -> np.ndarray:
        """Packed closing-edge keys of the open wedges at ``slots``."""
        return _wedge_geometry(
            self.r1u[slots], self.r1v[slots], self.r2u[slots], self.r2v[slots]
        )[3]

    def _maybe_compact(self) -> None:
        limit = max(self._COMPACT_MIN, self.num_estimators)
        if self._vertex_watch is not None and self._vertex_watch.churn > limit:
            self._rebuild_vertex_watch()
        if self._wedge_watch is not None and self._wedge_watch.churn > limit:
            self._rebuild_wedge_watch()


class PoolView:
    """An estimator that reads one :class:`VectorizedTriangleCounter` pool.

    With ``pool`` ``None`` the view builds a pool of ``num_estimators``
    slots seeded ``seed``; given another view's ``engine`` it shares
    that one and builds nothing. Views of one pool save, restore and
    merge the same state, so merge one view per pool.
    """

    uses_batch_context = True

    def __init__(
        self,
        num_estimators: int,
        *,
        seed: int | None = None,
        pool: VectorizedTriangleCounter | None = None,
    ) -> None:
        self.engine = (
            VectorizedTriangleCounter(num_estimators, seed=seed)
            if pool is None
            else pool.share()
        )

    @property
    def num_estimators(self) -> int:
        return self.engine.num_estimators

    @property
    def edges_seen(self) -> int:
        return self.engine.edges_seen

    def update(self, edge: tuple[int, int]) -> None:
        self.update_batch([edge])

    def update_batch(self, batch: Sequence[tuple[int, int]] | EdgeBatch) -> None:
        self.engine.update_batch(batch)

    def state_dict(self) -> dict:
        return self.engine.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.engine.load_state_dict(state)

    def merge(self, other: "PoolView") -> None:
        """Absorb ``other``'s pool (same stream observed)."""
        self.engine.merge(other.engine)
