"""Bulk processing of neighborhood-sampling estimators (Section 3.3).

``bulkTC`` advances all ``r`` estimators over a batch ``B`` of ``w``
newly-arrived edges in ``O(r + w)`` time and space (Theorem 3.5), as if
the edges had been played one at a time:

- **Step 1** resamples level-1 edges: keep the current ``r1`` with
  probability ``m / (m + w)``, otherwise take a uniform edge of ``B``.
- **Step 2a** runs the degree-keeping edge iterator (``edgeIter``,
  Algorithm 2) over ``B`` once, using the inverted index ``L`` (batch
  position -> estimators that just took that edge as ``r1``) to record
  ``beta(r1)(x)``, ``beta(r1)(y)`` -- the endpoint degrees at the moment
  ``r1`` arrived -- and obtains the final batch degrees ``degB``.
- **Step 2b** sizes each estimator's candidate set via Observation 3.6
  (``c+ = (degB(x) - beta(x)) + (degB(y) - beta(y))``), draws
  ``phi = randInt(1, c- + c+)`` and translates it into either "keep
  ``r2``" or a subscription to a specific ``EVENTB (vertex, degree)``
  (Algorithm 3).
- **Step 2c** replays ``edgeIter``; the subscription table ``P`` maps
  each fired ``EVENTB`` to the estimators that selected that edge as
  their new ``r2``.
- **Step 3** uses the closing-edge table ``Q`` to detect edges that
  close the wedge ``r1 r2`` after ``r2``'s stream position.

Following the paper's own implementation note (Section 4), Steps 2c and
3 are fused into a single pass over the batch; positions stored with
every edge make the "comes after ``r2``" check O(1).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..graph.edge import Edge, canonical_edge, third_vertices
from ..rng import RandomSource
from ..streaming.batch import EdgeBatch
from ..streaming.registry import register_engine

__all__ = ["BulkEstimatorState", "BulkTriangleCounter"]


class BulkEstimatorState:
    """State of one estimator inside the bulk engine.

    Mirrors the per-edge state of Algorithm 1 plus stream positions
    (1-based), which Step 3 needs for the "closing edge arrives after
    ``r2``" check.
    """

    __slots__ = ("r1", "r1_pos", "r2", "r2_pos", "c", "t", "_beta_x", "_beta_y")

    def __init__(self) -> None:
        self.r1: Edge | None = None
        self.r1_pos: int = 0
        self.r2: Edge | None = None
        self.r2_pos: int = 0
        self.c: int = 0
        self.t: tuple[int, int, int] | None = None
        self._beta_x: int = 0
        self._beta_y: int = 0

    def closing_edge(self) -> Edge | None:
        """The edge that would close the wedge ``r1 r2``, if the wedge exists."""
        if self.r1 is None or self.r2 is None:
            return None
        return third_vertices(self.r1, self.r2)

    def triangle_from_closing(self) -> tuple[int, int, int]:
        """Vertices of the triangle closed over the current wedge."""
        assert self.r1 is not None and self.r2 is not None
        closing = self.closing_edge()
        assert closing is not None
        a, b = closing
        shared = self.r1[0] if self.r1[0] not in (a, b) else self.r1[1]
        return tuple(sorted((a, b, shared)))  # type: ignore[return-value]


@register_engine("bulk")
class BulkTriangleCounter:
    """``r`` neighborhood-sampling estimators with batch updates.

    This is the faithful, table-driven implementation of Section 3.3:
    pure Python, explicit ``L`` / ``P`` / ``Q`` tables, one combined
    ``edgeIter`` replay. Distributionally equivalent to feeding the
    same edges one at a time to ``r`` copies of
    :class:`~repro.core.neighborhood_sampling.NeighborhoodSampler`.

    Parameters
    ----------
    num_estimators:
        The number of parallel estimators ``r``.
    seed:
        Seed for the engine's random source.
    """

    def __init__(self, num_estimators: int, *, seed: int | None = None) -> None:
        if num_estimators < 1:
            raise ValueError(f"num_estimators must be >= 1, got {num_estimators}")
        self._rng = RandomSource(seed)
        self._states = [BulkEstimatorState() for _ in range(num_estimators)]
        self.edges_seen = 0

    # ------------------------------------------------------------------
    # public protocol shared by all engines
    # ------------------------------------------------------------------
    @property
    def num_estimators(self) -> int:
        return len(self._states)

    def update(self, edge: tuple[int, int]) -> None:
        """Process one edge (a batch of size one)."""
        self.update_batch([canonical_edge(*edge)])

    def update_batch(self, batch: Sequence[tuple[int, int]]) -> None:
        """Process a batch of ``w`` edges in O(r + w) time (Theorem 3.5)."""
        if isinstance(batch, EdgeBatch):
            # Already canonical; the tuple list is cached on the batch
            # and shared with every other per-edge consumer.
            self._update_canonical(batch.tuples())
        else:
            self._update_canonical([canonical_edge(*e) for e in batch])

    def _update_canonical(self, edges: list[Edge]) -> None:
        if not edges:
            return
        table_l = self._step1_resample_level1(edges)
        deg_b = self._step2a_betas(edges, table_l)
        table_p = self._step2b_choose_level2(edges, deg_b)
        self._step2c_and_3_replay(edges, table_p)
        self.edges_seen += len(edges)

    def estimates(self) -> list[float]:
        """Per-estimator unbiased triangle estimates ``tau~`` (Lemma 3.2)."""
        m = float(self.edges_seen)
        return [s.c * m if s.t is not None else 0.0 for s in self._states]

    def estimate(self) -> float:
        """Mean of the per-estimator estimates (Theorem 3.3 aggregation)."""
        values = self.estimates()
        return sum(values) / len(values)

    def wedge_estimates(self) -> list[float]:
        """Per-estimator unbiased wedge estimates ``m * c`` (Lemma 3.10)."""
        m = float(self.edges_seen)
        return [s.c * m for s in self._states]

    def states(self) -> list[BulkEstimatorState]:
        """The raw estimator states (read-only by convention)."""
        return self._states

    # ------------------------------------------------------------------
    # Step 1: level-1 resampling
    # ------------------------------------------------------------------
    def _step1_resample_level1(self, batch: Sequence[Edge]) -> dict[int, list[int]]:
        """Reservoir-resample ``r1`` for every estimator over ``old + B``.

        Also builds and stores the inverted index ``L`` (batch position
        -> estimator indices) used by Step 2a.
        """
        m, w = self.edges_seen, len(batch)
        table_l: dict[int, list[int]] = {}
        for idx, state in enumerate(self._states):
            draw = self._rng.rand_int(1, m + w)
            if draw <= m:
                continue  # keep the current level-1 edge
            j = draw - m - 1  # 0-based batch position of the new r1
            state.r1 = batch[j]
            state.r1_pos = m + j + 1
            state.r2 = None
            state.r2_pos = 0
            state.c = 0
            state.t = None
            table_l.setdefault(j, []).append(idx)
        return table_l

    # ------------------------------------------------------------------
    # Step 2a: edgeIter pass recording beta values (Algorithm 2, EVENTA)
    # ------------------------------------------------------------------
    def _step2a_betas(
        self, batch: Sequence[Edge], table_l: dict[int, list[int]]
    ) -> dict[int, int]:
        """One ``edgeIter`` pass: record ``beta`` values, return ``degB``.

        ``beta(r1)(x)`` is the batch-degree of endpoint ``x`` at the
        moment ``r1`` was added (0 for estimators whose ``r1`` predates
        the batch) -- Observation 3.6.
        """
        for state in self._states:
            state._beta_x = 0
            state._beta_y = 0
        deg: dict[int, int] = {}
        for j, (x, y) in enumerate(batch):
            deg[x] = deg.get(x, 0) + 1
            deg[y] = deg.get(y, 0) + 1
            # EVENTA(j, {x, y}, deg): estimators in L[j] snapshot their betas.
            for idx in table_l.get(j, ()):
                state = self._states[idx]
                state._beta_x = deg[x]
                state._beta_y = deg[y]
        return deg

    # ------------------------------------------------------------------
    # Step 2b: translate phi into keep / EVENTB subscription (Algorithm 3)
    # ------------------------------------------------------------------
    def _step2b_choose_level2(
        self, batch: Sequence[Edge], deg_b: dict[int, int]
    ) -> dict[tuple[int, int], list[int]]:
        """Choose each estimator's level-2 action; build table ``P``.

        Returns ``P``: (vertex, degree) -> estimators subscribing to the
        ``EVENTB`` that fires when that vertex reaches that batch degree.
        """
        table_p: dict[tuple[int, int], list[int]] = {}
        for idx, state in enumerate(self._states):
            if state.r1 is None:
                continue
            x, y = state.r1
            a = deg_b.get(x, 0) - state._beta_x
            b = deg_b.get(y, 0) - state._beta_y
            c_minus, c_plus = state.c, a + b
            if c_plus == 0:
                continue  # no new candidates; r2 (and t) unchanged
            phi = self._rng.rand_int(1, c_minus + c_plus)
            state.c = c_minus + c_plus
            if phi <= c_minus:
                continue  # keep existing r2
            if phi <= c_minus + a:
                key = (x, state._beta_x + (phi - c_minus))
            else:
                key = (y, state._beta_y + (phi - c_minus - a))
            state.r2 = None  # will be filled when the event fires
            state.r2_pos = 0
            state.t = None
            table_p.setdefault(key, []).append(idx)
        return table_p

    # ------------------------------------------------------------------
    # Steps 2c + 3 fused: replay edgeIter, assign r2, close wedges
    # ------------------------------------------------------------------
    def _step2c_and_3_replay(
        self, batch: Sequence[Edge], table_p: dict[tuple[int, int], list[int]]
    ) -> None:
        """Second ``edgeIter`` pass: fire EVENTBs (table ``P``) and close
        wedges (table ``Q``) in one sweep, per the paper's optimization."""
        # Pre-populate Q with estimators that keep an open wedge from
        # before this batch: their closing edge may arrive anywhere in B.
        table_q: dict[Edge, list[int]] = {}
        for idx, state in enumerate(self._states):
            if state.t is None and state.r2 is not None:
                closing = state.closing_edge()
                if closing is not None:
                    table_q.setdefault(closing, []).append(idx)

        m = self.edges_seen
        deg: dict[int, int] = {}
        for j, edge in enumerate(batch):
            x, y = edge
            pos = m + j + 1
            # EVENTB(j, {x,y}, x, deg[x]) and (…, y, deg[y]): new r2 assignments.
            for v in (x, y):
                deg[v] = deg.get(v, 0) + 1
                for idx in table_p.get((v, deg[v]), ()):
                    state = self._states[idx]
                    state.r2 = edge
                    state.r2_pos = pos
                    closing = state.closing_edge()
                    if closing is not None:
                        table_q.setdefault(closing, []).append(idx)
            # Step 3: does this edge close any subscribed wedge?
            for idx in table_q.get(edge, ()):
                state = self._states[idx]
                if state.t is None and state.r2 is not None and state.r2_pos < pos:
                    if state.closing_edge() == edge:
                        state.t = state.triangle_from_closing()
