"""Uniform triangle sampling from a graph stream (Section 3.4).

Neighborhood sampling alone returns triangle ``t*`` with probability
``1/(m * C(t*))`` -- biased toward triangles whose first edge has a
small neighborhood. Lemma 3.7 removes the bias with one rejection step:
release the held triangle with probability ``c / (2 * Delta)``
(``c = C(t*) <= 2 Delta``), making every triangle equally likely
(``1 / (2 m Delta)`` each), so *some* triangle is released with
probability at least ``tau / (2 m Delta)``.

:class:`TriangleSampler` runs ``r`` such samplers (Theorem 3.8 sizes
``r`` so that ``k`` uniform-with-replacement triangles are produced with
probability ``1 - delta``) on top of the vectorized engine. It is a
:class:`~repro.core.vectorized.PoolView`: alone it builds its own pool,
and handed another estimator's engine (``pool=``) it draws its samples
from that pool's held triangles. The rejection step keeps its own
generator and degree table either way, so the samples stay uniform.
Sharing makes them depend on a co-run count; a union bound over the two
guarantees, as Theorem 3.12 takes over tau' and zeta', needs no
independence.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import EmptyStreamError, InsufficientSampleError, InvalidParameterError
from ..streaming.batch import EdgeBatch
from .vectorized import PoolView, VectorizedTriangleCounter

__all__ = ["TriangleSampler"]

Triangle = tuple[int, int, int]


class TriangleSampler(PoolView):
    """Maintain ``k``-sampleable uniform triangles over an edge stream.

    Parameters
    ----------
    num_estimators:
        Number of parallel ``unifTri`` samplers ``r``. Size with
        :func:`repro.core.accuracy.estimators_needed_sampling`.
    max_degree:
        A known upper bound on the maximum degree ``Delta``. If
        ``None`` (default), the sampler tracks vertex degrees of the
        stream itself and uses the observed ``Delta`` at query time;
        this costs ``O(n)`` extra memory, exactly like any consumer that
        must supply the paper's assumed ``Delta`` bound.
    seed:
        Seed for reproducibility: the pool's, and ``seed + 1`` for the
        rejection step's generator.
    pool:
        Another estimator's engine to read instead of building a pool
        (then ``num_estimators`` is unused and ``seed`` seeds only the
        rejection step).
    """

    def __init__(
        self,
        num_estimators: int,
        *,
        max_degree: int | None = None,
        seed: int | None = None,
        pool: VectorizedTriangleCounter | None = None,
    ) -> None:
        super().__init__(num_estimators, seed=seed, pool=pool)
        self._rng = np.random.default_rng(None if seed is None else seed + 1)
        self._fixed_delta = max_degree
        self._degrees: dict[int, int] | None = None if max_degree is not None else {}

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def update_batch(self, batch: Sequence[tuple[int, int]] | EdgeBatch) -> None:
        """Observe a batch of stream edges."""
        batch = EdgeBatch.from_edges(batch)
        self.engine.update_batch(batch)
        if self._degrees is not None:
            # Vectorized degree accumulation: only the (much smaller)
            # set of distinct batch vertices touches the Python dict.
            verts, counts = np.unique(batch.array, return_counts=True)
            degrees = self._degrees
            for vertex, count in zip(verts.tolist(), counts.tolist()):
                degrees[vertex] = degrees.get(vertex, 0) + count

    # ------------------------------------------------------------------
    # checkpoint/ship surface
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot: engine state, rejection rng, and tracked degrees."""
        state = {
            "engine": self.engine.state_dict(),
            "rng": self._rng.bit_generator.state,
            "max_degree": self._fixed_delta,
        }
        if self._degrees is None:
            state["degree_vertices"] = None
        else:
            verts = np.fromiter(self._degrees.keys(), dtype=np.int64, count=len(self._degrees))
            counts = np.fromiter(self._degrees.values(), dtype=np.int64, count=len(self._degrees))
            state["degree_vertices"] = verts
            state["degree_counts"] = counts
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        if "engine" not in state:
            raise InvalidParameterError("state dict missing fields: ['engine']")
        self.engine.load_state_dict(state["engine"])
        rng_state = state.get("rng")
        if rng_state is not None:
            self._rng = np.random.default_rng()
            self._rng.bit_generator.state = rng_state
        fixed = state.get("max_degree")
        self._fixed_delta = None if fixed is None else int(fixed)
        verts = state.get("degree_vertices")
        if verts is None:
            self._degrees = None if self._fixed_delta is not None else {}
        else:
            counts = state["degree_counts"]
            self._degrees = dict(
                zip(np.asarray(verts).tolist(), np.asarray(counts).tolist())
            )

    def merge(self, other: "TriangleSampler") -> None:
        """Absorb ``other``'s sampler pool (same stream observed).

        Both samplers tracked the same stream, so the degree state is
        identical by construction; the merged sampler keeps this one's.
        """
        if (self._fixed_delta is None) != (other._fixed_delta is None):
            raise InvalidParameterError(
                "cannot merge samplers with different max_degree tracking modes"
            )
        super().merge(other)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def current_max_degree(self) -> int:
        """The ``Delta`` used for normalization at this point."""
        if self._fixed_delta is not None:
            return self._fixed_delta
        assert self._degrees is not None
        return max(self._degrees.values(), default=0)

    def _released_triangles(self) -> list[Triangle]:
        """Run Lemma 3.7's rejection step over every held triangle."""
        if self.engine.edges_seen == 0:
            raise EmptyStreamError("no edges observed yet")
        delta = self.current_max_degree()
        if delta == 0:
            return []
        held = self.engine.tset
        if not held.any():
            return []
        accept_prob = self.engine.c[held].astype(np.float64) / (2.0 * delta)
        accepted = self._rng.random(accept_prob.shape[0]) < accept_prob
        idx = np.nonzero(held)[0][accepted]
        return [
            (
                int(self.engine.ta[i]),
                int(self.engine.tb[i]),
                int(self.engine.tc[i]),
            )
            for i in idx
        ]

    def sample_one(self) -> Triangle | None:
        """One uniform triangle, or ``None`` if no sampler released one.

        Success probability per sampler is at least ``tau / (2 m Delta)``
        (Lemma 3.7); conditioned on success the triangle is uniform over
        ``T(G)``.
        """
        released = self._released_triangles()
        if not released:
            return None
        return released[int(self._rng.integers(0, len(released)))]

    def sample(self, k: int) -> list[Triangle]:
        """``k`` uniform triangles with replacement (Theorem 3.8).

        Raises
        ------
        InsufficientSampleError
            If fewer than ``k`` samplers released a triangle. Theorem
            3.8 guarantees this happens with probability at most
            ``delta`` when ``r >= 4 m k Delta ln(e/delta) / tau``.
        """
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        released = self._released_triangles()
        if len(released) < k:
            raise InsufficientSampleError(
                f"only {len(released)} of {self.num_estimators} samplers "
                f"released a triangle; need at least {k}. "
                "Increase the number of estimators (Theorem 3.8)."
            )
        chosen = self._rng.choice(len(released), size=k, replace=False)
        return [released[int(i)] for i in chosen]

    def success_fraction(self) -> float:
        """Fraction of samplers currently holding any triangle (pre-rejection)."""
        return float(self.engine.tset.mean())

    def estimate(self) -> float:
        """The underlying pool's triangle-count estimate (Theorem 3.3).

        The sampler's estimators are ordinary neighborhood samplers, so
        the count estimate comes for free -- and it completes the
        :class:`~repro.streaming.protocol.StreamingEstimator` surface.
        """
        return self.engine.estimate()
