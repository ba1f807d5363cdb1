"""Exact streaming triangle and wedge counting (ground truth).

Maintains full adjacency (O(m) space -- this is *not* a sublinear
algorithm; it is the reference the approximations are judged against,
and the triangle counter used by the Theorem 3.13 lower-bound protocol
demo). Each arriving edge ``{u, v}`` adds ``|N(u) cap N(v)|`` triangles
and ``deg(u) + deg(v)`` wedges.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import EmptyStreamError, InvalidParameterError
from ..graph.edge import canonical_edge

__all__ = ["ExactStreamingCounter"]


class ExactStreamingCounter:
    """Exact triangle/wedge counts with the streaming ``update`` API."""

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self.edges_seen = 0
        self.triangles = 0
        self.wedges = 0

    def update(self, edge: tuple[int, int]) -> None:
        """Insert one stream edge and update all counts incrementally."""
        u, v = canonical_edge(*edge)
        a = self._adj.setdefault(u, set())
        b = self._adj.setdefault(v, set())
        self.triangles += len(a & b)
        self.wedges += len(a) + len(b)
        a.add(v)
        b.add(u)
        self.edges_seen += 1

    def update_batch(self, batch: Sequence[tuple[int, int]]) -> None:
        """Insert a batch; :class:`EdgeBatch` rows are already canonical."""
        from ..streaming.batch import EdgeBatch

        if not isinstance(batch, EdgeBatch):
            for edge in batch:
                self.update(edge)
            return
        adj = self._adj
        triangles = wedges = 0
        for u, v in batch.array.tolist():
            a = adj.setdefault(u, set())
            b = adj.setdefault(v, set())
            triangles += len(a & b)
            wedges += len(a) + len(b)
            a.add(v)
            b.add(u)
        self.triangles += triangles
        self.wedges += wedges
        self.edges_seen += len(batch)

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
        """Snapshot: the adjacency as a canonical edge array plus counts."""
        edges = np.array(
            sorted(
                (u, v)
                for u, nbrs in self._adj.items()
                for v in nbrs
                if u < v
            ),
            dtype=np.int64,
        ).reshape(-1, 2)
        return {
            "edges": edges,
            "edges_seen": self.edges_seen,
            "triangles": self.triangles,
            "wedges": self.wedges,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        missing = [
            k
            for k in ("edges", "edges_seen", "triangles", "wedges")
            if k not in state
        ]
        if missing:
            raise InvalidParameterError(f"state dict missing fields: {missing}")
        adj: dict[int, set[int]] = {}
        for u, v in np.asarray(state["edges"], dtype=np.int64).tolist():
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self._adj = adj
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
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def state_size_edges(self) -> int:
        """Number of adjacency entries held -- the Omega(n) state the
        lower bound (Theorem 3.13) says any accurate algorithm must pay
        on the Index-reduction graphs."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2
