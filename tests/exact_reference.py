"""Dict-of-sets exact streaming counter: the reference for the columnar one.

The straightforward implementation of the exact baseline -- one Python
set of neighbours per vertex, one ``len(a & b)`` per edge -- kept out of
the library as the oracle that
:class:`~repro.baselines.ExactStreamingCounter` is held to (property
tests) and timed against (the throughput gate in
``benchmarks/check_throughput_regression.py``). Its semantics define
the counter's: event ``i`` on edge ``{u, v}`` adds
``|N_i(u) cap N_i(v)|`` triangles and ``deg_i(u) + deg_i(v)`` wedges,
where ``N_i`` holds the neighbours whose edge first arrived before
event ``i`` -- so a repeated edge is a fresh event over an unchanged
graph.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edge import canonical_edge
from repro.streaming.batch import EdgeBatch


class ReferenceExactCounter:
    """Exact triangle/wedge counts over per-vertex neighbour sets."""

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self.edges_seen = 0
        self.triangles = 0
        self.wedges = 0

    def update(self, edge: tuple[int, int]) -> None:
        u, v = canonical_edge(*edge)
        a = self._adj.setdefault(u, set())
        b = self._adj.setdefault(v, set())
        self.triangles += len(a & b)
        self.wedges += len(a) + len(b)
        a.add(v)
        b.add(u)
        self.edges_seen += 1

    def update_batch(self, batch) -> None:
        """Insert a batch; :class:`EdgeBatch` rows are already canonical."""
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

    def state_dict(self) -> dict:
        edges = np.array(
            sorted((u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v),
            dtype=np.int64,
        ).reshape(-1, 2)
        return {
            "edges": edges,
            "edges_seen": self.edges_seen,
            "triangles": self.triangles,
            "wedges": self.wedges,
        }
