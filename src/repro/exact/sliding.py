"""Exact triangle counts over sequence-based sliding windows.

Ground truth for the Section 5.2 sliding-window estimator: at each time
``t`` the graph of interest consists of the ``w`` most recent edges
``e_{t-w+1}, ..., e_t``.

:func:`sliding_window_triangle_counts` maintains the window graph
incrementally -- when an edge enters or leaves, the triangle count
changes by the number of common neighbors of its endpoints inside the
window -- so the whole sweep costs one adjacency intersection per edge
event rather than a recount per step.
"""

from __future__ import annotations

from collections import deque

from ..errors import InvalidParameterError
from ..graph.edge import Edge
from ..graph.stream import EdgeStream

__all__ = ["sliding_window_triangle_counts", "WindowedExactCounter"]


class WindowedExactCounter:
    """Incrementally exact triangle count of the last ``w`` edges.

    Feed edges with :meth:`push`; read :attr:`triangles` at any point.
    Eviction of the oldest edge happens automatically once more than
    ``window`` edges have been pushed.
    """

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise InvalidParameterError(f"window must be positive, got {window}")
        self.window = window
        self.triangles = 0
        self._edges: deque[Edge] = deque()
        self._adj: dict[int, set[int]] = {}

    def _common_neighbors(self, u: int, v: int) -> int:
        return len(self._adj.get(u, set()) & self._adj.get(v, set()))

    def _insert(self, e: Edge) -> None:
        u, v = e
        self.triangles += self._common_neighbors(u, v)
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def _remove(self, e: Edge) -> None:
        u, v = e
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self.triangles -= self._common_neighbors(u, v)
        if not self._adj[u]:
            del self._adj[u]
        if not self._adj[v]:
            del self._adj[v]

    def push(self, e: Edge) -> int:
        """Add the next stream edge; return the current window count."""
        if len(self._edges) == self.window:
            self._remove(self._edges.popleft())
        self._edges.append(e)
        self._insert(e)
        return self.triangles


def sliding_window_triangle_counts(stream: EdgeStream, window: int) -> list[int]:
    """Exact triangle count of the window after each arrival.

    ``result[i]`` is the number of triangles among edges
    ``e_{i-w+2}, ..., e_{i+1}`` (1-based: the window ending at edge
    ``i+1``). Duplicate edges inside a window would make the window
    multigraph; the stream is assumed simple so windows are too.
    """
    counter = WindowedExactCounter(window)
    return [counter.push(e) for e in stream]
