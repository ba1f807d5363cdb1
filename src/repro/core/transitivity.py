"""Wedge counting and the transitivity coefficient (Section 3.5).

The transitivity coefficient is ``kappa(G) = 3 tau(G) / zeta(G)`` where
``zeta(G)`` counts connected triples (wedges). Claim 3.9 shows
``zeta(G) = sum_e c(e)``, so the very counter ``c`` that neighborhood
sampling already maintains yields an unbiased wedge estimate
``zeta~ = m * c`` (Lemma 3.10).

Following Theorem 3.12, :class:`TransitivityEstimator` runs the triangle
counting algorithm and the wedge estimator simultaneously on independent
estimator pools and returns ``kappa' = 3 tau' / zeta'``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import EmptyStreamError, InvalidParameterError
from .triangle_count import TriangleCounter, aggregate_mean
from .vectorized import VectorizedTriangleCounter

__all__ = ["WedgeCounter", "TransitivityEstimator"]


class WedgeCounter:
    """(eps, delta)-approximate wedge counting (Lemma 3.11).

    Runs ``r`` neighborhood-sampling states and averages
    ``zeta~ = m * c``. Only the level-1 edge and its neighborhood
    counter matter for this estimate; the engine's level-2 machinery
    rides along at no asymptotic cost.
    """

    uses_batch_context = True

    def __init__(self, num_estimators: int, *, seed: int | None = None) -> None:
        self._engine = VectorizedTriangleCounter(num_estimators, seed=seed)

    @property
    def num_estimators(self) -> int:
        return self._engine.num_estimators

    @property
    def edges_seen(self) -> int:
        return self._engine.edges_seen

    def update(self, edge: tuple[int, int]) -> None:
        self._engine.update(edge)

    def update_batch(self, batch: Sequence[tuple[int, int]]) -> None:
        self._engine.update_batch(batch)

    def estimates(self) -> np.ndarray:
        """Per-estimator unbiased wedge estimates ``m * c``."""
        return self._engine.wedge_estimates()

    def estimate(self) -> float:
        """The averaged wedge-count estimate ``zeta'``."""
        return aggregate_mean(self.estimates())

    def state_dict(self) -> dict:
        """The engine's snapshot (checkpoint/ship surface)."""
        return self._engine.state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore an engine snapshot in place."""
        self._engine.load_state_dict(state)

    def merge(self, other: "WedgeCounter") -> None:
        """Absorb ``other``'s estimator pool (same stream observed)."""
        self._engine.merge(other._engine)


class TransitivityEstimator:
    """(eps, delta)-approximate transitivity coefficient (Theorem 3.12).

    Parameters
    ----------
    num_triangle_estimators:
        Pool size for the triangle count ``tau'`` (Theorem 3.3 sizing
        with accuracy ``eps/3, delta/2`` per the paper's composition).
    num_wedge_estimators:
        Pool size for the wedge count ``zeta'`` (Lemma 3.11 sizing). If
        omitted, uses the triangle pool size. Wedges are usually far
        more plentiful than triangles, so a much smaller pool suffices.
    seed:
        Seed for reproducibility; the two pools draw independent
        sub-seeds.
    """

    uses_batch_context = True

    def __init__(
        self,
        num_triangle_estimators: int,
        num_wedge_estimators: int | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if num_triangle_estimators < 1:
            raise InvalidParameterError(
                f"num_triangle_estimators must be >= 1, got {num_triangle_estimators}"
            )
        wedge_r = num_wedge_estimators or num_triangle_estimators
        tau_seed = None if seed is None else seed * 2
        zeta_seed = None if seed is None else seed * 2 + 1
        self._triangles = TriangleCounter(num_triangle_estimators, seed=tau_seed)
        self._wedges = WedgeCounter(wedge_r, seed=zeta_seed)

    @property
    def edges_seen(self) -> int:
        return self._triangles.edges_seen

    def update(self, edge: tuple[int, int]) -> None:
        """Observe one stream edge with both pools."""
        self._triangles.update(edge)
        self._wedges.update(edge)

    def update_batch(self, batch: Sequence[tuple[int, int]]) -> None:
        """Observe a batch of stream edges with both pools."""
        self._triangles.update_batch(batch)
        self._wedges.update_batch(batch)

    def state_dict(self) -> dict:
        """Both pools' snapshots (checkpoint/ship surface)."""
        return {
            "triangles": self._triangles.state_dict(),
            "wedges": self._wedges.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        if "triangles" not in state or "wedges" not in state:
            raise InvalidParameterError(
                "state dict missing fields: need 'triangles' and 'wedges'"
            )
        self._triangles.load_state_dict(state["triangles"])
        self._wedges.load_state_dict(state["wedges"])

    def merge(self, other: "TransitivityEstimator") -> None:
        """Absorb ``other``'s two pools (same stream observed)."""
        self._triangles.merge(other._triangles)
        self._wedges.merge(other._wedges)

    def triangle_estimate(self) -> float:
        """The pool's triangle count estimate ``tau'``."""
        return self._triangles.estimate()

    def wedge_estimate(self) -> float:
        """The pool's wedge count estimate ``zeta'``."""
        return self._wedges.estimate()

    def estimate(self) -> float:
        """``kappa' = 3 tau' / zeta'``.

        Raises
        ------
        EmptyStreamError
            If the wedge estimate is zero (the coefficient is undefined
            on graphs without wedges).
        """
        zeta = self.wedge_estimate()
        if zeta <= 0.0:
            raise EmptyStreamError(
                "transitivity undefined: wedge estimate is zero"
            )
        return 3.0 * self.triangle_estimate() / zeta
