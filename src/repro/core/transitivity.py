"""Wedge counting and the transitivity coefficient (Section 3.5).

The transitivity coefficient is ``kappa(G) = 3 tau(G) / zeta(G)`` where
``zeta(G)`` counts connected triples (wedges). Claim 3.9 shows
``zeta(G) = sum_e c(e)``, so the very counter ``c`` that neighborhood
sampling already maintains yields an unbiased wedge estimate
``zeta~ = m * c`` (Lemma 3.10).

Following Theorem 3.12, :class:`TransitivityEstimator` runs the triangle
counting algorithm and the wedge estimator simultaneously and returns
``kappa' = 3 tau' / zeta'``. Both estimates read one estimator pool:
``tau~`` from each slot's closed triangle and ``zeta~`` from the same
slot's level-1 counter. The theorem joins the two with a union bound,
which needs no independence between them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import EmptyStreamError, InvalidParameterError
from .triangle_count import aggregate_mean
from .vectorized import VectorizedTriangleCounter

__all__ = ["WedgeCounter", "TransitivityEstimator"]


class _Pool:
    """One vectorized neighborhood-sampling pool and its stream surface."""

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

    def state_dict(self) -> dict:
        """The engine's snapshot (checkpoint/ship surface)."""
        return self._engine.state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore an engine snapshot in place."""
        self._engine.load_state_dict(state)

    def merge(self, other: "_Pool") -> None:
        """Absorb ``other``'s estimator pool (same stream observed)."""
        self._engine.merge(other._engine)


class WedgeCounter(_Pool):
    """(eps, delta)-approximate wedge counting (Lemma 3.11).

    Runs ``r`` neighborhood-sampling states and averages
    ``zeta~ = m * c``. Only the level-1 edge and its neighborhood
    counter matter for this estimate; the engine's level-2 machinery
    rides along at no asymptotic cost.
    """

    def estimates(self) -> np.ndarray:
        """Per-estimator unbiased wedge estimates ``m * c``."""
        return self._engine.wedge_estimates()

    def estimate(self) -> float:
        """The averaged wedge-count estimate ``zeta'``."""
        return aggregate_mean(self.estimates())


class TransitivityEstimator(_Pool):
    """(eps, delta)-approximate transitivity coefficient (Theorem 3.12).

    One pool of ``num_triangle_estimators`` slots serves both counts:
    ``tau'`` is the mean of its triangle estimates and ``zeta'`` the
    mean of its wedge estimates. Size the pool for ``tau'`` (Theorem
    3.3, with accuracy ``eps/3, delta/2`` per the paper's composition):
    every triangle closes three wedges, so ``zeta >= 3 tau`` and the
    wedge sizing of Lemma 3.11 is at most a third of the triangle
    sizing at the same ``(eps, delta)``. A pool sized for ``tau'``
    therefore meets ``zeta'``'s bound too, and the union bound joins
    the two without needing them independent.

    Parameters
    ----------
    num_triangle_estimators:
        The pool size ``r``.
    seed:
        Seed for reproducibility. The pool draws sub-seed ``2 * seed``,
        so ``triangle_estimate()`` equals
        ``TriangleCounter(r, seed=2 * seed).estimate()``.
    """

    def __init__(self, num_triangle_estimators: int, *, seed: int | None = None) -> None:
        if num_triangle_estimators < 1:
            raise InvalidParameterError(
                f"num_triangle_estimators must be >= 1, got {num_triangle_estimators}"
            )
        super().__init__(num_triangle_estimators, seed=None if seed is None else seed * 2)

    def triangle_estimate(self) -> float:
        """The pool's triangle count estimate ``tau'``."""
        return aggregate_mean(self._engine.estimates())

    def wedge_estimate(self) -> float:
        """The pool's wedge count estimate ``zeta'``."""
        return aggregate_mean(self._engine.wedge_estimates())

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
