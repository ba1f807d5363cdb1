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

The same licence lets whole estimators share a pool. Both classes are
:class:`~repro.core.vectorized.PoolView` s: alone, each builds its own
pool; handed another estimator's engine (``pool=``), each reads that
one. A pipeline that asks for ``count``, ``transitivity`` and
``wedges`` at one pool size therefore runs neighborhood sampling once,
and ``tau'``, ``zeta'`` and ``kappa'`` all read the same slots.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyStreamError
from .triangle_count import aggregate_mean
from .vectorized import PoolView, VectorizedTriangleCounter

__all__ = ["WedgeCounter", "TransitivityEstimator"]


class WedgeCounter(PoolView):
    """(eps, delta)-approximate wedge counting (Lemma 3.11).

    Runs ``r`` neighborhood-sampling states and averages
    ``zeta~ = m * c``. Only the level-1 edge and its neighborhood
    counter matter for this estimate; the engine's level-2 machinery
    rides along at no asymptotic cost.
    """

    def estimates(self) -> np.ndarray:
        """Per-estimator unbiased wedge estimates ``m * c``."""
        return self.engine.wedge_estimates()

    def estimate(self) -> float:
        """The averaged wedge-count estimate ``zeta'``."""
        return aggregate_mean(self.estimates())


class TransitivityEstimator(PoolView):
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
    pool:
        Another estimator's engine to read instead of building a pool
        (then ``num_triangle_estimators`` and ``seed`` are unused).
    """

    def __init__(
        self,
        num_triangle_estimators: int,
        *,
        seed: int | None = None,
        pool: VectorizedTriangleCounter | None = None,
    ) -> None:
        super().__init__(
            num_triangle_estimators, seed=None if seed is None else seed * 2, pool=pool
        )

    def triangle_estimate(self) -> float:
        """The pool's triangle count estimate ``tau'``."""
        return aggregate_mean(self.engine.estimates())

    def wedge_estimate(self) -> float:
        """The pool's wedge count estimate ``zeta'``."""
        return aggregate_mean(self.engine.wedge_estimates())

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
