"""Registered estimator specs: every paper algorithm, one registry.

Importing this module (which ``repro.streaming`` does) populates the
:data:`~repro.streaming.registry.ESTIMATORS` registry with a spec per
streaming algorithm in the package, so ``Pipeline.from_registry`` and
``python -m repro pipeline --estimator <name>`` can instantiate any of
them by name.

The factories import from :mod:`repro.core` lazily (inside the function
bodies): the core modules themselves import
:mod:`repro.streaming.registry` to self-register engines, and deferring
the reverse imports to call time keeps the package import-order
agnostic.

Pool-size defaults are per spec: the vectorized estimators default to
paper-scale pools, while the per-edge pure-Python ones (cliques,
windows) default small enough to stay interactive.

``count``, ``transitivity``, ``wedges`` and ``sample`` carry a
``pool_rank``: at one pool size they share one pool
(:func:`~repro.streaming.pipeline.build_estimators`).
"""

from __future__ import annotations

from ..errors import EmptyStreamError
from .registry import register_estimator, reports

__all__: list[str] = []


# ---------------------------------------------------------------------------
# triangle counting / transitivity / sampling (Sections 3.3-3.5)
# ---------------------------------------------------------------------------

def _count_report(counter) -> dict:
    return {
        "triangles": float(counter.estimate()),
        "holding_fraction": float(counter.fraction_holding_triangle()),
    }


@register_estimator(
    "count",
    description="approximate triangle count (Theorem 3.3, vectorized engine)",
    default_estimators=100_000,
    pool_rank=0,
)
@reports(_count_report)
def _make_count(
    num_estimators: int, seed: int | None, *, engine: str = "vectorized", pool=None
):
    from ..core.triangle_count import TriangleCounter

    return TriangleCounter(num_estimators, engine=engine, seed=seed, pool=pool)


def _transitivity_report(est) -> dict:
    results = {
        "triangles": float(est.triangle_estimate()),
        "wedges": float(est.wedge_estimate()),
    }
    try:
        results["transitivity"] = float(est.estimate())
    except EmptyStreamError:
        results["transitivity"] = None
    return results


@register_estimator(
    "transitivity",
    description="transitivity coefficient kappa = 3*tau/zeta (Theorem 3.12)",
    default_estimators=100_000,
    pool_rank=1,
)
@reports(_transitivity_report)
def _make_transitivity(num_estimators: int, seed: int | None, *, pool=None):
    from ..core.transitivity import TransitivityEstimator

    return TransitivityEstimator(num_estimators, seed=seed, pool=pool)


@register_estimator(
    "wedges",
    description="approximate wedge count zeta (Lemma 3.11)",
    default_estimators=100_000,
    pool_rank=2,
)
def _make_wedges(num_estimators: int, seed: int | None, *, pool=None):
    from ..core.transitivity import WedgeCounter

    return WedgeCounter(num_estimators, seed=seed, pool=pool)


def _sample_report(sampler) -> dict:
    results = {"success_fraction": float(sampler.success_fraction())}
    try:
        results["triangle"] = sampler.sample_one()
    except EmptyStreamError:
        results["triangle"] = None
    return results


def _sample_live_report(sampler) -> dict:
    # sample_one() draws from the sampler's generator, so the final
    # reporter cannot run mid-stream without perturbing every
    # subsequent batch; live snapshots report the pure queries only.
    return {"success_fraction": float(sampler.success_fraction())}


@register_estimator(
    "sample",
    description="uniform triangle sampling (Lemma 3.7 / Theorem 3.8)",
    default_estimators=50_000,
    pool_rank=3,
)
@reports(_sample_report, live=_sample_live_report)
def _make_sample(
    num_estimators: int, seed: int | None, *, max_degree: int | None = None, pool=None
):
    from ..core.triangle_sample import TriangleSampler

    return TriangleSampler(num_estimators, max_degree=max_degree, seed=seed, pool=pool)


# ---------------------------------------------------------------------------
# exact baseline (ground truth; O(m) memory)
# ---------------------------------------------------------------------------

def _exact_report(counter) -> dict:
    results = {"triangles": int(counter.triangles), "wedges": int(counter.wedges)}
    try:
        results["transitivity"] = float(counter.transitivity())
    except EmptyStreamError:
        results["transitivity"] = None
    return results


@register_estimator(
    "exact",
    description="exact streaming triangle/wedge counts (O(m) memory baseline)",
    default_estimators=1,
)
@reports(_exact_report)
def _make_exact(num_estimators: int, seed: int | None):
    from ..baselines.exact_stream import ExactStreamingCounter

    del num_estimators, seed  # exact counting has no pool and no randomness
    return ExactStreamingCounter()


# ---------------------------------------------------------------------------
# clique counting (Section 5.1) -- per-edge Python loops, small defaults
# ---------------------------------------------------------------------------

@register_estimator(
    "cliques4",
    description="approximate 4-clique count (Theorem 5.5)",
    default_estimators=256,
)
def _make_cliques4(num_estimators: int, seed: int | None):
    from ..core.cliques4 import CliqueCounter4

    return CliqueCounter4(num_estimators, seed=seed)


@register_estimator(
    "cliques",
    description="approximate K_l clique count for configurable l (Theorem 5.6)",
    default_estimators=128,
    size=4,
)
def _make_cliques(num_estimators: int, seed: int | None, *, size: int = 4):
    from ..core.cliques import CliqueCounter

    return CliqueCounter(size, num_estimators, seed=seed)


# ---------------------------------------------------------------------------
# windowed variants (Section 5.2)
# ---------------------------------------------------------------------------

def _window_report(counter) -> dict:
    return {"window_triangles": float(counter.estimate())}


@register_estimator(
    "sliding-window",
    description="triangle count over the last `window` edges (Theorem 5.8)",
    default_estimators=256,
    window=65_536,
)
@reports(_window_report)
def _make_sliding_window(num_estimators: int, seed: int | None, *, window: int = 65_536):
    from ..core.sliding_window import SlidingWindowTriangleCounter

    return SlidingWindowTriangleCounter(num_estimators, window, seed=seed)


class _ArrivalTimedWindowCounter:
    """Adapt the timed-window counter to plain (untimed) edge batches.

    The pipeline streams bare edges; this adapter stamps each edge with
    its arrival index, making the time horizon an edge-count horizon so
    the estimator composes with the other specs over the same source.
    """

    def __init__(self, num_estimators: int, horizon: float, *, seed: int | None) -> None:
        from ..core.timed_window import TimedWindowTriangleCounter

        self._counter = TimedWindowTriangleCounter(num_estimators, horizon, seed=seed)

    @property
    def edges_seen(self) -> int:
        return self._counter.edges_seen

    def update_batch(self, batch) -> None:
        base = self._counter.edges_seen
        self._counter.update_batch(
            (edge, float(base + i)) for i, edge in enumerate(batch)
        )

    def estimate(self) -> float:
        return self._counter.estimate()

    def window_size(self) -> int:
        return self._counter.window_size()

    def state_dict(self) -> dict:
        return self._counter.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self._counter.load_state_dict(state)

    def merge(self, other: "_ArrivalTimedWindowCounter") -> None:
        self._counter.merge(other._counter)


@register_estimator(
    "timed-window",
    description="timed-window triangle count, arrival index as the clock",
    default_estimators=256,
    horizon=65_536.0,
)
@reports(_window_report)
def _make_timed_window(
    num_estimators: int, seed: int | None, *, horizon: float = 65_536.0
):
    return _ArrivalTimedWindowCounter(num_estimators, horizon, seed=seed)


# ---------------------------------------------------------------------------
# fully-dynamic (turnstile) estimators -- deletion-capable
# ---------------------------------------------------------------------------

def _dynamic_report(counter) -> dict:
    return {
        "triangles": float(counter.estimate()),
        "net_edges": int(counter.net_edges()),
    }


@register_estimator(
    "triest-fd",
    description="TRIÈST-FD reservoir triangle count over insert/delete streams",
    default_estimators=32,
    memory=4_096,
)
@reports(_dynamic_report)
def _make_triest_fd(num_estimators: int, seed: int | None, *, memory: int = 4_096):
    from ..core.triest_fd import TriestFdCounter

    return TriestFdCounter(num_estimators, memory, seed=seed)


@register_estimator(
    "dynamic-sampler",
    description="vertex-subsampled turnstile triangle count (Bulteau et al.)",
    default_estimators=32,
    p=0.5,
)
@reports(_dynamic_report)
def _make_dynamic_sampler(num_estimators: int, seed: int | None, *, p: float = 0.5):
    from ..core.dynamic_sampler import DynamicSamplerCounter

    return DynamicSamplerCounter(num_estimators, p, seed=seed)
