"""Central registries for engines and streaming estimators.

Two registries back the pluggable surfaces of the package:

- :data:`ENGINES` maps engine names (``"reference"``, ``"bulk"``,
  ``"vectorized"``, ...) to the estimator-array classes that
  :class:`~repro.core.triangle_count.TriangleCounter` can run on. The
  engine classes register themselves where they are defined, replacing
  the old hard-coded ``_ENGINES`` dict, so an out-of-tree engine only
  needs ``@register_engine("mine")``.
- :data:`ESTIMATORS` maps estimator names (``"count"``,
  ``"transitivity"``, ``"sample"``, ``"exact"``, ...) to
  :class:`EstimatorSpec` entries that the
  :class:`~repro.streaming.pipeline.Pipeline` fan-out runner and the
  CLI's ``pipeline`` subcommand instantiate by name.

Registered objects need nothing beyond the
:class:`~repro.streaming.protocol.StreamingEstimator` surface: their
``update_batch`` receives the pipeline's shared
:class:`~repro.streaming.batch.EdgeBatch`, and those that set
``uses_batch_context`` get its per-batch index built once per batch for
the whole fan-out.

Both registries raise :class:`~repro.errors.InvalidParameterError` with
the list of known names on a miss, so a CLI typo produces an actionable
message.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterator, TypeVar

from ..errors import InvalidParameterError

__all__ = [
    "ENGINES",
    "ESTIMATORS",
    "EstimatorSpec",
    "Registry",
    "register_engine",
    "register_estimator",
    "reports",
]

T = TypeVar("T")


def _origin(obj: Any) -> tuple:
    """Where a registered object was defined (module, qualname).

    Identifies "the same definition re-executed" across module reloads:
    classes and functions carry both attributes; for
    :class:`EstimatorSpec` entries the spec's factory is inspected.
    """
    target = obj.factory if isinstance(obj, EstimatorSpec) else obj
    return (
        getattr(target, "__module__", None),
        getattr(target, "__qualname__", None),
    )


class Registry(Generic[T]):
    """A small name -> object registry with decorator registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    def register(self, name: str, obj: T | None = None) -> Callable[[T], T] | T:
        """Register ``obj`` under ``name``; usable as a decorator.

        Re-registering a name with a *different* object raises --
        registries are global, and a silent overwrite would make test
        runs order-dependent. Re-registering the same definition (same
        module and qualname, as ``importlib.reload`` / notebook
        autoreload produce) replaces the entry quietly.
        """

        def _add(entry: T) -> T:
            existing = self._entries.get(name)
            if existing is not None and _origin(existing) != _origin(entry):
                raise InvalidParameterError(
                    f"{self.kind} {name!r} is already registered"
                )
            self._entries[name] = entry
            return entry

        if obj is None:
            return _add
        return _add(obj)

    def get(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise InvalidParameterError(
                f"unknown {self.kind} {name!r}; available: {known}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> Iterator[tuple[str, T]]:
        return iter(sorted(self._entries.items()))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class EstimatorSpec:
    """How the pipeline builds and reports one kind of estimator.

    Parameters
    ----------
    name:
        Registry key (also the CLI ``--estimator`` choice).
    factory:
        ``(num_estimators, seed, **options) -> estimator``. The result
        must satisfy :class:`~repro.streaming.protocol.StreamingEstimator`.
    report:
        ``estimator -> dict`` of final results (JSON-friendly values).
    live_report:
        Optional ``estimator -> dict`` used for *mid-stream* snapshots
        (:meth:`~repro.streaming.pipeline.Pipeline.snapshots`). Live
        reporters MUST be side-effect free -- in particular they must
        not draw from the estimator's generator, or observing the
        stream would change it (the ``sample`` spec's final reporter
        draws a triangle, so its live reporter reports the success
        fraction only). ``None`` falls back to ``report``, which is
        correct for every pure-query reporter.
    description:
        One line for ``--help`` and the README's estimator matrix.
    default_estimators:
        Pool size used when the caller does not specify one. Per-edge
        pure-Python estimators (cliques, windows) default far smaller
        than the vectorized ones.
    options:
        Extra keyword defaults forwarded to ``factory`` (e.g. a window
        length); callers may override them per run.
    pool_rank:
        Set on estimators whose factory can read another's pool (a
        keyword-only ``pool``, not an option); at one pool size the
        lowest rank builds the pool. ``None`` never shares.
    """

    name: str
    factory: Callable[..., Any]
    report: Callable[[Any], dict]
    description: str = ""
    default_estimators: int = 10_000
    options: dict = field(default_factory=dict)
    live_report: Callable[[Any], dict] | None = None
    pool_rank: int | None = None

    def create(
        self,
        num_estimators: int | None = None,
        seed: int | None = None,
        *,
        pool: Any = None,
        **overrides,
    ) -> Any:
        """Instantiate the estimator with spec defaults applied.

        ``pool`` hands a ``pool_rank`` spec another estimator's engine
        to read. An option the factory does not accept raises
        :class:`~repro.errors.InvalidParameterError` listing the valid ones.
        """
        kwargs = dict(self.options)
        kwargs.update(overrides)
        r = self.default_estimators if num_estimators is None else num_estimators
        try:
            if pool is not None:
                return self.factory(r, seed, pool=pool, **kwargs)
            return self.factory(r, seed, **kwargs)
        except TypeError:
            # Checked only on failure, so building a pipeline pays nothing.
            params = list(inspect.signature(self.factory).parameters.values())[2:]
            valid = [p.name for p in params if p.name != "pool"]
            unknown = sorted(set(kwargs) - set(valid))
            if not unknown or any(p.kind is p.VAR_KEYWORD for p in params):
                raise  # a real TypeError, or **options takes all
            raise InvalidParameterError(
                f"estimator {self.name!r} has no option(s) {unknown}; "
                f"valid options: {valid or 'none'}"
            ) from None


ENGINES: Registry[type] = Registry("engine")
ESTIMATORS: Registry[EstimatorSpec] = Registry("estimator")


def register_engine(name: str) -> Callable[[type], type]:
    """Class decorator: register a triangle-counter engine under ``name``."""
    return ENGINES.register(name)


def register_estimator(
    name: str,
    *,
    description: str = "",
    default_estimators: int = 10_000,
    pool_rank: int | None = None,
    **options,
) -> Callable[[Callable], Callable]:
    """Decorator registering an estimator factory under ``name``.

    The decorated callable is the spec's factory
    (``(num_estimators, seed, **options) -> estimator``). Pair it with a
    result-reporter by stacking :func:`reports` underneath; factories
    without one fall back to reporting ``estimate()`` alone. See
    :mod:`repro.streaming.estimators` for usage.
    """

    def _add(factory: Callable) -> Callable:
        report = getattr(factory, "reporter", _default_report)
        ESTIMATORS.register(
            name,
            EstimatorSpec(
                name=name,
                factory=factory,
                report=report,
                description=description,
                default_estimators=default_estimators,
                options=dict(options),
                live_report=getattr(factory, "live_reporter", None),
                pool_rank=pool_rank,
            ),
        )
        return factory

    return _add


def reports(
    report: Callable[[Any], dict],
    *,
    live: Callable[[Any], dict] | None = None,
) -> Callable[[Callable], Callable]:
    """Attach a result-reporter to an estimator factory (see above).

    ``live`` optionally attaches a separate side-effect-free reporter
    for mid-stream snapshots (see :class:`EstimatorSpec.live_report`);
    without it, ``report`` serves both and must itself be a pure query.
    """

    def _attach(factory: Callable) -> Callable:
        factory.reporter = report
        if live is not None:
            factory.live_reporter = live
        return factory

    return _attach


def _default_report(estimator: Any) -> dict:
    """Fallback reporter: the scalar ``estimate()`` every engine has."""
    return {"estimate": float(estimator.estimate())}
