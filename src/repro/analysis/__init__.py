"""Static invariant analysis for the repo's determinism contracts.

Eight PRs of growth rest on conventions that nothing enforced at lint
time: every checkpointable estimator must round-trip its full mutable
state, all randomness must flow through seeded generators, shared-memory
blocks must pair ``close()``/``unlink()``, and live reporters must not
draw from an estimator's generator. Violating any of them produces bugs
that only surface in kill/resume chaos runs or fingerprint diffs --
long after the offending line shipped.

This package is an AST-based analyzer that checks those contracts
statically. One shared parse (:class:`~repro.analysis.model.Project`)
feeds a set of rule plugins (:mod:`repro.analysis.rules`); findings
carry ``file:line`` locations and can be suppressed per line with

    some_violation()  # repro: allow[R002]

(a suppression that never fires is itself reported, so stale allows
cannot accumulate). Run it as ``python -m repro check [paths...]`` or
through :func:`run_check`; the ``static-analysis`` CI job gates the
tree on a clean report.

Rules shipped (see ``python -m repro check --list-rules``):

====  ==================================================================
R001  checkpoint-state completeness: ``self.*`` assigned in ``__init__``
      must appear in ``state_dict``/``load_state_dict``/``STATE_FIELDS``
      or be declared derived via ``# repro: derived``
R002  RNG discipline: no stdlib ``random``, no legacy ``np.random.*``
      global calls, no time-seeded generators
R004  resource lifecycle: ``SharedMemory``/file handles must reach
      ``close``/``unlink`` through ``with``/``finally``/``__exit__``
R005  nondeterministic iteration: no draining bare ``set``\\ s into
      order-sensitive sinks (sequences, RNG draws, wire formats)
R006  registry/protocol conformance: registered estimators satisfy the
      ``StreamingEstimator`` surface, ``supports_deletions`` is a bool
      class attribute, live reporters never consume randomness
====  ==================================================================

R003 (kernel-backend parity) is retired along with the compiled kernel
backend it checked; its ID is not reused and the other rules keep
their numbers.
"""

from __future__ import annotations

from .model import Finding, Project
from .rules import RULES
from .runner import CheckResult, render_human, render_json, run_check

__all__ = [
    "CheckResult",
    "Finding",
    "Project",
    "RULES",
    "render_human",
    "render_json",
    "run_check",
]
