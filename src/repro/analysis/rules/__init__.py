"""Rule-plugin registry: each rule is a function over the shared parse.

A rule module defines one check function and registers it:

    @rule("R00x", "one-line title")
    def check(project: Project) -> list[Finding]:
        ...

Adding a rule is: create ``r0xx_name.py`` beside the existing ones,
register with the next free id (a retired id, such as R003, is never
reused), import it below, and give it fixture coverage in
``tests/test_analysis.py`` (at least two seeded violations plus a
clean counterpart). The runner handles selection, suppression,
and output; rules only emit findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..model import Finding, Project

__all__ = ["RULES", "Rule", "rule"]


@dataclass(frozen=True)
class Rule:
    """One registered check: an id, a human title, and the callable."""

    id: str
    title: str
    check: Callable[[Project], List[Finding]]


RULES: dict[str, Rule] = {}


def rule(rule_id: str, title: str) -> Callable:
    """Register the decorated ``check(project)`` under ``rule_id``."""

    def _register(check: Callable[[Project], List[Finding]]) -> Callable:
        if rule_id in RULES and RULES[rule_id].check is not check:
            raise ValueError(f"rule {rule_id} is already registered")
        RULES[rule_id] = Rule(rule_id, title, check)
        return check

    return _register


# Importing the rule modules populates RULES (same self-registration
# idiom as the engine/estimator registries in repro.streaming.registry).
from . import (  # noqa: E402  (imports must follow the decorator definition)
    r001_checkpoint,
    r002_rng,
    r004_lifecycle,
    r005_iteration,
    r006_registry,
)

del (
    r001_checkpoint,
    r002_rng,
    r004_lifecycle,
    r005_iteration,
    r006_registry,
)
