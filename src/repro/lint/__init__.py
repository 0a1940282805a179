"""``repro.lint``: the source-level invariant checker.

The runtime parity suites catch determinism and parity drift *after* it
ships, and only on the scenarios they run; this package checks the same
invariants statically.  Rule families:

========  ==========================================================
``D001``  unseeded randomness / clock / environment reads
``D002``  order-unstable set iteration feeding floats or the calendar
``D003``  one-sided edits to declared implementation/oracle pairs
``U101``  ``_bps/_bits/_bytes/_seconds`` suffix discipline
``R201``  registry/docs/tolerance-table completeness
========  ==========================================================

Run it as ``python -m repro.lint`` or ``repro-fabric lint``; see
``docs/lint.md`` for the catalogue and the ``# repro: ignore[RULE]``
suppression syntax.
"""

from repro.lint import rules  # noqa: F401  -- registers the built-ins
from repro.lint.cli import main
from repro.lint.framework import (
    Finding,
    LintError,
    Rule,
    SourceFile,
    collect_files,
    register_rule,
    resolve_rules,
    rule_catalog,
    run_rules,
)
from repro.lint.parity import ParityPair, fingerprint_reference

__all__ = [
    "Finding",
    "LintError",
    "ParityPair",
    "Rule",
    "SourceFile",
    "collect_files",
    "fingerprint_reference",
    "main",
    "register_rule",
    "resolve_rules",
    "rule_catalog",
    "run_rules",
]
