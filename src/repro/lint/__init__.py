"""reprolint — domain-aware static analysis for this codebase.

``python -m repro lint [paths...]`` checks the invariants the
admission-control math and the discrete-event simulator rely on but
ordinary linters cannot see.  RL001-RL004 are per-node AST rules, RL005
is the engine's check on the pragmas themselves, and RL006-RL008 run on
a per-function CFG + forward dataflow framework (:mod:`repro.lint.cfg`,
:mod:`repro.lint.dataflow`):

========  ==============================================================
RL001     determinism: no wall clock / module-level RNG state outside
          repro.service and repro.lint (route through RandomStreams)
RL002     unit discipline: conversions only through repro.units; no
          magic ``8``/``53``/``1e6`` factors, no ``*_ms`` names holding
          seconds
RL003     float safety: no exact ``==``/``!=`` against floats in the
          math kernels (use the tolerance helpers)
RL004     cache purity: never mutate a value handed out by the delay
          engine's caches/memos
RL005     suppression hygiene: pragmas need a justification and must
          actually suppress something (stale pragmas are flagged)
RL006     exception transactionality: registered transactional scopes
          must not leak partial mutations through a raise
RL007     asyncio atomicity: no read-await-write of shared service
          state (every await makes earlier reads stale)
RL008     dimension inference: no +,- or comparisons between values
          inferred to hold different dimensions (s / bits / bits-per-s)
========  ==============================================================

RL002 and RL008 share one units table (:data:`repro.lint.rules.UNITS`
and :func:`repro.lint.rules.unit_of_name`).

Suppress a finding with ``# reprolint: disable=RL00x -- justification``.
See ``docs/static_analysis.md`` for the full catalog and how to add rules.
"""

from __future__ import annotations

from repro.lint.engine import (
    ALL_RULES,
    format_report,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding, Pragma, Suppressions, parse_suppressions
from repro.lint.rules import (
    BASE_RULES,
    CachePurityRule,
    DeterminismRule,
    FloatSafetyRule,
    Rule,
    UnitDisciplineRule,
)
from repro.lint.rules_flow import (
    FLOW_RULES,
    AsyncAtomicityRule,
    DimensionRule,
    TransactionalityRule,
)

__all__ = [
    "ALL_RULES",
    "AsyncAtomicityRule",
    "BASE_RULES",
    "CachePurityRule",
    "DeterminismRule",
    "DimensionRule",
    "FLOW_RULES",
    "Finding",
    "FloatSafetyRule",
    "Pragma",
    "Rule",
    "Suppressions",
    "TransactionalityRule",
    "UnitDisciplineRule",
    "format_report",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
]
