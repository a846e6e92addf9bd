"""Unified scenario specs and the differential fuzzing harness.

One declarative :class:`~repro.scenario.spec.ScenarioSpec` describes a
complete run — topology, workload (stochastic arrivals and/or explicit
:class:`~repro.network.connection.ConnectionSpec` requests, the same type
the CAC decides on), fault schedule, policy/analysis knobs — and every
engine consumes it through :mod:`repro.scenario.loader`.  Specs
round-trip through JSON (:mod:`repro.scenario.codec`, derived from the
spec dataclasses' type hints) with ``repr``-exact floats;
:mod:`repro.scenario.fuzz` generates random specs and checks the
differential invariant suite (:mod:`repro.scenario.check`), shrinking any
failure to a minimal one-file reproducer (:mod:`repro.scenario.shrink`).

CLI: ``python -m repro scenario {generate,replay,fuzz}``.
"""

from repro.scenario.check import (
    ALL_INVARIANTS,
    CheckOptions,
    CheckReport,
    Violation,
    check_scenario,
)
from repro.scenario.codec import (
    dict_to_spec,
    dumps,
    load_file,
    loads,
    save_file,
    spec_hash,
    spec_to_dict,
)
from repro.scenario.fuzz import (
    FuzzCase,
    FuzzSummary,
    check_reproducers,
    generate_spec,
    run_corpus,
)
from repro.scenario.loader import (
    ScenarioOutcome,
    connection_sim_config,
    run_scenario,
)
from repro.scenario.shrink import ShrinkResult, shrink_spec
from repro.scenario.spec import (
    FORMAT_VERSION,
    AnalysisKnobs,
    ArrivalsSpec,
    FaultPlan,
    PacketRunSpec,
    ScenarioSpec,
)

__all__ = [
    "ALL_INVARIANTS",
    "AnalysisKnobs",
    "ArrivalsSpec",
    "CheckOptions",
    "CheckReport",
    "FORMAT_VERSION",
    "FaultPlan",
    "FuzzCase",
    "FuzzSummary",
    "PacketRunSpec",
    "ScenarioOutcome",
    "ScenarioSpec",
    "ShrinkResult",
    "Violation",
    "check_reproducers",
    "check_scenario",
    "connection_sim_config",
    "dict_to_spec",
    "dumps",
    "generate_spec",
    "load_file",
    "loads",
    "run_corpus",
    "run_scenario",
    "save_file",
    "shrink_spec",
    "spec_hash",
    "spec_to_dict",
]
