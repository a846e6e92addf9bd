"""The differential invariant suite over one scenario spec.

The paper's central claim — the analytic CAC bound dominates anything the
network actually does — plus every internal consistency contract the
optimized engines promised, checked end-to-end on a single spec:

``sim_delay_within_bound``
    The packet-level simulator's worst observed end-to-end delay stays at
    or below the analytic bound, for every admitted connection.
``bounds_within_deadline``
    Every admitted connection's recorded bound meets its deadline (the
    admission contract itself).
``ledger_leak_free``
    After every admission, release, fault and re-admission the ring
    ledgers balance the recorded allocations exactly
    (:meth:`~repro.core.cac.AdmissionController.audit_allocations`).
``incremental_matches_full``
    The interference-partition incremental engine reproduces the full
    recomputation bit-for-bit (identical decision trace, grants, bounds).
``coarsening_conservative``
    The coarsening the product does (every envelope tidied to
    ``max_envelope_segments``) only loosens bounds: the CAC's own bounds
    for the final admitted set are ``>=`` a truly exact analysis (tidy
    cap disabled, see :data:`EXACT_SEGMENT_CAP`), per connection.
``deterministic_replay``
    Running the spec twice yields byte-identical outcome signatures.

:func:`check_scenario` runs whichever subset :class:`CheckOptions` enables
and returns a :class:`CheckReport`; it never raises on a violation (the
fuzz driver shrinks first, then raises
:class:`~repro.errors.ScenarioInvariantError`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.config import AnalysisConfig
from repro.core.cac import LEAK_TOLERANCE
from repro.core.delay import DelayAnalyzer
from repro.errors import BufferOverflowError, UnstableSystemError
from repro.scenario import codec, loader
from repro.scenario.spec import AnalysisKnobs, ScenarioSpec

#: Slack for bound comparisons, seconds (pure float-accumulation noise).
BOUND_TOLERANCE = 1e-9
#: Segment budget for the coarsening check's *reference* analysis.  The
#: default ``AnalysisConfig`` tidies every envelope down to
#: ``max_envelope_segments`` — a one-sided upper coarsening — so the
#: reference must never coarsen at all; this cap is far above what any
#: scenario-sized analysis produces.
EXACT_SEGMENT_CAP = 1_000_000

INV_BOUND = "sim_delay_within_bound"
INV_DEADLINE = "bounds_within_deadline"
INV_LEAK = "ledger_leak_free"
INV_INCREMENTAL = "incremental_matches_full"
INV_COARSE = "coarsening_conservative"
INV_REPLAY = "deterministic_replay"

ALL_INVARIANTS = (
    INV_BOUND,
    INV_DEADLINE,
    INV_LEAK,
    INV_INCREMENTAL,
    INV_COARSE,
    INV_REPLAY,
)


@dataclasses.dataclass(frozen=True)
class CheckOptions:
    """Which invariants to run, and the checker's own fault injection."""

    packet: bool = True
    differential: bool = True
    coarsening: bool = True
    replay: bool = True
    #: **Test-only.**  Scales the analytic bound before the packet-sim
    #: comparison; a value below 1 plants an artificial bound violation so
    #: the shrinker and the reporting path can be exercised without a real
    #: bug.  Production runs always use 1.0.
    bound_scale: float = 1.0


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach with a human-readable detail line."""

    invariant: str
    detail: str


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """Outcome of the invariant suite over one spec."""

    spec_name: str
    spec_hash: str
    violations: Tuple[Violation, ...]
    #: Small numeric facts for corpus summaries.
    stats: Dict[str, float]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violated_invariants(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for v in self.violations:
            if v.invariant not in seen:
                seen.append(v.invariant)
        return tuple(seen)

    def format(self) -> str:
        head = (
            f"scenario {self.spec_name} [{self.spec_hash[:12]}]: "
            + ("PASS" if self.ok else "FAIL")
        )
        lines = [head]
        for key in sorted(self.stats):
            lines.append(f"  {key}: {self.stats[key]:g}")
        for v in self.violations:
            lines.append(f"  VIOLATED {v.invariant}: {v.detail}")
        return "\n".join(lines)


def check_scenario(
    spec: ScenarioSpec, options: Optional[CheckOptions] = None
) -> CheckReport:
    """Run the invariant suite; returns a report, never raises on FAIL."""
    opts = options or CheckOptions()
    violations: List[Violation] = []
    stats: Dict[str, float] = {}

    outcome = loader.run_scenario(spec)
    stats["n_active"] = float(len(outcome.cac.connections))
    stats["n_requests"] = float(outcome.cac.n_requests)
    stats["n_admitted"] = float(outcome.cac.n_admitted)

    _check_ledger(outcome, violations)
    _check_deadlines(outcome, violations)
    if opts.packet:
        _check_packet_bounds(outcome, opts, violations, stats)
    if opts.coarsening:
        _check_coarsening(outcome, violations)
    if opts.differential and spec.cac.incremental:
        _check_incremental(spec, outcome, violations)
    if opts.replay:
        _check_replay(spec, outcome, violations)

    return CheckReport(
        spec_name=spec.name,
        spec_hash=codec.spec_hash(spec),
        violations=tuple(violations),
        stats=stats,
    )


def _check_ledger(
    outcome: loader.ScenarioOutcome, violations: List[Violation]
) -> None:
    for ring_id, leak in sorted(outcome.cac.audit_allocations().items()):
        if abs(leak) > LEAK_TOLERANCE:
            violations.append(
                Violation(
                    INV_LEAK,
                    f"ring {ring_id} ledger off by {leak:.3e} s of "
                    "synchronous time",
                )
            )


def _check_deadlines(
    outcome: loader.ScenarioOutcome, violations: List[Violation]
) -> None:
    for conn_id in sorted(outcome.cac.connections):
        rec = outcome.cac.connections[conn_id]
        if rec.delay_bound is None:
            violations.append(
                Violation(
                    INV_DEADLINE,
                    f"{conn_id}: active connection has no finite delay bound",
                )
            )
        elif rec.delay_bound > rec.spec.deadline + BOUND_TOLERANCE:
            violations.append(
                Violation(
                    INV_DEADLINE,
                    f"{conn_id}: bound {rec.delay_bound:.6f} s exceeds "
                    f"deadline {rec.spec.deadline:.6f} s",
                )
            )


def _check_packet_bounds(
    outcome: loader.ScenarioOutcome,
    opts: CheckOptions,
    violations: List[Violation],
    stats: Dict[str, float],
) -> None:
    if not outcome.cac.connections:
        return
    result, bounds = loader.run_packet_validation(outcome)
    worst_ratio = 0.0
    for conn_id in sorted(bounds):
        bound = bounds[conn_id]
        observed = result.worst_observed(conn_id)
        if bound is None:
            continue  # already reported by the deadline check
        effective = bound * opts.bound_scale
        if bound > 0:
            worst_ratio = max(worst_ratio, observed / bound)
        if observed > effective + BOUND_TOLERANCE:
            violations.append(
                Violation(
                    INV_BOUND,
                    f"{conn_id}: observed {observed:.6f} s > analytic "
                    f"bound {effective:.6f} s",
                )
            )
    stats["worst_obs_over_bound"] = worst_ratio


def _check_coarsening(
    outcome: loader.ScenarioOutcome, violations: List[Violation]
) -> None:
    loads = outcome.active_loads()
    if not loads:
        return
    cac = outcome.cac
    try:
        bounds = cac.current_delays()
    except UnstableSystemError:
        # The product's bound is infinite, which dominates any exact one.
        return
    # Recompute truly exact bounds over the final admitted set: the CAC's
    # analyzer tidies envelopes to ``max_envelope_segments``, the reference
    # never coarsens.
    exact_analyzer = DelayAnalyzer(
        cac.topology,
        cac.network_config,
        AnalysisConfig(max_envelope_segments=EXACT_SEGMENT_CAP),
    )
    try:
        exact_reports = exact_analyzer.compute(loads)
    except (UnstableSystemError, BufferOverflowError):
        # The exact bound is infinite, yet the product's is finite.
        violations.append(
            Violation(
                INV_COARSE,
                "exact analysis of the admitted set is unstable, but the "
                "tidied analysis bounds it",
            )
        )
        return
    for conn_id in sorted(bounds):
        exact_bound = exact_reports[conn_id].total_delay
        bound = bounds[conn_id]
        if bound < exact_bound - BOUND_TOLERANCE:
            violations.append(
                Violation(
                    INV_COARSE,
                    f"{conn_id}: tidied bound {bound:.6f} s below "
                    f"exact bound {exact_bound:.6f} s",
                )
            )


def _check_incremental(
    spec: ScenarioSpec,
    outcome: loader.ScenarioOutcome,
    violations: List[Violation],
) -> None:
    full_spec = dataclasses.replace(
        spec,
        cac=AnalysisKnobs(beta=spec.cac.beta, incremental=False),
    )
    full = loader.run_scenario(full_spec)
    if full.signature != outcome.signature:
        violations.append(
            Violation(
                INV_INCREMENTAL,
                "incremental engine diverged from full recomputation: "
                + _first_diff(outcome.signature, full.signature),
            )
        )


def _check_replay(
    spec: ScenarioSpec,
    outcome: loader.ScenarioOutcome,
    violations: List[Violation],
) -> None:
    replay = loader.run_scenario(spec)
    if replay.signature != outcome.signature:
        violations.append(
            Violation(
                INV_REPLAY,
                "second run of the same spec diverged: "
                + _first_diff(outcome.signature, replay.signature),
            )
        )


def _first_diff(a: str, b: str) -> str:
    """The first differing line between two signatures (for reports)."""
    for line_a, line_b in zip(a.splitlines(), b.splitlines()):
        if line_a != line_b:
            return f"{line_a!r} != {line_b!r}"
    la, lb = len(a.splitlines()), len(b.splitlines())
    if la != lb:
        return f"signature lengths differ ({la} vs {lb} lines)"
    return "signatures differ"
