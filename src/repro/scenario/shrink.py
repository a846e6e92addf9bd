"""Delta-debugging shrinker for failing scenario specs.

Given a spec that violates the invariant suite and a predicate that says
*which* invariants a candidate violates, shrink the spec to a minimal
reproducer while preserving at least one of the originally violated
invariants.  The passes run in a fixed order until a fixed point:

1. **connections** — ddmin over the explicit connection list;
2. **workload** — shrink the stochastic request budget toward 1, warmup
   toward 0;
3. **faults** — drop the fault plan, ddmin the scripted events, drop the
   stochastic processes / retry policy;
4. **topo** — replace a declarative structural topology with the plain
   reference mesh when the failure reproduces there too;
5. **topology** — fewer rings, fewer hosts per ring (candidates that
   orphan a referenced host are skipped; mesh-shaped specs only);
6. **packet** — shorter validation horizon;
7. **numbers** — round every float knob to the fewest significant digits
   that still reproduce the failure.

Everything is deterministic: the same failing spec and predicate always
shrink to the same minimal spec, in the same number of evaluations.
A candidate that *errors* (rather than fails) counts as not reproducing.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, FrozenSet, List, Sequence, Tuple, TypeVar

from repro.errors import ReproError
from repro.network.connection import ConnectionSpec
from repro.scenario.spec import ArrivalsSpec, ScenarioSpec

_T = TypeVar("_T")

#: ``failing(spec)`` returns the set of violated invariant names (empty =
#: the candidate passes, or could not be evaluated).
FailingPredicate = Callable[[ScenarioSpec], FrozenSet[str]]

#: Hosts built by :func:`repro.config.build_network` are ``host<i>-<j>``.
_HOST_RE = re.compile(r"^host(\d+)-(\d+)$")

#: Significant-digit ladders tried by the numeric pass, coarsest first.
_SIG_DIGITS = (1, 2, 3, 6)


@dataclasses.dataclass(frozen=True)
class ShrinkResult:
    """The minimal spec plus bookkeeping about how it was found."""

    spec: ScenarioSpec
    #: Invariants the minimal spec still violates.
    invariants: Tuple[str, ...]
    #: Candidate specs evaluated (predicate calls), including rejected ones.
    evaluations: int
    #: Full pass-loop iterations until the fixed point.
    iterations: int


class _Shrinker:
    def __init__(
        self, failing: FailingPredicate, preserve: FrozenSet[str]
    ) -> None:
        self._failing = failing
        self._preserve = preserve
        self.evaluations = 0

    def still_fails(self, candidate: ScenarioSpec) -> bool:
        self.evaluations += 1
        try:
            violated = self._failing(candidate)
        except ReproError:
            return False
        return bool(violated & self._preserve)

    # -- passes --------------------------------------------------------

    def pass_connections(self, spec: ScenarioSpec) -> ScenarioSpec:
        if not spec.connections:
            return spec
        def fails_with(entries: Sequence[ConnectionSpec]) -> bool:
            try:
                candidate = spec.with_connections(entries)
            except ReproError:
                return False
            return self.still_fails(candidate)

        kept = _ddmin(list(spec.connections), fails_with)
        if len(kept) != len(spec.connections):
            return spec.with_connections(kept)
        return spec

    def pass_workload(self, spec: ScenarioSpec) -> ScenarioSpec:
        arrivals = spec.arrivals
        if arrivals is None:
            return spec
        # Try dropping the stochastic workload outright (explicit-only).
        if spec.connections:
            candidate = dataclasses.replace(spec, arrivals=None, faults=None)
            if self.still_fails(candidate):
                return candidate
        spec = self._shrink_int(
            spec,
            arrivals.n_requests,
            low=1,
            apply=lambda s, v: _with_arrivals(s, n_requests=v, warmup_requests=min(_arrivals(s).warmup_requests, v)),
        )
        arrivals = _arrivals(spec)
        if arrivals.warmup_requests:
            candidate = _with_arrivals(spec, warmup_requests=0)
            if self.still_fails(candidate):
                spec = candidate
        return spec

    def pass_faults(self, spec: ScenarioSpec) -> ScenarioSpec:
        plan = spec.faults
        if plan is None:
            return spec
        candidate = dataclasses.replace(spec, faults=None)
        if self.still_fails(candidate):
            return candidate
        if plan.script:
            def fails_with(events: Sequence[object]) -> bool:
                new_plan = dataclasses.replace(
                    plan, script=tuple(events)  # type: ignore[arg-type]
                )
                return self.still_fails(
                    dataclasses.replace(spec, faults=new_plan)
                )

            kept = _ddmin(list(plan.script), fails_with)
            if len(kept) != len(plan.script):
                plan = dataclasses.replace(plan, script=tuple(kept))
                spec = dataclasses.replace(spec, faults=plan)
        if plan.config is not None:
            candidate = dataclasses.replace(
                spec, faults=dataclasses.replace(plan, config=None)
            )
            if self.still_fails(candidate):
                spec = candidate
                plan = dataclasses.replace(plan, config=None)
        if plan.retry is not None:
            candidate = dataclasses.replace(
                spec, faults=dataclasses.replace(plan, retry=None)
            )
            if self.still_fails(candidate):
                spec = candidate
        return spec

    def pass_topo(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Try replacing a declarative topology with the reference mesh.

        A failure that reproduces on the plain pairwise mesh (same ring
        count, from the scalar config) is a much simpler reproducer than
        any structural family.
        """
        if spec.topo is None:
            return spec
        candidate = dataclasses.replace(spec, topo=None)
        if self.still_fails(candidate):
            return candidate
        return spec

    def pass_topology(self, spec: ScenarioSpec) -> ScenarioSpec:
        if spec.topo is not None:
            # Shape is governed by the declarative spec, not the scalar
            # ring counters; shrinking those would be cosmetic.
            return spec
        min_rings, min_hosts = _referenced_floor(spec)
        topo = spec.topology
        for rings in range(max(2, min_rings), topo.n_rings):
            candidate = dataclasses.replace(
                spec,
                topology=dataclasses.replace(topo, n_rings=rings),
            )
            if self.still_fails(candidate):
                spec = candidate
                topo = spec.topology
                break
        for hosts in range(max(1, min_hosts), topo.hosts_per_ring):
            candidate = dataclasses.replace(
                spec,
                topology=dataclasses.replace(topo, hosts_per_ring=hosts),
            )
            if self.still_fails(candidate):
                spec = candidate
                break
        return spec

    def pass_packet(self, spec: ScenarioSpec) -> ScenarioSpec:
        for duration in (0.05, 0.1, 0.2):
            if duration >= spec.packet.duration:
                break
            candidate = dataclasses.replace(
                spec,
                packet=dataclasses.replace(spec.packet, duration=duration),
            )
            if self.still_fails(candidate):
                return candidate
        return spec

    def pass_numbers(self, spec: ScenarioSpec) -> ScenarioSpec:
        # Explicit connections: deadlines and traffic parameters.
        entries = list(spec.connections)
        for i, entry in enumerate(entries):
            new_deadline = self._shrink_float(
                spec,
                entry.deadline,
                lambda s, v, i=i: _with_entry(
                    s, i, dataclasses.replace(_entry(s, i), deadline=v)
                ),
            )
            spec = _with_entry(
                spec,
                i,
                dataclasses.replace(_entry(spec, i), deadline=new_deadline),
            )
            spec = self._shrink_traffic(spec, i)
        arrivals = spec.arrivals
        if arrivals is not None:
            for field in ("utilization", "mean_lifetime", "load_scale"):
                value = float(getattr(_arrivals(spec), field))
                new_value = self._shrink_float(
                    spec,
                    value,
                    lambda s, v, field=field: _with_arrivals(s, **{field: v}),
                )
                spec = _with_arrivals(spec, **{field: new_value})
        return spec

    # -- helpers -------------------------------------------------------

    def _shrink_traffic(self, spec: ScenarioSpec, index: int) -> ScenarioSpec:
        entry = _entry(spec, index)
        traffic = entry.traffic
        if not dataclasses.is_dataclass(traffic):
            return spec
        for f in dataclasses.fields(traffic):
            value = getattr(traffic, f.name)
            if not isinstance(value, float) or value in (0.0,):
                continue
            def apply(
                s: ScenarioSpec, v: float, name: str = f.name, i: int = index
            ) -> ScenarioSpec:
                t = _entry(s, i).traffic
                new_t = dataclasses.replace(t, **{name: v})
                return _with_entry(
                    s,
                    i,
                    dataclasses.replace(_entry(s, i), traffic=new_t),
                )

            new_value = self._shrink_float(spec, value, apply)
            spec = apply(spec, new_value)
        return spec

    def _shrink_float(
        self,
        spec: ScenarioSpec,
        value: float,
        apply: Callable[[ScenarioSpec, float], ScenarioSpec],
    ) -> float:
        """The coarsest significant-digit rounding that still fails."""
        for digits in _SIG_DIGITS:
            rounded = float(f"{value:.{digits}g}")
            if rounded == value:
                return value
            try:
                candidate = apply(spec, rounded)
            except ReproError:
                continue
            if self.still_fails(candidate):
                return rounded
        return value

    def _shrink_int(
        self,
        spec: ScenarioSpec,
        value: int,
        low: int,
        apply: Callable[[ScenarioSpec, int], ScenarioSpec],
    ) -> ScenarioSpec:
        """Binary-search the smallest value in [low, value] that fails."""
        best = spec
        lo, hi = low, value
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                candidate = apply(spec, mid)
            except ReproError:
                lo = mid + 1
                continue
            if self.still_fails(candidate):
                best = candidate
                hi = mid
            else:
                lo = mid + 1
        return best


def shrink_spec(
    spec: ScenarioSpec,
    failing: FailingPredicate,
    max_iterations: int = 6,
) -> ShrinkResult:
    """Shrink ``spec`` to a minimal reproducer of its violations.

    ``failing`` must return the violated invariant names for a candidate
    (empty when it passes).  Raises :class:`ValueError` if the input spec
    does not fail to begin with.
    """
    initial = frozenset(failing(spec))
    if not initial:
        raise ValueError("shrink_spec needs a spec that violates invariants")
    shrinker = _Shrinker(failing, initial)
    shrinker.evaluations += 1  # the initial classification above
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        before = spec
        spec = shrinker.pass_connections(spec)
        spec = shrinker.pass_workload(spec)
        spec = shrinker.pass_faults(spec)
        spec = shrinker.pass_topo(spec)
        spec = shrinker.pass_topology(spec)
        spec = shrinker.pass_packet(spec)
        spec = shrinker.pass_numbers(spec)
        if spec == before:
            break
    final = frozenset(failing(spec)) & initial
    return ShrinkResult(
        spec=spec,
        invariants=tuple(sorted(final)),
        evaluations=shrinker.evaluations,
        iterations=iterations,
    )


# ----------------------------------------------------------------------
# Small structural helpers (kept module-level for reuse in tests)
# ----------------------------------------------------------------------


def _arrivals(spec: ScenarioSpec) -> ArrivalsSpec:
    assert spec.arrivals is not None
    return spec.arrivals


def _with_arrivals(spec: ScenarioSpec, **changes: object) -> ScenarioSpec:
    return dataclasses.replace(
        spec, arrivals=dataclasses.replace(_arrivals(spec), **changes)
    )


def _entry(spec: ScenarioSpec, index: int) -> ConnectionSpec:
    return spec.connections[index]


def _with_entry(
    spec: ScenarioSpec, index: int, entry: ConnectionSpec
) -> ScenarioSpec:
    entries = list(spec.connections)
    entries[index] = entry
    return spec.with_connections(entries)


def _referenced_floor(spec: ScenarioSpec) -> Tuple[int, int]:
    """Smallest (n_rings, hosts_per_ring) the explicit hosts require."""
    max_ring = 0
    max_host = 0
    for entry in spec.connections:
        for host in (entry.source_host, entry.dest_host):
            match = _HOST_RE.match(host)
            if match is None:
                # Non-standard host naming: don't touch the topology.
                return spec.topology.n_rings, spec.topology.hosts_per_ring
            max_ring = max(max_ring, int(match.group(1)))
            max_host = max(max_host, int(match.group(2)))
    return max_ring, max_host


def _ddmin(
    items: List[_T], still_fails: Callable[[Sequence[_T]], bool]
) -> List[_T]:
    """Classic ddmin: a 1-minimal sublist that still fails."""
    if not items:
        return items
    if still_fails([]):
        return []
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), chunk):
            complement = items[:start] + items[start + chunk:]
            if complement and still_fails(complement):
                items = complement
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if chunk <= 1:
                break
            n = min(len(items), n * 2)
    if len(items) == 1 and still_fails([]):
        return []
    return items


