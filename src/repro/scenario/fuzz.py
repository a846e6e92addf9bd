"""Seeded scenario generation and the differential fuzzing driver.

:func:`generate_spec` maps one integer seed to one random-but-valid
:class:`~repro.scenario.spec.ScenarioSpec` — small topologies, mixed
traffic, optional explicit connections, optional fault schedules — fully
deterministically (the same seed always yields the same spec, so a corpus
is just a list of seeds plus the hashes they are expected to produce).

:func:`run_corpus` fans a batch of cases through the invariant suite
(:func:`repro.scenario.check.check_scenario`) via
:func:`repro.experiments.parallel.run_parallel`.  A violated case is
shrunk with :func:`repro.scenario.shrink.shrink_spec` to a minimal
reproducer, written to ``results/fuzz/`` as a one-file JSON spec, and
reported as a :class:`~repro.errors.ScenarioInvariantError` carrying the
spec hash, the seed and the reproducer path — never a bare assert.

:func:`check_reproducers` replays a committed directory of past minimal
reproducers (the regression corpus) and expects every one of them to pass
under production options.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.config import NetworkConfig
from repro.errors import ReproError, ScenarioInvariantError, ScenarioSpecError
from repro.faults.injector import FaultConfig, ScriptedFault
from repro.faults.retry import RetryPolicy
from repro.network.connection import ConnectionSpec
from repro.scenario import codec
from repro.scenario.check import CheckOptions, CheckReport, check_scenario
from repro.scenario.shrink import ShrinkResult, shrink_spec
from repro.scenario.spec import (
    AnalysisKnobs,
    ArrivalsSpec,
    FaultPlan,
    PacketRunSpec,
    ScenarioSpec,
)
from repro.topo import generators as topo_generators
from repro.topo.spec import TopologySpec
from repro.traffic.cbr import CBRTraffic
from repro.traffic.descriptor import TrafficDescriptor
from repro.traffic.dual_periodic import DualPeriodicTraffic
from repro.traffic.generators import WorkloadSpec
from repro.traffic.leaky_bucket import LeakyBucketTraffic
from repro.traffic.periodic import PeriodicTraffic

#: Default directory for minimal reproducers written by the driver.
DEFAULT_OUT_DIR = os.path.join("results", "fuzz")


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def _random_workload(rng: random.Random) -> WorkloadSpec:
    """A dual-periodic request distribution in the CAC's feasible regime."""
    p1 = rng.uniform(0.010, 0.020)
    p2 = p1 * rng.uniform(0.2, 0.4)
    outer_rate = rng.uniform(4e6, 10e6)  # bits/s long-term
    inner_factor = rng.uniform(1.0, 1.8)
    c1 = outer_rate * p1
    c2 = min(c1, outer_rate * inner_factor * p2)
    deadline_min = rng.uniform(0.030, 0.060)
    deadline_max = deadline_min + rng.uniform(0.020, 0.060)
    return WorkloadSpec(
        c1=c1,
        p1=p1,
        c2=c2,
        p2=p2,
        deadline_min=deadline_min,
        deadline_max=deadline_max,
        jitter=rng.choice([0.0, 0.1, 0.2]),
    )


def _random_traffic(rng: random.Random) -> TrafficDescriptor:
    """One random source model from the codec's closed registry."""
    kind = rng.randrange(4)
    if kind == 0:
        p1 = rng.uniform(0.010, 0.020)
        p2 = p1 * rng.uniform(0.2, 0.4)
        outer_rate = rng.uniform(4e6, 9e6)
        c1 = outer_rate * p1
        # Inner rate must be at least the outer rate (budget consumable).
        c2 = min(c1, outer_rate * rng.uniform(1.0, 1.8) * p2)
        return DualPeriodicTraffic(c1=c1, p1=p1, c2=c2, p2=p2)
    if kind == 1:
        return PeriodicTraffic(
            c=rng.uniform(3e6, 8e6) * 0.01, p=rng.uniform(0.008, 0.015)
        )
    if kind == 2:
        return LeakyBucketTraffic(
            sigma=rng.uniform(2e4, 2e5),
            rho=rng.uniform(2e6, 8e6),
            peak=rng.choice([float("inf"), 5e7, 1e8]),
        )
    return CBRTraffic(
        rate=rng.uniform(1e6, 6e6), packet_bits=rng.choice([0.0, 424.0, 8000.0])
    )


def _random_topo(
    rng: random.Random,
) -> Tuple[Optional[TopologySpec], int, int]:
    """Sample a structural family; returns (topo, n_rings, hosts_per_ring).

    ``None`` keeps the reference pairwise mesh built from the scalar
    config (the pre-topo behaviour); the other families exercise
    multi-hop routes and — for unidirectional switch rings — genuinely
    cyclic port interference (the fixed-point regime).  Every family's
    hosts follow the ``host<i>-<j>`` naming, so explicit connections are
    addressed identically everywhere.
    """
    hosts = rng.randint(2, 3)
    kind = rng.randrange(6)
    if kind == 0:
        # Reference mesh; the old 4-ring cap is lifted to 6 (15 backbone
        # links — the regime the n(n-1)/2 calibration fix matters for).
        return None, rng.randint(2, 6), hosts
    if kind == 1:
        n = rng.randint(2, 10)
        return topo_generators.line(n, hosts), n, hosts
    if kind == 2:
        n = rng.randint(3, 10)
        return (
            topo_generators.ring_of_switches(
                n, hosts, unidirectional=rng.random() < 0.5
            ),
            n,
            hosts,
        )
    if kind == 3:
        n = rng.randint(2, 8)
        return topo_generators.star(n, hosts), n, hosts
    if kind == 4:
        n = rng.randint(4, 10)
        return (
            topo_generators.partial_mesh(
                n, hosts, chord_stride=rng.randint(2, 4)
            ),
            n,
            hosts,
        )
    n_switches = rng.randint(1, 4)
    rings_per_switch = rng.randint(2, 3)
    return (
        topo_generators.multi_ring_per_switch(
            n_switches, rings_per_switch, hosts
        ),
        n_switches * rings_per_switch,
        hosts,
    )


def _random_connections(
    rng: random.Random, n_rings: int, hosts_per_ring: int
) -> Tuple[ConnectionSpec, ...]:
    """0-4 explicit cross-ring connections on distinct source hosts."""
    n = rng.randint(1, 4)
    entries: List[ConnectionSpec] = []
    used_sources = set()
    for k in range(n):
        src_ring = rng.randint(1, n_rings)
        dst_ring = rng.choice(
            [r for r in range(1, n_rings + 1) if r != src_ring]
        )
        source = f"host{src_ring}-{rng.randint(1, hosts_per_ring)}"
        if source in used_sources:
            continue
        used_sources.add(source)
        dest = f"host{dst_ring}-{rng.randint(1, hosts_per_ring)}"
        entries.append(
            ConnectionSpec(
                conn_id=f"fz-{k}",
                source_host=source,
                dest_host=dest,
                traffic=_random_traffic(rng),
                deadline=rng.uniform(0.030, 0.120),
            )
        )
    return tuple(entries)


def _random_faults(
    rng: random.Random, arrivals: ArrivalsSpec, topology: NetworkConfig
) -> FaultPlan:
    """A fault plan whose event times land inside the expected run."""
    # Expected simulated duration: n_requests Poisson arrivals at the rate
    # the utilization knob implies on this topology.
    rate = arrivals.simulation_config().arrival_rate_for_utilization(
        arrivals.utilization, topology
    )
    horizon = arrivals.n_requests / rate
    script: List[ScriptedFault] = []
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(1, topology.n_rings)
        j = rng.choice([s for s in range(1, topology.n_rings + 1) if s != i])
        link = (f"s{min(i, j)}", f"s{max(i, j)}")
        t_fail = rng.uniform(0.05, 0.6) * horizon
        t_repair = t_fail + rng.uniform(0.05, 0.3) * horizon
        script.append(ScriptedFault(time=t_fail, action="fail", target=link))
        script.append(
            ScriptedFault(time=t_repair, action="repair", target=link)
        )
    config: Optional[FaultConfig] = None
    if rng.random() < 0.5 or not script:
        config = FaultConfig(
            link_mtbf=rng.uniform(0.5, 2.0) * horizon,
            link_mttr=rng.uniform(0.02, 0.15) * horizon,
        )
    retry: Optional[RetryPolicy] = None
    if rng.random() < 0.5:
        retry = RetryPolicy(
            base_delay=rng.uniform(0.005, 0.05) * horizon,
            factor=2.0,
            max_delay=rng.uniform(0.1, 0.3) * horizon,
            max_attempts=rng.randint(2, 8),
            jitter=rng.choice([0.0, 0.1]),
        )
    return FaultPlan(config=config, script=tuple(script), retry=retry)


def generate_spec(seed: int, name: Optional[str] = None) -> ScenarioSpec:
    """The deterministic spec for one fuzz seed.

    Every draw flows through one ``random.Random(seed)``, so the mapping
    seed -> spec is stable across runs and machines; the corpus manifest
    records the expected content hash per seed to catch generator or codec
    drift.
    """
    rng = random.Random(seed)
    topo, n_rings, hosts_per_ring = _random_topo(rng)
    topology = NetworkConfig(
        n_rings=n_rings,
        hosts_per_ring=hosts_per_ring,
        ttrt=rng.choice([0.004, 0.008, 0.016]),
    )
    knobs = AnalysisKnobs(
        beta=rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]),
        incremental=rng.random() < 0.9,
    )
    # The draw of the deleted coarsening knob: consumed so that every
    # later field of every seed's spec stays as it was.
    rng.choice([None, None, None, 16, 32, 64])
    want_arrivals = rng.random() < 0.8
    want_explicit = rng.random() < 0.4
    if not want_arrivals and not want_explicit:
        want_arrivals = True

    arrivals: Optional[ArrivalsSpec] = None
    if want_arrivals:
        n_requests = rng.randint(8, 40)
        arrivals = ArrivalsSpec(
            utilization=rng.uniform(0.05, 0.5),
            seed=rng.randint(1, 10**6),
            n_requests=n_requests,
            warmup_requests=rng.randint(0, n_requests // 4),
            workload=_random_workload(rng),
            mean_lifetime=rng.choice([300.0, 600.0, 1200.0]),
            load_scale=rng.choice([1.0, 1.0, 0.15]),
            count_host_blocked=rng.random() < 0.2,
        )

    connections: Tuple[ConnectionSpec, ...] = ()
    if want_explicit:
        connections = _random_connections(rng, n_rings, hosts_per_ring)
        if not connections and arrivals is None:
            # All candidate sources collided: fall back to a workload.
            arrivals = ArrivalsSpec(utilization=0.2, n_requests=10)

    faults: Optional[FaultPlan] = None
    if (
        topo is None
        and arrivals is not None
        and not connections
        and rng.random() < 0.35
    ):
        # Fault scripts name the reference mesh's pairwise links; the
        # structural families keep their fault coverage via the mesh arm.
        plan = _random_faults(rng, arrivals, topology)
        if plan.any_enabled:
            faults = plan

    packet = PacketRunSpec(
        duration=rng.choice([0.1, 0.2, 0.3]),
        adversarial_phase=rng.random() < 0.3,
    )
    return ScenarioSpec(
        name=name or f"fuzz-{seed}",
        topology=topology,
        topo=topo,
        cac=knobs,
        arrivals=arrivals,
        connections=connections,
        faults=faults,
        packet=packet,
    )


# ----------------------------------------------------------------------
# Corpus driving
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FuzzCase:
    """One corpus entry: a seed and (optionally) its expected spec hash."""

    seed: int
    expected_hash: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class CaseOutcome:
    """The invariant suite's verdict on one fuzz case."""

    seed: int
    spec_hash: str
    report: CheckReport
    #: Set when the regenerated spec's hash no longer matches the manifest
    #: (generator or codec drift — the corpus must be regenerated).
    hash_mismatch: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.report.ok and self.hash_mismatch is None


@dataclasses.dataclass(frozen=True)
class FuzzFailure:
    """One shrunk violation, ready to be raised or summarized."""

    seed: int
    spec_hash: str
    invariants: Tuple[str, ...]
    reproducer_path: str
    shrink: ShrinkResult

    def to_error(self) -> ScenarioInvariantError:
        return ScenarioInvariantError(
            "fuzzed scenario violated the invariant suite",
            invariants=self.invariants,
            spec_hash=self.spec_hash,
            seed=self.seed,
            reproducer_path=self.reproducer_path,
        )


@dataclasses.dataclass(frozen=True)
class FuzzSummary:
    """Outcome of one corpus run."""

    outcomes: Tuple[CaseOutcome, ...]
    failures: Tuple[FuzzFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and all(o.ok for o in self.outcomes)

    @property
    def n_cases(self) -> int:
        return len(self.outcomes)

    def raise_first(self) -> None:
        """Raise the first failure as a :class:`ScenarioInvariantError`."""
        for outcome in self.outcomes:
            if outcome.hash_mismatch is not None:
                raise ScenarioInvariantError(
                    outcome.hash_mismatch,
                    spec_hash=outcome.spec_hash,
                    seed=outcome.seed,
                )
        if self.failures:
            raise self.failures[0].to_error()


def _check_case(item: Tuple[FuzzCase, CheckOptions]) -> CaseOutcome:
    """Worker entry point (module-level so the pool can pickle it)."""
    case, options = item
    spec = generate_spec(case.seed)
    spec_hash = codec.spec_hash(spec)
    mismatch: Optional[str] = None
    if case.expected_hash is not None and case.expected_hash != spec_hash:
        mismatch = (
            f"seed {case.seed}: generated spec hash {spec_hash[:12]} != "
            f"manifest hash {case.expected_hash[:12]} (generator/codec "
            "drift; regenerate the corpus manifest)"
        )
    report = check_scenario(spec, options)
    return CaseOutcome(
        seed=case.seed,
        spec_hash=spec_hash,
        report=report,
        hash_mismatch=mismatch,
    )


_Predicate = Callable[[ScenarioSpec], FrozenSet[str]]


def _failing_predicate(options: CheckOptions) -> _Predicate:
    def failing(candidate: ScenarioSpec) -> FrozenSet[str]:
        try:
            report = check_scenario(candidate, options)
        except ReproError:
            return frozenset()
        return frozenset(report.violated_invariants)

    return failing


def investigate_failure(
    seed: int,
    options: CheckOptions,
    out_dir: str = DEFAULT_OUT_DIR,
) -> FuzzFailure:
    """Shrink a failing seed to a minimal reproducer and write it to disk.

    The reproducer file is a complete one-file spec; replay it with
    ``python -m repro scenario replay <file>``.
    """
    spec = generate_spec(seed)
    shrunk = shrink_spec(spec, _failing_predicate(options))
    minimal = dataclasses.replace(shrunk.spec, name=f"min-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"min-{seed}.json")
    codec.save_file(minimal, path)
    return FuzzFailure(
        seed=seed,
        spec_hash=codec.spec_hash(spec),
        invariants=shrunk.invariants,
        reproducer_path=path,
        shrink=shrunk,
    )


def run_corpus(
    cases: Sequence[FuzzCase],
    options: Optional[CheckOptions] = None,
    jobs: int = 1,
    out_dir: str = DEFAULT_OUT_DIR,
) -> FuzzSummary:
    """Run every case through the invariant suite; shrink what fails.

    Violations do not abort the sweep — every case runs, every failing
    case is shrunk, and the summary carries them all (call
    :meth:`FuzzSummary.raise_first` to turn the first into an exception).
    """
    # Imported here, not at module top: the experiments package builds its
    # sweep specs from this package, so the dependency must stay one-way
    # at import time.
    from repro.experiments.parallel import run_parallel

    opts = options or CheckOptions()
    outcomes = run_parallel(
        _check_case,
        [(case, opts) for case in cases],
        jobs=jobs,
        describe=lambda item: f"seed={item[0].seed}",
    )
    failures: List[FuzzFailure] = []
    for outcome in outcomes:
        if not outcome.report.ok:
            failures.append(
                investigate_failure(outcome.seed, opts, out_dir=out_dir)
            )
    return FuzzSummary(outcomes=tuple(outcomes), failures=tuple(failures))


def seeds_to_cases(seeds: Sequence[int]) -> List[FuzzCase]:
    return [FuzzCase(seed=s) for s in seeds]


# ----------------------------------------------------------------------
# Regression corpus (committed reproducers and the seed manifest)
# ----------------------------------------------------------------------


def write_manifest(path: str, seeds: Sequence[int]) -> List[FuzzCase]:
    """Write the corpus manifest: every seed with its expected spec hash."""
    cases = [
        FuzzCase(seed=s, expected_hash=codec.spec_hash(generate_spec(s)))
        for s in seeds
    ]
    payload = {
        "format": 1,
        "cases": [
            {"seed": c.seed, "hash": c.expected_hash} for c in cases
        ],
    }
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return cases


def load_manifest(path: str) -> List[FuzzCase]:
    """Load a corpus manifest written by :func:`write_manifest`."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != 1:
        raise ScenarioSpecError(f"{path}: not a format-1 corpus manifest")
    cases: List[FuzzCase] = []
    for entry in payload.get("cases", []):
        cases.append(
            FuzzCase(seed=int(entry["seed"]), expected_hash=entry["hash"])
        )
    return cases


def check_reproducers(
    directory: str, options: Optional[CheckOptions] = None
) -> Dict[str, CheckReport]:
    """Replay every ``*.json`` reproducer in ``directory``.

    Past minimal reproducers are committed as regression guards: once the
    underlying bug is fixed (or the violation was planted by a test-only
    knob), they must pass under production options forever after.
    """
    opts = options or CheckOptions()
    reports: Dict[str, CheckReport] = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(directory, entry)
        spec = codec.load_file(path)
        reports[path] = check_scenario(spec, opts)
    return reports
