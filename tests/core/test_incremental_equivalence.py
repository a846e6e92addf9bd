"""The incremental engine must be observationally identical to full
recomputation — bit-for-bit, not approximately.

A randomized admit/release/fault workload is driven through two admission
controllers that differ only in ``CACConfig.incremental``; every
externally visible number (decisions, delay bounds, probe counts, refresh
results, AP counters, the allocation audit) must match exactly.

The same holds on a standing 8-ring population, whose pinned decision
trajectory (``repr``-exact bounds and allocations, probe counts) is the
CAC's golden test: any numerical drift on the admission path fails it.

Also home to the :class:`repro.core.LRUCache` unit tests, including the
regression for the old clear-at-limit behavior (which threw the whole
working set away at 20k entries and tanked the hit rate mid-sweep).
"""

import random

import pytest

from repro.config import CACConfig, NetworkConfig, build_network
from repro.core import AdmissionController, LRUCache
from repro.core.delay import ConnectionLoad, DelayAnalyzer
from repro.network.connection import ConnectionSpec
from repro.traffic import DualPeriodicTraffic

TRAFFIC = DualPeriodicTraffic(c1=240_000.0, p1=0.030, c2=80_000.0, p2=0.005)
BURSTY = DualPeriodicTraffic(c1=120_000.0, p1=0.015, c2=60_000.0, p2=0.005)

HOSTS = [f"host{r}-{h}" for r in (1, 2, 3) for h in (1, 2, 3, 4)]

#: Light per-connection load, so each ring holds a standing population.
STANDING = DualPeriodicTraffic(c1=60_000.0, p1=0.015, c2=30_000.0, p2=0.005)


def standing_controller(incremental: bool) -> AdmissionController:
    """8 rings with seven connections on each ring pair (1,2), (3,4), ...

    Each pair is one interference component, so a request on one pair
    leaves the other three clean for the incremental engine.
    """
    cac = AdmissionController(
        build_network(NetworkConfig(n_rings=8)),
        cac_config=CACConfig(beta=0.5, incremental=incremental),
    )
    k = 0
    for a in range(1, 8, 2):
        for j in range(7):
            src, dst = f"host{a}-{(j % 4) + 1}", f"host{a + 1}-{((j + 1) % 4) + 1}"
            assert cac.request(ConnectionSpec(f"bg{k}", src, dst, STANDING, 0.09)).admitted
            k += 1
    return cac


def run_sequence(incremental: bool, seed: int, steps: int = 36) -> list:
    """Drive one controller with a seeded workload; return the full trace."""
    rng = random.Random(seed)
    cac = AdmissionController(
        build_network(),
        cac_config=CACConfig(beta=0.5, incremental=incremental),
    )
    trace = []
    active = []
    for step in range(steps):
        op = rng.random()
        if op < 0.55 or not active:
            cid = f"c{step}"
            src, dst = rng.sample(HOSTS, 2)
            deadline = rng.choice([0.07, 0.10, 0.15])
            traffic = TRAFFIC if rng.random() < 0.7 else BURSTY
            try:
                res = cac.request(ConnectionSpec(cid, src, dst, traffic, deadline))
            except Exception as exc:
                trace.append(("raise", cid, type(exc).__name__))
                continue
            trace.append(
                (
                    "req",
                    cid,
                    res.admitted,
                    res.delay_bound,
                    res.h_min_need,
                    res.h_max_need,
                    res.n_probes,
                )
            )
            if res.admitted:
                active.append(cid)
        elif op < 0.85:
            cid = active.pop(rng.randrange(len(active)))
            cac.release(cid)
            trace.append(
                (
                    "rel",
                    cid,
                    tuple(
                        sorted(
                            (c, r.delay_bound) for c, r in cac.connections.items()
                        )
                    ),
                )
            )
        elif op < 0.93:
            cac.topology.fail_link("s1", "s2")
            trace.append(("fail", "s1", "s2"))
        else:
            cac.topology.restore_link("s1", "s2")
            trace.append(("restore", "s1", "s2"))
    trace.append(
        (
            "final",
            cac.n_requests,
            cac.n_admitted,
            tuple(sorted(cac.audit_allocations().items())),
            tuple(sorted((c, r.delay_bound) for c, r in cac.connections.items())),
        )
    )
    return trace


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_random_sequences_bit_identical(self, seed):
        full = run_sequence(incremental=False, seed=seed)
        incr = run_sequence(incremental=True, seed=seed)
        assert len(full) == len(incr)
        for step_full, step_incr in zip(full, incr):
            assert step_full == step_incr  # exact — including float bounds

    def test_probe_rounds_on_standing_population_bit_identical(self):
        """Admit and release one probe ten times: full recomputation
        re-analyzes all four components per probe, the incremental engine
        only the dirty one."""
        trails = []
        for incremental in (False, True):
            cac = standing_controller(incremental)
            trail = []
            for r in range(10):
                spec = ConnectionSpec(f"probe-{r}", "host1-2", "host2-3", STANDING, 0.09)
                res = cac.request(spec)
                if res.admitted:
                    cac.release(spec.conn_id)
                # The standing bounds too: the incremental engine reuses
                # the clean components' reports instead of recomputing them.
                bounds = sorted((c, rec.delay_bound) for c, rec in cac.connections.items())
                trail.append((res.admitted, res.delay_bound, res.h_min_need, res.n_probes, bounds))
            trails.append(trail)
        assert trails[0] == trails[1]

    def test_engine_actually_reuses_components(self):
        """The equivalence above must not hold vacuously (all-full)."""
        cac = AdmissionController(
            build_network(), cac_config=CACConfig(beta=0.5, incremental=True)
        )
        # Two disjoint interference components: ring1<->ring2 traffic and a
        # ring3-local connection.
        assert cac.request(
            ConnectionSpec("ab", "host1-1", "host2-1", TRAFFIC, 0.15)
        ).admitted
        assert cac.request(
            ConnectionSpec("cc", "host3-1", "host3-2", TRAFFIC, 0.15)
        ).admitted
        assert cac.request(
            ConnectionSpec("ab2", "host1-2", "host2-2", TRAFFIC, 0.15)
        ).admitted
        stats = cac.engine.stats()
        assert stats["loads_reused"] > 0
        assert stats["partial_computations"] > 0


def _exact(report):
    """Every field of a DelayReport, floats and curves bit-for-bit."""
    out = report.output
    return (
        report.conn_id,
        repr(report.total_delay),
        repr(report.per_hop),
        repr(report.per_hop_backlog),
        out.xs.tobytes(),
        out.ys.tobytes(),
        out.slopes.tobytes(),
    )


def _assert_loads_in_step(cac):
    """The controller's in-place loads are the loads its records describe,
    and evaluating them equals a fresh full analysis of those records."""
    rebuilt = [
        ConnectionLoad(rec.spec, rec.route, rec.h_source, rec.h_dest)
        for rec in cac.connections.values()
    ]
    assert cac._loads_with(None) == rebuilt  # same order, same fields
    fresh = DelayAnalyzer(
        cac.topology, cac.network_config, cac.analyzer.analysis
    ).compute(rebuilt)
    got = cac.evaluate(None)
    assert {c: _exact(r) for c, r in got.items()} == {
        c: _exact(r) for c, r in fresh.items()
    }


def test_in_place_loads_follow_every_mutation():
    """Admit, release and restore each keep the controller's loads equal
    to a rebuild from its records."""
    cac = AdmissionController(
        build_network(), cac_config=CACConfig(beta=0.5, incremental=True)
    )
    specs = [
        ConnectionSpec(f"m{k}", src, dst, STANDING, 0.09)
        for k, (src, dst) in enumerate(
            [("host1-1", "host2-1"), ("host1-2", "host2-2"),
             ("host3-1", "host3-2"), ("host2-3", "host1-3")]
        )
    ]
    for spec in specs:
        assert cac.request(spec).admitted
        _assert_loads_in_step(cac)
    # Releasing from the middle must keep the survivors' order.
    released = cac.release("m1")
    _assert_loads_in_step(cac)
    cac.restore(
        released.spec, released.h_source, released.h_dest, route=released.route
    )
    assert list(cac.connections)[-1] == "m1"
    _assert_loads_in_step(cac)
    assert cac.request(ConnectionSpec("m4", "host3-3", "host1-4", STANDING, 0.15)).admitted
    cac.release("m0")
    _assert_loads_in_step(cac)


#: Admit/release script over the standing population.
TRAJECTORY = (
    ("admit", "tr-1", "host1-2", "host2-3", 0.09),
    ("admit", "tr-2", "host3-1", "host4-2", 0.09),
    # Sub-2-TTRT deadline: hopeless, rejected before delay analysis.
    ("admit", "tr-hopeless", "host1-2", "host2-3", 0.012),
    ("release", "tr-1"),
    ("admit", "tr-3", "host5-4", "host6-1", 0.09),
    ("admit", "tr-4", "host1-2", "host2-3", 0.09),
    ("release", "tr-2"),
    ("release", "tr-3"),
    ("release", "tr-4"),
)
#: Each admit's outcome: (conn_id, admitted, repr(delay_bound),
#: repr(h_min_need), n_probes).
PINNED_DECISIONS = [
    ("tr-1", True, "0.082934987654321",
     ("0.0004522992273117744", "0.0004522992273117744"), 17),
    ("tr-2", True, "0.082934987654321",
     ("0.0004522992273117744", "0.0004522992273117744"), 17),
    ("tr-hopeless", False, None, None, 0),
    ("tr-3", True, "0.082934987654321",
     ("0.0004522992273117744", "0.0004522992273117744"), 17),
    ("tr-4", True, "0.082934987654321",
     ("0.0004522992273117744", "0.0004522992273117744"), 17),
]


def test_decision_trajectory_is_pinned():
    cac = standing_controller(incremental=True)
    decisions = []
    for step in TRAJECTORY:
        if step[0] == "release":
            cac.release(step[1])
            continue
        _, cid, src, dst, deadline = step
        res = cac.request(ConnectionSpec(cid, src, dst, STANDING, deadline))
        decisions.append(
            (
                cid,
                res.admitted,
                None if res.delay_bound is None else repr(res.delay_bound),
                None if res.h_min_need is None else tuple(map(repr, res.h_min_need)),
                res.n_probes,
            )
        )
    assert decisions == PINNED_DECISIONS


class TestLRUCache:
    def test_basic_get_put_and_eviction_order(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refreshes "a"
        c.put("c", 3)  # evicts "b", the least recently used
        assert c.get("b") is None
        assert c.get("a") == 1
        assert c.get("c") == 3
        assert c.stats()["evictions"] == 1

    def test_put_existing_refreshes(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)
        c.put("c", 3)  # "b" is now the oldest
        assert c.get("a") == 10
        assert c.get("b") is None

    def test_hit_rate_survives_the_limit(self):
        """Regression: the old clear-at-limit cache dropped *everything*
        at the threshold, so a working set one entry over the limit hit 0%
        after the clear.  The LRU keeps the hot entries resident."""
        c = LRUCache(100)
        for i in range(100):
            c.put(i, i)
        # Stream 10x more insertions than capacity while re-touching a
        # small hot set: the hot keys must keep hitting throughout.
        for i in range(1000):
            for hot in range(10):
                assert c.get(hot) == hot
            c.put(f"cold-{i}", i)
        assert c.hit_rate > 0.9

    def test_stats_shape(self):
        c = LRUCache(4)
        c.put("x", 1)
        c.get("x")
        c.get("missing")
        s = c.stats()
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["size"] == 1 and s["maxsize"] == 4
        assert 0.0 <= c.hit_rate <= 1.0
