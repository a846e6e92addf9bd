"""Theorem-1 plans: a warm plan cache must give what a cold run gives.

The probes of one admission decision rerun Theorem 1 on one arrival with
different allocations ``H``, and :class:`repro.envelopes.operations.PlanCache`
hands them the grid and deconvolution plans an earlier probe built.  Every
analysis with a shared cache must match a server without one bit for bit:
delay, backlog, busy interval and the output's ``xs``/``ys``/``slopes``,
and on the error paths the same exception with the same message.  Covered:
the FDDI and 802.5 MAC servers, a ``max_steps`` that lands the busy
interval in the affine tail, and a coarsened staircase.
"""

import hashlib
import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CACConfig, build_network
from repro.core import AdmissionController
from repro.envelopes.curve import Curve
from repro.envelopes.operations import PLAN_CACHE_SIZE, PlanCache, deconvolve
from repro.envelopes.staircase import periodic_burst_staircase
from repro.errors import BufferOverflowError, UnstableSystemError
from repro.fddi.mac_server import FDDIMacServer
from repro.fddi.token_ring_802_5 import TokenRing8025MacServer
from repro.network.connection import ConnectionSpec
from repro.traffic import DualPeriodicTraffic
from tests.envelopes.test_deconvolve_staircase import (
    BANDWIDTH,
    PERIOD,
    PINS,
    SYNC,
    TTRT,
)

#: Allocations (seconds per rotation) the sequences draw from: from
#: overloaded (an unstable error) to ample, so the busy interval spans
#: from a few rotations to the staircase's later horizons.
ALLOCATIONS = (0.0, 0.0009, 0.0016, 0.002, 0.0025, 0.003, 0.0045, 0.006)

SERVERS = {
    "fddi": lambda h, plans, buf: FDDIMacServer(
        h, TTRT, BANDWIDTH, buffer_bits=buf, plans=plans
    ),
    "fddi-affine-tail": lambda h, plans, buf: FDDIMacServer(
        h, TTRT, BANDWIDTH, buffer_bits=buf, max_steps=8, plans=plans
    ),
    "fddi-segments16": lambda h, plans, buf: FDDIMacServer(
        h, TTRT, BANDWIDTH, buffer_bits=buf, service_segments=16, plans=plans
    ),
    "802.5": lambda h, plans, buf: TokenRing8025MacServer(
        h, TTRT, BANDWIDTH, buffer_bits=buf, plans=plans
    ),
}


@st.composite
def arrivals(draw):
    """Periodic sources (bursts or ramps), sometimes with a second,
    offset source on top, as the aggregate a MAC queue sees."""
    burst = draw(st.floats(2e4, 3e5))
    period = draw(st.sampled_from([PERIOD, 0.006, 0.013]))
    periods = draw(st.integers(4, 48))
    peak = draw(st.sampled_from([math.inf, 5e7, 1e8]))
    curve = periodic_burst_staircase(burst, period, periods, peak_rate=peak)
    if draw(st.booleans()):
        other = periodic_burst_staircase(
            draw(st.floats(1e4, 1e5)), 0.005, draw(st.integers(4, 32))
        )
        curve = curve + other
    return curve


def _outcome(server, arrival):
    """Everything an analysis returns, as bytes, or the error it raises."""
    try:
        result = server.analyze(arrival)
    except (UnstableSystemError, BufferOverflowError) as exc:
        return (type(exc).__name__, str(exc))
    out = result.output
    return (
        repr(result.delay_bound),
        repr(result.backlog_bound),
        repr(result.busy_interval),
        out.xs.tobytes(),
        out.ys.tobytes(),
        out.slopes.tobytes(),
    )


@given(
    arrival=arrivals(),
    kind=st.sampled_from(sorted(SERVERS)),
    allocations=st.lists(st.sampled_from(ALLOCATIONS), min_size=2, max_size=8),
    buffer_bits=st.sampled_from([math.inf, 6e5]),
)
@settings(max_examples=60, deadline=None)
def test_warm_plans_match_a_cold_run(arrival, kind, allocations, buffer_bits):
    make = SERVERS[kind]
    plans = PlanCache()
    for h in allocations:
        warm = _outcome(make(h, plans, buffer_bits), arrival)
        cold = _outcome(make(h, None, buffer_bits), arrival)
        assert warm == cold


def test_repeated_allocations_hit_the_plans():
    # An allocation repeated after others reuses both plans: the same
    # arrival, staircase breakpoints and busy interval.
    arrival = periodic_burst_staircase(2.36e5, PERIOD, 64, peak_rate=math.inf)
    plans = PlanCache()
    for h in (SYNC, 0.003, SYNC):
        warm = _outcome(FDDIMacServer(h, TTRT, BANDWIDTH, plans=plans), arrival)
        assert warm == _outcome(FDDIMacServer(h, TTRT, BANDWIDTH), arrival)
    stats = plans.stats()
    assert stats["hits"] >= 2
    assert stats["size"] <= 2 * PLAN_CACHE_SIZE


def test_plans_key_on_flat_segments_as_well_as_breakpoints():
    # Same breakpoints, one flat and one sloped middle segment: the
    # second service must not reuse the first one's per-span reduction.
    arrival = periodic_burst_staircase(1.5, 0.7, 4, peak_rate=math.inf)
    flat = Curve([0.0, 2.0, 4.0], [0.0, 2.5, 8.5], [0.0, 0.0, 2.0])
    sloped = Curve([0.0, 2.0, 4.0], [0.0, 2.5, 8.5], [0.0, 3.0, 2.0])
    plans = PlanCache()
    for service in (flat, sloped, flat):
        warm = deconvolve(arrival, service, 3.0, plans=plans)
        cold = deconvolve(arrival, service, 3.0)
        assert _bytes(warm) == _bytes(cold)
    assert plans.stats()["hits"] == 1


def _bytes(curve: Curve):
    return (curve.xs.tobytes(), curve.ys.tobytes(), curve.slopes.tobytes())


def _digest(curve: Curve) -> str:
    text = repr((curve.xs.tolist(), curve.ys.tolist(), curve.slopes.tolist()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_pinned_outputs_cold_then_warm():
    plans = PlanCache()
    for case in sorted(PINS):
        burst, periods, peak, options, _, n_out, digest = PINS[case]
        arrival = periodic_burst_staircase(burst, PERIOD, periods, peak_rate=peak)
        server = FDDIMacServer(SYNC, TTRT, BANDWIDTH, plans=plans, **options)
        for _ in ("cold", "warm"):
            out = server.analyze(arrival).output
            assert len(out.xs) == n_out, case
            assert _digest(out) == digest, case
    assert plans.stats()["hits"] >= 2 * len(PINS)


def test_thinned_plan_stays_within_memory_budget():
    # ~1,900 rotations: the grid is thinned and the plan's matrices are
    # over budget, so each apply rebuilds them chunk by chunk.
    _, periods, _, _, _, _, digest = PINS["thinned-k1872"]
    arrival = periodic_burst_staircase(2.497e5, PERIOD, periods, peak_rate=math.inf)
    server = FDDIMacServer(SYNC, TTRT, BANDWIDTH, plans=PlanCache())
    tracemalloc.start()
    try:
        outputs = [server.analyze(arrival).output for _ in range(2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert [_digest(out) for out in outputs] == [digest, digest]


def test_min_need_search_registers_plan_hits():
    topo = build_network()
    cac = AdmissionController(topo, cac_config=CACConfig(beta=0.0))
    traffic = DualPeriodicTraffic(c1=240_000.0, p1=0.030, c2=80_000.0, p2=0.005)
    result = cac.request(ConnectionSpec("c1", "host1-1", "host2-1", traffic, 0.15))
    assert result.admitted
    stats = cac.analyzer.cache_stats()["plan"]
    assert stats["hits"] > 0
    assert stats["misses"] > 0
    assert stats["size"] <= 2 * PLAN_CACHE_SIZE
