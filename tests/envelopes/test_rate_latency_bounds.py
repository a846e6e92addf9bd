"""The rate-latency port kernel equals the generic FIFO path bit for bit.

:func:`repro.envelopes.operations.rate_latency_bounds` is the output
port's busy interval, backlog and delay against ``R * (t - T)+``.  Each
float must be the one ``FifoBounds`` and ``horizontal_deviation`` give
against ``Curve.rate_latency(R, T)``, compared by ``float.hex``.  Covered:
``T = 0``, ``T`` on an arrival breakpoint and past several of them, jumps
and ramps, Theorem-1 output envelopes, coarsened aggregates, breakpoints
closer than the delay's 1 ns nudge, a first breakpoint a hair off 0, a
final slope equal to and above ``R``, and, through the port, a buffer
overflow with the generic path's exception and message.

:func:`repro.envelopes.curve.sum_curves` reads each member's value and
slope from one segment lookup; it is checked against the two-lookup sum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.atm.link import AtmLink
from repro.atm.output_port import OutputPortServer
from repro.envelopes.curve import Curve, _slopes_at, sum_curves
from repro.envelopes.operations import (
    FifoBounds,
    horizontal_deviation,
    rate_latency_bounds,
)
from repro.envelopes.staircase import periodic_burst_staircase
from repro.errors import BufferOverflowError, UnstableSystemError
from repro.fddi.mac_server import FDDIMacServer

INF = math.inf
OC3 = AtmLink("l", 155.52e6)


def _generic(arrival, rate, latency):
    """The port's bounds through the generic grid path."""
    service = Curve.rate_latency(rate, latency)
    bounds = FifoBounds(arrival, service)
    if math.isinf(bounds.busy):
        return bounds.busy, INF, INF
    delay = horizontal_deviation(arrival, service, t_max=bounds.busy)
    return bounds.busy, bounds.backlog(), delay


def _hex(values):
    return tuple(float(v).hex() for v in values)


def _assert_same(arrival, rate, latency):
    kernel = rate_latency_bounds(arrival, rate, latency)
    assert _hex(kernel) == _hex(_generic(arrival, rate, latency))
    return kernel


def _mac_output(burst, period, periods, peak=INF):
    arrival = periodic_burst_staircase(burst, period, periods, peak_rate=peak)
    return FDDIMacServer(0.002, 0.008, 100e6).analyze(arrival).output


def _rate_for(arrival, load):
    """A service rate at which ``arrival`` loads the port to ``load``
    (its final slope, or its mean rate to the last breakpoint if higher)."""
    x = arrival.last_breakpoint
    mean = arrival(x) / x if x > 0 else 0.0
    return max(arrival.final_slope, mean) / load


# -- named cases -------------------------------------------------------


def _jumps():
    return periodic_burst_staircase(1e5, 0.01, 16) + periodic_burst_staircase(
        2e5, 0.02, 8
    )


def _ramps():
    return sum_curves(
        [
            periodic_burst_staircase(1.2e5, 0.01, 16, peak_rate=1e8),
            periodic_burst_staircase(8e4, 0.005, 32, peak_rate=5e7),
            Curve.affine(4e4, 2e6),
        ]
    )


def _mac_outputs():
    return sum_curves(
        [
            _mac_output(1e5, 0.01, 64),
            _mac_output(1.6e5, 0.01, 64),
            _mac_output(1.2e5, 0.01, 64, peak=1e8),
        ]
    )


CASES = {
    "jumps": _jumps,
    "ramps": _ramps,
    "mac-outputs": _mac_outputs,
    "coarsened": lambda: _mac_outputs().coarsen(24),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("load", [0.3, 0.9, 0.999])
def test_named_aggregates(name, load):
    arrival = CASES[name]()
    rate = _rate_for(arrival, load)
    xs = arrival.xs
    for latency in (0.0, 3e-6, float(xs[1]), float(xs[4]), 0.5 * float(xs[5] + xs[6])):
        busy, _, delay = _assert_same(arrival, rate, latency)
        assert 0.0 < busy < INF and delay >= latency


def test_latency_on_a_breakpoint_and_past_several():
    arrival = _jumps()
    rate = _rate_for(arrival, 0.5)
    for k in (1, 2, 3, 7, len(arrival.xs) - 1):
        _assert_same(arrival, rate, float(arrival.xs[k]))
    # Past the last breakpoint.
    _assert_same(arrival, rate, float(arrival.xs[-1]) + 0.25)


def test_breakpoints_closer_than_the_nudge():
    # A nudged breakpoint lands on or past the next one.
    arrival = Curve(
        [0.0, 1e-10, 2e-9, 2.5e-9, 0.001],
        [1e3, 2e3, 3e3, 3.5e3, 5e3],
        [1e6, 0.0, 2e8, 0.0, 1e6],
    )
    for latency in (0.0, 1e-10, 2e-9, 1e-6):
        _assert_same(arrival, 2e6, latency)


def test_first_breakpoint_a_hair_off_zero():
    for x0 in (-1e-13, 1e-13):
        arrival = Curve([x0, 0.002, 0.01], [500.0, 900.0, 2.6e3], [1e5, 2e5, 1e5])
        for latency in (0.0, 1e-6, 0.002):
            _assert_same(arrival, 5e5, latency)


def test_negative_first_value():
    # No envelope starts below 0, but the kernel takes any curve.
    arrival = Curve([0.0, 0.001, 0.004], [-50.0, 10.0, 400.0], [6e4, 1e5, 1e4])
    for latency in (0.0, 0.0005, 0.001):
        _assert_same(arrival, 2e5, latency)


def test_final_slope_equal_to_the_rate_never_ends_the_busy_period():
    arrival = Curve.affine(1e4, 1e6)
    for latency in (0.0, 1e-3):
        assert rate_latency_bounds(arrival, 1e6, latency) == (INF, INF, INF)
        assert math.isinf(_generic(arrival, 1e6, latency)[0])


def test_final_slope_above_the_rate_never_ends_the_busy_period():
    arrival = _ramps()
    rate = 0.5 * arrival.final_slope
    assert rate_latency_bounds(arrival, rate, 3e-6) == (INF, INF, INF)
    assert math.isinf(_generic(arrival, rate, 3e-6)[0])


def test_a_service_that_never_rises():
    # The busy period ends within the catch-up tolerance, but a flat
    # service never serves the bits left: an unbounded delay.
    arrival = Curve([0.0, 1.0], [1e-10, 1e-10], [0.0, 0.0])
    busy, _, delay = _assert_same(arrival, 0.0, 0.5)
    assert busy == 0.5 and math.isinf(delay)


# -- the port ----------------------------------------------------------


def _reference_port(port, aggregate):
    """``OutputPortServer.analyze_aggregate`` through the generic path,
    checks and messages in the same order."""
    service = Curve.rate_latency(port.service_rate, port.port_latency)
    if aggregate.final_slope > port.service_rate * (1 + 1e-12):
        raise UnstableSystemError(
            f"{port.name}: aggregate rate {aggregate.final_slope:.6g} b/s "
            f"exceeds link payload rate {port.service_rate:.6g} b/s"
        )
    bounds = FifoBounds(aggregate, service)
    if math.isinf(bounds.busy):
        raise UnstableSystemError(f"{port.name}: unbounded busy period")
    backlog = bounds.backlog()
    if backlog > port.buffer_bits + 1e-9:
        raise BufferOverflowError(
            f"{port.name}: worst-case backlog {backlog:.6g} bits exceeds "
            f"buffer {port.buffer_bits:.6g} bits"
        )
    delay = horizontal_deviation(aggregate, service, t_max=bounds.busy)
    if math.isinf(delay):
        raise UnstableSystemError(f"{port.name}: unbounded delay")
    return delay, backlog, bounds.busy


def _port_outcome(analyze, port, aggregate):
    try:
        return _hex(analyze(port, aggregate))
    except (UnstableSystemError, BufferOverflowError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize(
    "aggregate, buffer_bits, error",
    [
        (_mac_outputs(), INF, None),
        (_mac_outputs(), 1e4, "BufferOverflowError"),
        # Final slope exactly the link rate: an endless busy period.
        (Curve.affine(1e4, OC3.payload_rate), INF, "UnstableSystemError"),
        # Final slope above the link rate: refused before the kernel.
        (Curve.affine(1e4, 2 * OC3.payload_rate), INF, "UnstableSystemError"),
    ],
    ids=["bounded", "overflow", "slope-at-rate", "slope-above-rate"],
)
def test_port_matches_the_generic_path(aggregate, buffer_bits, error):
    port = OutputPortServer(OC3, port_latency=3e-6, buffer_bits=buffer_bits)
    got = _port_outcome(OutputPortServer.analyze_aggregate, port, aggregate)
    assert got == _port_outcome(_reference_port, port, aggregate)
    assert (got[0] if error else None) == error


# -- random aggregates -------------------------------------------------


@st.composite
def aggregates(draw):
    """Sums of periodic bursts and ramps, token buckets and Theorem-1
    outputs, sometimes coarsened as the delay engine's knob does."""
    members = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["burst", "ramp", "bucket", "mac"]))
        burst = draw(st.floats(1e3, 2e5))
        period = draw(st.sampled_from([0.002, 0.005, 0.01, 0.013]))
        periods = draw(st.integers(2, 24))
        if kind == "burst":
            members.append(periodic_burst_staircase(burst, period, periods))
        elif kind == "ramp":
            peak = draw(st.sampled_from([2e7, 5e7, 1e8]))
            members.append(
                periodic_burst_staircase(burst, period, periods, peak_rate=peak)
            )
        elif kind == "bucket":
            members.append(Curve.affine(burst, burst / period))
        else:
            members.append(_mac_output(min(burst, 1.5e5), 0.01, periods))
    aggregate = sum_curves(members)
    if draw(st.booleans()) and len(aggregate.xs) > 8:
        aggregate = aggregate.coarsen(draw(st.integers(4, 32)))
    return aggregate


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(
    aggregate=aggregates(),
    load=st.sampled_from([0.2, 0.6, 0.95, 1.0, 1.3]),
    where=st.sampled_from(["zero", "fixed", "on", "inside", "past-end"]),
    k=st.integers(0, 40),
)
def test_random_aggregates(aggregate, load, where, k):
    xs = aggregate.xs
    i = min(k, len(xs) - 1)
    latency = {
        "zero": 0.0,
        "fixed": 3e-6,
        "on": float(xs[i]),
        "inside": float(xs[i]) + 0.5 * (float(xs[min(i + 1, len(xs) - 1)]) - float(xs[i])),
        "past-end": float(xs[-1]) * 1.5 + 1e-3,
    }[where]
    _assert_same(aggregate, _rate_for(aggregate, load), latency)


# -- sum_curves --------------------------------------------------------


def _two_lookup_sum(curves):
    """``sum_curves`` as it read each member: ``c(xs)``, then
    ``_slopes_at(c, xs)``, in input order."""
    if len(curves) == 1:
        xs = curves[0].xs
    else:
        xs = np.unique(np.concatenate([c.xs for c in curves]))
    ys = np.zeros_like(xs)
    slopes = np.zeros_like(xs)
    for c in curves:
        ys += c(xs)
        slopes += _slopes_at(c, xs)
    return Curve(xs, ys, slopes, validate=False).simplify()


def _bytes(curve):
    return (curve.xs.tobytes(), curve.ys.tobytes(), curve.slopes.tobytes())


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(st.lists(aggregates(), min_size=1, max_size=4))
def test_sum_curves_matches_two_lookups(members):
    assert _bytes(sum_curves(members)) == _bytes(_two_lookup_sum(members))


def test_sum_curves_reads_zero_before_time_zero():
    # A member starting a hair below 0 puts a negative point on the grid.
    members = [
        Curve([-1e-13, 0.5], [2.0, 3.0], [1.0, 0.5]),
        Curve([0.0, 0.25], [1.0, 1.5], [2.0, 0.0]),
        Curve.affine(1.0, 1.0),
    ]
    for order in (members, members[::-1], members[1:]):
        assert _bytes(sum_curves(order)) == _bytes(_two_lookup_sum(order))
