"""FIFO-style server analyses: pinned outputs.

Three analyses run the busy interval → backlog → delay sequence and cap
an output envelope at a rate: the delay engine's shared-port analysis
(bounds, quantized shift and each member's capped, tidied output from
the engine's port cache, each output checked equal to the fixed-point
``_port_output``, and the bounds to ``OutputPortServer.analyze_aggregate``),
the FIFO ATM output port, and the leaky-bucket regulator.
Each is pinned bit for bit (a sha256 of the ``repr`` of its bounds and
output ``xs``/``ys``/``slopes`` lists) on inputs with jumps, ramps,
Theorem-1 output envelopes, token buckets and a quantized delay.  A change to the busy-interval, backlog or
rate-cap kernels that moves a single bit fails here.
"""

import hashlib
import math

import pytest

from repro.atm.link import AtmLink
from repro.atm.output_port import OutputPortServer
from repro.config import AnalysisConfig, build_network
from repro.core.delay import DelayAnalyzer
from repro.envelopes.curve import Curve, sum_curves
from repro.envelopes.staircase import periodic_burst_staircase
from repro.fddi.mac_server import FDDIMacServer
from repro.servers.regulator import RegulatorServer

INF = math.inf
OC3 = AtmLink("l", 155.52e6)


def _lists(curve):
    return (curve.xs.tolist(), curve.ys.tolist(), curve.slopes.tolist())


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _mac_output(burst, periods, peak=INF):
    arrival = periodic_burst_staircase(burst, 0.01, periods, peak_rate=peak)
    return FDDIMacServer(0.002, 0.008, 100e6).analyze(arrival).output


def _envelopes(name):
    if name == "jumps":
        return [
            periodic_burst_staircase(1e5, 0.01, 16, peak_rate=INF),
            periodic_burst_staircase(2e5, 0.02, 8, peak_rate=INF),
        ]
    if name == "ramps":
        return [
            periodic_burst_staircase(1.2e5, 0.01, 16, peak_rate=1e8),
            periodic_burst_staircase(8e4, 0.005, 32, peak_rate=5e7),
            Curve.affine(4e4, 2e6),
        ]
    if name == "mac-outputs":
        return [
            _mac_output(1e5, 64),
            _mac_output(1.6e5, 64),
            _mac_output(1.2e5, 64, peak=1e8),
        ]
    if name == "token-buckets":
        return [
            Curve.affine(5e4, 1e7),
            Curve.affine(1e5, 2e7).cap(1e8),
            Curve.affine(0.0, 3e7),
        ]
    assert name == "heavy"
    return [
        _mac_output(2.36e5, 64),
        _mac_output(2.36e5, 64, peak=1e8),
        periodic_burst_staircase(4e5, 0.01, 32, peak_rate=INF),
        periodic_burst_staircase(3e5, 0.012, 32, peak_rate=INF),
    ]


#: name -> (envelopes, port latency, delay quantum,
#:          sha256 of the repr of (delay, backlog, busy, shift, outputs)).
PORT_PINS = {
    "jumps": (
        "jumps", 2e-6, 0.0,
        "9b220d946e09b6e3e8e37a8e58e8eaa52762c32657bbbd36b04405ffbe68d38b",
    ),
    "ramps-quantum": (
        "ramps", 0.0, 1e-4,
        "5754cb44886c9f895bf769b82ec40f987c699d15ea0b9d72b3659c8e4d4301d0",
    ),
    "mac-outputs": (
        "mac-outputs", 5e-6, 1e-5,
        "42d71c5e2334edb6cdc663db5f2b95dd364b76a1878e62ad8347122ce3cd1a52",
    ),
    "token-buckets": (
        "token-buckets", 0.0, 0.0,
        "06ef570042c489c0589e87dc6357bdfea326d72a5a6f70d5401bb10576225c8d",
    ),
}

#: name -> (envelopes, port latency, sha256).  The first envelope is the
#:          tagged one; the rest are its cross traffic.
TAGGED_PINS = {
    "jumps": (
        "jumps", 2e-6,
        "5b194f7e4698ee384729d2179002135e80049c4a4f885ed727db98dc71d585e7",
    ),
    "ramps": (
        "ramps", 0.0,
        "e72fabce384d9ebe864b3a10359e467e1cf1ec1541ffa8708dd519d677527d3b",
    ),
    "mac-outputs": (
        "mac-outputs", 5e-6,
        "12fdd6c010cbe18741c5eab76409c4a8ffd40b994357702a2ef5b5eb3cf009df",
    ),
    "token-buckets": (
        "token-buckets", 0.0,
        "24875534bc455ff52c113717df7719aa9c0044230a8c5506ece7998660597fe2",
    ),
    "heavy": (
        "heavy", 1e-5,
        "d359175ab60a203e664faed5d36908c7cad7848224976affd4fc8562f1942d7b",
    ),
}

#: name -> (arrival, sigma, rho, peak, sha256).  ``None`` is a Theorem-1
#: output envelope.
REGULATOR_PINS = {
    "jumps": (
        periodic_burst_staircase(1e5, 0.01, 16, peak_rate=INF), 5e4, 1.2e7, INF,
        "ebdaae7d882b098b169ad0672d3e61d0dd2513927fd11a32fee4b43a0db7c0db",
    ),
    "ramps-peak": (
        periodic_burst_staircase(1.2e5, 0.01, 16, peak_rate=1e8), 2e4, 1.5e7, 4e7,
        "1da5aea02c9385c49bc6cc8ec84313c8aee6fc7e7acf7d98f9d970b14e9cbf17",
    ),
    "mac-output": (
        None, 1e5, 1.2e7, 1e8,
        "e97b6022b5599c6860dda3715fc80ea91ffaacc625de96c5c161db1643d3a339",
    ),
    "affine": (
        Curve.affine(8e4, 5e6), 1e4, 6e6, 2e7,
        "68fa28b33740052e37409772fa84ef098bc3fef7b3eba6ba19fb9e1d6e7c81f5",
    ),
    "idle": (
        Curve.affine(1e3, 1e6), 5e4, 6e6, INF,
        "8dd928e112f44e847d03c8d55003a8e75722e935347435c663991b2883d1d91c",
    ),
}


def _analysis(result):
    return (
        result.delay_bound,
        result.backlog_bound,
        result.busy_interval,
        _lists(result.output),
    )


@pytest.mark.parametrize("case", sorted(PORT_PINS))
def test_analyze_port_is_pinned(case):
    name, latency, quantum, digest = PORT_PINS[case]
    port = OutputPortServer(OC3, port_latency=latency)
    members = dict(enumerate(_envelopes(name)))
    analyzer = DelayAnalyzer(
        build_network(),
        analysis_config=AnalysisConfig(output_delay_quantum=quantum),
    )
    delay, backlog, busy, shift, outputs = analyzer._analyze_port_cached(
        port, members
    )
    for key, envelope in members.items():
        fixed_point = analyzer._port_output(envelope, port.service_rate, shift)
        assert _lists(fixed_point) == _lists(outputs[key])
    aggregate = sum_curves(members.values())
    assert port.analyze_aggregate(aggregate) == (delay, backlog, busy)
    pinned = (delay, backlog, busy, shift, [_lists(outputs[k]) for k in members])
    assert _digest(pinned) == digest


@pytest.mark.parametrize("case", sorted(TAGGED_PINS))
def test_output_port_is_pinned(case):
    name, latency, digest = TAGGED_PINS[case]
    tagged, *cross = _envelopes(name)
    port = OutputPortServer(OC3, port_latency=latency)
    assert _digest(_analysis(port.analyze_tagged(tagged, cross))) == digest


@pytest.mark.parametrize("case", sorted(REGULATOR_PINS))
def test_regulator_is_pinned(case):
    arrival, sigma, rho, peak, digest = REGULATOR_PINS[case]
    if arrival is None:
        arrival = _mac_output(1e5, 64)
    result = RegulatorServer(sigma, rho, peak=peak).analyze(arrival)
    assert _digest(_analysis(result)) == digest
