"""Theorem 1(4) on timed-token staircases: pinned outputs and memory.

The output envelope of :meth:`FDDIMacServer.analyze` is pinned bit for
bit (a digest of the ``repr`` of its ``xs``/``ys``/``slopes`` lists) on
inputs whose busy intervals cover none, a few, and many token rotations,
a thinned candidate grid, and a busy interval reaching the staircase's
affine tail.  Any change to ``deconvolve``'s
candidates, reductions or result construction that moves a single bit
fails here.
"""

import hashlib
import math
import tracemalloc

import pytest

from repro.envelopes.operations import busy_interval, deconvolve
from repro.envelopes.staircase import periodic_burst_staircase
from repro.fddi.mac_server import FDDIMacServer

TTRT = 0.008
BANDWIDTH = 100e6
SYNC = 0.002  # 2e5 bits per rotation, 25 Mb/s guaranteed
PERIOD = 0.01

INF = math.inf

#: name -> (burst bits per period, exact periods, peak rate, server
#:          options, busy interval / TTRT, output breakpoints,
#:          sha256 of the repr).  Bursts with an infinite peak rate are
#:          jumps, which only branch 2 of the kernel reads exactly.
PINS = {
    "k0": (
        1.0e5, 64, INF, {}, 2.0, 128,
        "7d9f2d9423306276b502978a8abc950e73f5c8b9c94d6bcf12a893d1917b78f3",
    ),
    "k3": (
        1.6e5, 64, INF, {}, 5.0, 73,
        "a8395cf6d5c5a7238a5d6de87eb3136ba31062b953185045e059d48993b90739",
    ),
    "k24": (
        2.36e5, 64, INF, {}, 26.0, 308,
        "79d8201153f92e58e0ca52b249e22923faca21767ed61d455fc3c1c37b76a780",
    ),
    "k18-ramps": (
        2.36e5, 64, 1e8, {}, 20.0, 388,
        "df25ee3a14876a2ebab31c5d538ba256132eef55680d79bd7dc6e7679ac8e56c",
    ),
    "thinned-k1872": (
        2.497e5, 32, INF, {}, 1874.0, 298,
        "4699bb159124ed09aba308b473e206ef6197e81f6c4676e30533ac0c28a7cc55",
    ),
    "affine-tail": (
        2.45e5, 64, INF, {"max_steps": 8}, 161.25, 331,
        "a4ae763e7756549e1acf8516765ec77cd4fa1ec004dbc697a3df4c389f66fe29",
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_mac_output_is_pinned(case):
    burst, periods, peak, options, rotations, n_out, digest = PINS[case]
    arrival = periodic_burst_staircase(burst, PERIOD, periods, peak_rate=peak)
    result = FDDIMacServer(SYNC, TTRT, BANDWIDTH, **options).analyze(arrival)
    assert result.busy_interval / TTRT == pytest.approx(rotations)
    out = result.output
    text = repr((out.xs.tolist(), out.ys.tolist(), out.slopes.tolist()))
    assert len(out.xs) == n_out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_long_busy_interval_stays_within_memory_budget():
    # A busy interval of ~1,900 rotations, as in a campus-churn run: the
    # candidate grid is thinned, and every per-I temporary must stay
    # within the row-chunk budget instead of growing with |I| x K.
    arrival = periodic_burst_staircase(2.497e5, PERIOD, 32, peak_rate=INF)
    avail = FDDIMacServer(SYNC, TTRT, BANDWIDTH).availability(2048)
    b = busy_interval(arrival, avail)
    assert b / TTRT >= 1000
    tracemalloc.start()
    try:
        deconvolve(arrival, avail, t_limit=b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
