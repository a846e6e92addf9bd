"""The dual-periodic traffic model of the paper's evaluation (Eq. 37).

A dual-periodic source delivers at most ``C2`` bits in any window of length
``P2``, nested inside a budget of at most ``C1`` bits per window of length
``P1`` (``P2 <= P1``, ``C2 <= C1``).  The model "generalizes the one-period
model, allowing certain burstiness in source traffic": within each P1 window
the source may burst C2 every P2 until the C1 budget is exhausted, then must
stay silent until the next P1 window.

The long-term rate is ``rho = C1 / P1`` (Eq. 38).

Note on Eq. 37 as printed: the innermost term compares a bit count with a
time quantity, which is dimensionally inconsistent.  We parameterize the
source *peak rate*: within a P2 window, bits arrive at ``peak_rate`` (default
``inf``, the pure-staircase interpretation standard in network calculus).
See DESIGN.md §3.
"""

from __future__ import annotations

import dataclasses
import math

from repro.envelopes.curve import Curve
from repro.errors import ConfigurationError
from repro.traffic.descriptor import TrafficDescriptor


@dataclasses.dataclass(frozen=True)
class DualPeriodicTraffic(TrafficDescriptor):
    """Dual-periodic source: ``C2`` bits per ``P2`` inside ``C1`` per ``P1``.

    Parameters
    ----------
    c1:
        Budget (bits) per outer period ``p1``.
    p1:
        Outer period, seconds.
    c2:
        Budget (bits) per inner period ``p2``.
    p2:
        Inner period, seconds.
    peak:
        Source peak rate in bits/second (``inf`` = instantaneous bursts).
    """

    c1: float
    p1: float
    c2: float
    p2: float
    peak: float = math.inf

    __hash__ = TrafficDescriptor._stored_hash

    def __post_init__(self) -> None:
        self._require_finite()
        if self.p1 <= 0 or self.p2 <= 0:
            raise ConfigurationError("periods must be positive")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ConfigurationError("budgets must be positive")
        if self.p2 > self.p1 + 1e-12:
            raise ConfigurationError("inner period P2 must not exceed P1")
        if self.c2 > self.c1 + 1e-9:
            raise ConfigurationError("inner budget C2 must not exceed C1")
        if self.c2 / self.p2 < self.c1 / self.p1 - 1e-9:
            raise ConfigurationError(
                "inner rate C2/P2 must be at least the outer rate C1/P1 "
                "(otherwise the C1 budget can never be consumed)"
            )
        if self.peak <= 0:
            raise ConfigurationError("peak rate must be positive")
        self._store_hash()

    # ------------------------------------------------------------------

    @property
    def long_term_rate(self) -> float:
        """``rho = C1 / P1`` (Eq. 38)."""
        return self.c1 / self.p1

    @property
    def peak_rate(self) -> float:
        return self.peak

    @property
    def bursts_per_outer_period(self) -> int:
        """Number of inner bursts needed to exhaust the C1 budget."""
        return int(math.ceil(self.c1 / self.c2 - 1e-9))

    def envelope(self, horizon: float) -> Curve:
        """Arrival envelope per Eq. 37 (right-continuous form).

        Within each outer window ``k``: bursts of ``C2`` at offsets
        ``0, P2, 2*P2, ...`` (the last one possibly partial) until the
        cumulative reaches ``k*C1 + C1``.  Beyond the horizon the curve
        continues with the token-bucket majorant ``sigma + rho*I`` where
        ``sigma`` is the model's maximal burstiness, which dominates the true
        envelope for all time.
        """
        n_outer = max(1, int(math.ceil(horizon / self.p1)) + 1)
        n_outer = min(n_outer, 4096)
        xs = []
        ys = []
        slopes = []
        m_max = self.bursts_per_outer_period
        finite_peak = math.isfinite(self.peak)
        for k in range(n_outer):
            base_t = k * self.p1
            base_bits = k * self.c1
            for m in range(m_max):
                t = base_t + m * self.p2
                if t >= base_t + self.p1 - 1e-15 and m > 0:
                    break
                burst = min(self.c2, self.c1 - m * self.c2)
                if burst <= 0:
                    break
                if finite_peak:
                    ramp = burst / self.peak
                    xs.append(t)
                    ys.append(base_bits + m * self.c2)
                    slopes.append(self.peak)
                    xs.append(t + ramp)
                    ys.append(base_bits + m * self.c2 + burst)
                    slopes.append(0.0)
                else:
                    xs.append(t)
                    ys.append(base_bits + min(self.c1, (m + 1) * self.c2))
                    slopes.append(0.0)
        # Conservative affine tail: sigma + rho * I with sigma = max over the
        # exact prefix of (A(x) - rho * x).  Quasi-periodicity makes this max
        # stabilize after the first outer period.
        rho = self.long_term_rate
        sigma = max(
            (y - rho * x for x, y in zip(xs, ys)),
            default=self.c2,
        )
        switch_x = n_outer * self.p1
        xs.append(switch_x)
        ys.append(sigma + rho * switch_x)
        slopes.append(rho)
        import numpy as np

        order = np.argsort(np.asarray(xs), kind="stable")
        xs_arr = np.asarray(xs)[order]
        ys_arr = np.asarray(ys)[order]
        slopes_arr = np.asarray(slopes)[order]
        # De-duplicate coincident x (keep the larger y — right value).
        keep_x = []
        keep_y = []
        keep_s = []
        for x, y, s in zip(xs_arr, ys_arr, slopes_arr):
            if keep_x and abs(x - keep_x[-1]) < 1e-15:
                keep_y[-1] = max(keep_y[-1], y)
                keep_s[-1] = max(keep_s[-1], s)
            else:
                keep_x.append(float(x))
                keep_y.append(float(y))
                keep_s.append(float(s))
        ys_mono = np.maximum.accumulate(np.asarray(keep_y))
        return Curve(keep_x, ys_mono, keep_s, validate=False).simplify()

    def describe(self) -> str:
        return (
            f"DualPeriodic(C1={self.c1:.3g}b/P1={self.p1:.3g}s, "
            f"C2={self.c2:.3g}b/P2={self.p2:.3g}s, rho={self.long_term_rate:.3g}b/s)"
        )
