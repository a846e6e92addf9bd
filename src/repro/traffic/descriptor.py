"""The abstract traffic-descriptor interface."""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Iterator, Tuple

from repro.envelopes.curve import Curve
from repro.errors import ConfigurationError


class TrafficDescriptor(abc.ABC):
    """A bound on a source's traffic: the maximum rate function Gamma(I).

    Subclasses describe concrete source models.  The central method is
    :meth:`envelope`, producing the cumulative arrival envelope
    ``A(I) = I * Gamma(I)`` as a piecewise-linear curve; :meth:`gamma`
    evaluates the rate form directly.
    """

    #: Set by :meth:`_store_hash`.
    _hash: int

    def _require_finite(self) -> None:
        """Refuse a NaN or infinite parameter; only ``peak`` may be ``+inf``.

        NaN passes every ``<= 0`` range check, and an infinite budget or
        period turns the envelope arithmetic into NaN mid-decision.
        """
        for name, value in vars(self).items():
            if name == "peak" and value == math.inf:
                continue
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{type(self).__name__}.{name} must be finite, got {value!r}"
                )

    def _store_hash(self) -> None:
        """Hash a frozen dataclass descriptor's fields once, at construction.

        The value is the one the dataclass ``__hash__`` computes on every
        call; the analyzer's envelope cache hashes a descriptor for every
        load of every analysis.  A class opts in with ``__hash__ =
        TrafficDescriptor._stored_hash`` and a call at the end of its
        ``__post_init__``.  Its fields are floats, whose hashes are the
        same in every process, so a pickled descriptor keeps a valid hash.
        """
        fields = tuple(getattr(self, f.name) for f in dataclasses.fields(self))
        object.__setattr__(self, "_hash", hash(fields))

    def _stored_hash(self) -> int:
        return self._hash

    @abc.abstractmethod
    def envelope(self, horizon: float) -> Curve:
        """The arrival envelope ``A(I)``, exact at least up to ``horizon``.

        Beyond the horizon the returned curve must still *dominate* the true
        envelope (conservative continuation), so bounds computed from it
        remain valid.
        """

    @property
    @abc.abstractmethod
    def long_term_rate(self) -> float:
        """``rho = lim_{I -> inf} Gamma(I)`` in bits/second (Eq. 38)."""

    @property
    @abc.abstractmethod
    def peak_rate(self) -> float:
        """The instantaneous peak rate (may be ``math.inf``)."""

    def gamma(self, interval: float, horizon: float = None) -> float:
        """Evaluate the maximum rate function ``Gamma(I) = A(I) / I``.

        ``Gamma(0)`` is defined as the peak rate.
        """
        if interval < 0:
            raise ValueError("interval must be non-negative")
        if interval == 0:
            return self.peak_rate
        if horizon is None:
            horizon = interval * 2.0
        return self.envelope(horizon)(interval) / interval

    def worst_case_arrivals(
        self, duration: float
    ) -> Iterator[Tuple[float, float]]:
        """Yield ``(time, bits)`` arrival events of a worst-case trajectory.

        The default implementation releases the envelope greedily: a burst at
        ``t = 0`` of ``A(0)`` bits, then at each envelope breakpoint the
        increment that keeps cumulative arrivals equal to the envelope.  The
        packet-level simulator uses these trajectories to stress the analytic
        bounds.
        """
        env = self.envelope(duration)
        sent = 0.0
        for x in env.breakpoints():
            t = float(x)
            if t > duration:
                break
            level = float(env(t))
            if level > sent + 1e-9:
                yield (t, level - sent)
                sent = level
        # Within sloped segments, release continuously in small chunks.
        # (Subclasses with pure staircase envelopes never reach this.)
        if env.final_slope > 0 and duration > env.last_breakpoint:
            t = max(0.0, float(env.last_breakpoint))
            step = max((duration - t) / 64.0, 1e-6)
            while t < duration:
                t = min(t + step, duration)
                level = float(env(t))
                if level > sent + 1e-9:
                    yield (t, level - sent)
                    sent = level

    def is_stable_at(self, service_rate: float) -> bool:
        """True if the long-term rate fits within ``service_rate``."""
        return self.long_term_rate <= service_rate + 1e-12

    def describe(self) -> str:
        """A one-line human-readable summary (used in logs and examples)."""
        peak = "inf" if math.isinf(self.peak_rate) else f"{self.peak_rate:.3g}"
        return (
            f"{type(self).__name__}(rho={self.long_term_rate:.3g} b/s, "
            f"peak={peak} b/s)"
        )
