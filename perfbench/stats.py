"""Small statistics helpers shared by the workloads and the tracer."""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a p90 needs at least 100 samples.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1] of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond the requested rank: a tail estimate from a handful
    of samples is noise, and a run that cannot support it must fail
    loudly rather than report it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    beyond = n - math.ceil(q * n)
    if q > 0.5 and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_TAIL_SAMPLES} samples beyond it, "
            f"have {beyond} of {n}"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def decision_digest(decisions: Iterable[Tuple[str, str]]) -> str:
    """sha256 over the ``(conn_id, verdict)`` sequence, one line each."""
    h = hashlib.sha256()
    for conn_id, verdict in decisions:
        h.update(f"{conn_id}\t{verdict}\n".encode())
    return h.hexdigest()

