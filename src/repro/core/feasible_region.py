"""Feasible-region utilities (Theorems 3 and 4).

The feasible region is the set of allocations ``(H_S, H_R)`` under which
every connection — requesting and existing — meets its deadline.  Theorem 3
states each per-connection region is closed and convex on the H_S-H_R
plane; Theorem 4 that the overall region is their (convex) intersection
clipped to the available rectangle.

These helpers *map* the region empirically for a given network state.  They
are used by tests (sampling convexity) and by the feasible-region example.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: A feasibility predicate over allocations.
Feasibility = Callable[[float, float], bool]


@dataclasses.dataclass(frozen=True)
class RegionSample:
    """A grid sample of the feasible region."""

    h_s_values: Tuple[float, ...]
    h_r_values: Tuple[float, ...]
    feasible: Tuple[Tuple[bool, ...], ...]  # [i][j] -> (h_s[i], h_r[j])

    def fraction_feasible(self) -> float:
        flat = [cell for row in self.feasible for cell in row]
        return sum(flat) / len(flat) if flat else 0.0


def feasibility_grid(
    is_feasible: Feasibility,
    h_s_range: Tuple[float, float],
    h_r_range: Tuple[float, float],
    resolution: int = 12,
) -> RegionSample:
    """Evaluate feasibility on a ``resolution x resolution`` grid."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    hs = np.linspace(h_s_range[0], h_s_range[1], resolution)
    hr = np.linspace(h_r_range[0], h_r_range[1], resolution)
    rows = []
    for h_s in hs:
        rows.append(tuple(bool(is_feasible(float(h_s), float(h_r))) for h_r in hr))
    return RegionSample(
        h_s_values=tuple(float(v) for v in hs),
        h_r_values=tuple(float(v) for v in hr),
        feasible=tuple(rows),
    )


def lower_boundary_on_ray(
    is_feasible: Feasibility,
    h_max: Tuple[float, float],
    h_min: Tuple[float, float] = (0.0, 0.0),
    tolerance: float = 1e-3,
) -> Optional[Tuple[float, float]]:
    """The lowest feasible point on the segment ``h_min -> h_max``.

    This is the geometric object behind ``H^min_need``: the intersection of
    the line zeta with the region's lower boundary (Figure 6).  Returns
    ``None`` when even ``h_max`` is infeasible.
    """
    def at(s: float) -> Tuple[float, float]:
        return (
            h_min[0] + s * (h_max[0] - h_min[0]),
            h_min[1] + s * (h_max[1] - h_min[1]),
        )

    if not is_feasible(*h_max):
        return None
    if is_feasible(*at(0.0)):
        return at(0.0)
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if is_feasible(*at(mid)):
            hi = mid
        else:
            lo = mid
    return at(hi)


def lower_boundary_curve(
    is_feasible: Feasibility,
    h_r_values: Sequence[float],
    h_s_max: float,
    h_s_min: float = 0.0,
    tolerance: float = 1e-3,
) -> List[Tuple[float, Optional[float]]]:
    """The region's lower boundary ``b(H_R) = min { H_S : feasible }``.

    This is the "concave curve" replacing the rectangle's bottom side in
    Figure 6.  For each requested ``H_R`` a bisection finds the smallest
    feasible ``H_S`` (or ``None`` when no ``H_S <= h_s_max`` works).
    """
    boundary: List[Tuple[float, Optional[float]]] = []
    for h_r in h_r_values:
        if not is_feasible(h_s_max, h_r):
            boundary.append((float(h_r), None))
            continue
        lo, hi = h_s_min, h_s_max
        if is_feasible(max(lo, 1e-12), h_r):
            boundary.append((float(h_r), float(max(lo, 1e-12))))
            continue
        while hi - lo > tolerance * h_s_max:
            mid = 0.5 * (lo + hi)
            if is_feasible(mid, h_r):
                hi = mid
            else:
                lo = mid
        boundary.append((float(h_r), float(hi)))
    return boundary


def convexity_violations(
    sample: RegionSample,
    is_feasible: Feasibility,
    n_checks: int = 64,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> List[Tuple[Tuple[float, float], Tuple[float, float], Tuple[float, float]]]:
    """Sample pairs of feasible grid points and test their midpoints.

    Returns the list of ``(p, q, midpoint)`` triples where both endpoints
    were feasible but the midpoint was not — empty for a convex region
    (Theorem 3 predicts empty, up to search tolerance).

    Sampling draws from the injected ``rng`` when given (e.g. a
    :class:`repro.sim.random.RandomStreams` stream), else from a private
    ``random.Random(seed)`` — never from process-global RNG state.
    """
    if rng is None:
        rng = random.Random(seed)
    feas_points = [
        (sample.h_s_values[i], sample.h_r_values[j])
        for i, row in enumerate(sample.feasible)
        for j, ok in enumerate(row)
        if ok
    ]
    violations: List[
        Tuple[Tuple[float, float], Tuple[float, float], Tuple[float, float]]
    ] = []
    if len(feas_points) < 2:
        return violations
    for _ in range(n_checks):
        p = feas_points[rng.randrange(len(feas_points))]
        q = feas_points[rng.randrange(len(feas_points))]
        mid = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
        if not is_feasible(*mid):
            violations.append((p, q, mid))
    return violations
