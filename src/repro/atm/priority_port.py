"""Static-priority output port: a scheduling extension of the FIFO analysis.

The paper's references ([2, 14]) analyze ATM output ports under several
scheduling disciplines; the repository's default chain uses FIFO (what the
paper's evaluation assumes).  This module adds the non-preemptive
static-priority discipline so mixed-criticality traffic can be studied:
real-time cells in a high-priority class, best-effort in lower ones.

Analysis (classical leftover-service argument):

* higher-priority traffic is summarized by its token-bucket majorant
  ``(sigma_h, rho_h)``;
* the service left for class ``k`` is then the rate-latency curve with rate
  ``C - rho_h`` and latency ``(sigma_h + L_cell) / (C - rho_h)`` — the
  ``L_cell`` term is the non-preemption blocking of one cell already on the
  wire;
* within a class, cells are served FIFO, so the class delay bound is the
  horizontal deviation between the class aggregate and the leftover curve.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.atm.cell import CELL_BITS
from repro.atm.link import AtmLink
from repro.envelopes.curve import Curve, sum_curves
from repro.envelopes.operations import (
    FifoBounds,
    horizontal_deviation,
    token_bucket_majorant,
)
from repro.errors import ConfigurationError, UnstableSystemError
from repro.servers.base import ServerAnalysis


@dataclasses.dataclass(frozen=True)
class ClassAnalysis:
    """Per-priority-class result of a priority-port analysis."""

    priority: int
    delay_bound: float
    backlog_bound: float
    leftover_rate: float
    leftover_latency: float


class PriorityOutputPortServer:
    """A non-preemptive static-priority multiplexer onto one ATM link.

    Priorities are integers; **lower number = higher priority**.
    """

    def __init__(
        self,
        link: AtmLink,
        port_latency: float = 0.0,
        name: Optional[str] = None,
        blocking_bits: float = float(CELL_BITS),
    ) -> None:
        if port_latency < 0:
            raise ConfigurationError("port latency must be non-negative")
        if blocking_bits < 0:
            raise ConfigurationError("blocking size must be non-negative")
        self.link = link
        self.port_latency = float(port_latency)
        self.blocking_bits = float(blocking_bits)
        self.name = name if name is not None else f"prio-port:{link.link_id}"

    @property
    def service_rate(self) -> float:
        return self.link.payload_rate

    def analyze_classes(
        self, envelopes_by_priority: Mapping[int, Sequence[Curve]]
    ) -> Dict[int, ClassAnalysis]:
        """Analyze every priority class.

        Parameters
        ----------
        envelopes_by_priority:
            For each priority level, the envelopes of the connections in
            that class (at the port entrance).

        Raises
        ------
        UnstableSystemError
            When the cumulative rate of a class and everything above it
            exceeds the link rate.
        """
        rate = self.service_rate
        results: Dict[int, ClassAnalysis] = {}
        higher: List[Curve] = []
        for priority in sorted(envelopes_by_priority):
            class_aggregate = sum_curves(envelopes_by_priority[priority])
            if higher:
                sigma_h, rho_h = token_bucket_majorant(sum_curves(higher))
            else:
                sigma_h, rho_h = 0.0, 0.0
            leftover_rate = rate - rho_h
            if leftover_rate <= 0 or (
                class_aggregate.final_slope > leftover_rate * (1 + 1e-12)
            ):
                raise UnstableSystemError(
                    f"{self.name}: priority {priority} and above overload the "
                    f"link ({class_aggregate.final_slope + rho_h:.6g} b/s of "
                    f"{rate:.6g} b/s)"
                )
            latency = (sigma_h + self.blocking_bits) / leftover_rate
            leftover = Curve.rate_latency(leftover_rate, latency)
            bounds = FifoBounds(class_aggregate, leftover)
            b = bounds.busy
            if math.isinf(b):
                raise UnstableSystemError(
                    f"{self.name}: unbounded busy period at priority {priority}"
                )
            delay = horizontal_deviation(class_aggregate, leftover, t_max=b)
            backlog = bounds.backlog()
            results[priority] = ClassAnalysis(
                priority=priority,
                delay_bound=delay + self.port_latency,
                backlog_bound=backlog,
                leftover_rate=leftover_rate,
                leftover_latency=latency,
            )
            higher.extend(envelopes_by_priority[priority])
        return results

    def analyze_tagged(
        self,
        tagged: Curve,
        same_class: Sequence[Curve],
        higher_class: Sequence[Curve],
        lower_class: Sequence[Curve] = (),
    ) -> ServerAnalysis:
        """Analysis for one tagged connection in a given class.

        ``lower_class`` traffic only contributes the single-cell blocking
        term (already included), so it is accepted and ignored.
        """
        del lower_class
        classes = {0: list(higher_class), 1: [tagged, *same_class]}
        if not classes[0]:
            classes.pop(0)
        result = self.analyze_classes(classes)[1]
        output = tagged.shift_left(result.delay_bound).cap(self.service_rate)
        return ServerAnalysis(
            delay_bound=result.delay_bound,
            output=output,
            backlog_bound=result.backlog_bound,
            busy_interval=0.0,
        )

    def __repr__(self) -> str:
        return f"PriorityOutputPortServer({self.name!r})"
