"""The coarsening invariant judges the coarsening the product does."""

from repro.envelopes.curve import Curve
from repro.network.connection import ConnectionSpec
from repro.scenario.check import INV_COARSE, CheckOptions, check_scenario
from repro.scenario.spec import ScenarioSpec
from repro.traffic.dual_periodic import DualPeriodicTraffic
from tests.envelopes import reference as ref

#: Only the coarsening invariant runs.
COARSENING_ONLY = CheckOptions(packet=False, differential=False, replay=False)


def _spec() -> ScenarioSpec:
    # Over the 0.5 s envelope horizon a 5 ms period gives source envelopes
    # well past the default 96-segment tidy cap, so the CAC's analysis
    # coarsens them.
    traffic = DualPeriodicTraffic(c1=60_000.0, p1=0.015, c2=30_000.0, p2=0.005)
    return ScenarioSpec(
        name="tidied",
        connections=tuple(
            ConnectionSpec(f"c{k}", f"host1-{k}", f"host2-{k}", traffic, 0.09)
            for k in (1, 2, 3)
        ),
    )


def test_the_default_tidy_is_conservative():
    report = check_scenario(_spec(), COARSENING_ONLY)
    assert report.stats["n_active"] == 3
    assert report.ok, report.format()


def test_a_tidy_that_rounds_down_is_caught(monkeypatch):
    # A staircase below each envelope in place of the product's coarsening.
    monkeypatch.setattr(Curve, "coarsen", ref.flat_span_staircase)
    report = check_scenario(_spec(), COARSENING_ONLY)
    assert report.stats["n_active"] == 3
    assert report.violated_invariants == (INV_COARSE,)
