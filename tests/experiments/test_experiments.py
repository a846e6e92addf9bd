"""Tests for the experiment harness (fast, single-seed runs)."""

from pathlib import Path

import pytest

from repro.experiments.artifacts import read_series_csv
from repro.experiments.common import (
    ExperimentSettings,
    SeriesResult,
    format_table,
    mean_and_spread,
)
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.validation import run_validation
from repro.experiments.ablations import (
    PolicyVariant,
    run_policy_ablation,
    run_workload_ablation,
)
from repro.config import CACConfig
from repro.core.policies import MaxAvailPolicy


TINY = ExperimentSettings(n_requests=30, warmup_requests=3, seeds=(1,))
#: Committed CSVs of Figures 7 and 8 (`python -m repro.experiments figure7|figure8`).
RESULTS = Path(__file__).resolve().parents[2] / "results"


def _committed(name):
    _, series = read_series_csv(str(RESULTS / name))
    return {s.label: dict(zip(s.xs, s.ys)) for s in series}


class TestCommon:
    def test_quick_settings(self):
        q = ExperimentSettings.quick()
        assert q.n_requests < ExperimentSettings().n_requests

    def test_mean_and_spread(self):
        m, s = mean_and_spread([1.0, 3.0])
        assert m == 2.0 and s == 1.0

    def test_mean_and_spread_empty(self):
        import math

        m, s = mean_and_spread([])
        assert math.isnan(m) and s == 0.0

    def test_format_table_alignment(self):
        s1 = SeriesResult("a")
        s1.add(0.1, 0.5)
        s2 = SeriesResult("b")
        s2.add(0.1, 0.25, 0.05)
        table = format_table("x", [s1, s2])
        assert "a" in table and "b" in table
        assert "0.500" in table and "±0.050" in table

    def test_calibration_toggle(self):
        on = ExperimentSettings(calibrate_load=True).simulation_config()
        off = ExperimentSettings(calibrate_load=False).simulation_config()
        assert on.load_scale < off.load_scale == 1.0


class TestFigureRuns:
    def test_figure7_shape(self):
        series = run_figure7(TINY, utilizations=(0.3,), betas=(0.0, 1.0))
        assert len(series) == 1
        assert series[0].xs == [0.0, 1.0]
        assert all(0.0 <= y <= 1.0 for y in series[0].ys)

    def test_figure8_shape(self):
        series = run_figure8(TINY, betas=(0.5,), utilizations=(0.1, 0.9))
        assert len(series) == 1
        assert series[0].label == "beta=0.5"

    def test_figure7_committed_claims(self):
        # Under heavy load an interior beta beats both extremes.
        heavy = _committed("figure7.csv")["U=0.9"]
        interior_best = max(v for beta, v in heavy.items() if 0.0 < beta < 1.0)
        assert interior_best >= heavy[0.0]
        assert interior_best >= heavy[1.0]

    def test_figure8_committed_claims(self):
        series = _committed("figure8.csv")
        mid = series["beta=0.5"]
        light, heavy = min(mid), max(mid)
        # AP falls clearly with load ...
        assert mid[light] - mid[heavy] > 0.1
        # ... and beta = 0.5 is not dominated by the extremes when heavy.
        assert mid[heavy] >= series["beta=1"][heavy]
        assert mid[heavy] >= series["beta=0"][heavy] - 0.05

    def test_figure7_main_prints(self):
        out = __import__(
            "repro.experiments.figure7", fromlist=["main"]
        ).main(TINY)
        assert "Figure 7" in out and "best beta" in out


class TestValidationRun:
    def test_rows_and_domination(self):
        rows = run_validation(duration=0.2)
        assert len(rows) == 6
        assert all(r.holds for r in rows)
        # The simulation exercises every path (no zero-delay fluke).
        assert all(r.batches > 0 and r.observed_max > 0 for r in rows)

    def test_main_output(self):
        from repro.experiments.validation import main

        out = main()
        assert "All bounds dominate observed delays: True" in out


class TestAblations:
    def test_policy_ablation_runs(self):
        variants = (
            PolicyVariant("beta=0.5", cac_config=CACConfig(beta=0.5)),
            PolicyVariant("beta=0", cac_config=CACConfig(beta=0.0)),
            PolicyVariant("max-avail", make_policy=MaxAvailPolicy),
            PolicyVariant(
                "origin-ray", cac_config=CACConfig(beta=0.5, use_origin_ray=True)
            ),
        )
        series = run_policy_ablation(TINY, utilizations=(0.9,), variants=variants)
        assert [s.label for s in series] == [
            "beta=0.5", "beta=0", "max-avail", "origin-ray"
        ]
        heavy = {s.label: s.ys[0] for s in series}
        # Section 5.3: granting everything starves future requests.
        assert heavy["max-avail"] <= heavy["beta=0.5"]
        assert heavy["beta=0.5"] >= heavy["beta=0"] - 0.05
        # The two readings of Step 3 perform in the same ballpark.
        assert abs(heavy["beta=0.5"] - heavy["origin-ray"]) < 0.35

    def test_workload_ablation_runs(self):
        results = run_workload_ablation(
            TINY, utilization=0.3, deadline_scales=(0.75, 2.0), burst_ratios=(2.0,)
        )
        assert set(results) == {"deadline", "burstiness"}
        by_scale = dict(zip(results["deadline"][0].xs, results["deadline"][0].ys))
        assert sorted(by_scale) == [0.75, 2.0]
        # Doubling every deadline does not hurt admission.
        assert by_scale[2.0] >= by_scale[0.75] - 0.05


class TestCLI:
    def test_cli_validation(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["validation"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "E3" in captured.out
