"""Unit tests for CSV export and ASCII chart rendering."""

import csv
import io

import pytest

from repro.config import tiny_default
from repro.experiments import fig5
from repro.experiments.base import ExperimentResult
from repro.experiments.report import (
    ascii_chart,
    experiment_csv,
    render_figure,
    sweep_csv,
)
from repro.metrics.sweep import run_load_sweep


@pytest.fixture(scope="module")
def tiny_fig5():
    return fig5.run(scale="tiny", loads=[0.5, 1.0], measure_cycles=600,
                    warmup_cycles=100)


class TestCSV:
    def test_sweep_csv_parses(self, tiny_fig5):
        text = sweep_csv(tiny_fig5)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 4  # 2 series x 2 loads
        assert {r["series"] for r in rows} == {
            "bi-directional", "uni-directional",
        }
        for r in rows:
            assert r["experiment"] == "FIG5"
            float(r["load"])
            float(r["norm_deadlocks"])
            int(r["deadlocks"])

    def test_capped_census_rows_are_flagged_in_the_last_column(self):
        base = tiny_default(
            bidirectional=False, max_cycles_counted=2,
            measure_cycles=600, warmup_cycles=100,
        )
        sweep = run_load_sweep(base, [0.1, 1.0], "s")
        text = sweep_csv(ExperimentResult("FIGX", "d", {"s": sweep}))
        header, *rows = list(csv.reader(io.StringIO(text)))
        assert header[-1] == "cycles_capped"
        assert [r.cycle_count_saturated for r in sweep.results] == [False, True]
        assert [row[-1] for row in rows] == ["0", "1"]

    def test_experiment_csv_single_header(self, tiny_fig5):
        text = experiment_csv([tiny_fig5, tiny_fig5])
        lines = text.strip().splitlines()
        assert lines[0].startswith("experiment,series,load")
        assert sum(1 for ln in lines if ln.startswith("experiment,")) == 1
        assert len(lines) == 1 + 8


class TestAsciiChart:
    def test_empty_series(self):
        assert "(no data)" in ascii_chart({"a": []}, title="t")

    def test_marks_present(self):
        chart = ascii_chart(
            {"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]},
            title="T", width=20, height=8,
        )
        assert "o" in chart and "x" in chart
        assert "o=up" in chart and "x=down" in chart
        assert chart.splitlines()[0] == "T"

    def test_log_scale(self):
        chart = ascii_chart(
            {"s": [(0, 1), (1, 1000)]}, log_y=True, width=20, height=6
        )
        assert "(log y)" in chart

    def test_constant_series_does_not_crash(self):
        chart = ascii_chart({"s": [(0, 5), (1, 5)]}, width=10, height=4)
        assert "o" in chart

    def test_dimensions_respected(self):
        chart = ascii_chart({"s": [(0, 0), (9, 9)]}, width=30, height=10)
        body = [ln for ln in chart.splitlines() if "|" in ln or "+" in ln]
        assert len(body) == 10

    def test_render_figure_from_experiment(self, tiny_fig5):
        chart = render_figure(tiny_fig5, "norm_deadlocks")
        assert "FIG5" in chart
        assert "normalized load" in chart
        chart2 = render_figure(tiny_fig5, "blocked_pct")
        assert "blocked_pct" in chart2
