"""Tests for multi-seed replication, in process and through a campaign."""

import pytest

from repro.campaign import CampaignRunner
from repro.config import tiny_default
from repro.metrics.replication import MetricEstimate, replicate

FAST = dict(measure_cycles=400, warmup_cycles=50)


class TestMetricEstimate:
    def test_statistics(self):
        e = MetricEstimate("m", (1.0, 2.0, 3.0))
        assert e.mean == 2.0
        assert e.std == pytest.approx(1.0)
        lo, hi = e.ci95
        assert lo < 2.0 < hi
        assert "m=2" in str(e)

    def test_single_sample(self):
        e = MetricEstimate("m", (5.0,))
        assert e.mean == 5.0
        assert e.std == 0.0
        lo, hi = e.ci95
        assert lo == float("-inf") and hi == float("inf")

    def test_zero_variance(self):
        e = MetricEstimate("m", (4.0, 4.0, 4.0))
        assert e.ci95 == (4.0, 4.0)


class TestReplicate:
    def test_basic_replication(self):
        cfg = tiny_default(load=0.8, **FAST)
        rep = replicate(cfg, seeds=[1, 2, 3])
        assert len(rep.runs) == 3
        assert rep["delivered"].n == 3
        # different seeds produce different workloads
        delivered = {r.delivered for r in rep.runs}
        assert len(delivered) > 1
        assert "normalized_deadlocks" in rep.summary()

    def test_custom_metrics(self):
        cfg = tiny_default(load=0.3, **FAST)
        rep = replicate(
            cfg, seeds=[1, 2], metrics={"thr": lambda r: float(r.delivered)}
        )
        assert set(rep.estimates) == {"thr"}

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(tiny_default(), seeds=[])

    def test_parallel_replication_matches_serial(self, tmp_path):
        """Replicas fanned out through a campaign equal the serial ones."""
        cfg = tiny_default(load=0.5, **FAST)
        seeds = [7, 8]
        serial = replicate(cfg, seeds=seeds)
        out = CampaignRunner(tmp_path / "store", max_workers=2).run_points(
            [cfg.replace(seed=s) for s in seeds]
        )
        assert not out["failures"]
        runs = [out["completed"][i].result for i in range(len(seeds))]
        assert runs == list(serial.runs)
