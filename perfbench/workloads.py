"""The benchmark's workloads and the user paths they run through.

Every workload is a paper figure produced through the same call the CLI
makes: ``repro experiment`` calls the figure's ``run(scale=...)``, and
``repro campaign run`` / ``repro campaign serve`` first install a runner
with ``set_campaign_runner``.  The runners and the service are built with
their constructor defaults, which are the CLI's defaults (the tests check
this), so no engine tier, CWG mode, detector cache or worker count is
pinned here.  The workload seed reaches the program only as ``seed=``.

=================  ==========================================  ==============
workload           what runs                                   path
=================  ==========================================  ==============
fig5-bench         FIG5 at bench scale: 12 points, 8-ary,      direct sweeps
                   DOR 1 VC, uni and bi, 6 loads
campaign-tiny      FIG7 at tiny scale, 32 points               CampaignRunner
serve-tiny         FIG7 at tiny scale, 32 points               CampaignService
                                                               + 2 TCP workers
fig7-paper-sat     FIG7 at paper scale (16-ary, 32 flits,      direct sweeps
(diagnostic)       census on) at load 1.0, DOR1/2 TFAR1/2,
                   500 measured cycles
=================  ==========================================  ==============

Why each was chosen is in README.md beside this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "WORKLOADS",
    "DIAGNOSTIC_WORKLOADS",
    "ENTRY_MODULES",
    "SERVICE_WORKERS",
    "run_figure",
    "plan",
    "simulated_cycles",
    "run_once",
    "resume_once",
    "store_results",
]

#: the workloads BENCHMARK.json lists, in its order
WORKLOADS = ("fig5-bench", "campaign-tiny", "serve-tiny")

#: runnable by name but not gated: fig7-paper-sat's cost varies about ten
#: times across seeds (see README.md), so no bound could hold for it
DIAGNOSTIC_WORKLOADS = ("fig7-paper-sat",)

#: modules a user's process imports before the first point can run
ENTRY_MODULES = {
    "fig5-bench": ("repro.experiments.fig5",),
    "fig7-paper-sat": ("repro.experiments.fig7",),
    "campaign-tiny": ("repro.experiments.fig7", "repro.campaign"),
    "serve-tiny": ("repro.experiments.fig7", "repro.campaign.service"),
}

#: measured cycles of each fig7-paper-sat point (warm-up stays at the paper
#: default); trims a point from 30k measured cycles to about three seconds
FIG7_SAT_MEASURE_CYCLES = 500

#: TCP workers attached to the serve-tiny service: one per core of the
#: two-core machine the bounds were set on
SERVICE_WORKERS = 2

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_figure(workload: str, seed: int):
    """The figure call the workload makes; returns its ExperimentResult."""
    if workload == "fig5-bench":
        from repro.experiments import fig5

        return fig5.run(scale="bench", seed=seed)
    from repro.experiments import fig7

    if workload == "fig7-paper-sat":
        return fig7.run(
            scale="paper", loads=[1.0], vc_counts=(1, 2), seed=seed,
            measure_cycles=FIG7_SAT_MEASURE_CYCLES,
        )
    if workload in ("campaign-tiny", "serve-tiny"):
        return fig7.run(scale="tiny", seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


class _PlanRunner:
    """Campaign-runner stand-in that records each sweep's point configs and
    hands back empty results, so a figure's grid is known without running
    a cycle."""

    def __init__(self) -> None:
        self.configs = []

    def run_sweep(self, base, loads, label=""):
        from repro.campaign.runner import CampaignSweep
        from repro.metrics.stats import RunResult
        from repro.metrics.sweep import SweepResult

        configs = [base.replace(load=load) for load in loads]
        self.configs.extend(configs)
        results = [RunResult(config=c, measured_cycles=0) for c in configs]
        return CampaignSweep(
            sweep=SweepResult(label or base.label(), list(loads), results, 1.0)
        )


def plan(workload: str, seed: int) -> list:
    """Every point config the workload runs, in the order it runs them."""
    from repro.experiments.base import set_campaign_runner

    runner = _PlanRunner()
    set_campaign_runner(runner)
    try:
        run_figure(workload, seed)
    finally:
        set_campaign_runner(None)
    return runner.configs


def simulated_cycles(configs) -> int:
    return sum(c.warmup_cycles + c.measure_cycles for c in configs)


def _point_results(result) -> list:
    """``(config, RunResult)`` of every completed point of a figure."""
    return [(r.config, r) for s in result.sweeps.values() for r in s.results]


def _point_failures(result) -> list:
    return [f for s in result.sweeps.values() for f in s.failures]


def _campaign(workload: str, seed: int, store_dir: Path) -> dict:
    from repro.campaign import CampaignRunner, ResultStore
    from repro.experiments.base import set_campaign_runner

    runner = CampaignRunner(ResultStore(store_dir))
    set_campaign_runner(runner)
    try:
        start = time.perf_counter()
        result = run_figure(workload, seed)
        wall = time.perf_counter() - start
    finally:
        set_campaign_runner(None)
    return {"wall": wall, "result": result, "registry": runner.registry}


def _spawn_worker(port: int, log, samples: Path | None) -> subprocess.Popen:
    """``repro campaign worker --connect``; through ``worker.py``, which
    samples the host's speed after each point, when ``samples`` is set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # the workers stay in the measuring process's group, so killing that
    # group (run.py does, on a timeout) takes them and their point forks too
    entry = ["-m", "repro"] if samples is None else [str(HERE / "worker.py"), str(samples)]
    return subprocess.Popen(
        [sys.executable, *entry, "campaign", "worker", "--connect", f"127.0.0.1:{port}"],
        env=env, stdout=log, stderr=subprocess.STDOUT,
    )


def _stop_workers(procs: list) -> None:
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _service(workload: str, seed: int, store_dir: Path, workers: int,
             samples: Path | None = None) -> dict:
    """``repro campaign serve`` with ``workers`` attached TCP workers.

    The clock covers the same work as the CLI's ``with service:`` block:
    start, the figure, and ``stop()`` with its final manifest compaction
    and the workers' drain.
    """
    from repro.campaign.service import CampaignService, ServiceRunner
    from repro.experiments.base import set_campaign_runner

    procs: list = []
    log_path = Path(store_dir).with_suffix(".workers.log")
    with open(log_path, "ab") as log:
        try:
            start = time.perf_counter()
            with CampaignService(store_dir) as service:
                procs = [_spawn_worker(service.port, log, samples) for _ in range(workers)]
                runner = ServiceRunner(service)
                set_campaign_runner(runner)
                try:
                    result = run_figure(workload, seed)
                finally:
                    set_campaign_runner(None)
            wall = time.perf_counter() - start
        finally:
            _stop_workers(procs)
    return {"wall": wall, "result": result, "registry": runner.registry}


def run_once(workload: str, seed: int, store_dir: Path, samples: Path | None = None) -> dict:
    """One timed production of the workload's figure.

    ``samples`` is the directory of a ``hostspeed.Calibrator`` installed
    in this process; the TCP workers of serve-tiny then sample too.
    Returns ``wall`` (host seconds), ``points`` (``(config, RunResult)``
    pairs), ``failures`` (degraded points) and, for campaign workloads,
    ``store`` (the directory holding the artifacts) and ``registry``.
    """
    if workload == "campaign-tiny":
        out = _campaign(workload, seed, store_dir)
        out["store"] = store_dir
    elif workload == "serve-tiny":
        out = _service(workload, seed, store_dir, SERVICE_WORKERS, samples)
        out["store"] = store_dir
    else:
        start = time.perf_counter()
        result = run_figure(workload, seed)
        out = {"wall": time.perf_counter() - start, "result": result}
    out["points"] = _point_results(out["result"])
    out["failures"] = _point_failures(out["result"])
    return out


def resume_once(workload: str, seed: int, store_dir: Path) -> dict:
    """The figure again, on a store that already holds every point.

    ``repro campaign resume`` for the direct and campaign workloads, the
    service with no workers attached for serve-tiny.
    """
    if workload == "serve-tiny":
        out = _service(workload, seed, store_dir, 0)
    else:
        out = _campaign(workload, seed, store_dir)
    out["points"] = _point_results(out["result"])
    out["failures"] = _point_failures(out["result"])
    return out


def store_results(points, store_dir: Path) -> None:
    """Write completed points as the campaign artifacts they would be."""
    from repro.campaign import ResultStore

    store = ResultStore(store_dir)
    for config, result in points:
        store.write(config, result, None)
