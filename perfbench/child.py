"""Subprocess entry points of the benchmark (started by run.py).

``reference`` one share of the reference runs: every ``PARTS``-th point
            from ``PART`` on, on the legacy engine, written to ``STORE``.
``setup``   one set-up probe in a fresh interpreter: import the workload's
            entry modules, then construct a ``NetworkSimulator`` for every
            point without running a cycle.  Prints ``{"host_s": ...,
            "setup_s": ...}``, the second in reference-host seconds
            (see hostspeed.py).
``measure`` the timed runs of one workload, checked against the reference
            hashes, written as a JSON report.  A process of its own, so its
            peak resident memory (with its waited-for children) is the
            workload's alone.

Usage: ``python child.py setup WORKLOAD SEED``,
``python child.py reference WORKLOAD SEED PART PARTS STORE`` or
``python child.py measure WORKLOAD SEED SECONDS TRACE REF_JSON WORK_DIR OUT_JSON``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from reference import mismatches, result_hashes, run_legacy, store_hashes

#: resumes are timed back to back for this long (at least RESUME_MIN of
#: them); runner.resume_ms is their mean
RESUME_BATCH_S = 1.0
RESUME_MIN = 5

#: host-speed samples taken before and after each set-up probe, and
#: before and after each timed production (besides the one after each
#: point that runs in the measuring process)
SETUP_SAMPLES = 5
BOUNDARY_SAMPLES = 5


def setup_probe(workload: str, seed: int) -> dict:
    """Host and reference-host seconds of the set-up, with the host's
    speed sampled just before and just after it."""
    samples = [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    for name in workloads.ENTRY_MODULES[workload]:
        importlib.import_module(name)
    imported = time.perf_counter() - start
    configs = workloads.plan(workload, seed)
    from repro.network.simulator import NetworkSimulator

    start = time.perf_counter()
    for config in configs:
        NetworkSimulator(config)
    host_s = imported + time.perf_counter() - start
    samples += [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
    return {"host_s": host_s, "setup_s": hostspeed.scale(host_s, samples)}


class Checker:
    """Counts attempted and failed points against the reference."""

    def __init__(self, reference: dict, scratch: Path) -> None:
        self.reference = reference
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, out: dict, what: str) -> None:
        """Check one figure production (its results, and its store's files
        when it ran as a campaign)."""
        self.problems += [
            f"{what}: {f.label} failed ({f.kind}): {f.error}" for f in out["failures"]
        ]
        bad = mismatches(self.reference, result_hashes(out["points"], self.scratch),
                         f"{what} results")
        if out.get("store") is not None:
            bad.update(mismatches(self.reference, store_hashes(out["store"]),
                                  f"{what} artifacts"))
        self.attempted += len(self.reference)
        self.failed += len(bad)
        self.problems += list(bad.values())

    def check_resume(self, out: dict, checked: list, what: str) -> None:
        """Check a resume against the already-checked points it reloads:
        equal ``RunResult``s, compared field by field (cheaper than
        hashing artifacts, so every resume can be checked)."""
        self.problems += [
            f"{what}: {f.label} failed ({f.kind}): {f.error}" for f in out["failures"]
        ]
        bad = sum(1 for a, b in itertools.zip_longest(out["points"], checked) if a != b)
        if bad:
            self.problems.append(f"{what}: {bad} point(s) differ from the checked run")
        self.attempted += len(checked)
        self.failed += bad


def census(points) -> dict:
    """Detection passes whose cycle count hit the cap, over all points."""
    passes = capped = capped_points = 0
    for config, result in points:
        hits = sum(1 for n in result.cycle_counts if n >= config.max_cycles_counted)
        passes += len(result.cycle_counts)
        capped += hits
        capped_points += bool(result.cycle_count_saturated)
    return {"passes": passes, "capped_passes": capped, "capped_points": capped_points,
            "points": [
                {"label": c.label(), "avg_cycles": r.avg_cycle_count,
                 "lower_bound": bool(r.cycle_count_saturated)}
                for c, r in points
            ]}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def _campaign_counters(out: dict) -> dict:
    registry = out.get("registry")
    return dict(registry.snapshot()["counters"]) if registry is not None else {}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict, work: Path) -> dict:
    for name in workloads.ENTRY_MODULES[workload]:
        importlib.import_module(name)
    checker = Checker(reference, work / "scratch")
    report: dict = {"cycles": workloads.simulated_cycles(workloads.plan(workload, seed))}
    stores = itertools.count(1)

    def cold() -> dict:
        return workloads.run_once(workload, seed, work / f"store-{next(stores)}")

    def resume_batch(store: Path, points: list, what: str) -> float:
        """Mean wall time of back-to-back resumes of ``store``."""
        walls: list[float] = []
        started = time.perf_counter()
        while len(walls) < RESUME_MIN or time.perf_counter() - started < RESUME_BATCH_S:
            again = workloads.resume_once(workload, seed, store)
            checker.check_resume(again, points, f"resume {len(walls) + 1} after {what}")
            walls.append(again["wall"])
        return statistics.fmean(walls)

    if not trace:
        # timed runs until the window is used up: another run starts only
        # if at least half of it fits, so a run lasts ``seconds`` give or
        # take half a figure.  Each run is scaled by the host speed sampled
        # just before it, after each of its points and just after it.
        cal = hostspeed.Calibrator(work / "samples")
        cal.install()
        walls, ref_walls, started, out = [], [], time.perf_counter(), None
        while not walls or time.perf_counter() - started + statistics.fmean(walls) / 2 < seconds:
            if out is not None and out.get("store") is not None:
                shutil.rmtree(out["store"])
            cal.take(BOUNDARY_SAMPLES)
            spent = cal.spent_s
            out = workloads.run_once(workload, seed, work / f"store-{next(stores)}",
                                     samples=cal.directory)
            wall = out["wall"] - (cal.spent_s - spent)
            cal.take(BOUNDARY_SAMPLES)
            checker.check(out, f"run {len(walls) + 1}")
            walls.append(wall)
            ref_walls.append(hostspeed.scale(wall, cal.collect()))
        report.update(walls=walls, ref_walls=ref_walls, census=census(out["points"]))
    else:
        from spans import SpanRecorder
        import tracing

        untraced = cold()
        checker.check(untraced, "untraced run")
        store = untraced.get("store")
        if store is None:
            store = work / "store-resume"
            workloads.store_results(untraced["points"], store)
        resume_s = resume_batch(store, untraced["points"], "untraced run")
        rec = SpanRecorder(work / "spans")
        tracing.install(rec)
        rec.reset()
        traced = cold()
        store = traced.get("store")
        resumed, store_bytes = None, 0
        if store is not None:
            store_bytes = _tree_bytes(store)
            resumed = workloads.resume_once(workload, seed, store)
        records = rec.collect()
        checker.check(traced, "traced run")
        counters = _campaign_counters(traced)
        if resumed is not None:
            checker.check_resume(resumed, traced["points"], "traced resume")
            for key, value in _campaign_counters(resumed).items():
                counters[key] = counters.get(key, 0) + value
        metrics, stats = tracing.layer_metrics(
            records, wall_traced=traced["wall"], wall_untraced=untraced["wall"],
            resume_s=resume_s, nproc=os.cpu_count() or 1, store_bytes=store_bytes,
            campaign_counters=counters,
        )
        report.update(
            walls=[untraced["wall"]], traced_wall=traced["wall"], layers=metrics,
            split={name: stats.self_s.get(name, 0.0) for name in tracing.SPLIT_NAMES},
            run_total=stats.total("engine.run"),
            census=census(traced["points"]),
        )
    report.update(attempted=checker.attempted, failed=checker.failed,
                  problems=checker.problems[:20], peak_rss_mb=_peak_rss_mb())
    return report


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        print(json.dumps(setup_probe(workload, seed)))
        return 0
    if mode == "reference":
        part, parts = int(argv[3]), int(argv[4])
        configs = workloads.plan(workload, seed)[part::parts]
        workloads.store_results([(c, run_legacy(c)) for c in configs], Path(argv[5]))
        return 0
    seconds, trace = float(argv[3]), argv[4] == "1"
    reference = json.loads(Path(argv[5]).read_text())
    report = measure(workload, seed, seconds, trace, reference, Path(argv[6]))
    Path(argv[7]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(workloads.SRC))
    sys.exit(main(sys.argv[1:]))
