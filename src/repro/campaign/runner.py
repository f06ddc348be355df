"""Checkpointed, fault-tolerant campaign execution.

:class:`CampaignRunner` wraps the sweep paths of :mod:`repro.metrics` with
the durability a multi-hundred-point figure regeneration needs:

* every completed point is persisted to a :class:`~repro.campaign.store.
  ResultStore` the moment it finishes (written atomically *by the worker
  process itself*, so a parent crash loses nothing);
* each point runs in its own killable worker process with a configurable
  **wall-clock timeout** — a hung simulation is terminated and respawned
  instead of wedging the whole sweep;
* failures **retry with exponential backoff**, and a point that exhausts
  its retries degrades to a structured
  :class:`~repro.campaign.store.PointFailure` in the manifest while every
  sibling point keeps running;
* re-invoking the same campaign **resumes**: points already in the store
  are loaded instead of re-run.  Simulations are deterministic given their
  config (seed included), so a resumed campaign's merged
  :class:`~repro.metrics.sweep.SweepResult` is bit-identical to an
  uninterrupted run's.

Both fresh and resumed points are materialized *through the store* (the
worker writes the artifact, the parent loads it back), so the merged sweep
never depends on which side of an interruption a point ran on.

Retry/timeout/resume activity is counted on a live
:class:`~repro.obs.registry.MetricsRegistry` (``campaign/*`` counters) and
mirrored into the manifest, where ``repro campaign status`` reads it.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _sentinel_wait
from typing import Callable, Optional, Sequence

from repro.config import SimulationConfig
from repro.campaign.store import PointFailure, ResultStore, StoredPoint
from repro.faults import active_faults, first_trigger, point_fault_matches
from repro.metrics.stats import RunResult
from repro.metrics.sweep import SweepResult, obs_rollup
from repro.obs.registry import MetricsRegistry

__all__ = ["CampaignRunner", "CampaignSweep", "sweep_from_points"]

#: how long a hang-point fault sleeps — far past any sane per-point timeout
_HANG_SECONDS = 3600.0

#: upper bound on one scheduler wait; the real wake signal is the worker
#: process sentinels (zero-CPU blocking wait, instant wake on child exit),
#: this only caps how stale a timeout/backoff deadline check can get
_MAX_WAIT_SECONDS = 0.25


def _apply_point_faults(config: SimulationConfig) -> None:
    """Arm the campaign-level injected faults (test-only; see repro.faults)."""
    faults = active_faults()
    if not faults:
        return
    label = config.label()
    if not point_fault_matches(label):
        return
    if "crash-point" in faults:
        raise RuntimeError(f"injected crash-point for {label}")
    if "flaky-point" in faults and first_trigger("flaky-point", label):
        raise RuntimeError(f"injected flaky-point (first attempt) for {label}")
    if "hang-point" in faults and first_trigger("hang-point", label):
        time.sleep(_HANG_SECONDS)


def _point_worker(
    store_root: str, schema_version: int, config: SimulationConfig
) -> None:
    """Run one point to completion and persist it (child-process entry).

    The worker writes the artifact itself — atomically — so the result is
    durable even if the parent dies before collecting it.  Failures land in
    a sidecar error file the parent consumes to label the retry.
    """
    store = ResultStore(store_root, schema_version=schema_version)
    digest = store.digest(config)
    try:
        _apply_point_faults(config)
        from repro.network.simulator import NetworkSimulator

        sim = NetworkSimulator(config)
        result = sim.run()
        store.write(config, result, sim.obs.snapshot())
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        store.write_error(
            digest, f"{type(exc).__name__}: {exc}", traceback.format_exc()
        )
        sys.exit(1)


@dataclass
class _Task:
    index: int
    config: SimulationConfig
    digest: str
    attempts: int = 0
    eligible_at: float = 0.0  #: monotonic time before which it must not run


@dataclass
class _Running:
    task: _Task
    process: object
    deadline: Optional[float]


@dataclass
class CampaignSweep:
    """Outcome of one campaign sweep invocation.

    ``sweep`` holds the merged results of every *completed* point (resumed
    or freshly run) in load order; degraded points appear in ``failures``
    (and on ``sweep.failures``) instead of aborting the run.
    """

    sweep: SweepResult
    failures: list[PointFailure] = field(default_factory=list)
    resumed: int = 0  #: points skipped because the store already had them
    executed: int = 0  #: points run to completion this invocation
    remaining: int = 0  #: points not attempted (interrupted via max_points)


def sweep_from_points(
    base: SimulationConfig, loads: Sequence[float], label: str, out: dict
) -> CampaignSweep:
    """The sweep of ``base`` over ``loads`` from a runner's ``run_points``
    result ``out`` on ``[base.replace(load=load) for load in loads]``.

    Completed points land in load order; failed ones on ``sweep.failures``.
    """
    from repro.network.simulator import build_topology

    done = sorted(out["completed"])
    points: list[StoredPoint] = [out["completed"][i] for i in done]
    done_loads = [loads[i] for i in done]
    sweep = SweepResult(
        label=label or base.label(),
        loads=done_loads,
        results=[p.result for p in points],
        capacity=build_topology(base).capacity_flits_per_node_cycle,
        obs=obs_rollup(done_loads, [p.obs for p in points]),
        failures=list(out["failures"]),
    )
    counts = {key: out[key] for key in ("resumed", "executed", "remaining")}
    return CampaignSweep(sweep=sweep, failures=out["failures"], **counts)


class CampaignRunner:
    """Drives configs through killable workers against a result store.

    Parameters
    ----------
    store:
        The :class:`~repro.campaign.store.ResultStore` (or a path to one).
    retries:
        Re-attempts per point after the first failure (default 2).
    backoff_s:
        Base of the exponential retry backoff: attempt *n* waits
        ``backoff_s * 2**(n-1)`` before respawning (default 0.25 s).
    timeout_s:
        Per-point wall-clock budget; a worker past it is killed and the
        attempt counts as a (retryable) timeout.  ``None`` disables.
    max_workers:
        Concurrent worker processes (default: cores - 1).
    max_points:
        Stop scheduling after this many fresh point executions — an
        explicit interruption hook used by the resume tests and the
        ``campaign_smoke`` CI stage.  ``None`` runs everything.
    registry:
        Live metrics registry for the ``campaign/*`` counters (a fresh one
        is created when omitted; never the null registry — campaign
        accounting is part of the durable record, not optional telemetry).
    """

    def __init__(
        self,
        store: ResultStore | str,
        *,
        retries: int = 2,
        backoff_s: float = 0.25,
        timeout_s: Optional[float] = None,
        max_workers: Optional[int] = None,
        max_points: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        if max_workers is None:
            max_workers = (os.cpu_count() or 2) - 1
        self.workers = max(1, max_workers)
        self.max_points = max_points
        self.registry = registry if registry is not None else MetricsRegistry()
        # fork keeps per-point spawns cheap; spawn is the portable fallback
        try:
            self._ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = get_context()

    # -- public API --------------------------------------------------------------
    def run_sweep(
        self,
        base: SimulationConfig,
        loads: Sequence[float],
        label: str = "",
        *,
        progress: Callable[[SimulationConfig, RunResult], None] | None = None,
    ) -> CampaignSweep:
        """Checkpointed drop-in for ``run_load_sweep``.

        Returns the merged sweep over every completed point; raises only on
        store-level problems (schema mismatch), never on point failures.
        """
        configs = [base.replace(load=load) for load in loads]
        out = self.run_points(configs, progress=progress)
        return sweep_from_points(base, loads, label, out)

    def run_points(
        self,
        configs: Sequence[SimulationConfig],
        *,
        progress: Callable[[SimulationConfig, RunResult], None] | None = None,
    ) -> dict:
        """Run an arbitrary batch of configs through the store.

        Returns ``{"completed": {index: StoredPoint}, "failures": [...],
        "resumed": n, "executed": n, "remaining": n}``.
        """
        manifest = self.store.load_manifest()  # schema-checked
        points = manifest.setdefault("points", {})
        counters = manifest.setdefault("counters", {})
        self.registry.counter("campaign/points_total").inc(len(configs))

        completed: dict[int, StoredPoint] = {}
        failures: list[PointFailure] = []
        tasks: deque[_Task] = deque()
        resumed = 0
        for index, config in enumerate(configs):
            digest = self.store.digest(config)
            if self.store.has(config):
                completed[index] = self.store.load(config)
                self._mark(points, digest, config, status="done")
                resumed += 1
            else:
                tasks.append(_Task(index=index, config=config, digest=digest))
        if resumed:
            self.registry.counter("campaign/points_resumed").inc(resumed)
            counters["resumed"] = counters.get("resumed", 0) + resumed
        self.store.save_manifest(manifest)

        executed = 0
        started = 0
        running: list[_Running] = []
        waiting: list[_Task] = []
        skipped: list[_Task] = []  # fresh points beyond the max_points budget

        def budget_left() -> bool:
            return self.max_points is None or started < self.max_points

        while tasks or waiting or running:
            now = time.monotonic()
            still_waiting = []
            for task in waiting:
                if now >= task.eligible_at:
                    tasks.append(task)
                else:
                    still_waiting.append(task)
            waiting = still_waiting

            while tasks and len(running) < self.workers:
                task = tasks.popleft()
                if task.attempts == 0:
                    # retries always finish; only *fresh* points consume the
                    # interruption budget
                    if not budget_left():
                        skipped.append(task)
                        continue
                    started += 1
                running.append(self._spawn(task))

            if not running:
                if waiting:
                    # everything left is backing off: sleep to the deadline
                    time.sleep(
                        max(0.0, min(t.eligible_at for t in waiting) - now)
                    )
                    continue
                break

            progressed = False
            now = time.monotonic()
            for entry in list(running):
                task, process = entry.task, entry.process
                if process.is_alive():
                    if entry.deadline is not None and now >= entry.deadline:
                        self._kill(process)
                        running.remove(entry)
                        progressed = True
                        self.store.read_error(task.digest)  # drop stale sidecar
                        self._record_attempt_failure(
                            task,
                            error=(
                                f"point exceeded {self.timeout_s:g}s "
                                f"wall-clock timeout; worker killed"
                            ),
                            kind="timeout",
                            manifest=manifest,
                            tasks=waiting,
                            failures=failures,
                        )
                    continue
                process.join()
                running.remove(entry)
                progressed = True
                if self.store.has(task.config):
                    self.store.read_error(task.digest)  # drop stale sidecar
                    point = self.store.load(task.config)
                    completed[task.index] = point
                    executed += 1
                    self.registry.counter("campaign/points_executed").inc()
                    counters["executed"] = counters.get("executed", 0) + 1
                    self._mark(
                        points,
                        task.digest,
                        task.config,
                        status="done",
                        attempts=task.attempts,
                    )
                    self.store.save_manifest(manifest)
                    if progress is not None:
                        progress(task.config, point.result)
                else:
                    err = self.store.read_error(task.digest) or {}
                    message = err.get(
                        "error",
                        f"worker exited with code {process.exitcode} "
                        f"without writing a result",
                    )
                    self._record_attempt_failure(
                        task,
                        error=message,
                        kind="error",
                        manifest=manifest,
                        tasks=waiting,
                        failures=failures,
                    )
            if not progressed:
                # block until a worker exits (sentinel fires) or the next
                # deadline — timeout or backoff eligibility — comes due;
                # no polling, so an idle parent costs no worker CPU
                now = time.monotonic()
                due = [_MAX_WAIT_SECONDS]
                due.extend(
                    e.deadline - now
                    for e in running
                    if e.deadline is not None
                )
                due.extend(t.eligible_at - now for t in waiting)
                _sentinel_wait(
                    [e.process.sentinel for e in running],
                    timeout=max(0.0, min(due)),
                )

        remaining = len(tasks) + len(waiting) + len(skipped)
        self.store.save_manifest(manifest)
        return {
            "completed": completed,
            "failures": failures,
            "resumed": resumed,
            "executed": executed,
            "remaining": remaining,
        }

    # -- internals ---------------------------------------------------------------
    def _spawn(self, task: _Task) -> _Running:
        task.attempts += 1
        process = self._ctx.Process(
            target=_point_worker,
            args=(str(self.store.root), self.store.schema_version, task.config),
            daemon=True,
        )
        process.start()
        deadline = (
            time.monotonic() + self.timeout_s
            if self.timeout_s is not None
            else None
        )
        return _Running(task=task, process=process, deadline=deadline)

    @staticmethod
    def _kill(process) -> None:
        process.terminate()
        process.join(0.5)
        if process.is_alive():  # pragma: no cover - stubborn worker
            process.kill()
            process.join()

    def _record_attempt_failure(
        self,
        task: _Task,
        *,
        error: str,
        kind: str,
        manifest: dict,
        tasks: list[_Task],
        failures: list[PointFailure],
    ) -> None:
        """Route a failed attempt to backoff-retry or terminal degradation."""
        counters = manifest.setdefault("counters", {})
        if kind == "timeout":
            self.registry.counter("campaign/timeouts").inc()
            counters["timeouts"] = counters.get("timeouts", 0) + 1
        if task.attempts <= self.retries:
            self.registry.counter("campaign/retries").inc()
            counters["retries"] = counters.get("retries", 0) + 1
            task.eligible_at = time.monotonic() + self.backoff_s * (
                2 ** (task.attempts - 1)
            )
            tasks.append(task)
            self.store.save_manifest(manifest)
            return
        failure = PointFailure(
            label=task.config.label(),
            digest=task.digest,
            load=task.config.load,
            seed=task.config.seed,
            error=error,
            attempts=task.attempts,
            kind=kind,
        )
        failures.append(failure)
        self.registry.counter("campaign/failures").inc()
        counters["failures"] = counters.get("failures", 0) + 1
        self._mark(
            manifest["points"],
            task.digest,
            task.config,
            status="failed",
            attempts=task.attempts,
            error=error,
            kind=kind,
        )
        self.store.save_manifest(manifest)

    @staticmethod
    def _mark(
        points: dict,
        digest: str,
        config: SimulationConfig,
        *,
        status: str,
        attempts: Optional[int] = None,
        error: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> None:
        entry = points.setdefault(
            digest,
            {"label": config.label(), "load": config.load, "seed": config.seed},
        )
        entry["status"] = status
        if attempts is not None:
            entry["attempts"] = attempts
        if error is not None:
            entry["error"] = error
        if kind is not None:
            entry["kind"] = kind
        elif status == "done":
            entry.pop("error", None)
            entry.pop("kind", None)
