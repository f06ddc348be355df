"""The repository's benchmark: one workload, measured end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig5-bench --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run.
Either way every point of every run is checked bit for bit against the
legacy reference engine.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  On any
failed or differing point the diagnostics go to standard error, the JSON
carries ``"correct": false`` and no metrics, and the exit code is 1.

Workloads, metrics and what each should move are described in README.md
beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: everything a run writes: stores, span dumps, cached references, temp files
WORK = ROOT / ".bench_work"

#: set-up probes per run, half before and half after the timed runs, so
#: that setup_s (their median) samples the host at both ends of the run
SETUP_PROBES = 8

#: the timed runs may take this many times ``--seconds``, plus the margin
#: (which covers a traced run's fixed work), before they count as hung
MEASURE_TIMEOUT_FACTOR = 3
MEASURE_TIMEOUT_MARGIN_S = 90

#: workloads with at most this many points list the census per point
CENSUS_LISTED_POINTS = 12

#: the three times are in reference-host seconds (hostspeed.py); the
#: host seconds they were scaled from are printed above the JSON line
END_TO_END = (
    ("ref_wall_s", "s"),
    ("cycles_per_ref_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _child(args: list[str], timeout: float) -> str:
    """Run ``child.py args`` and return its output.  A child that fails or
    outlives ``timeout`` ends the benchmark with an error and no result;
    on a timeout its whole process group (workers and forks) is killed."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: child {args[0]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: child {args[0]} failed with code {proc.returncode}")
    return out


def _setup_probes(workload: str, seed: int, count: int) -> list[dict]:
    return [
        json.loads(_child(["setup", workload, str(seed)], 120).splitlines()[-1])
        for _ in range(count)
    ]


def _print_census(report: dict) -> None:
    """Census cap hits; per point, with ``>=`` on capped means, for
    workloads small enough to list."""
    census = report["census"]
    print(f"  census: {census['capped_passes']} of {census['passes']} detection passes "
          f"hit the cycle-count cap; {census['capped_points']} point(s) report "
          f"lower bounds (>=)")
    if len(census["points"]) <= CENSUS_LISTED_POINTS:
        for point in census["points"]:
            mark = ">=" if point["lower_bound"] else "  "
            print(f"    {point['label']}: avg cycles {mark}{point['avg_cycles']:.1f}")


def _end_to_end(report: dict, setup: list[dict]) -> dict:
    wall = statistics.median(report["ref_walls"])
    return {
        "ref_wall_s": wall,
        "cycles_per_ref_s": report["cycles"] / wall,
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def _print_host_times(report: dict, setup: list[dict]) -> None:
    """The host seconds the reference-host times were scaled from."""
    wall = statistics.median(report["walls"])
    host_setup = statistics.median(p["host_s"] for p in setup)
    speed = statistics.median(r / w for r, w in zip(report["ref_walls"], report["walls"]))
    print(f"  host seconds: wall_s {wall:.6g} s, cycles_per_s "
          f"{report['cycles'] / wall:.6g} 1/s, setup_s {host_setup:.6g} s; "
          f"host speed {speed:.3f} x the reference")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["TMPDIR"] = str(WORK / "tmp")
    import workloads
    from reference import reference_hashes

    known = workloads.WORKLOADS + workloads.DIAGNOSTIC_WORKLOADS
    if args.workload not in known:
        parser.error(f"--workload must be one of {', '.join(known)}")

    run_dir = WORK / f"run-{os.getpid()}"
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        reference = reference_hashes(args.workload, args.seed, WORK / "refs", run_dir / "ref")
        ref_path = run_dir / "reference.json"
        ref_path.write_text(json.dumps(reference))
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = _setup_probes(args.workload, args.seed, probes)
        out_path = run_dir / "report.json"
        _child(["measure", args.workload, str(args.seed), str(args.seconds),
                str(args.trace), str(ref_path), str(run_dir), str(out_path)],
               MEASURE_TIMEOUT_FACTOR * args.seconds + MEASURE_TIMEOUT_MARGIN_S)
        report = json.loads(out_path.read_text())
        setup += _setup_probes(args.workload, args.seed, probes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = report["failed"] == 0
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": {}}
    print(f"{args.workload} seed {args.seed}: {len(report['walls'])} timed run(s), "
          f"{report['attempted']} point(s) checked against the legacy reference engine")
    print(f"  failed_frac {report['failed'] / report['attempted']:.4f} "
          f"({report['failed']} of {report['attempted']})")
    if not correct:
        for line in report["problems"]:
            print(f"perfbench: MISMATCH {line}", file=sys.stderr)
        print(json.dumps(result))
        return 1
    _print_census(report)
    if args.trace:
        import tracing

        units = dict(tracing.LAYER_METRICS)
        values = report["layers"]
        split = report["split"]
        print(f"  split of NetworkSimulator.run ({report['run_total']:.3f} s): "
              + ", ".join(f"{k} {v:.3f} s" for k, v in split.items())
              + f" = {sum(split.values()):.3f} s")
    else:
        units = dict(END_TO_END)
        values = _end_to_end(report, setup)
        _print_host_times(report, setup)
    for name, value in values.items():
        print(f"  {name:<26} {value:.6g} {units[name]}")
        result["metrics"][name] = {"value": value, "unit": units[name]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
