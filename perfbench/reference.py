"""Reference artifacts and the bit-identity check every timed run passes.

The reference for a point is the campaign artifact its config would
produce, computed with the legacy reference engine.  A run's output is
correct when each point's artifact bytes hash to the reference's: for
campaign workloads the files the run left in its store, for every
workload the ``RunResult`` the figure returned, written through the same
``ResultStore.write``.  References are computed outside the timed runs,
split over two ``child.py reference`` processes, and cached per
workload, seed and source tree, so each seed pays for them once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import SRC, store_results

__all__ = [
    "legacy",
    "reference_hashes",
    "store_hashes",
    "result_hashes",
    "mismatches",
    "run_legacy",
]

#: reference processes: the cores of the two-core machine the bounds were
#: set on; more would only contend
REFERENCE_PROCESSES = 2

HERE = Path(__file__).resolve().parent


def legacy(config):
    """The same point on the legacy reference engine, whichever engine
    tier the program's defaults select."""
    return config.replace(
        engine_fast_path=False, engine_vectorized=False, engine_kernels=False
    )


def run_legacy(config):
    """``config``'s result on the legacy engine, carrying ``config`` itself."""
    from repro.network.simulator import NetworkSimulator

    result = NetworkSimulator(legacy(config)).run()
    return dataclasses.replace(result, config=config)


def store_hashes(store_dir: Path) -> dict[str, str]:
    """``{config digest: sha256 of artifact bytes}`` for a store's points."""
    from repro.campaign import ResultStore

    points = ResultStore(store_dir).points_dir
    return {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(points.glob("*.json"))
        if not path.name.endswith(".err.json")
    }


def result_hashes(points, scratch: Path) -> dict[str, str]:
    """Artifact hashes of ``(config, RunResult)`` pairs, via a scratch store."""
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        store_results(points, scratch)
        return store_hashes(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def mismatches(expected: dict, got: dict, what: str) -> dict[str, str]:
    """``{digest: problem}`` for each point missing, unexpected or
    differing in ``got``."""
    out = {}
    for digest in sorted(expected.keys() | got.keys()):
        if digest not in got:
            out[digest] = f"{what}: point {digest} missing"
        elif digest not in expected:
            out[digest] = f"{what}: point {digest} not in the workload"
        elif got[digest] != expected[digest]:
            out[digest] = f"{what}: point {digest} differs from the reference"
    return out


def _tree_key(workload: str, seed: int) -> str:
    """Digest of everything a reference depends on: the program's source,
    the benchmark's own code, the workload and the seed."""
    h = hashlib.sha256(f"{workload}\0{seed}\0".encode())
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(SRC.parent)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def reference_hashes(workload: str, seed: int, cache_dir: Path, scratch: Path) -> dict:
    """The workload's reference artifact hashes for ``seed`` (cached)."""
    cache = Path(cache_dir) / f"{workload}-{seed}-{_tree_key(workload, seed)}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    shutil.rmtree(scratch, ignore_errors=True)
    procs = [
        subprocess.Popen([sys.executable, str(HERE / "child.py"), "reference", workload,
                          str(seed), str(part), str(REFERENCE_PROCESSES), str(scratch)],
                         cwd=SRC.parent)
        for part in range(REFERENCE_PROCESSES)
    ]
    codes = [proc.wait() for proc in procs]
    if any(codes):
        raise SystemExit(f"perfbench: reference run failed with codes {codes}")
    hashes = store_hashes(scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps(hashes, sort_keys=True))
    tmp.replace(cache)
    return hashes
