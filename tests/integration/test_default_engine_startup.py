"""The default engine path loads no numpy.

numpy costs ~0.09 s of import and ~11 MB in every process, and every
campaign point worker is a fork of one.  The default engine (the
vectorized SoA core) keeps its state in lists, so a fresh interpreter
that builds and steps a default config must never import numpy; and
``import repro.campaign`` must already have loaded the engine, so forked
point workers inherit it instead of importing it per point.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import repro

SRC = str(pathlib.Path(repro.__file__).parents[1])

PROBE = textwrap.dedent(
    """
    import sys

    import repro.campaign

    assert "repro.network.vectorized" in sys.modules, "engine not preloaded"

    from repro.config import bench_default
    from repro.network.simulator import NetworkSimulator
    from repro.network.vectorized import VectorizedEngine

    sim = NetworkSimulator(bench_default(seed=3))
    for _ in range(300):
        sim.step()
    assert type(sim) is VectorizedEngine, type(sim).__name__
    assert sim.cycle == 300
    assert "numpy" not in sys.modules, "numpy imported on the default path"
    print("ok")
    """
)


def test_default_path_is_vectorized_and_numpy_free():
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
