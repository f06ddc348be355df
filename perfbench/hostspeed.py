"""Host-speed calibration: times in reference-host seconds.

The two-core virtual machine the bounds were set on changes speed by up
to two times from one second to the next, and drifts by a quarter over
minutes, for reasons outside the guest: the same figure, same seed, same
process took 12.7 s and 7.6 s within three minutes, with CPU time moving
the same way.  No run length averages that away.  So the benchmark samples
the host's speed where the work runs, with a fixed pure-Python kernel
that does not touch the program, and reports times scaled to the speed
at which one kernel run takes ``REFERENCE_SAMPLE_S``::

    reference seconds = host seconds * REFERENCE_SAMPLE_S / mean(samples)

``samples`` are the kernel times taken while the timed work ran: after
every simulated point, in whichever process ran it (the measuring
process, a forked campaign worker or a TCP worker), and in the measuring
process just before and after.  A change to the program moves the scaled
time as it moves the host time; a slow stretch of the host slows the
work and the kernel alike, and cancels.  The mean, not the median: the
host flips between two speeds, and the mean of samples spread over the
work weighs each speed by the share of the time it held.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from pathlib import Path

__all__ = ["REFERENCE_SAMPLE_S", "Calibrator", "sample", "scale"]

#: iterations of the kernel's loop: about 7.5 ms a run on the reference host
KERNEL_ITERATIONS = 60_000

#: median time of one kernel run on the two-core virtual machine the
#: bounds were set on, over 400 runs
REFERENCE_SAMPLE_S = 0.0075

#: after a point, the kernel runs for about this share of the point's
#: own run time, and at least once
SAMPLE_SHARE = 0.03


def _kernel() -> list:
    """Dictionary updates and a sort: the interpreter work the simulator
    spends its time on, with nothing of the program in it."""
    table: dict = {}
    for i in range(KERNEL_ITERATIONS):
        key = i % 997
        table[key] = table.get(key, 0) + i
    return sorted(table.values())


def sample() -> float:
    """CPU seconds of one kernel run on the calling thread.  CPU time, not
    wall time, so that a sample taken while other processes want the same
    core (the campaign workloads run more processes than there are cores)
    counts the host's speed, not the wait for a turn on it: a slow host
    slows CPU time as much as wall time."""
    start = time.thread_time()
    _kernel()
    return time.thread_time() - start


def scale(host_s: float, samples: list[float]) -> float:
    """``host_s`` in reference-host seconds, given kernel ``samples``
    taken while it was measured."""
    return host_s * REFERENCE_SAMPLE_S / statistics.fmean(samples)


class Calibrator:
    """Kernel samples of a process tree, gathered in ``directory``.

    Every process appends its samples to a file of its own, so forked
    point workers and separate worker interpreters can sample too.
    ``spent_s`` is the time the creating process spent sampling, which
    the caller takes out of its timed work; samples in other processes
    run beside the work of the rest and are not taken out.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.spent_s = 0.0
        self._owner = os.getpid()

    def take(self, count: int = 1) -> None:
        took = [sample() for _ in range(count)]
        if os.getpid() == self._owner:
            self.spent_s += sum(took)
        with open(self.directory / f"{os.getpid()}.txt", "a") as out:
            out.write("".join(f"{t!r}\n" for t in took))

    def collect(self) -> list[float]:
        """Every sample taken since the last ``collect``, of every process."""
        samples = []
        for path in sorted(self.directory.glob("*.txt")):
            samples += [float(line) for line in path.read_text().split()]
            path.unlink()
        return samples

    def wrap(self, fn):
        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            took = time.perf_counter() - start
            self.take(max(1, round(SAMPLE_SHARE * took / REFERENCE_SAMPLE_S)))
            return result

        return sampled

    def install(self) -> None:
        """Sample after ``run`` of ``NetworkSimulator`` and of every loaded
        engine subclass that overrides it, in this process and in every
        process forked from it.  Engine tiers not loaded yet are not
        imported here (they would add numpy to ``peak_rss_mb``); none of
        them overrides ``run`` today."""
        from repro.network.simulator import NetworkSimulator

        todo = [NetworkSimulator]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "run" in cls.__dict__:
                cls.run = self.wrap(cls.__dict__["run"])
