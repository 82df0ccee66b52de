"""CPU-speed calibration for the end-to-end times.

On a shared host the CPUs run the same work up to 1.8x slower, in states
that change every few seconds and last from seconds to minutes
(neighbours on the same machine), and the slowdown hits the CPU time of a
process as much as its wall time; both CPUs of the benchmark move
together. A probe process runs a small fixed kernel every ``PERIOD_S``
while the workload runs and records the kernel's CPU time. The mean kernel
time over a repetition follows the speed the repetition ran at, so a
repetition's time divided by it is several times steadier than the time.

The kernel does not use ebicglm: it is a fixed mix of the operations that
dominate the package's small fits (numpy calls on a 200 x 8 matrix and
interpreted code that allocates small objects), so a change to the package
moves the workload's time and not the calibration. The probe takes about
5% of one CPU.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# scaled times read in seconds at the speed where one kernel pass takes
# this long, a little slower than the host where the baseline was measured
# in its fast state
REFERENCE_S = 0.005

PERIOD_S = 0.1
# about equal time in each half: numpy calls on small arrays, and
# interpreted code that builds small dicts, lists and tuples; on one
# dataset of cli-select the pair tracked the repetition times better than
# either half alone
_NUMPY_ITERATIONS = 150
_OBJECT_ITERATIONS = 3000


def kernel() -> float:
    """CPU seconds of one pass of the fixed kernel in this process."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 8))
    beta = rng.standard_normal(8) * 0.1
    acc = 0.0
    t0 = time.process_time()
    for _ in range(_NUMPY_ITERATIONS):
        mu = 1.0 - np.exp(-np.exp(X @ beta))
        w = mu * (1.0 - mu)
        acc += float(((X * w[:, None]).T @ X)[0, 0])
    for i in range(_OBJECT_ITERATIONS):
        d = {"a": i, "b": [i, i + 1]}
        acc += len(d["b"]) + d["a"] % 7 + len(tuple(range(i % 9)))
    elapsed = time.process_time() - t0
    if not acc > 0.0:
        raise ArithmeticError("calibration kernel produced a non-positive sum")
    return elapsed


def _probe(path) -> None:
    """Append "<perf_counter at start> <CPU seconds>" for one kernel pass
    every ``PERIOD_S`` seconds to ``path`` until killed."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    while True:
        start = time.perf_counter()
        os.write(fd, f"{start!r} {kernel()!r}\n".encode())
        time.sleep(max(0.0, PERIOD_S - (time.perf_counter() - start)))


class SpeedProbe:
    """The probe as a child process (a fresh interpreter, so its memory does
    not count in a fork-sized peak RSS) writing to ``path``. Use as a context
    manager: entering waits for the first sample, leaving kills the probe and
    waits for it."""

    def __init__(self, path):
        self.path = Path(path)
        self.proc = None

    def __enter__(self):
        self.path.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.path)],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not self.samples():
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the speed probe did not start")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None
        return False

    def samples(self) -> list:
        out = []
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                parts = line.split()
                if len(parts) == 2:  # the last line may be cut by the kill
                    out.append((float(parts[0]), float(parts[1])))
        return out


def mean_speed(samples, start: float, end: float) -> float:
    """Mean kernel seconds of the samples that started in [start, end], or
    of all samples when none did (a repetition shorter than the period)."""
    inside = [cpu for t, cpu in samples if start <= t <= end]
    values = inside or [cpu for _t, cpu in samples]
    if not values:
        raise RuntimeError("the speed probe recorded no sample")
    return statistics.fmean(values)


if __name__ == "__main__":
    _probe(sys.argv[1])
