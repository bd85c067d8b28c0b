"""Host-speed calibration for the benchmark's timings.

The shared virtual machines the benchmark runs on switch between speed
phases up to about 1.8x apart that last from milliseconds to minutes; CPU
time moves with wall time, so the slowdown is not steal time but a slower
CPU. A raw wall-clock median then describes the phases a run happened to
land in more than the program.

The benchmark therefore measures the host's speed while it times the
program. A background thread runs two fixed kernels that do not involve
lanemorse and records their thread CPU time, which neither the program's
own work nor its waits for the interpreter lock enter:

- interp: NumPy calls on a 64-element array (interpreter, ufunc dispatch,
  arithmetic), as in shooting and the package's Python loops;
- lapack: LAPACK bisection for three eigenvalues of a fixed 512-row
  tridiagonal matrix, as in the spectral counts.

The two slow down by different amounts in a slow phase, and so do the
workloads, depending on their mix. A workload's host speed is therefore a
weighted geometric mean of the two kernels' speeds against their reference
times, weighted by the workload's share w of interpreter-bound time (the
rest being LAPACK and NumPy calls on large arrays; see workloads.py). The
process is pinned to one CPU, so the sampler measures the CPU the requests
run on. A run's timings are reported at the reference speed:

    t_ref = t_wall * speed,
    speed = (INTERP_REF_S / mean interp time) ** w
            * (LAPACK_REF_S / mean lapack time) ** (1 - w)

A program that gets 20% slower still reads 20% slower; a host that gets 20%
slower reads about the same. The raw wall-clock figures are printed beside
the scaled ones.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

INTERP_REF_S = 1.5e-4  # CPU time of one interp kernel call at the reference speed
LAPACK_REF_S = 6.5e-4  # the same for the lapack kernel
INTERVAL_S = 0.02      # pause between two interp kernel calls of the sampler
LAPACK_EVERY = 5       # the lapack kernel runs after every LAPACK_EVERY-th one

_ITERATIONS = 40
_DIAG = 2.0 + np.random.default_rng(0).random(512)
_OFFDIAG = np.full(511, -0.9)


def _interp() -> None:
    x = np.arange(64.0)
    for _ in range(_ITERATIONS):
        x = np.sqrt(x * x + 1.0) - 0.5


def _lapack() -> None:
    eigvalsh_tridiagonal(_DIAG, _OFFDIAG, select="i", select_range=(0, 2),
                         check_finite=False)


def _cpu_s(kernel) -> float:
    """CPU seconds of one warm call of `kernel` on the calling thread."""
    kernel()  # the program may just have run: warm the caches again
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def speed(interp_s: list[float], lapack_s: list[float], interp_share: float) -> float:
    """Host speed relative to the reference (above 1 is faster) for work
    that is `interp_share` interpreter-bound, from the two kernels' times."""
    return ((INTERP_REF_S / statistics.fmean(interp_s)) ** interp_share
            * (LAPACK_REF_S / statistics.fmean(lapack_s)) ** (1.0 - interp_share))


class Sampler:
    """Times both kernels on a background thread while the block runs.

    Use as a context manager; `interp_s` and `lapack_s` hold the kernel
    times taken while the block ran.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.interp_s: list[float] = []
        self.lapack_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.interp_s.append(_cpu_s(_interp))
            if len(self.interp_s) % LAPACK_EVERY == 0:
                self.lapack_s.append(_cpu_s(_lapack))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        # a block shorter than the sampling pauses still gets a measurement
        if not self.interp_s:
            self.interp_s.append(_cpu_s(_interp))
        if not self.lapack_s:
            self.lapack_s.append(_cpu_s(_lapack))
