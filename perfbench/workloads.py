"""The benchmark's workloads: seeded request streams for the lanemorse CLI.

Each workload is a closed loop with one client: the next request is sent when
the previous one has completed. A request is one CLI argv. Exponents follow a
golden-ratio (Weyl) sequence whose offset is drawn from the seed:
p_i = F^-1(frac(u + i * 0.618...)), u ~ U(0, 1), with F the band's
distribution. Every p_i therefore has the stated distribution, no exponent
repeats within a run (a cache keyed on p cannot help), and any prefix of the
stream covers the band evenly, so medians from runs of different length and
seed describe the same mix.
"""

from __future__ import annotations

import math
import random

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# why each workload was chosen: see README.md. interp_share weights the two
# host-speed kernels (speed.py): the share of request time that slows down
# like interpreter-bound work (Python code, NumPy calls on small arrays)
# rather than like LAPACK and NumPy calls on large arrays. The values follow
# the traced split at the commit that introduced the benchmark (solve-ladder
# has no spectral work; sweep-small-p spends about 30% in LAPACK,
# morse-large-p about 90% in LAPACK and 100k-row arrays) and were fitted on
# five runs per workload (steps of 0.25).
WORKLOADS = {
    "morse-large-p": {
        "anchor": ["morse", "--p", "400", "--N", "2"],
        "interp_share": 0.25,
        # (command, N, lo, hi, log-uniform)
        "bands": [("morse", 2, 380.0, 420.0, False)],
    },
    "sweep-small-p": {
        "anchor": ["sweep", "--p", "8", "--N", "2"],
        "interp_share": 0.75,
        # both bands give total 10 and keep every ledger sum outside the tie
        # window (scan in scan_bands.py, results in README.md)
        "bands": [("sweep", 2, 4.0, 14.0, False), ("sweep", 3, 1.5, 3.3, False)],
    },
    "solve-ladder": {
        "anchor": ["solve", "--p", "400", "--N", "2"],
        "interp_share": 1.0,
        "bands": [("solve", 2, 2.0, 760.0, True)],
    },
}


def requests(workload: str, seed: int):
    """Endless argv stream of the workload; the same seed gives the same stream."""
    bands = WORKLOADS[workload]["bands"]
    rng = random.Random(f"{workload}:{seed}")
    offsets = [rng.random() for _ in bands]
    i = 0
    while True:
        b = i % len(bands)
        command, N, lo, hi, log = bands[b]
        u = (offsets[b] + (i // len(bands)) * GOLDEN) % 1.0
        if log:
            p = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        else:
            p = lo + u * (hi - lo)
        i += 1
        yield [command, "--p", f"{p:.9f}", "--N", str(N)]
