"""Confirm that the benchmark's exponent bands stay on the expected answer.

Scans each workload band on a fixed grid through the public CLI and prints,
per point, the Morse total, the radial index, stability and the distance of
the closest ledger sum to the 1e-7 tie window (solve points: the shooting
residual and the ordering checks). Run from the repository root:

    python3 perfbench/scan_bands.py

The results at the commit that introduced the benchmark are recorded in
perfbench/README.md.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lanemorse.cli import parse_args, run  # noqa: E402

TIE_EPS = 1e-7


def _morse(p: float, N: int, tie_known: bool) -> tuple[int, int, bool, float]:
    code, text = run(parse_args(["morse", "--p", f"{p:.6f}", "--N", str(N)]))
    rec = json.loads(text)["results"]["morse"][0]
    # at large p the (i=2, k=1) sum beta_2 + (N-1) sits inside the tie window
    # by design (README, numerical notes); it is bounded by the beta_2 check
    sums = [e["sum"] for e in rec["ledger_detail"]
            if not (tie_known and e["i"] == 2 and e["k"] == 1)]
    gap = min(abs(s) for s in sums) - TIE_EPS
    if tie_known and rec["beta2"] < -(N - 1) - TIE_EPS:
        gap = -math.inf
    return rec["total"], rec["m_rad"], code == 0 and rec["stable"], gap


def scan_morse(name: str, N: int, lo: float, hi: float, n: int, total: int,
               tie_known: bool = False) -> bool:
    ok = True
    worst = math.inf
    for i in range(n):
        p = lo + (hi - lo) * i / (n - 1)
        tot, m_rad, stable, gap = _morse(p, N, tie_known)
        good = tot == total and m_rad == 2 and stable and gap > 0
        ok &= good
        worst = min(worst, gap)
        print(f"{name} N={N} p={p:9.4f} total={tot} m_rad={m_rad} "
              f"stable={stable} tie_gap={gap:.3e} {'ok' if good else 'FAIL'}",
              flush=True)
    print(f"{name} N={N} [{lo}, {hi}] {n} points: "
          f"{'all ok' if ok else 'FAILED'}, closest ledger sum "
          f"{worst:.3e} outside the tie window", flush=True)
    return ok


def scan_solve(lo: float, hi: float, n: int) -> bool:
    ok = True
    worst = 0.0
    for i in range(n):
        p = math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i / (n - 1))
        code, text = run(parse_args(["solve", "--p", f"{p:.6f}", "--N", "2"]))
        rec = json.loads(text)["results"]["solve"][0]
        good = (code == 0 and rec["residual_sup"] < 1e-7
                and 0 < rec["r_p"] < rec["s_p"] < 1 and rec["u_min"] < 0)
        ok &= good
        worst = max(worst, rec["residual_sup"])
        print(f"solve-ladder p={p:9.4f} residual={rec['residual_sup']:.2e} "
              f"{'ok' if good else 'FAIL'}", flush=True)
    print(f"solve-ladder [{lo}, {hi}] {n} points: "
          f"{'all ok' if ok else 'FAILED'}, worst residual {worst:.2e}", flush=True)
    return ok


def main() -> int:
    results = [
        scan_morse("sweep-small-p", 2, 4.0, 14.0, 41, 10),
        scan_morse("sweep-small-p", 3, 1.5, 3.3, 37, 10),
        scan_solve(2.0, 760.0, 41),
        scan_morse("morse-large-p", 2, 380.0, 420.0, 5, 12, tie_known=True),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
