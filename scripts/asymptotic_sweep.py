#!/usr/bin/env python3
"""Asymptotics sweep: blow-up scales, potential peaks, maximizer ratios.

Prints, for each exponent, the quantities whose large-p limits are known in
closed form, so the convergence trends are visible in one table:

    ell_hat        -> 7.1979
    max f_p (pos)  -> 2         at c_p / eps_plus  -> sqrt(8)
    max f_p (neg)  -> ell^2 + 2 at d_p / eps_minus -> delta

Usage: python scripts/asymptotic_sweep.py [--p 10,50,100,200,400]
"""

import argparse
import math

from lanemorse import limit_constants, scales, solve_nodal


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", default="10,50,100,200,400")
    args = ap.parse_args()
    ps = [float(tok) for tok in args.p.split(",")]
    k = limit_constants()

    print(f"{'p':>6} {'u0':>8} {'r_p':>10} {'s_p':>10} {'ell_hat':>8} "
          f"{'max+':>7} {'c/eps+':>7} {'max-':>7} {'d/eps-':>7}")
    for p in ps:
        sol = solve_nodal(p)
        sc = scales(sol)
        print(f"{p:6g} {sol.u0:8.4f} {sol.r_p:10.3e} {sol.s_p:10.3e} "
              f"{sc.ell_hat:8.4f} {sol.max_plus:7.4f} "
              f"{sol.c_p / sc.eps_plus:7.4f} {sol.max_minus:7.3f} "
              f"{sol.d_p / sc.eps_minus:7.4f}")

    print(f"\nlimits:        {'':24}  {k.ell:8.4f} {2.0:7.4f} "
          f"{math.sqrt(8.0):7.4f} {k.ell**2 + 2.0:7.3f} {k.delta:7.4f}")


if __name__ == "__main__":
    main()
