"""Blow-up scales, rescaled profiles and the weighted potential f_p.

Everything here is a pure function of a computed RadialSolution, and reads
u and f_p through its one evaluator, eval() and ln_fp(). Quantities
involving |u|^(p-1) are evaluated as exp((p-1) ln|u|) throughout, unclamped;
naive powering would overflow well before p ~ 10^3. The maximizers and
maxima of f_p are fields of the solution, read off the shooting events by
radial.solve_nodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .radial import RadialSolution

__all__ = [
    "Scales",
    "scales",
    "rescaled_profile",
    "rescaled_potential",
    "fp_values",
]


@dataclass
class Scales:
    """Blow-up scales of the two nodal regions and derived ratios.

    eps_plus^(-2) = p u(0)^(p-1) and eps_minus^(-2) = p |u(s_p)|^(p-1);
    ell_hat = s_p / eps_minus is the finite-p estimate of the limit ratio
    (reference value 7.1979).
    """

    eps_plus: float
    eps_minus: float
    ell_hat: float
    ratio_plus: float
    ratio_minus: float


def _blowup_scale(sol: RadialSolution, name: str, amp: float) -> float:
    """exp(-(ln p + (p-1) ln|amp|) / 2); ConfigError where it underflows to 0."""
    ln_eps = -0.5 * (math.log(sol.p) + (sol.p - 1.0) * math.log(abs(amp)))
    eps = math.exp(ln_eps)
    if eps == 0.0:
        raise ConfigError(
            f"blow-up scale {name} = exp({ln_eps:.6g}) underflows float64 "
            f"at p={sol.p}, N={sol.N}")
    return eps


def scales(sol: RadialSolution) -> Scales:
    eps_plus = _blowup_scale(sol, "eps_plus", sol.u0)
    eps_minus = _blowup_scale(sol, "eps_minus", sol.u_min)
    return Scales(
        eps_plus=eps_plus,
        eps_minus=eps_minus,
        ell_hat=sol.s_p / eps_minus,
        ratio_plus=sol.r_p / eps_plus,
        ratio_minus=eps_minus / sol.r_p,
    )


def _region(sol: RadialSolution, sign: str, x):
    """(u(eps x), reference amplitude) in the requested nodal region."""
    sc = scales(sol)
    regions = {"+": (sc.eps_plus, sol.u0), "-": (sc.eps_minus, sol.u_min)}
    if sign not in regions:
        raise ConfigError(f"sign must be '+' or '-', got {sign!r}")
    eps, amp = regions[sign]
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (eps * x <= 1.0)):  # negated, so that nan fails it
        raise ConfigError("rescaled radius outside the unit ball")
    return sol.eval(eps * x)[0], amp


def rescaled_profile(sol: RadialSolution, sign: str, x):
    """z_p(x) = p (u(eps x) - u_ref) / u_ref in the chosen nodal region.

    u_ref is u(0) for '+' and u(s_p) for '-'; requires eps * x <= 1.
    """
    u, amp = _region(sol, sign, x)
    return sol.p * (u - amp) / amp


def rescaled_potential(sol: RadialSolution, sign: str, x):
    """V_p(x) = |u(eps x) / u_ref|^(p-1), evaluated in log space."""
    u, amp = _region(sol, sign, x)
    with np.errstate(divide="ignore", under="ignore"):
        v = np.exp((sol.p - 1.0) * (np.log(np.abs(u)) - math.log(abs(amp))))
    return float(v) if np.ndim(v) == 0 else v


def fp_values(sol: RadialSolution, r):
    """f_p(r) = p |u(r)|^(p-1) r^2 for scaled radii r (vectorized)."""
    f = np.exp(sol.ln_fp(r))
    return float(f) if np.ndim(f) == 0 else f
