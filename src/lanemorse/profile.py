"""Blow-up scales, rescaled profiles and the weighted potential f_p.

Everything here is a pure function of a computed RadialSolution. Quantities
involving |u|^(p-1) are evaluated as exp((p-1) ln|u|) throughout; naive
powering would overflow well before p ~ 10^3. The maximizers and maxima of
f_p are fields of the solution, read off the shooting events by
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


def _amplitude(sol: RadialSolution, sign: str) -> tuple[float, float]:
    """(eps, reference amplitude) for the requested nodal region."""
    sc = scales(sol)
    if sign == "+":
        return sc.eps_plus, sol.u0
    if sign == "-":
        return sc.eps_minus, sol.u_min
    raise ConfigError(f"sign must be '+' or '-', got {sign!r}")


def rescaled_profile(sol: RadialSolution, sign: str, x):
    """z_p(x) = p (u(eps x) - u_ref) / u_ref in the chosen nodal region.

    u_ref is u(0) for '+' and u(s_p) for '-'; requires eps * x <= 1.
    """
    eps, amp = _amplitude(sol, sign)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(eps * x > 1.0):
        raise ConfigError("rescaled radius outside the unit ball")
    u, _ = sol.eval(eps * np.atleast_1d(x))
    z = sol.p * (u - amp) / amp
    return float(z[0]) if x.ndim == 0 else z


def rescaled_potential(sol: RadialSolution, sign: str, x):
    """V_p(x) = |u(eps x) / u_ref|^(p-1), evaluated in log space."""
    eps, amp = _amplitude(sol, sign)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(eps * x > 1.0):
        raise ConfigError("rescaled radius outside the unit ball")
    ln_u, _ = sol.ln_abs_u(eps * np.atleast_1d(x))
    with np.errstate(under="ignore"):
        v = np.exp((sol.p - 1.0) * (ln_u - math.log(abs(amp))))
    return float(v[0]) if x.ndim == 0 else v


def fp_values(sol: RadialSolution, r):
    """f_p(r) = p |u(r)|^(p-1) r^2 for scaled radii r (vectorized)."""
    r = np.asarray(r, dtype=float)
    ln_u, _ = sol.ln_abs_u(np.atleast_1d(r))
    with np.errstate(divide="ignore", under="ignore"):
        lg = math.log(sol.p) + (sol.p - 1.0) * ln_u + 2.0 * np.log(np.atleast_1d(r))
        out = np.where(np.isfinite(lg), np.exp(np.minimum(lg, 700.0)), 0.0)
    out[np.atleast_1d(r) == 0.0] = 0.0
    return float(out[0]) if r.ndim == 0 else out
