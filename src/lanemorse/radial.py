"""Radial integration and shooting for -Delta u = |u|^(p-1) u on the unit ball.

In radial coordinates the equation reads

    u'' + (N-1) u'/r + |u|^(p-1) u = 0,      u'(0) = 0,

and the sign-changing solution with exactly two nodal regions is obtained by
shooting from u(0) = 1, locating the second zero R2 of the trajectory and
rescaling with the homogeneity u_lam(r) = lam^(2/(p-1)) u(lam r), lam = R2.

Internally the integration runs in the log radius rho = ln r with state
(u, w), w = r u':

    du/drho = w,      dw/drho = -(N-2) w - e^(2 rho) |u|^(p-1) u.

This keeps the relative step size h/r bounded (_MAX_LOG_STEP), which is what
the Hermite-reconstruction residual bound requires: for large p the trajectory
spans tens of decades in r and any fixed-variable integrator would take steps
with h/r >> 1 through the quiet stretches. The (N-1)/r origin singularity
also disappears. Reported trajectories are always in the r variables.

Powers |u|^(p-1) u are evaluated as sign(u) exp((p-1) ln|u| + ln|u|), which
neither overflows nor loses the sign for p up to ~10^3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConfigError,
    HorizonError,
    SolverError,
    StiffnessError,
    TangentialZeroError,
)

__all__ = [
    "IvpConfig",
    "Trajectory",
    "RadialSolution",
    "integrate_ivp",
    "solve_nodal",
    "signed_power",
]

# Quintic Hermite sample points used for the interpolated-residual check.
_RESIDUAL_THETAS = (0.15, 0.35, 0.5, 0.65, 0.85)

_ABS_TOL = 1e-14        # absolute integrator tolerance on (u, w)
_MAX_LOG_STEP = 0.075   # largest step in rho = ln r


def signed_power(u, p: float):
    """|u|^(p-1) u, guarded at u = 0 and safe against overflow of u**(p-1).

    Accepts scalars or arrays. For p = 1 this is the identity.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    nz = u != 0.0
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        lg = (p - 1.0) * np.log(np.abs(u[nz]))
        out[nz] = np.sign(u[nz]) * np.exp(lg + np.log(np.abs(u[nz])))
    if out.ndim == 0:
        return float(out)
    return out


def _signed_power_scalar(u: float, p: float) -> float:
    if u == 0.0:
        return 0.0
    au = abs(u)
    return math.copysign(math.exp(p * math.log(au)), u)


@dataclass
class IvpConfig:
    """Parameters of one radial initial value problem.

    p > 0 is accepted (p = 1 gives the Bessel equation, useful as an oracle);
    the nodal construction itself requires p > 1.
    """

    p: float
    N: int
    a: float
    r_start: float = 1e-6
    rel_tol: float = 1e-12
    r_max: float = 100.0
    max_zeros: int | None = 2

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 0):
            raise ConfigError(f"exponent p must be finite and positive, got {self.p}")
        # negated comparisons, so that nan fails them
        if not (self.N >= 2 and float(self.N).is_integer()):
            raise ConfigError(f"dimension N must be an integer >= 2, got {self.N}")
        if not self.r_start > 0:
            raise ConfigError("r_start must be positive")
        if not self.rel_tol > 0:
            raise ConfigError("integrator tolerance rel_tol must be positive")
        if not (math.isfinite(self.r_max) and self.r_max > self.r_start):
            raise ConfigError("r_max must be finite and exceed r_start")
        if self.max_zeros is not None and self.max_zeros < 1:
            raise ConfigError("max_zeros must be None or >= 1")


@dataclass
class Trajectory:
    """Integrated radial trajectory with event data.

    nodes/u/du are the accepted integration steps mapped back to the r
    variable; zeros holds (radius, direction) for each simple zero crossing
    of u, critical the radii of all zeros of u', and fp_critical the radii
    where d ln f_p / d ln r = (p-1) r u'/u + 2 vanishes, i.e. the critical
    points of f_p = p |u|^(p-1) r^2 (all located as events of the one
    integration). event_states holds the states (u, r u') at those three
    kinds of event, one (n, 2) array per kind in the same order. Between the
    nodes the trajectory is the quintic Hermite reconstruction in rho from
    the node states and their first two rho-derivatives, taken from the ODE:
    eval() evaluates it and residual_sup() certifies it.
    """

    config: IvpConfig
    nodes: np.ndarray
    u: np.ndarray
    du: np.ndarray
    zeros: list[tuple[float, int]]
    critical: list[float]
    fp_critical: list[float]
    event_states: tuple[np.ndarray, ...] = ()

    def _hermite_data(self):
        """(rho, u, w, dw, ddw) at the nodes, w = r u', d = d/drho."""
        p, N = self.config.p, self.config.N
        rho = np.log(self.nodes)
        w = self.du * self.nodes
        dw = -(N - 2.0) * w - np.exp(2.0 * rho) * signed_power(self.u, p)
        return rho, self.u, w, dw, _ddw(rho, self.u, w, dw, p, N)

    def eval(self, r):
        """(u, du) at radii r in [r_start, nodes[-1]], vectorized."""
        r = np.asarray(r, dtype=float)
        data = self._hermite_data()
        rho, x = data[0], np.log(r)
        j = np.clip(np.searchsorted(rho, x, side="left") - 1, 0, len(rho) - 2)
        u, w, _ = _hermite(data, j, (x - rho[j]) / (rho[j + 1] - rho[j]))
        return u, w / r

    def residual_sup(self) -> float:
        """Sup over the trajectory of the normalized interpolated ODE residual.

        The defect of the radial equation along the Hermite reconstruction is
        normalized by the largest of its three terms (floored at one), so the
        figure is meaningful across the full dynamic range of r and u.
        """
        return _residual_sup_log(self._hermite_data(), self.config.p, self.config.N)


def _quintic_coeffs(th: float):
    H = (
        1 - 10 * th**3 + 15 * th**4 - 6 * th**5,
        th - 6 * th**3 + 8 * th**4 - 3 * th**5,
        (th**2 - 3 * th**3 + 3 * th**4 - th**5) / 2,
        10 * th**3 - 15 * th**4 + 6 * th**5,
        -4 * th**3 + 7 * th**4 - 3 * th**5,
        (th**3 - 2 * th**4 + th**5) / 2,
    )
    dH = (
        -30 * th**2 + 60 * th**3 - 30 * th**4,
        1 - 18 * th**2 + 32 * th**3 - 15 * th**4,
        (2 * th - 9 * th**2 + 12 * th**3 - 5 * th**4) / 2,
        30 * th**2 - 60 * th**3 + 30 * th**4,
        -12 * th**2 + 28 * th**3 - 15 * th**4,
        (3 * th**2 - 8 * th**3 + 5 * th**4) / 2,
    )
    return H, dH


def _hermite(data, j, th):
    """Quintic Hermite (u, w, dw/drho) at fraction th of steps j.

    Values and first and second rho-derivatives match the node data at both
    step ends; w is interpolated from its own data (w, dw, ddw).
    """
    rho, u, w, dw, ddw = data
    h = rho[j + 1] - rho[j]
    u0, u1 = u[j], u[j + 1]
    w0, w1 = w[j], w[j + 1]
    a0, a1 = dw[j], dw[j + 1]
    b0, b1 = ddw[j], ddw[j + 1]
    H, dH = _quintic_coeffs(th)
    Pu = (H[0] * u0 + H[1] * h * w0 + H[2] * h * h * a0
          + H[3] * u1 + H[4] * h * w1 + H[5] * h * h * a1)
    Pw = (H[0] * w0 + H[1] * h * a0 + H[2] * h * h * b0
          + H[3] * w1 + H[4] * h * a1 + H[5] * h * h * b1)
    dPw = (dH[0] * w0 + dH[1] * h * a0 + dH[2] * h * h * b0
           + dH[3] * w1 + dH[4] * h * a1 + dH[5] * h * h * b1) / h
    return Pu, Pw, dPw


def _residual_sup_log(data, p: float, N: int) -> float:
    """Normalized defect of the r-form equation sampled inside every step.

    Steps shorter than 1e-3 in rho are skipped: differentiating the
    reconstruction across such micro-intervals (the event-truncated final
    step, the startup step) only amplifies float rounding of data that
    already satisfies the equation to machine precision at both ends.
    """
    rho = data[0]
    j = np.flatnonzero(np.diff(rho) > 1e-3)
    if len(j) == 0:
        return 0.0
    h = rho[j + 1] - rho[j]
    worst = 0.0
    for th in _RESIDUAL_THETAS:
        Pu, Pw, dPw = _hermite(data, j, th)
        r = np.exp(rho[j] + th * h)
        with np.errstate(over="ignore", under="ignore"):
            r2 = r * r
            term_dd = -(dPw - Pw) / r2          # -u''
            term_d = -(N - 1.0) * Pw / r2       # -(N-1) u'/r
            term_u = -signed_power(Pu, p)
            res = np.abs(term_dd + term_d + term_u)
            scale = np.maximum(
                1.0,
                np.maximum(np.abs(term_dd), np.maximum(np.abs(term_d), np.abs(term_u))),
            )
            worst = max(worst, float(np.max(res / scale)))
    return worst


def _ddw(rho, u, w, dw, p, N):
    # d/drho of dw = -(N-2) w - e^(2 rho) |u|^(p-1) u
    e2 = np.exp(2.0 * rho)
    with np.errstate(over="ignore", under="ignore"):
        dpow = p * np.exp((p - 1.0) * np.log(np.where(u != 0.0, np.abs(u), 1.0)))
        dpow = np.where(u != 0.0, dpow, 0.0 if p > 1 else p)
        return -(N - 2.0) * dw - e2 * (2.0 * signed_power(u, p) + dpow * w)


def integrate_ivp(cfg: IvpConfig) -> Trajectory:
    """Integrate the radial IVP from r_start with zero-crossing detection.

    Start values at r_start come from the Taylor seed
    u = a - (|a|^(p-1) a / (2N)) r^2 (regularity at the origin forces
    u'(0) = 0; the seed error is O(r_start^4)). Integration stops at r_max or
    after cfg.max_zeros zero crossings, whichever comes first.
    """
    p, N, a = cfg.p, cfg.N, cfg.a
    rho0, rho1 = math.log(cfg.r_start), math.log(cfg.r_max)
    if a == 0.0:
        # zero data propagates to the zero solution; nothing to integrate
        nodes = np.array([cfg.r_start, cfg.r_max])
        zero = np.zeros(2)
        return Trajectory(cfg, nodes, zero, zero.copy(), [], [], [])

    def rhs(rho, y):
        u, w = float(y[0]), float(y[1])
        e2 = math.exp(2.0 * rho)
        return (w, -(N - 2.0) * w - e2 * _signed_power_scalar(u, p))

    def zero_ev(rho, y):
        return y[0]

    if cfg.max_zeros is not None:
        zero_ev.terminal = cfg.max_zeros

    def crit_ev(rho, y):
        return y[1]

    def fp_crit_ev(rho, y):
        # u * d ln f_p / d rho; at a zero of u it equals (p-1) w != 0
        return (p - 1.0) * y[1] + 2.0 * y[0]

    c2 = signed_power(a, p) / (2.0 * N)
    y0 = (a - c2 * cfg.r_start**2, -2.0 * c2 * cfg.r_start**2)
    # For large p the initial-step heuristic probes one step across the whole
    # interval, where e^(2 rho) overflows its norm; the resulting zero guess is
    # raised to the minimum step, so the overflow is harmless there. An
    # overflow inside a real step makes its error estimate infinite, the step
    # is rejected and the failure surfaces as StiffnessError below.
    with np.errstate(over="ignore"):
        sol = solve_ivp(
            rhs,
            (rho0, rho1),
            y0,
            method="RK45",
            rtol=cfg.rel_tol,
            atol=_ABS_TOL,
            max_step=_MAX_LOG_STEP,
            events=(zero_ev, crit_ev, fp_crit_ev),
        )
    if sol.status == -1:
        raise StiffnessError(f"integration failed at r={math.exp(sol.t[-1]):.3e}: {sol.message}")

    nodes = np.exp(sol.t)
    u = sol.y[0]
    du = sol.y[1] / nodes
    zeros = []
    for rho_z, (_, w_z) in zip(sol.t_events[0], sol.y_events[0]):
        r_z = math.exp(rho_z)
        if abs(w_z) < 1e3 * _ABS_TOL:
            raise TangentialZeroError(
                f"degenerate zero at r={r_z:.6e}: |u| and |u'| both below tolerance"
            )
        zeros.append((r_z, 1 if w_z > 0 else -1))
    critical = [math.exp(rho_c) for rho_c in sol.t_events[1]]
    fp_critical = [math.exp(rho_c) for rho_c in sol.t_events[2]]
    return Trajectory(cfg, nodes, u, du, zeros, critical, fp_critical,
                      event_states=tuple(sol.y_events))


@dataclass
class RadialSolution:
    """Two-nodal-region radial solution on [0, 1], normalized to u(0) > 0.

    u0 is the value at the origin (also the sup norm), r_p the interior nodal
    radius, s_p the radius of the unique negative minimum, u_min = u(s_p).
    eval() evaluates the trajectory's Hermite reconstruction off the grid,
    with the origin Taylor model below the integration start.
    """

    p: float
    N: int
    grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    u0: float
    r_p: float
    s_p: float
    u_min: float
    lam: float = field(repr=False, default=1.0)     # shooting rescale factor R2
    kappa: float = field(repr=False, default=1.0)   # amplitude factor R2^(2/(p-1))
    _traj: Trajectory = field(repr=False, default=None)

    def eval(self, r):
        """Evaluate (u(r), u'(r)) for scaled radii r in [0, 1] (vectorized)."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r < 0) or np.any(r > 1.0 + 1e-12):
            raise ConfigError("radius outside [0, 1]")
        r_lo = self._traj.config.r_start / self.lam
        u = np.empty_like(r)
        du = np.empty_like(r)
        inner = r < r_lo
        if np.any(inner):
            # origin Taylor model u = u0 (1 - u0^(p-1) r^2 / (2N)), in log form
            lnu0 = math.log(self.u0)
            with np.errstate(under="ignore"):
                quad_term = np.exp(
                    (self.p - 1.0) * lnu0 + 2.0 * np.log(np.maximum(r[inner], 1e-320))
                ) / (2.0 * self.N)
                u[inner] = self.u0 * (1.0 - quad_term)
                du[inner] = -self.u0 * np.exp(
                    (self.p - 1.0) * lnu0 + np.log(np.maximum(r[inner], 1e-320))
                ) / self.N
            u[inner & (r == 0.0)] = self.u0
            du[inner & (r == 0.0)] = 0.0
        outer = ~inner
        if np.any(outer):
            ur, dur = self._traj.eval(r[outer] * self.lam)
            u[outer] = self.kappa * ur
            du[outer] = self.kappa * self.lam * dur
        if scalar:
            return float(u[0]), float(du[0])
        return u, du

    def ln_abs_u(self, r):
        """(ln|u(r)|, sign(u(r))) for scaled radii; -inf where u vanishes."""
        u, _ = self.eval(r)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(u)), np.sign(u)

    def residual_sup(self) -> float:
        """Normalized interpolated residual over the trajectory up to r = 1.

        The trajectory ends at the terminal zero R2, i.e. at r = 1 after the
        rescale, and the normalization makes the figure invariant under the
        rescale, so this bounds the defect of the scaled solution as well.
        """
        return self._traj.residual_sup()


_LN_RMAX_CAP = 345.0  # keep r^2 representable in float64
_LN_FLOAT_MAX = math.log(sys.float_info.max)


def solve_nodal(
    p: float,
    N: int = 2,
    tol: float = 1e-9,
    rel_tol: float = 1e-12,
) -> RadialSolution:
    """Construct the least-energy sign-changing radial solution on the ball.

    Shoots from a = 1, locates the second zero R2, and rescales so that it
    lands at r = 1; by the scaling invariance the result solves the Dirichlet
    problem with u(0) = R2^(2/(p-1)) > 0. Raises ConfigError for supercritical
    exponents (N >= 3, p >= (N+2)/(N-2)) and HorizonError if no second zero
    exists before the largest representable horizon.
    """
    if p <= 1:
        raise ConfigError(f"nodal solving requires p > 1, got {p}")
    if N >= 3 and p >= (N + 2) / (N - 2):
        raise ConfigError(
            f"supercritical exponent: p={p} >= (N+2)/(N-2)={(N+2)/(N-2):.4f} for N={N}"
        )

    # ln R2 grows like ~0.45 p in 2-d; start generous and extend on a miss
    ln_rmax = min(0.5 * p + 30.0, _LN_RMAX_CAP)
    while True:
        cfg = IvpConfig(
            p=p, N=N, a=1.0, rel_tol=rel_tol, r_max=math.exp(ln_rmax), max_zeros=2,
        )
        traj = integrate_ivp(cfg)
        if len(traj.zeros) >= 2:
            break
        if ln_rmax >= _LN_RMAX_CAP:
            raise HorizonError(
                f"second zero not found before r=exp({ln_rmax:.0f}) at p={p}, N={N}"
            )
        ln_rmax = min(1.5 * ln_rmax, _LN_RMAX_CAP)

    (r1, d1), (r2, d2) = traj.zeros[0], traj.zeros[1]
    if not (d1 < 0 < d2):
        raise SolverError(f"unexpected crossing directions at p={p}: {traj.zeros}")
    lam = r2
    ln_kappa = 2.0 / (p - 1.0) * math.log(lam)
    if ln_kappa > _LN_FLOAT_MAX:
        raise ConfigError(
            f"p={p} is too close to 1: u(0) = R2^(2/(p-1)) = exp({ln_kappa:.4g}) "
            f"overflows float64; N={N} needs p > "
            f"{1.0 + 2.0 * math.log(lam) / _LN_FLOAT_MAX:.6g}"
        )
    kappa = math.exp(ln_kappa)

    mins = [j for j, m in enumerate(traj.critical) if r1 < m < r2]
    if len(mins) != 1:
        raise SolverError(
            f"expected a unique critical point in (r_p, 1), found {len(mins)}"
        )
    s_p_raw = traj.critical[mins[0]]
    u_min = kappa * float(traj.event_states[1][mins[0], 0])

    keep = traj.nodes <= r2 * (1.0 + 1e-15)
    grid = np.concatenate(([0.0], traj.nodes[keep] / lam))
    grid[-1] = 1.0
    u = np.concatenate(([kappa], kappa * traj.u[keep]))
    du = np.concatenate(([0.0], kappa * lam * traj.du[keep]))

    sol = RadialSolution(
        p=p, N=N, grid=grid, u=u, du=du,
        u0=kappa, r_p=r1 / lam, s_p=s_p_raw / lam, u_min=u_min,
        lam=lam, kappa=kappa, _traj=traj,
    )
    _validate_nodal(sol, tol)
    return sol


def _validate_nodal(sol: RadialSolution, tol: float) -> None:
    g, u = sol.grid, sol.u
    # near the origin the true decrement of u between steps sits below the
    # integration error, so monotonicity is asserted up to that noise floor
    noise = 100.0 * sol._traj.config.rel_tol * sol.u0
    if abs(u[-1]) >= tol:
        raise SolverError(f"|u(1)|={abs(u[-1]):.3e} exceeds shooting tolerance {tol}")
    if sol.u_min >= 0:
        raise SolverError("interior minimum is not negative")
    pos = (g > 0) & (g < sol.r_p)
    if np.any(np.diff(u[pos]) >= noise):
        raise SolverError("u is not decreasing on (0, r_p)")
    neg = (g > sol.r_p) & (g < 1.0)
    if np.any(u[neg] >= noise):
        raise SolverError("u does not stay negative on (r_p, 1)")
    if not math.isclose(sol.u0, float(np.max(np.abs(u))), rel_tol=1e-9):
        raise SolverError("u(0) is not the sup norm")
