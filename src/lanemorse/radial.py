"""Radial integration and shooting for -Delta u = |u|^(p-1) u on the unit ball.

In radial coordinates the equation reads

    u'' + (N-1) u'/r + |u|^(p-1) u = 0,      u'(0) = 0,

and the sign-changing solution with exactly two nodal regions is obtained by
shooting from u(0) = 1, locating the second zero R2 of the trajectory and
rescaling with the homogeneity u_lam(r) = lam^(2/(p-1)) u(lam r), lam = R2.
That is the one initial value problem here (integrate_ivp). At p = 1 it is
Bessel's equation, u = J_0 for N = 2, which the tests use as an oracle; the
nodal construction itself requires p > 1.

Internally the integration runs in the log radius rho = ln r with state
(u, w), w = r u':

    du/drho = w,      dw/drho = -(N-2) w - e^(2 rho) |u|^(p-1) u.

A step in rho is a relative step in r, so the tens of decades in r that the
trajectory spans at large p need no step with h/r >> 1, and the (N-1)/r
origin singularity disappears. The Trajectory keeps these variables;
solve_nodal forms the radii it reports, and eval() reads u and u' at radii.

Near the origin u is the Lane-Emden power series (_origin_series, with
J.C.P. Miller's recurrence for the coefficients of u^p), exact to rounding
up to a radius r_s of 0.03 (p = 760) to 2.3 (p = 1.3, N = 8); integrate_ivp
starts the steps there. Past it the integrator is a scalar Dormand-Prince
5(4) loop (_dormand_prince) with the step control of SciPy's RK45: same
tableau, error norm, step factors, minimum step and initial-step rule.
Where the equation is nonlinear it also caps the step in rho
(_MAX_LOG_STEP), which the residual bound of the Hermite reconstruction
requires. Where the nonlinear term
e^(2 rho) |u|^(p-1) u falls below the rounding of the state, as between the
two bubbles at large p, the equation is w' = -(N-2) w to working precision,
which the step and the reconstruction both reproduce, and the error control
alone sizes the steps. Its events (zeros of u, of u' and of
d ln f_p / d ln r) are located by regula falsi on each step's quartic
interpolant (_root); only the step states (rho, u, w) and one (rho, u, w)
row per event are kept, as integrated. Every u off the steps comes from one
evaluator (Trajectory._state): the quintic Hermite reconstruction, built
once, and below the first step the origin series the integration starts
from (_seed). f_p = p |u|^(p-1) r^2 has one log form, _ln_fp.

Powers |u|^(p-1) u are evaluated through logarithms, as sign(u) exp(p ln|u|),
which keeps the sign and underflows gracefully; past the float64 range the
array form returns inf and the scalar form used by the integrator raises
OverflowError, which rejects the step.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    HorizonError,
    SolverError,
    StiffnessError,
    TangentialZeroError,
    UnimodalityError,
)

__all__ = [
    "Trajectory",
    "RadialSolution",
    "integrate_ivp",
    "solve_nodal",
    "signed_power",
]

# Quintic Hermite sample points used for the interpolated-residual check.
_RESIDUAL_THETAS = (0.15, 0.35, 0.5, 0.65, 0.85)

_ABS_TOL = 1e-14        # absolute integrator tolerance on (u, w)
_MAX_LOG_STEP = 0.075   # largest step in rho = ln r where the ODE is nonlinear
_MAX_DECAY_STEP = 0.2   # largest (N-2) h: w decays like e^(-(N-2) rho)
_LN_FLOAT_MAX = math.log(sys.float_info.max)
_CELL_DEFECT = 1e-4     # bound on h^2 f_p of a Pruefer cell below the first node


def signed_power(u, p: float):
    """|u|^(p-1) u, guarded at u = 0 and safe against overflow of u**(p-1).

    Accepts scalars or arrays. For p = 1 this is the identity.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    nz = u != 0.0
    ln = np.log(np.abs(u[nz]))
    out[nz] = np.sign(u[nz]) * _exp((p - 1.0) * ln + ln)
    if out.ndim == 0:
        return float(out)
    return out


def _exp(x):
    """np.exp(x), with inf and no overflow warning past the float64 range."""
    return np.exp(x, out=np.full(np.shape(x), np.inf), where=~(x > _LN_FLOAT_MAX))


def _ln_fp(p: float, u, rho):
    """ln f_p, f_p = p |u|^(p-1) r^2 at r = e^rho; -inf where u or r is 0."""
    with np.errstate(divide="ignore"):
        return math.log(p) + (p - 1.0) * np.log(np.abs(u)) + 2.0 * rho


_SERIES_TERMS = 16  # K: the origin series keeps the powers x^0 .. x^(2K)


@functools.lru_cache(maxsize=16)
def _origin_series(p: float, N: int):
    """(c, d, x_s): U(x) = sum_k c_k x^(2k), x U'(x) = sum_k d_k x^(2k), k <= K.

    U is the regular solution of U'' + (N-1) U'/x + U^p = 0, U(0) = 1 (the
    Lane-Emden origin series): c_0 = 1, c_(k+1) = -b_k / (2(k+1)(2k+N)),
    with b the coefficients of U^p, the Cauchy product of U and U^(p-1).
    Those of U^(p-1) come from J.C.P. Miller's power recurrence
    e_m = (1/m) sum_(j=1..m) (p j - m) c_j e_(m-j) (Knuth, TAOCP vol. 2,
    4.7); applied to U^p directly it cancels catastrophically near p = 1.

    x_s is where the last kept term, which bounds the tail (the terms fall
    by about 1/10 each there), reaches eps relative to U or to x U': the
    fixed point of y = x^2 = (eps min(|U|, |x U'| / 2K) / |c_K|)^(1/K), a
    contraction by about 1/K. It is then halved until U > 0, U' < 0 and
    (p-1) x U' + 2U > 0 at 64 points up to it, so that no shooting event
    lies below it (at p = 1 the series reaches past the first zero of J_0).
    Coefficients past the float64 range (p of order 1e30) raise ConfigError.
    """
    K = _SERIES_TERMS
    c, e = [1.0], [1.0]
    for m in range(K):
        if m:
            e.append(sum((p * j - m) * c[j] * e[m - j] for j in range(1, m + 1)) / m)
        b = sum(e[j] * c[m - j] for j in range(m + 1))
        c.append(-b / (2.0 * (m + 1) * (2 * m + N)))
    d = [2.0 * k * ck for k, ck in enumerate(c)]
    eps, c_K = sys.float_info.epsilon, abs(c[K])
    # start where x U' = -x^2 / N, its leading term, meets the bound
    y = (eps / (2 * K * N * c_K)) ** (1.0 / (K - 1))
    for _ in range(6):
        y = (eps * min(abs(_horner(c, y)), abs(_horner(d, y)) / (2 * K)) / c_K) ** (1.0 / K)
    ys = y * np.linspace(1.0 / 64, 1.0, 64)
    for _ in range(64):
        U, W = _horner(c, ys), _horner(d, ys)
        if np.all((U > 0) & (W < 0) & ((p - 1.0) * W + 2.0 * U > 0)):
            return tuple(c), tuple(d), math.sqrt(ys[-1])
        ys /= 2.0
    raise ConfigError(f"the origin series has no event-free radius at p={p:g}, N={N}: "
                      "its coefficients leave the float64 range")


def _horner(coeffs, y):
    """sum_k coeffs[k] y^k, for a float or an array y."""
    total = coeffs[-1] * y
    for ck in coeffs[-2:0:-1]:
        total = (total + ck) * y
    return total + coeffs[0]


def _seed(p: float, N: int, r2):
    """The origin series (u, w = r u') = (U(r), r U'(r)) at r^2 = r2.

    Exact to rounding up to x_s (_origin_series).
    """
    c, d, _ = _origin_series(p, N)
    return _horner(c, r2), _horner(d, r2)


@dataclass
class Trajectory:
    """Integrated radial trajectory with event data, in the integrator's variables.

    rho/u/w are the accepted steps (rho = ln r, w = r u') as integrated,
    rejected counts the rejected step attempts and rhs_evals the
    evaluations of dw/drho (2 at the start, 6 per attempt that raised no
    overflow). The events of the one integration are (n, 3) tables with
    columns (rho, u, w), one row per event in root order: zeros for the
    simple zero crossings of u (the sign of w is the direction), critical
    for the zeros of w, and fp_critical for the zeros of
    d ln f_p / d rho = (p-1) w/u + 2, i.e. the critical points of
    f_p = p |u|^(p-1) r^2. Between the steps the trajectory is the quintic
    Hermite reconstruction in rho from the step states and their first two
    rho-derivatives, taken from the ODE and built once, and below the first
    step the origin series: _state() evaluates both, eval() reads it in r.
    residual_sup() certifies the reconstruction; the series is exact to
    rounding below the start radius it accepts (_origin_series).
    """

    p: float
    N: int
    rho: np.ndarray
    u: np.ndarray
    w: np.ndarray
    zeros: np.ndarray
    critical: np.ndarray
    fp_critical: np.ndarray
    rejected: int = 0
    rhs_evals: int = 0

    @functools.cached_property
    def _hermite_data(self):
        """(rho, u, w, dw, ddw) at the steps, d = d/drho; built once."""
        p, N = self.p, self.N
        rho, u, w = self.rho, self.u, self.w
        e2, power = np.exp(2.0 * rho), signed_power(u, p)
        dw = -(N - 2.0) * w - e2 * power
        return rho, u, w, dw, _ddw(u, w, dw, e2, power, p, N)

    def _state(self, rho, rows=2):
        """The first `rows` of (u, w) at log radii rho up to the last node.

        The origin series below the first node, the Hermite reconstruction
        from it on; rows=1 evaluates u alone.
        """
        data = self._hermite_data
        knots = data[0]
        rho = np.asarray(rho, dtype=float)
        out = [np.empty_like(rho) for _ in range(rows)]
        seed = rho < knots[0]
        for o, v in zip(out, _seed(self.p, self.N, np.exp(2.0 * rho[seed]))):
            o[seed] = v
        step = ~seed
        x = rho[step]
        j = np.clip(np.searchsorted(knots, x, side="left") - 1, 0, len(knots) - 2)
        th = (x - knots[j]) / (knots[j + 1] - knots[j])
        for o, v in zip(out, _hermite(data, j, th, rows)):
            o[step] = v
        return out

    def eval(self, r):
        """(u, du) at radii r in [0, e^rho[-1]], vectorized."""
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            u, w = self._state(np.log(r))
        return u, np.divide(w, r, out=np.zeros_like(w), where=r != 0.0)  # u'(0) = 0

    def residual_sup(self) -> float:
        """Sup over the trajectory of the normalized interpolated ODE residual.

        The defect of the radial equation along the Hermite reconstruction is
        normalized by the largest of its three terms (floored at one), so the
        figure is meaningful across the full dynamic range of r and u.
        """
        return _residual_sup_log(self._hermite_data, self.p, self.N)


def _quintic_coeffs(th: float):
    # each power once: th may be an array of some 10^4 evaluation points
    th2, th3, th4, th5 = th**2, th**3, th**4, th**5
    return (
        1 - 10 * th3 + 15 * th4 - 6 * th5,
        th - 6 * th3 + 8 * th4 - 3 * th5,
        (th2 - 3 * th3 + 3 * th4 - th5) / 2,
        10 * th3 - 15 * th4 + 6 * th5,
        -4 * th3 + 7 * th4 - 3 * th5,
        (th3 - 2 * th4 + th5) / 2,
    )


def _quintic_slopes(th: float):
    # d/dth of _quintic_coeffs
    th2, th3, th4 = th**2, th**3, th**4
    return (
        -30 * th2 + 60 * th3 - 30 * th4,
        1 - 18 * th2 + 32 * th3 - 15 * th4,
        (2 * th - 9 * th2 + 12 * th3 - 5 * th4) / 2,
        30 * th2 - 60 * th3 + 30 * th4,
        -12 * th2 + 28 * th3 - 15 * th4,
        (3 * th2 - 8 * th3 + 5 * th4) / 2,
    )


def _hermite(data, j, th, rows=3):
    """Quintic Hermite [u, w, dw/drho][:rows] at fraction th of steps j.

    Values and first and second rho-derivatives match the node data at both
    step ends; w is interpolated from its own data (w, dw, ddw). Only the
    rows asked for are formed: f_p reads u, eval (u, w), the residual all three.
    """
    rho, u, w, dw, ddw = data
    h = rho[j + 1] - rho[j]
    w0, w1 = w[j], w[j + 1]
    a0, a1 = dw[j], dw[j + 1]
    H = _quintic_coeffs(th)
    out = [H[0] * u[j] + H[1] * h * w0 + H[2] * h * h * a0
           + H[3] * u[j + 1] + H[4] * h * w1 + H[5] * h * h * a1]
    if rows > 1:
        b0, b1 = ddw[j], ddw[j + 1]
        out.append(H[0] * w0 + H[1] * h * a0 + H[2] * h * h * b0
                   + H[3] * w1 + H[4] * h * a1 + H[5] * h * h * b1)
    if rows > 2:
        dH = _quintic_slopes(th)
        out.append((dH[0] * w0 + dH[1] * h * a0 + dH[2] * h * h * b0
                    + dH[3] * w1 + dH[4] * h * a1 + dH[5] * h * h * b1) / h)
    return out


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
    worst = []
    for th in _RESIDUAL_THETAS:
        Pu, Pw, dPw = _hermite(data, j, th)
        r = np.exp(rho[j] + th * h)
        r2 = r * r
        term_dd = -(dPw - Pw) / r2          # -u''
        term_d = -(N - 1.0) * Pw / r2       # -(N-1) u'/r
        term_u = -signed_power(Pu, p)
        res = np.abs(term_dd + term_d + term_u)
        scale = np.maximum(
            1.0,
            np.maximum(np.abs(term_dd), np.maximum(np.abs(term_d), np.abs(term_u))),
        )
        worst.append(np.max(res / scale))
    return float(np.max(worst))  # nan, unlike max(), propagates


def _ddw(u, w, dw, e2, power, p, N):
    # d/drho of dw = -(N-2) w - e2 power, e2 = e^(2 rho), power = |u|^(p-1) u
    dpow = p * _exp((p - 1.0) * np.log(np.where(u != 0.0, np.abs(u), 1.0)))
    dpow = np.where(u != 0.0, dpow, 0.0 if p > 1 else p)
    return -(N - 2.0) * dw - e2 * (2.0 * power + dpow * w)


def _checked(p: float, N: int) -> tuple[float, int]:
    """(float(p), int(N)) for p > 0 finite and N >= 2 an integer, else ConfigError.

    A NumPy p would make the steps NumPy scalars, which warn on overflow
    where Python floats raise the OverflowError that rejects the step. The
    comparisons are negated, so that nan fails them.
    """
    if not (math.isfinite(p) and p > 0):
        raise ConfigError(f"exponent p must be finite and positive, got {p}")
    if not (N >= 2 and float(N).is_integer()):
        raise ConfigError(f"dimension N must be an integer >= 2, got {N}")
    return float(p), int(N)


def integrate_ivp(p: float, N: int, r_max: float) -> Trajectory:
    """Integrate u(0) = 1 to the second zero of u, or to r_max if it comes first.

    p > 0 (p = 1 is the Bessel oracle) and N >= 2 an integer (_checked). The
    steps start at x_s, up to which the origin series (_seed) is exact to
    rounding and holds no event (_origin_series); r_max must be finite and
    past it. Each limit is a ConfigError naming it. A step that cannot be
    taken (an overflow in every stage down to the smallest step) raises
    StiffnessError, a zero of u with |w| below 1e3 _ABS_TOL
    TangentialZeroError. The Trajectory holds what the integrator produced:
    the steps (rho, u, w) and one (rho, u, w) row per located event.
    """
    p, N = _checked(p, N)
    x_s = _origin_series(p, N)[2]
    if not (math.isfinite(r_max) and r_max > x_s):
        raise ConfigError(f"r_max={r_max} must be finite and exceed the start radius "
                          f"{x_s:.6g} at p={p:g}, N={N}")
    rho0 = math.log(x_s)
    u0, w0 = _seed(p, N, x_s**2)
    ts, us, ws, tables, rejected, rhs_evals = _dormand_prince(
        p, N, rho0, math.log(r_max), u0, w0, _accel(rho0, u0, w0, p, N))
    zeros, critical, fp_critical = (np.array(rows, dtype=float).reshape(-1, 3)
                                    for rows in tables)
    for rho_z, _, w_z in zeros:
        if abs(w_z) < 1e3 * _ABS_TOL:
            raise TangentialZeroError(f"degenerate zero at r={math.exp(rho_z):.6e}: "
                                      "|u| and |u'| both below tolerance")
    return Trajectory(p, N, np.array(ts), np.array(us), np.array(ws), zeros,
                      critical, fp_critical, rejected=rejected, rhs_evals=rhs_evals)


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6 (1980)):
# stage nodes _C*, stage weights _A*, fifth-order weights _B*, error weights
# _E* (with the first-same-as-last stage 6) and the quartic dense-output
# matrix _P of Shampine (Math. Comp. 46 (1986)), all as in SciPy's RK45.
# Zero entries (stage 1 in _B, _E and _P) are left out.
_C1, _C2, _C3, _C4 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A10 = 1 / 5
_A20, _A21 = 3 / 40, 9 / 40
_A30, _A31, _A32 = 44 / 45, -56 / 15, 32 / 9
_A40, _A41, _A42, _A43 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A50, _A51, _A52, _A53, _A54 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B0, _B2, _B3, _B4, _B5 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E0, _E2, _E3, _E4, _E5, _E6 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (  # rows: stages 0, 2, 3, 4, 5, 6; columns: powers 1..4 of theta
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# step control of Hairer-Norsett-Wanner, Solving ODEs I, II.4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1 / 5                    # -1 / (order of the error estimator + 1)
_EVENT_TOL = 4 * sys.float_info.epsilon


def _rms(xu: float, xw: float) -> float:
    return math.sqrt(xu * xu + xw * xw) / 2**0.5


def _accel(rho: float, u: float, w: float, p: float, N: int) -> float:
    """dw/drho; math.exp raises OverflowError past the float64 range.

    _dormand_prince evaluates its stages with this expression inline, in the
    same operation order, so that every stage value is the same float.
    """
    return -(N - 2.0) * w - math.exp(2.0 * rho) * (
        math.copysign(math.exp(p * math.log(abs(u))), u) if u else 0.0)


def _dormand_prince(p, N, t, t_end, u, w, f):
    """Integrate u' = w, w' = _accel(t, u, w, p, N) from t to t_end by DP5(4).

    f = _accel(t, u, w, p, N) at the start. The step control is SciPy's RK45
    one: the RMS error norm over _ABS_TOL + max(|y|, |y_new|) _SHOOT_RTOL,
    safety 0.9, step factors in [0.2, 10] with no growth right after a
    rejection, steps of at least 10 ulp(t) and the same initial-step rule.
    A step is at
    most _MAX_LOG_STEP, and at most _MAX_DECAY_STEP / (N-2), unless the
    nonlinear term e^(2 t) |u|^(p-1) u at its start is at most
    eps (|u| + |w|): there the equation is linear to working precision and
    the error control alone sizes the step. Where the cap binds throughout
    (N = 2 with p <= 3, and N >= 3) these are the steps of SciPy's RK45 with
    that max_step. An overflow in a stage makes the error norm infinite, so
    the step is rejected; a step below 10 ulp(t) raises StiffnessError.

    The events are the zeros of u, of w and of (p-1) w + 2u, tested for a
    change or touch of sign on each step's end state. Each is located on the
    step's quartic interpolant by _root, and the second zero of u ends
    the integration at its root, as a terminal event does in solve_ivp.
    Returns the nodes (ts, us, ws), the three event tables (zeros of u, of w,
    of (p-1) w + 2u), each a list of (root, u, w) rows in root order, the
    number of rejected attempts and the number of evaluations of w'.
    """
    atol, rtol = _ABS_TOL, _SHOOT_RTOL
    span = t_end - t
    # initial step (Hairer-Norsett-Wanner II.4), with SciPy's constants
    su, sw = atol + abs(u) * rtol, atol + abs(w) * rtol
    d0, d1 = _rms(u / su, w / sw), _rms(w / su, f / sw)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    w1 = w + h0 * f
    try:
        d2 = _rms((w1 - w) / su, (_accel(t + h0, u + h0 * w, w1, p, N) - f) / sw) / h0
    except OverflowError:
        d2 = math.inf  # the probe left the float range: start at 10 ulp
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    # the Hermite defect of a capped step grows with the decay of w over it
    max_step = min(_MAX_LOG_STEP, _MAX_DECAY_STEP / (N - 2)) if N > 2 else _MAX_LOG_STEP
    cap = max_step
    h_abs = min(100 * h0, h1, span, cap)
    n_rejected, rhs_evals = 0, 2
    eps = sys.float_info.epsilon

    # the stage loop runs some 10^4 times per solve: locals, and _accel
    # written out, save the global lookups and the calls
    exp, log, copysign, sqrt = math.exp, math.log, math.copysign, math.sqrt
    shift, pm1 = -(N - 2.0), p - 1.0
    C1, C2, C3, C4 = _C1, _C2, _C3, _C4
    A10, A20, A21, A30, A31, A32 = _A10, _A20, _A21, _A30, _A31, _A32
    A40, A41, A42, A43 = _A40, _A41, _A42, _A43
    A50, A51, A52, A53, A54 = _A50, _A51, _A52, _A53, _A54
    B0, B2, B3, B4, B5 = _B0, _B2, _B3, _B4, _B5
    E0, E2, E3, E4, E5, E6 = _E0, _E2, _E3, _E4, _E5, _E6

    ts, us, ws = [t], [u], [w]
    tables = ([], [], [])  # the zeros of u, of w and of (p-1) w + 2u
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), cap)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    f"integration failed at r={math.exp(t):.3e}: required step "
                    "size is less than spacing between numbers")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            try:
                w1 = w + (A10 * f) * h
                x = u + (A10 * w) * h
                a1 = shift * w1 - exp(2.0 * (t + C1 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w2 = w + (A20 * f + A21 * a1) * h
                x = u + (A20 * w + A21 * w1) * h
                a2 = shift * w2 - exp(2.0 * (t + C2 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w3 = w + (A30 * f + A31 * a1 + A32 * a2) * h
                x = u + (A30 * w + A31 * w1 + A32 * w2) * h
                a3 = shift * w3 - exp(2.0 * (t + C3 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w4 = w + (A40 * f + A41 * a1 + A42 * a2 + A43 * a3) * h
                x = u + (A40 * w + A41 * w1 + A42 * w2 + A43 * w3) * h
                a4 = shift * w4 - exp(2.0 * (t + C4 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w5 = w + (A50 * f + A51 * a1 + A52 * a2 + A53 * a3 + A54 * a4) * h
                x = u + (A50 * w + A51 * w1 + A52 * w2 + A53 * w3 + A54 * w4) * h
                a5 = shift * w5 - exp(2.0 * (t + h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                u_new = u + h * (B0 * w + B2 * w2 + B3 * w3 + B4 * w4 + B5 * w5)
                w_new = w + h * (B0 * f + B2 * a2 + B3 * a3 + B4 * a4 + B5 * a5)
                nonlin = exp(2.0 * (t + h)) * (
                    copysign(exp(p * log(abs(u_new))), u_new) if u_new else 0.0)
                f_new = shift * w_new - nonlin
                rhs_evals += 6
                eu = ((E0 * w + E2 * w2 + E3 * w3 + E4 * w4 + E5 * w5 + E6 * w_new)
                      * h / (atol + max(abs(u), abs(u_new)) * rtol))
                ew = ((E0 * f + E2 * a2 + E3 * a3 + E4 * a4 + E5 * a5 + E6 * f_new)
                      * h / (atol + max(abs(w), abs(w_new)) * rtol))
                err = sqrt(eu * eu + ew * ew) / 2**0.5  # _rms(eu, ew)
            except OverflowError:
                err = math.inf
            if err < 1:
                factor = (_MAX_FACTOR if err == 0
                          else min(_MAX_FACTOR, _SAFETY * err**_ERR_EXP))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERR_EXP)
            rejected = True
            n_rejected += 1

        # the events that change sign or touch zero over the step, of
        # u, w and g = (p-1) w + 2u = u d ln f_p / d rho
        g, g_new = pm1 * w + 2.0 * u, pm1 * w_new + 2.0 * u_new
        kinds = []
        if u <= 0 <= u_new or u >= 0 >= u_new:
            kinds.append(0)
        if w <= 0 <= w_new or w >= 0 >= w_new:
            kinds.append(1)
        if g <= 0 <= g_new or g >= 0 >= g_new:
            kinds.append(2)
        stop = False
        if kinds:
            state = _quartic(t, h, u, w, (w, w2, w3, w4, w5, w_new),
                             (f, a2, a3, a4, a5, f_new), pm1)
            # a loop, not a comprehension: up to Python 3.11 one would make
            # t a closure cell, which every stage then reads more slowly
            hits = []
            for i in kinds:
                hits.append((_root(lambda s, i=i: state(s)[i], t, t_new), i))
            # an event has at most one root per step, so root order keeps
            # each table in order
            for root, i in sorted(hits):
                u_r, w_r, _ = state(root)
                tables[i].append((root, u_r, w_r))
                if i == 0 and len(tables[0]) == 2:
                    stop = True
                    t_new, u_new, w_new = root, u_r, w_r
                    break
        ts.append(t_new)
        us.append(u_new)
        ws.append(w_new)
        if stop or t_new >= t_end:
            return ts, us, ws, tables, n_rejected, rhs_evals
        # below the rounding of the state the nonlinear term drops out
        cap = max_step if abs(nonlin) > eps * (abs(u_new) + abs(w_new)) else math.inf
        t, u, w, f = t_new, u_new, w_new, f_new


def _quartic(t, h, u, w, ku, kw, pm1):
    """s -> (u, w, (p-1) w + 2u) on the step's quartic interpolant, pm1 = p - 1.

    The step runs from t to t + h, and ku, kw are the stage derivatives of u
    and w (stages 0, 2..6): y(t + x h) = y + h sum_k Q_k x^k with Q = k _P.
    The three values are the three event functions.
    """
    qu = [sum(k * row[m] for k, row in zip(ku, _P)) for m in range(4)]
    qw = [sum(k * row[m] for k, row in zip(kw, _P)) for m in range(4)]

    def state(s):
        x = (s - t) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        u_s = h * (qu[0] * x + qu[1] * x2 + qu[2] * x3 + qu[3] * x4) + u
        w_s = h * (qw[0] * x + qw[1] * x2 + qw[2] * x3 + qw[3] * x4) + w
        return u_s, w_s, pm1 * w_s + 2.0 * u_s

    return state


def _root(fun, a: float, b: float) -> float:
    """The float in [a, b] nearest the zero of fun.

    Where fun changes sign over [a, b], regula falsi with the Illinois rule
    (Dowell & Jarratt, BIT 11 (1971): an end kept twice in a row has its
    weight halved) narrows the bracket to _EVENT_TOL (1 + |a|), the tolerance
    solve_ivp uses for events, and bisection then narrows it to two adjacent
    floats. The result is the end of the bracket where |fun| is smaller;
    without a sign change (the interpolant's end value rounds to the other
    side of zero) that is an end of [a, b]. Each secant point lies at least
    half the tolerance inside the bracket, and its divisor is a sum of two
    magnitudes, one of them a nonzero value of fun, so no step divides by
    zero. The terminal zero needs the last float: the rescale by
    R2^(2/(p-1)) amplifies its residual u, and a root elsewhere in the 4 eps
    bracket left |u(1)| = 1.8e-9 at p = 1.25, past the 1e-9 shooting check,
    where the nearest float leaves 2.3e-10.
    """
    fa, fb = fun(a), fun(b)
    if fa and fb and (fa < 0) != (fb < 0):
        ga, gb, kept = fa, fb, None  # the secant weights, and the end last kept
        while b - a > (tol := _EVENT_TOL * (1.0 + abs(a))):
            m = min(max(a + (b - a) * (ga / (ga - gb)), a + tol / 2), b - tol / 2)
            fm = fun(m)
            if fm == 0:
                return m
            if (fm < 0) == (fa < 0):
                a, fa, ga = m, fm, fm
                if kept == "b":
                    gb /= 2
                kept = "b"
            else:
                b, fb, gb = m, fm, fm
                if kept == "a":
                    ga /= 2
                kept = "a"
        while a < (m := a + (b - a) / 2) < b:
            fm = fun(m)
            if fm == 0:
                return m
            if (fm < 0) == (fa < 0):
                a, fa = m, fm
            else:
                b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


@dataclass
class RadialSolution:
    """Two-nodal-region radial solution on [0, 1], normalized to u(0) > 0.

    u0 is the value at the origin (also the sup norm), r_p the interior nodal
    radius, s_p the radius of the unique negative minimum, u_min = u(s_p).
    c_p < r_p < d_p are the maximizers of f_p = p |u|^(p-1) r^2 on the two
    nodal intervals and max_plus, max_minus its maxima there; du_zeros is the
    number of zeros of u' in (0, 1). All are read off the shooting events.
    residual_sup is the trajectory's normalized interpolated residual up to
    r = 1; the normalization makes it invariant under the rescale, so it
    bounds the defect of the scaled solution as well (solve_nodal rejects a
    solution where it reaches 1e-7 or is nan). eval() (u and u') and ln_fp()
    rescale the trajectory's one evaluator, which covers [0, 1]: below the
    integration start it is the origin series.
    """

    p: float
    N: int
    u0: float
    r_p: float
    s_p: float
    u_min: float
    c_p: float
    d_p: float
    max_plus: float
    max_minus: float
    du_zeros: int
    residual_sup: float
    lam: float = field(repr=False, default=1.0)     # shooting rescale factor R2
    _traj: Trajectory = field(repr=False, default=None)

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """0 and the shooting steps, scaled; the last step is r = 1."""
        grid = np.concatenate(([0.0], np.exp(self._traj.rho) / self.lam))
        grid[-1] = 1.0
        return grid

    def _unscaled(self, r):
        """The unscaled radii lam r of scaled radii r in [0, 1]."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0) or np.any(r > 1.0 + 1e-12):
            raise ConfigError("radius outside [0, 1]")
        return r * self.lam

    def eval(self, r):
        """Evaluate (u(r), u'(r)) for scaled radii r in [0, 1] (vectorized)."""
        u, du = self._traj.eval(self._unscaled(r))
        if np.ndim(u) == 0:
            u, du = float(u), float(du)
        return self.u0 * u, self.u0 * self.lam * du

    def ln_fp(self, r):
        """ln f_p(r) for scaled radii r in [0, 1] (vectorized); -inf at r = 0.

        f_p is rescale invariant, so it is read off the unscaled trajectory.
        """
        with np.errstate(divide="ignore"):
            rho = np.log(self._unscaled(r))
        return _ln_fp(self.p, self._traj._state(rho, rows=1)[0], rho)

    def fp_cells(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """f_p on the Pruefer cells and on their 2-fold split.

        The cells are the shooting steps and, below the first node, cells of
        the series region from where f_p falls to eps. There 0 < u <= 1, so
        f_p <= p r^2, and a cell from r to r + dr has width h <= dr / r in
        t = ln r: with dr = sqrt(_CELL_DEFECT / p), h^2 f_p at its midpoint
        is at most _CELL_DEFECT e^h. The cells are evenly spaced in r by
        that dr near the first node, and evenly spaced in t, no wider than
        _MAX_LOG_STEP, below. Per cell set, (cell widths in t, f_p at the
        cell midpoints), read off the unscaled trajectory like ln_fp. The
        split gives each Pruefer count its margin check
        (`spectral.prufer_counts`).
        """
        first = self._traj.rho[0]
        lo = 0.5 * math.log(sys.float_info.epsilon / self.p)
        dr = math.sqrt(_CELL_DEFECT / self.p)
        mid = min(math.log(dr / _MAX_LOG_STEP), first)
        wide = np.linspace(lo, mid, math.ceil((mid - lo) / _MAX_LOG_STEP) + 1)
        r_mid, r_first = math.exp(mid), math.exp(first)
        narrow = np.log(np.linspace(r_mid, r_first, math.ceil((r_first - r_mid) / dr) + 1))
        rho = np.concatenate((wide[:-1], narrow[:-1], self._traj.rho))
        steps = np.diff(rho)
        cells = []
        for split in (1, 2):
            j = np.repeat(np.arange(len(steps)), split)
            mid = rho[j] + np.tile((np.arange(split) + 0.5) / split, len(steps)) * steps[j]
            u, = self._traj._state(mid, rows=1)
            cells.append((steps[j] / split, _exp(_ln_fp(self.p, u, mid))))
        return tuple(cells)


_LN_RMAX_CAP = 345.0  # keep r^2 representable in float64
# the shooting contract: fixed, so that no caller can loosen it
_RESIDUAL_BOUND = 1e-7  # on residual_sup
_U1_BOUND = 1e-9  # on |u(1)| after the rescale
_SHOOT_RTOL = 1e-12  # the integrator's relative tolerance


def solve_nodal(p: float, N: int = 2) -> RadialSolution:
    """Construct the least-energy sign-changing radial solution on the ball.

    Shoots from u(0) = 1 (integrate_ivp) to the second zero R2 and rescales
    it to r = 1; by the scaling invariance the result solves the Dirichlet
    problem with u(0) = R2^(2/(p-1)) > 0. Raises ConfigError for p <= 1 and
    for supercritical exponents (N >= 3, p >= (N+2)/(N-2)). The one
    integration runs to the horizon r = e^345 (_LN_RMAX_CAP), where r^2 is
    still a float, and stops at the second zero; HorizonError if there is
    none before it. The shooting events are read here, once. They fix the
    nodal shape: u' has no zero on (0, r_p) and one on (r_p, 1), at s_p, and
    0 < -u(s_p) <= u(0) (else SolverError); f_p has one critical point on
    each nodal interval (else UnimodalityError).

    The shooting contract is fixed: the integrator runs at relative
    tolerance 1e-12 (_SHOOT_RTOL); |u(1)| >= 1e-9 (_U1_BOUND) or
    residual_sup >= 1e-7 (_RESIDUAL_BOUND), or nan, raises SolverError, or
    ConfigError where the float floor of |u(1)| exceeds 1e-9 (p near 1).
    """
    p, N = _checked(p, N)
    if p <= 1:
        raise ConfigError(f"nodal solving requires p > 1, got {p}")
    if N >= 3 and p >= (N + 2) / (N - 2):
        raise ConfigError(
            f"supercritical exponent: p={p} >= (N+2)/(N-2)={(N+2)/(N-2):.4f} for N={N}"
        )

    traj = integrate_ivp(p, N, math.exp(_LN_RMAX_CAP))
    if len(traj.zeros) < 2:
        raise HorizonError(
            f"second zero not found before r=exp({_LN_RMAX_CAP:.0f}) at p={p}, N={N}"
        )
    (rho1, _, w1), (rho2, _, w2) = traj.zeros
    if not (w1 < 0 < w2):
        raise SolverError(f"unexpected crossing directions at p={p}: r u' = "
                          f"{w1:.6e}, {w2:.6e} at the two zeros")
    lam = math.exp(rho2)
    ln_kappa = 2.0 / (p - 1.0) * math.log(lam)
    if ln_kappa > _LN_FLOAT_MAX:
        raise ConfigError(
            f"p={p} is too close to 1: u(0) = R2^(2/(p-1)) = exp({ln_kappa:.4g}) "
            f"overflows float64; N={N} needs p > "
            f"{1.0 + 2.0 * math.log(lam) / _LN_FLOAT_MAX:.6g}"
        )
    kappa = math.exp(ln_kappa)

    def scaled(rhos):  # the event radii over lam, each formed once
        return np.array([math.exp(x) for x in rhos]) / lam

    r_p = math.exp(rho1) / lam
    positive, negative = ("positive", 0.0, r_p), ("negative", r_p, 1.0)
    critical = scaled(traj.critical[:, 0])
    j = _unique_event(critical, negative, "u", SolverError)
    u_min = kappa * float(traj.critical[j, 1])

    u1 = kappa * float(traj.u[-1])
    if not abs(u1) < _U1_BOUND:
        # the terminal zero is the float ln R2, whose rounding alone leaves
        # |u(1)| up to |u'(1)| ulp(ln R2) / 2, and u'(1) = kappa w at R2
        floor = kappa * abs(float(traj.w[-1])) * math.ulp(rho2) / 2.0
        message = f"|u(1)|={abs(u1):.3e} exceeds shooting tolerance {_U1_BOUND}"
        if floor > _U1_BOUND:
            raise ConfigError(f"{message}: at p={p}, N={N} (too close to 1) its "
                              f"float floor |u'(1)| ulp(ln R2)/2 is {floor:.3e}")
        raise SolverError(message)

    # u falls from u(0) = kappa on (0, r_p); on (r_p, 1), which the terminal
    # second zero ends, it has the one critical point s_p, so u is in [u_min, 0)
    if np.any(critical < r_p):
        raise SolverError(f"u' vanishes at r={critical[0]:.6e} on (0, r_p={r_p:.6e}): "
                          "u is not decreasing there")
    if not 0.0 < -u_min <= kappa:  # negated, so that nan fails it
        raise SolverError(f"u(0)={kappa:.6e} is not the sup norm of a sign-changing "
                          f"u: the minimum u(s_p)={u_min:.6e} is not in [-u(0), 0)")

    # f_p vanishes at both ends of each nodal interval, so its one critical
    # point there is the maximizer. f_p is invariant under the rescale: its
    # maxima are p |u|^(p-1) r^2 of the unscaled event states, in log form
    fp_radii = scaled(traj.fp_critical[:, 0])
    idx = [_unique_event(fp_radii, interval, "f_p", UnimodalityError)
           for interval in (positive, negative)]
    rho_fp, u_fp, _ = traj.fp_critical[idx].T
    max_plus, max_minus = np.exp(_ln_fp(p, u_fp, rho_fp)).tolist()
    c_p, d_p = fp_radii[idx].tolist()

    residual = traj.residual_sup()
    if not residual < _RESIDUAL_BOUND:  # negated, so that nan fails it
        raise SolverError(
            f"interpolated ODE residual {residual:.3e} exceeds the bound "
            f"{_RESIDUAL_BOUND:g} at p={p}, N={N}"
        )
    return RadialSolution(
        p=p, N=N,
        u0=kappa, r_p=r_p, s_p=float(critical[j]), u_min=u_min,
        c_p=c_p, d_p=d_p, max_plus=max_plus, max_minus=max_minus,
        du_zeros=int(np.count_nonzero(critical < 1.0)), residual_sup=residual,
        lam=lam, _traj=traj,
    )


def _unique_event(radii: np.ndarray, interval, what: str, error) -> int:
    """Index of the one event radius inside a nodal interval (name, lo, hi).

    radii are the critical points of `what`; any other count than one
    inside raises error naming it.
    """
    where, lo, hi = interval
    inside = np.flatnonzero((radii > lo) & (radii < hi))
    if len(inside) != 1:
        raise error(
            f"{what} has {len(inside)} critical points on the {where} nodal "
            f"interval ({lo:.6e}, {hi:.6e}), expected exactly one"
        )
    return int(inside[0])
