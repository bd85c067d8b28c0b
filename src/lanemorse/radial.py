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
starts the steps there. Past it the integrator is a scalar DOP853 loop
(_dop853), the Dormand-Prince 8(5,3) pair with the step control of SciPy's
DOP853: same tableau, error norm combining the fifth- and third-order
estimates, exponent -1/8, step factors, minimum step and initial-step
rule, and no step cap; it only steps, and stops after the step over which
u changes sign the second time. Between the steps the trajectory is each
step's seventh-order dense output (three extra stages per step), built
once for all steps after the loop by _dense_output, which sums the stages
in stage order: the one evaluator (Trajectory._state) that eval(),
residual_sup() and the f_p sampling read, and on which _events locates
the zeros of u, of u' and of d ln f_p / d ln r by regula falsi (_root);
the trajectory ends at the second zero of u, in the state the dense
output has there. Across a zero of u, |u|^(p-1) u is only C^(1, p-1), so
for p < 2 the loop also shrinks such a step until the defect of that
same polynomial is below _CROSSING_DEFECT; residual_sup() samples every
step. The Trajectory keeps the step states (rho, u, w), each step's full
width and dense-output coefficients, the origin series the integration
starts from, which is the evaluator below the first step, and one
(rho, u, w) row per event. f_p = p |u|^(p-1) r^2 has one log form, _ln_fp.

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

# fractions of each step where residual_sup samples the dense output
_RESIDUAL_THETAS = (0.15, 0.35, 0.5, 0.65, 0.85)

_ABS_TOL = 1e-14        # absolute integrator tolerance on (u, w)
_SERIES_CELL = 0.075    # largest Pruefer cell in ln r below the first node
_CELLS_PER_STEP = 4     # Pruefer cells per shooting step
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
    cd = np.array([c, d]).T[:, :, None]  # (K + 1, 2, 1): U and x U' in one _horner
    for _ in range(64):
        U, W = _horner(cd, ys)
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


@dataclass
class Trajectory:
    """Integrated radial trajectory with event data, in the integrator's variables.

    rho/u/w are the accepted steps (rho = ln r, w = r u'); the last node is
    the second zero of u where the integration reached it, in the state that
    the last step's dense output has there, and otherwise the end of the
    last step. c and d are the origin series (_origin_series) the
    integration starts from: U(r) = sum_k c_k r^(2k) and r U'(r) = sum_k
    d_k r^(2k). h holds each step's full width, which the terminal step,
    cut at the second zero, does not reach, and F its seventh-order
    dense-output coefficients, shape (7, 2, steps), row 0 for u and row 1
    for w, built for all steps at once from the loop's flat stage buffer
    with stage-order sums (_dense_output). rejected counts the rejected
    step attempts and rhs_evals the evaluations of dw/drho in the loop: 2
    at the start, 12 per attempt that raised no overflow and, for p < 2, 3
    per attempt across a zero of u (the evaluator's extra stages are not
    counted). The events
    are (n, 3) tables with columns (rho, u, w), one row per event in root
    order: zeros for the simple zero crossings of u (the sign of w is the
    direction), critical for the zeros of w, and fp_critical for the zeros
    of d ln f_p / d rho = (p-1) w/u + 2, i.e. the critical points of
    f_p = p |u|^(p-1) r^2. _state() evaluates the trajectory, eval() reads
    it in r; residual_sup() certifies the dense output, and the series is
    exact to rounding below the start radius it accepts (_origin_series).
    """

    p: float
    N: int
    rho: np.ndarray
    u: np.ndarray
    w: np.ndarray
    c: tuple
    d: tuple
    h: np.ndarray
    F: np.ndarray
    zeros: np.ndarray
    critical: np.ndarray
    fp_critical: np.ndarray
    rejected: int = 0
    rhs_evals: int = 0

    def _state(self, rho, rows=2):
        """The first `rows` of (u, w) at log radii rho up to the last node.

        The origin series below the first node, the step's dense output from
        it on; rows=1 evaluates u alone.
        """
        starts = self.rho[:-1]
        rho = np.asarray(rho, dtype=float)
        out = np.empty((rows,) + rho.shape)
        series = rho < starts[0]
        r2 = np.exp(2.0 * rho[series])
        out[:, series] = [_horner(c, r2) for c in (self.c, self.d)[:rows]]
        step = ~series
        x = rho[step]
        # a node opens its step (x = 0, the node state itself); the last
        # node closes the last step
        j = np.clip(np.searchsorted(starts, x, side="right") - 1, 0, len(starts) - 1)
        y = np.array([self.u, self.w][:rows])
        out[:, step] = _dense_eval(y[:, j], self.F[:, :rows, j], (x - starts[j]) / self.h[j])
        return list(out)

    def eval(self, r):
        """(u, du) at radii r in [0, e^rho[-1]], vectorized."""
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            u, w = self._state(np.log(r))
        return u, np.divide(w, r, out=np.zeros_like(w), where=r != 0.0)  # u'(0) = 0

    def residual_sup(self) -> float:
        """Sup over the trajectory of the normalized ODE residual of the dense output.

        The defect of the radial equation along the dense output is
        normalized by the largest of its three terms (floored at one), so the
        figure is meaningful across the full dynamic range of r and u. It is
        sampled at _RESIDUAL_THETAS of every step, the terminal step up to the
        second zero that cuts it. The slope is that of the step's polynomial
        over its full width h, whatever the step's length, so a short step
        amplifies no rounding.
        """
        return float(np.max(_defects(self.p, self.N, self.rho[:-1], self.h, np.diff(self.rho),
                                     np.array([self.u[:-1], self.w[:-1]]), self.F)))


def _defects(p, N, t, h, width, y, F):
    """The normalized ODE residual at _RESIDUAL_THETAS of each step's width.

    The steps start at t with states y (a (2, steps) array) and have full
    widths h and dense-output coefficients F (_dense_output, F_0..F_6 each
    (2, steps)); width is the part of each step that the trajectory keeps. Each
    defect is normalized by the largest of the equation's three terms,
    floored at one: one row per theta, one column per step. An overflowing
    sample is nan, which np.max, unlike max(), propagates.
    """
    th = np.array(_RESIDUAL_THETAS)[:, None]
    (Pu, Pw), (_, dPw) = _dense_eval(y[:, None], [c[:, None] for c in F], th * width / h,
                                     slope=True)
    r2 = np.exp(2.0 * (t + th * width))
    term_dd = -(dPw / h - Pw) / r2   # -u''
    term_d = -(N - 1.0) * Pw / r2    # -(N-1) u'/r
    term_u = -signed_power(Pu, p)
    res = np.abs(term_dd + term_d + term_u)
    scale = np.maximum(
        1.0,
        np.maximum(np.abs(term_dd), np.maximum(np.abs(term_d), np.abs(term_u))),
    )
    return res / scale


def _stage_array(flat, steps):
    """The (16, 2, steps) stage array K of _dop853's flat stage buffer.

    The buffer holds each step's 13 stage derivatives of u, then the 13 of
    w; stages 13..15 are left for _dense_output to fill.
    """
    K = np.empty((16, 2, steps))
    K[:13] = np.fromiter(flat, float, 26 * steps).reshape(steps, 2, 13).transpose(2, 1, 0)
    return K


def _dense_output(t, h, y, y_new, K, p, N):
    """F_0..F_6, shape (7, 2, steps), of the steps' seventh-order dense outputs.

    The steps (t, h) run from the states y to y_new, (2, steps) arrays of
    (u, w), with the stage array K (_stage_array); this fills its extra
    stages 13..15, with dw/drho in array form (Hairer, Norsett & Wanner,
    II.6; SciPy's DOP853 form). Each weighted stage sum is one product
    with the nonzero weights and one np.add.reduce over the leading stage
    axis, which adds elementwise in stage order: every coefficient is the
    float of the term-by-term sum, on any CPU, for all steps or for one.
    """
    for s, (stages, a) in zip((13, 14, 15), _EXTRA_WEIGHTS):
        x, v = y + np.add.reduce(a * K[stages]) * h
        K[s] = v, -(N - 2.0) * v - _exp(2.0 * (t + _C[s] * h)) * signed_power(x, p)
    dy = y_new - y
    return np.concatenate(([dy, h * K[0] - dy, 2.0 * dy - h * (K[12] + K[0])],
                           h * np.add.reduce(_D_WEIGHTS * K[_D_STAGES, None])))


def _dense_eval(y, F, x, slope=False):
    """y + x (F_0 + (1-x) (F_1 + x (F_2 + ... + x F_6))) at fractions x of the step.

    With slope, also its derivative in x. At x = 0 the value is y exactly.
    """
    value = derivative = 0.0
    for i, f in enumerate(reversed(F)):
        s = value + f
        if i % 2:
            value, derivative = s * (1.0 - x), derivative * (1.0 - x) - s
        else:
            value, derivative = s * x, derivative * x + s
    return (y + value, derivative) if slope else y + value


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
    steps start at x_s, up to which the origin series is exact to rounding
    and holds no event (_origin_series); r_max must be finite and past it.
    Each limit is a ConfigError naming it. The rest is _integrate.
    """
    p, N = _checked(p, N)
    c, d, x_s = _origin_series(p, N)
    if not (math.isfinite(r_max) and r_max > x_s):
        raise ConfigError(f"r_max={r_max} must be finite and exceed the start radius "
                          f"{x_s:.6g} at p={p:g}, N={N}")
    return _integrate(p, N, c, d, x_s, r_max)


def _integrate(p, N, c, d, r0, r_max):
    """The Trajectory from the origin series (c, d) at r0 to the second zero of u or r_max.

    _dop853 takes the steps; _dense_output forms all their dense-output
    coefficients at once from its flat stage buffer, reshaped once
    (_stage_array), and _events locates the events on them; the trajectory
    ends at the second zero of u. A step that cannot be taken (an
    overflow in every stage down to the smallest step) raises
    StiffnessError, a zero of u with |w| below 1e3 _ABS_TOL times the largest
    |w| on its lobe (at most 1) TangentialZeroError.
    """
    rho0 = math.log(r0)
    u0, w0 = _horner(c, r0**2), _horner(d, r0**2)
    ts, us, ws, stages, rejected, rhs_evals = _dop853(
        p, N, rho0, math.log(r_max), u0, w0, _accel(rho0, u0, w0, p, N))
    rho, u, w = np.array(ts), np.array(us), np.array(ws)
    h = np.diff(rho)
    y = np.array([u, w])
    F = _dense_output(rho[:-1], h, y[:, :-1], y[:, 1:], _stage_array(stages, len(h)), p, N)
    zeros, critical, fp_critical = _events(p, rho, u, w, h, F)
    if len(zeros) == 2:
        rho[-1], u[-1], w[-1] = zeros[-1]
    # the test is relative to the lobe that ends at the zero: next to a
    # critical exponent the negative lobe's |w| is only about 1e-6 at its
    # largest; the scale is capped at 1, so it is never stricter than 1e3 _ABS_TOL
    start = -math.inf
    for rho_z, _, w_z in zeros:
        lobe = np.abs(w[(rho > start) & (rho <= rho_z)])
        scale = min(1.0, float(np.max(lobe, initial=abs(w_z))))
        if abs(w_z) < 1e3 * _ABS_TOL * scale:
            raise TangentialZeroError(
                f"degenerate zero at r={math.exp(rho_z):.6e}: |r u'| = {abs(w_z):.3e} is "
                f"below {1e3 * _ABS_TOL:g} times {scale:.3e}, the largest |r u'| on its "
                "lobe (capped at 1)")
        start = rho_z
    return Trajectory(p, N, rho, u, w, c, d, h, F, zeros, critical, fp_critical,
                      rejected=rejected, rhs_evals=rhs_evals)


def _events(p, rho, u, w, h, F):
    """The zeros of u, of w and of (p-1) w + 2u on the dense output, up to the second zero of u.

    rho, u, w are the nodes, h and F the steps' full widths and dense-output
    coefficients. Each event is tested on each step for a change or touch of
    sign between the step's ends and located on the step's polynomial by
    _root, and its row is the step's dense output at that root. Returns the
    three (n, 3) tables of (root, u, w) rows, each in root order (an event
    has at most one root per step); no event past the second zero of u is
    kept.
    """
    pm1 = p - 1.0
    y = np.array([u, w, pm1 * w + 2.0 * u])
    a, b = y[:, :-1], y[:, 1:]
    fired = ((a <= 0) & (0 <= b)) | ((a >= 0) & (0 >= b))
    ts, us, ws = rho.tolist(), u.tolist(), w.tolist()
    tables = ([], [], [])
    for j in np.flatnonzero(fired.any(axis=0)).tolist():
        t, t_new, hj = ts[j], ts[j + 1], float(h[j])
        events = _step_events(t, hj, us[j], ws[j], F[:, 0, j].tolist(), F[:, 1, j].tolist(),
                              pm1)
        hits = sorted((_root(events[i], t, t_new), i)
                      for i in np.flatnonzero(fired[:, j]).tolist())
        for root, i in hits:
            tables[i].append((root, events[0](root), events[1](root)))
            if i == 0 and len(tables[0]) == 2:
                break
        if len(tables[0]) == 2:
            break
    return tuple(np.array(rows, dtype=float).reshape(-1, 3) for rows in tables)


def _step_events(t, h, u, w, Fu, Fw, pm1):
    """The event functions s -> u, w, (p-1) w + 2u on a step's dense output, each alone.

    The step runs from (u, w) at t over the full width h, with dense-output
    coefficients Fu, Fw (_dense_output); pm1 = p - 1.
    """
    def at(y, F):
        return lambda s: _dense_eval(y, F, (s - t) / h)

    u_at, w_at = at(u, Fu), at(w, Fw)
    return u_at, w_at, lambda s: pm1 * w_at(s) + 2.0 * u_at(s)


# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5-II.6), as in SciPy's dop853_coefficients: the stage nodes _C and
# weights _A (rows 1..11 the step's stages, row 12 the eighth-order solution,
# rows 13..15 the extra stages of the dense output), the fifth- and
# third-order error weights _E5 and _E3, and _D, the weights of the dense
# output's F_3..F_6. Zero entries are kept, so that stage s is index s.
_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778
)
_A = (  # row s: the weights of stages 0 .. s-1
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0, 2.53500210216624811088794765333e-1,
     -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
     1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
     7.56789766054569976138603589584e-3, -8.298e-3),
    (3.18346481635021405060768473261e-2, 0, 0, 0, 0, 2.83009096723667755288322961402e-2,
     5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0, 0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0, 0, 0, 0, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331,
     3.56727187455281109270669543021e-1, 0, 0, 0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_E5 = (
    0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1
)
_E3 = tuple(b - c for b, c in zip(_A[12], (
    0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0, 0.733846688281611857341361741547, 0,
    0, 0.220588235294117647058823529412e-1
)))
_D = (
    (-0.84289382761090128651353491142e+1, 0, 0, 0, 0, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0, 0, 0, 0, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0, 0, 0, 0, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0, 0, 0, 0, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
)
# _dense_output's weights: per extra stage 13..15 the stages with a nonzero
# weight and those weights, and those of F_3..F_6, which share their zeros,
# shaped to broadcast over (stage, [row of _D,] component, step)
_EXTRA_WEIGHTS = tuple((np.flatnonzero(_A[s]), np.array([a for a in _A[s] if a])[:, None, None])
                       for s in (13, 14, 15))
_D_STAGES = np.flatnonzero(_D[0])
_D_WEIGHTS = np.array(_D)[:, _D_STAGES].T[:, :, None, None]
# step control of Hairer-Norsett-Wanner, Solving ODEs I, II.4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1 / 8                    # -1 / (order of the error estimator + 1)
_EVENT_TOL = 4 * sys.float_info.epsilon


def _rms(xu: float, xw: float) -> float:
    return math.sqrt(xu * xu + xw * xw) / 2**0.5


def _accel(rho: float, u: float, w: float, p: float, N: int) -> float:
    """dw/drho; math.exp raises OverflowError past the float64 range.

    _dop853 evaluates its stages with this expression inline, in the same
    operation order, so that every stage value is the same float.
    """
    return -(N - 2.0) * w - math.exp(2.0 * rho) * (
        math.copysign(math.exp(p * math.log(abs(u))), u) if u else 0.0)


def _dop853(p, N, t, t_end, u, w, f):
    """Integrate u' = w, w' = _accel(t, u, w, p, N) from t to t_end by DOP853.

    f = _accel(t, u, w, p, N) at the start. The step control is SciPy's
    DOP853 one: the error norm that combines the fifth- and third-order
    estimates over _ABS_TOL + max(|y|, |y_new|) _SHOOT_RTOL, exponent -1/8,
    safety 0.9, step factors in [0.2, 10] with no growth right after a
    rejection, steps of at least 10 ulp(t) and the same initial-step rule;
    no step is capped. An overflow in a stage makes the error norm infinite,
    so the step is rejected; a step below 10 ulp(t) raises StiffnessError.

    Each attempt that passes the error test is tested for a change or touch
    of sign of u. For p < 2 such an attempt is also rejected while the
    defect of its dense output reaches _CROSSING_DEFECT, shrinking it by
    0.9 (_CROSSING_DEFECT / defect)^(1/p): _dense_output builds for that
    the polynomial that the trajectory keeps, bit for bit, and on the step
    that holds the second sign change the defect is sampled up to the zero
    of u that _root finds on it, where the trajectory will end. The loop
    stops after that step, or at t_end. Returns the nodes (ts, us, ws), one
    flat list of each step's 13 stage derivatives of u and then of w, the
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
        h1 = (0.01 / max(d1, d2)) ** -_ERR_EXP
    h_abs = min(100 * h0, h1, span)
    n_rejected, rhs_evals = 0, 2

    # the stage loop runs some 10^3 times per solve: locals, and _accel
    # written out, save the global lookups and the calls
    exp, log, copysign, sqrt = math.exp, math.log, math.copysign, math.sqrt
    shift = -(N - 2.0)
    _, C1, C2, C3, C4, C5, C6, C7, C8, C9, C10, *_ = _C
    (_, (A1_0,), (A2_0, A2_1), (A3_0, _, A3_2), (A4_0, _, A4_2, A4_3),
     (A5_0, _, _, A5_3, A5_4), (A6_0, _, _, A6_3, A6_4, A6_5),
     (A7_0, _, _, A7_3, A7_4, A7_5, A7_6), (A8_0, _, _, A8_3, A8_4, A8_5, A8_6, A8_7),
     (A9_0, _, _, A9_3, A9_4, A9_5, A9_6, A9_7, A9_8),
     (A10_0, _, _, A10_3, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9),
     (A11_0, _, _, A11_3, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10),
     (B0, _, _, _, _, B5, B6, B7, B8, B9, B10, B11), *_) = _A
    E5_0, _, _, _, _, E5_5, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11 = _E5
    E3_0, _, _, _, _, E3_5, E3_6, E3_7, E3_8, E3_9, E3_10, E3_11 = _E3

    ts, us, ws, stages, crossings = [t], [u], [w], [], 0
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
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
                w1 = w + (A1_0 * f) * h
                x = u + (A1_0 * w) * h
                a1 = shift * w1 - exp(2.0 * (t + C1 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w2 = w + (A2_0 * f + A2_1 * a1) * h
                x = u + (A2_0 * w + A2_1 * w1) * h
                a2 = shift * w2 - exp(2.0 * (t + C2 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w3 = w + (A3_0 * f + A3_2 * a2) * h
                x = u + (A3_0 * w + A3_2 * w2) * h
                a3 = shift * w3 - exp(2.0 * (t + C3 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w4 = w + (A4_0 * f + A4_2 * a2 + A4_3 * a3) * h
                x = u + (A4_0 * w + A4_2 * w2 + A4_3 * w3) * h
                a4 = shift * w4 - exp(2.0 * (t + C4 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w5 = w + (A5_0 * f + A5_3 * a3 + A5_4 * a4) * h
                x = u + (A5_0 * w + A5_3 * w3 + A5_4 * w4) * h
                a5 = shift * w5 - exp(2.0 * (t + C5 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w6 = w + (A6_0 * f + A6_3 * a3 + A6_4 * a4 + A6_5 * a5) * h
                x = u + (A6_0 * w + A6_3 * w3 + A6_4 * w4 + A6_5 * w5) * h
                a6 = shift * w6 - exp(2.0 * (t + C6 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w7 = w + (A7_0 * f + A7_3 * a3 + A7_4 * a4 + A7_5 * a5 + A7_6 * a6) * h
                x = u + (A7_0 * w + A7_3 * w3 + A7_4 * w4 + A7_5 * w5 + A7_6 * w6) * h
                a7 = shift * w7 - exp(2.0 * (t + C7 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w8 = w + (A8_0 * f + A8_3 * a3 + A8_4 * a4 + A8_5 * a5 + A8_6 * a6
                          + A8_7 * a7) * h
                x = u + (A8_0 * w + A8_3 * w3 + A8_4 * w4 + A8_5 * w5 + A8_6 * w6
                         + A8_7 * w7) * h
                a8 = shift * w8 - exp(2.0 * (t + C8 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w9 = w + (A9_0 * f + A9_3 * a3 + A9_4 * a4 + A9_5 * a5 + A9_6 * a6
                          + A9_7 * a7 + A9_8 * a8) * h
                x = u + (A9_0 * w + A9_3 * w3 + A9_4 * w4 + A9_5 * w5 + A9_6 * w6
                         + A9_7 * w7 + A9_8 * w8) * h
                a9 = shift * w9 - exp(2.0 * (t + C9 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                w10 = w + (A10_0 * f + A10_3 * a3 + A10_4 * a4 + A10_5 * a5 + A10_6 * a6
                           + A10_7 * a7 + A10_8 * a8 + A10_9 * a9) * h
                x = u + (A10_0 * w + A10_3 * w3 + A10_4 * w4 + A10_5 * w5 + A10_6 * w6
                         + A10_7 * w7 + A10_8 * w8 + A10_9 * w9) * h
                a10 = shift * w10 - exp(2.0 * (t + C10 * h)) * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                # stage 11 and the new state's derivative both sit at t + h
                e_end = exp(2.0 * (t + h))
                w11 = w + (A11_0 * f + A11_3 * a3 + A11_4 * a4 + A11_5 * a5 + A11_6 * a6
                           + A11_7 * a7 + A11_8 * a8 + A11_9 * a9 + A11_10 * a10) * h
                x = u + (A11_0 * w + A11_3 * w3 + A11_4 * w4 + A11_5 * w5 + A11_6 * w6
                         + A11_7 * w7 + A11_8 * w8 + A11_9 * w9 + A11_10 * w10) * h
                a11 = shift * w11 - e_end * (
                    copysign(exp(p * log(abs(x))), x) if x else 0.0)
                u_new = u + h * (B0 * w + B5 * w5 + B6 * w6 + B7 * w7 + B8 * w8
                                 + B9 * w9 + B10 * w10 + B11 * w11)
                w_new = w + h * (B0 * f + B5 * a5 + B6 * a6 + B7 * a7 + B8 * a8
                                 + B9 * a9 + B10 * a10 + B11 * a11)
                f_new = shift * w_new - e_end * (
                    copysign(exp(p * log(abs(u_new))), u_new) if u_new else 0.0)
                rhs_evals += 12
                su = atol + max(abs(u), abs(u_new)) * rtol
                sw = atol + max(abs(w), abs(w_new)) * rtol
                eu5 = (E5_0 * w + E5_5 * w5 + E5_6 * w6 + E5_7 * w7 + E5_8 * w8
                       + E5_9 * w9 + E5_10 * w10 + E5_11 * w11) / su
                ew5 = (E5_0 * f + E5_5 * a5 + E5_6 * a6 + E5_7 * a7 + E5_8 * a8
                       + E5_9 * a9 + E5_10 * a10 + E5_11 * a11) / sw
                eu3 = (E3_0 * w + E3_5 * w5 + E3_6 * w6 + E3_7 * w7 + E3_8 * w8
                       + E3_9 * w9 + E3_10 * w10 + E3_11 * w11) / su
                ew3 = (E3_0 * f + E3_5 * a5 + E3_6 * a6 + E3_7 * a7 + E3_8 * a8
                       + E3_9 * a9 + E3_10 * a10 + E3_11 * a11) / sw
                n5, n3 = eu5 * eu5 + ew5 * ew5, eu3 * eu3 + ew3 * ew3
                err = h * n5 / sqrt((n5 + 0.01 * n3) * 2.0) if n5 or n3 else 0.0
            except OverflowError:
                err = math.inf
            if err < 1:
                k = (w, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w_new,
                     f, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, f_new)
                crosses = u <= 0 <= u_new or u >= 0 >= u_new
                defect = 0.0
                if crosses and p < 2.0:
                    # across a zero of u, |u|^(p-1) u is only C^(1, p-1) and
                    # the dense output's defect falls only like h^p: the step
                    # must also keep it under _CROSSING_DEFECT, up to the
                    # second zero if it ends there, on the polynomial that
                    # the trajectory keeps
                    y = np.array([[u, u_new], [w, w_new]])
                    F = _dense_output(t, h, y[:, :1], y[:, 1:], _stage_array(k, 1), p, N)
                    rhs_evals += 3
                    Fu = F[:, 0, 0].tolist()
                    width = (_root(lambda s: _dense_eval(u, Fu, (s - t) / h), t, t_new) - t
                             if crossings else h)
                    defect = float(np.max(_defects(p, N, t, h, width, y[:, :1], F)))
                if defect < _CROSSING_DEFECT:
                    factor = (_MAX_FACTOR if err == 0
                              else min(_MAX_FACTOR, _SAFETY * err**_ERR_EXP))
                    h_abs *= min(1, factor) if rejected else factor
                    break
                # nan (an overflow) takes the smallest factor
                h_abs *= max(_MIN_FACTOR, _SAFETY * (_CROSSING_DEFECT / defect) ** (1.0 / p))
            else:
                h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERR_EXP)
            rejected = True
            n_rejected += 1

        stages += k
        ts.append(t_new)
        us.append(u_new)
        ws.append(w_new)
        crossings += crosses
        if crossings == 2 or t_new >= t_end:
            return ts, us, ws, stages, n_rejected, rhs_evals
        t, u, w, f = t_new, u_new, w_new, f_new


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
    zero. Every event, a zero of u too, is this root on the step's float
    polynomial (_events): the contract bounds |u(1)|/u(0), the unscaled
    |u(R2)|, which either adjacent float keeps at rounding level.
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
        if not np.all((r >= 0) & (r <= 1.0 + 1e-12)):  # negated, so that nan fails it
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

        Each shooting step is cut into _CELLS_PER_STEP equal cells in
        t = ln r, and below the first node the series region has cells of
        its own, from where f_p falls to eps. There 0 < u <= 1, so f_p <=
        p r^2, and a cell from r to r + dr has width h <= dr / r in t: with
        dr = sqrt(_CELL_DEFECT / p), h^2 f_p at its midpoint is at most
        _CELL_DEFECT e^h. The series cells are evenly spaced in r by that dr
        near the first node, and evenly spaced in t, no wider than
        _SERIES_CELL, below. Per cell set, (cell widths in t, f_p at the
        cell midpoints), read off the unscaled trajectory like ln_fp, in one
        evaluation for the midpoints of both sets. The
        split gives each Pruefer count its margin check
        (`spectral.prufer_counts`).
        """
        nodes = self._traj.rho
        first = nodes[0]
        lo = 0.5 * math.log(sys.float_info.epsilon / self.p)
        dr = math.sqrt(_CELL_DEFECT / self.p)
        mid = min(math.log(dr / _SERIES_CELL), first)
        wide = np.linspace(lo, mid, math.ceil((mid - lo) / _SERIES_CELL) + 1)
        r_mid, r_first = math.exp(mid), math.exp(first)
        narrow = np.log(np.linspace(r_mid, r_first, math.ceil((r_first - r_mid) / dr) + 1))
        frac = np.arange(_CELLS_PER_STEP) / _CELLS_PER_STEP
        cut = (nodes[:-1, None] + frac * np.diff(nodes)[:, None]).ravel()
        rho = np.concatenate((wide[:-1], narrow[:-1], cut, nodes[-1:]))
        widths = np.diff(rho)
        h, mid = [], []
        for split in (1, 2):
            j = np.repeat(np.arange(len(widths)), split)
            mid.append(rho[j] + np.tile((np.arange(split) + 0.5) / split, len(widths)) * widths[j])
            h.append(widths[j] / split)
        mid = np.concatenate(mid)
        u, = self._traj._state(mid, rows=1)
        f = np.split(_exp(_ln_fp(self.p, u, mid)), [len(widths)])
        return tuple(zip(h, f))


_LN_RMAX_CAP = 345.0  # keep r^2 representable in float64
# the shooting contract: fixed, so that no caller can loosen it
_RESIDUAL_BOUND = 1e-7  # on residual_sup
_CROSSING_DEFECT = 0.1 * _RESIDUAL_BOUND  # on a step across a zero of u (_dop853)
_U1_BOUND = 1e-9  # on |u(1)| / u(0)
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
    tolerance 1e-12 (_SHOOT_RTOL); |u(1)|/u(0) >= 1e-9 (_U1_BOUND) or
    residual_sup >= 1e-7 (_RESIDUAL_BOUND), or nan, raises SolverError.
    Both figures are invariant under the rescale: |u(1)|/u(0) is |u| at the
    unscaled terminal node.
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

    u1 = abs(float(traj.u[-1]))  # |u(1)| / u(0)
    if not u1 < _U1_BOUND:
        raise SolverError(f"|u(1)|/u(0)={u1:.3e} exceeds shooting tolerance {_U1_BOUND}")

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
