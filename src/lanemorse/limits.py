"""Closed-form limit objects, their quadratures and their eigenvalue counts.

One function per object: the Liouville profile U (`liouville_profile`, mass
8 pi by `liouville_mass`), the singular profile Z_ell (`singular_profile`,
`singular_mass`; gamma = sqrt(2 ell^2 + 4) - 2 and delta =
((gamma+4)/gamma)^(1/(gamma+2)) ell from `limit_constants`), the potential
V_+ (`limit_potential`) and the first eigenfunction `eta1` of the weighted
limit operator |x|^2(-Delta - V), whose eigenvalue -(N-1) in every dimension
N >= 2 is `rayleigh_eta1`.

All improper integrals reduce to linear combinations of

    int r^m (1 + r^2/c)^(-q) dr,

whose tails have exact incomplete-beta expressions; quadrature is therefore
truncated with certified (not estimated) remainders.

That no eigenvalue lies lower is a count: under t = ln r and w =
r^((N-2)/2) v the radial limit problem is -w'' + (alpha^2 - f(t)) w = E w on
the line, alpha = (N-2)/2 and f(t) = V(e^t) e^(2t), and by Sturm oscillation
the eigenvalues below E are the zeros of its solution that decays at -inf,
counted by the Pruefer walk of the Morse confirmation
(`spectral.prufer_angles`). `verification_battery` counts 0 below
-(N-1)(1 + LIMIT_DELTA) and 1 below -(N-1)(1 - LIMIT_DELTA), and at N = 2
the same pair at -(ell^2+2)/2 for f = e^(Z_ell) r^2, the singular limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import beta as beta_fn, betainc

from .errors import ConfigError
from .spectral import prufer_angles

__all__ = [
    "REFERENCE_ELL",
    "LimitConstants",
    "Check",
    "limit_constants",
    "liouville_profile",
    "singular_profile",
    "eta1",
    "eta1_d1",
    "eta1_d2",
    "limit_potential",
    "liouville_mass",
    "singular_mass",
    "rayleigh_eta1",
    "limit_residual",
    "power_tail_integral",
    "verification_battery",
]

# the limit of s_p / eps_minus; no closed form is known, this reference value
# is fed in as configuration and cross-checked against the solver estimate
REFERENCE_ELL = 7.1979

# ell range of the singular-profile arithmetic. gamma = sqrt(2 ell^2 + 4) - 2
# is formed by cancellation, with relative error about 4e-16 / ell^2 (4e-4 at
# ELL_MIN; it rounds to 0 below ell ~ 1.5e-8); the Z_ell mass tail needs
# 1e3^sqrt(2 ell^2 + 4), which leaves the float64 range above ell ~ 72.6
ELL_MIN = 1e-6
ELL_MAX = 70.0
# the exact eta_1 tails carry (N (N-2))^((N+4)/2), which leaves the float64
# range at N = 140
MAX_LIMIT_N = 139
# truncation radius of the mass quadratures; the remainders beyond it are
# added in exact closed form
MASS_TRUNC = 1e3

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
# the eigenvalue counts walk uniform cells of width LIMIT_CELL / sqrt(max f)
# in t on [-T, T], T = |t_peak| + LIMIT_SPAN, over which f falls from its peak
# by e^-40 or more (like e^(-2 |t - t_peak|) in every N, faster for Z_ell).
# The lowest eigenvalue of the midpoint cells lies at most 8.9e-6 |E| above
# the exact one (N = 2 and the singular limit; 2.4e-7 |E| at N = 139), within
# LIMIT_DELTA / 10 of it; halving LIMIT_CELL divides that by 4, and halving
# or doubling LIMIT_SPAN moves it by at most 2e-9 |E|
LIMIT_CELL = 0.02
LIMIT_SPAN = 20.0
# relative half-width of the window that each pair of counts puts around a
# limit eigenvalue
LIMIT_DELTA = 1e-4


@dataclass
class LimitConstants:
    """Constants of the singular profile derived from ell."""

    ell: float
    gamma: float
    delta: float
    H: float
    morse_Z: int


def limit_constants(ell: float = REFERENCE_ELL) -> LimitConstants:
    """gamma, delta, H and the singular-profile Morse data for a given ell.

    H = -int_0^ell e^(Z_ell(s)) s ds is computed by adaptive quadrature after
    the substitution s = tau^(2/(gamma+2)), which turns the integrable
    s^(gamma+1) endpoint into a linear one. (Algebraically H = -gamma; the
    quadrature route keeps this an independent check.)
    """
    if not (ELL_MIN <= ell <= ELL_MAX):
        raise ConfigError(f"ell must lie in [{ELL_MIN:g}, {ELL_MAX:g}], got {ell:g}")
    gamma = math.sqrt(2.0 * ell * ell + 4.0) - 2.0
    delta = ((gamma + 4.0) / gamma) ** (1.0 / (gamma + 2.0)) * ell
    ex = 2.0 / (gamma + 2.0)

    def integrand(tau):
        s = tau**ex
        return math.exp(_z_ell_log(s, gamma, delta)) * s * ex * tau ** (ex - 1.0)

    tau_ell = ell ** ((gamma + 2.0) / 2.0)
    val, _ = quad(integrand, 0.0, tau_ell, **_QUAD_OPTS)
    morse_z = 1 + 2 * math.floor(math.sqrt(2.0 * ell * ell + 4.0) / 2.0)
    return LimitConstants(ell=ell, gamma=gamma, delta=delta, H=-val, morse_Z=morse_z)


def _z_ell_log(r, gamma: float, delta: float):
    """Z_ell(r), evaluated through logarithms (delta^(gamma+2) ~ e^21)."""
    r = np.asarray(r, dtype=float)
    ln_d = (gamma + 2.0) * math.log(delta)
    with np.errstate(divide="ignore"):
        ln_r = np.log(r)
    # log(delta^(g+2) + r^(g+2)) via logaddexp for stability
    ln_sum = np.logaddexp(ln_d, (gamma + 2.0) * ln_r)
    out = math.log(2.0) + 2.0 * math.log(gamma + 2.0) + ln_d + gamma * ln_r - 2.0 * ln_sum
    return float(out) if np.ndim(r) == 0 else out


def _sphere_dim_c(N: int) -> float:
    # curvature scale of the limit profiles: 8 in the plane, N(N-2) above
    return 8.0 if N == 2 else float(N * (N - 2))


def _radius_w(r, N: int):
    # (r, c, W = 1 + r^2/c): U, eta_1 and V are closed forms in W
    c = _sphere_dim_c(N)
    r = np.asarray(r, dtype=float)
    return r, c, 1.0 + r * r / c


def eta1(r, N: int = 2):
    """First eigenfunction of the limit weighted operator (any N >= 2)."""
    r, _, w = _radius_w(r, N)
    return r * w ** (-N / 2.0)


def eta1_d1(r, N: int = 2):
    r, c, w = _radius_w(r, N)
    return w ** (-N / 2.0 - 1.0) * (1.0 - (N - 1.0) * r * r / c)


def eta1_d2(r, N: int = 2):
    r, c, w = _radius_w(r, N)
    return (N * r / c) * w ** (-N / 2.0 - 2.0) * ((N - 1.0) * r * r / c - 3.0)


def limit_potential(r, N: int = 2):
    """V(x): e^U in the plane, p_S U^(p_S - 1) for N >= 3; both kappa/W^2."""
    kappa = 1.0 if N == 2 else (N + 2.0) / (N - 2.0)
    r, _, w = _radius_w(r, N)
    return kappa * w**-2.0


def liouville_profile(x, N: int = 2):
    """U(x): -2 ln W in the plane, W^(-(N-2)/2) above, W = 1 + |x|^2/c."""
    x, c, w = _radius_w(x, N)
    if N == 2:
        return -2.0 * np.log1p(x * x / c)
    return w ** (-(N - 2.0) / 2.0)


def singular_profile(x, constants: LimitConstants):
    """Z_ell(x) for x > 0 (planar; logarithmically singular at the origin)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ConfigError("Z_ell is defined for x > 0 (logarithmic singularity at 0)")
    return _z_ell_log(x, constants.gamma, constants.delta)


# ---------------------------------------------------------------------------
# exact tails for power-of-(1 + r^2/c) integrands


def power_tail_integral(m: float, q: float, c: float, lo: float) -> float:
    """int_lo^inf r^m (1 + r^2/c)^(-q) dr via the regularized incomplete beta.

    lo = 0 gives the whole integral (requires q > (m+1)/2).
    """
    a = (m + 1.0) / 2.0
    b = q - a
    if b <= 0:
        raise ConfigError("divergent power integral: need q > (m+1)/2")
    x = lo * lo / (c + lo * lo)
    return 0.5 * c**a * beta_fn(a, b) * betainc(b, a, 1.0 - x)


def liouville_mass() -> float:
    """Planar mass int_{R^2} e^U dx: quadrature to MASS_TRUNC plus the exact tail."""
    val, _ = quad(lambda r: r * (1.0 + r * r / 8.0) ** -2.0, 0.0, MASS_TRUNC,
                  **_QUAD_OPTS)
    tail = power_tail_integral(1.0, 2.0, 8.0, MASS_TRUNC)
    return 2.0 * math.pi * (val + tail)


def singular_mass(constants: LimitConstants) -> float:
    """Singular-profile mass int_{R^2} e^(Z_ell) dx, truncated like liouville_mass."""
    g, d = constants.gamma, constants.delta

    def integrand(s):
        return math.exp(_z_ell_log(s, g, d)) * s

    val, _ = quad(integrand, 0.0, MASS_TRUNC, **_QUAD_OPTS)
    dg2 = math.exp((g + 2.0) * math.log(d))
    tail = 2.0 * (g + 2.0) * dg2 / (dg2 + math.exp((g + 2.0) * math.log(MASS_TRUNC)))
    return 2.0 * math.pi * (val + tail)


# ---------------------------------------------------------------------------
# Rayleigh quotient of the limit operator


def rayleigh_eta1(N: int) -> float:
    """R*(eta_1) = -(N-1): quadrature on (0, 50) plus exact beta-function tails."""
    trunc = 50.0
    c = _sphere_dim_c(N)
    kappa = 1.0 if N == 2 else (N + 2.0) / (N - 2.0)

    grad, _ = quad(lambda r: eta1_d1(r, N) ** 2 * r ** (N - 1), 0, trunc, **_QUAD_OPTS)
    pot, _ = quad(lambda r: limit_potential(r, N) * eta1(r, N) ** 2 * r ** (N - 1),
                  0, trunc, **_QUAD_OPTS)
    den, _ = quad(lambda r: eta1(r, N) ** 2 * r ** (N - 3), 0, trunc, **_QUAD_OPTS)

    nm1 = float(N - 1)
    grad += (power_tail_integral(N - 1, N + 2, c, trunc)
             - 2.0 * nm1 / c * power_tail_integral(N + 1, N + 2, c, trunc)
             + (nm1 / c) ** 2 * power_tail_integral(N + 3, N + 2, c, trunc))
    pot += kappa * power_tail_integral(N + 1, N + 2, c, trunc)
    den += power_tail_integral(N - 1, N, c, trunc)
    return (grad - pot) / den


def limit_residual(N: int, lam: float) -> float:
    """sup of |-Delta eta_1 - V eta_1 - lam eta_1/r^2| on a log grid over [1e-3, 1e3].

    Uses the closed-form first and second derivatives of eta_1.
    """
    r = np.logspace(-3, 3, 601)
    res = (-eta1_d2(r, N) - (N - 1.0) / r * eta1_d1(r, N)
           - limit_potential(r, N) * eta1(r, N) - lam * eta1(r, N) / r**2)
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# eigenvalue counts of the limit problems


def _count_below(f, t_peak: float, alpha: float, E: float) -> int:
    """Eigenvalues below E of -w'' + (alpha^2 - f(t)) w = E w on the line.

    f(t) >= 0 peaks at t_peak and decays at both ends. The count is the
    number of zeros of the solution that decays at -inf, walked from y'/y =
    sqrt(alpha^2 - E) at -T over uniform cells with f at their midpoints
    (see LIMIT_CELL and LIMIT_SPAN for the cells and T).
    """
    kappa = math.sqrt(alpha * alpha - E)
    T = abs(t_peak) + LIMIT_SPAN
    n = math.ceil(2.0 * T * math.sqrt(f(t_peak)) / LIMIT_CELL)
    h = 2.0 * T / n
    theta, = prufer_angles(kappa, [(np.full(n, h), f(-T + (np.arange(n) + 0.5) * h)
                                    - kappa * kappa)])
    return math.floor(theta)


# ---------------------------------------------------------------------------
# verification battery used by the CLI and the acceptance suite


@dataclass
class Check:
    name: str
    anchor: str
    value: float
    expected: float
    tol: float
    passed: bool


def _mk_check(name, anchor, value, expected, tol, relative=False) -> Check:
    err = abs(value - expected)
    if relative:
        err /= abs(expected)
    return Check(name=name, anchor=anchor, value=float(value),
                 expected=float(expected), tol=tol, passed=bool(err < tol))


def _first_eigenvalue_checks(name: str, problem: str, f, t_peak: float, alpha: float,
                             lam: float, label: str) -> list[Check]:
    """Counts 0 below lam (1 + LIMIT_DELTA) and 1 below lam (1 - LIMIT_DELTA),
    lam < 0: the lowest eigenvalue lies within LIMIT_DELTA |lam| of lam."""
    return [
        _mk_check(f"{name}_count_{side}",
                  f"eigenvalues of {problem} below E = {label} (1 {sign} {LIMIT_DELTA:g})"
                  f" = {E:.10g}",
                  _count_below(f, t_peak, alpha, E), n, 0.5)
        for side, n, sign, E in (("below", 0, "+", lam * (1.0 + LIMIT_DELTA)),
                                 ("above", 1, "-", lam * (1.0 - LIMIT_DELTA)))
    ]


def verification_battery(
    N: int = 2, constants: LimitConstants | None = None,
) -> list[Check]:
    """Run every limit check at dimension N and REFERENCE_ELL.

    N is an integer in [2, MAX_LIMIT_N], else ConfigError. constants:
    limit_constants() when the caller already holds them, so that their H
    quadrature runs once.
    """
    if not float(N).is_integer():
        raise ConfigError(f"dimension N must be an integer, got {N}")
    if N < 2:
        raise ConfigError(f"dimension N must be >= 2, got {N}")
    if N > MAX_LIMIT_N:
        raise ConfigError(
            f"dimension N must be <= {MAX_LIMIT_N} for the limit checks, got {N}")
    N = int(N)
    k = constants if constants is not None else limit_constants()
    g, d, ell = k.gamma, k.delta, k.ell
    checks = [
        _mk_check("z_ell_root", "singular profile vanishes at ell",
                  float(singular_profile(ell, k)), 0.0, 1e-10),
        _mk_check("h_at_delta", "weighted potential peak h(delta) = ell^2 + 2",
                  float(np.exp(singular_profile(d, k))) * d * d, ell * ell + 2.0, 1e-10),
        _mk_check("g_at_sqrt8", "planar potential peak g(sqrt 8) = 2",
                  float(limit_potential(math.sqrt(8.0), 2)) * 8.0, 2.0, 1e-10),
        _mk_check("H_quadrature", "quadrature of the point-mass coefficient (= -gamma)",
                  k.H, -g, 1e-8),
        _mk_check("liouville_mass", "planar Liouville mass 8 pi",
                  liouville_mass(), 8.0 * math.pi, 1e-6, relative=True),
        _mk_check("singular_mass_finite", "singular-profile mass 4 pi (gamma + 2)",
                  singular_mass(k), 4.0 * math.pi * (g + 2.0), 1e-6, relative=True),
        _mk_check("rayleigh_eta1", "limit eigenvalue -(N-1) attained at eta_1",
                  rayleigh_eta1(N), -(N - 1.0), 1e-6, relative=True),
        _mk_check("limit_residual", "eta_1 solves the limit equation at -(N-1)",
                  limit_residual(N, -(N - 1.0)), 0.0, 1e-10),
        # at lambda = 0 the residual is the dropped (N-1) eta_1/r^2, largest
        # at the grid's inner end r = 1e-3
        _mk_check("residual_wrong_eigenvalue",
                  "residual at lambda = 0 is (N-1) eta_1/r^2 at r = 1e-3",
                  limit_residual(N, 0.0), (N - 1.0) * float(eta1(1e-3, N)) * 1e6,
                  1e-9, relative=True),
        _mk_check("eta1_decay_origin", "eta_1 |x|^(N-1) -> 0 at the origin",
                  float(eta1(1e-6, N)) * (1e-6) ** (N - 1), 0.0, 1e-5),
        _mk_check("eta1_decay_infinity", "eta_1 / |x| -> 0 at infinity",
                  float(eta1(1e6, N)) / 1e6, 0.0, 1e-5),
    ]
    checks += _first_eigenvalue_checks(
        "eta1", "the limit problem", lambda t: limit_potential(np.exp(t), N) * np.exp(2.0 * t),
        0.5 * math.log(_sphere_dim_c(N)), 0.5 * (N - 2.0), -(N - 1.0), "-(N-1)")
    if N == 2:
        checks += _first_eigenvalue_checks(
            "singular", "the singular limit problem",
            lambda t: np.exp(singular_profile(np.exp(t), k) + 2.0 * t),
            math.log(d), 0.0, -(ell * ell + 2.0) / 2.0, "-(ell^2+2)/2")
    return checks
