import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from lanemorse import (
    ConfigError, HorizonError, SolverError, StiffnessError, Trajectory,
    integrate_ivp, radial, solve_nodal,
)
from lanemorse.radial import _ABS_TOL, signed_power

EPS = np.finfo(float).eps


def j0(x):
    """J0 and J0' by their power series, sum_k (-x^2/4)^k / k!^2."""
    term, total, slope = 1.0, 1.0, 0.0
    for k in range(1, 60):
        term *= -(x * x / 4.0) / (k * k)
        total += term
        slope += 2.0 * k * term / x
        if abs(term) < 1e-18:
            break
    return total, slope


def bessel_j0_first_zero():
    """Independent oracle: power series of J0 plus sign bisection."""
    lo, hi = 2.0, 3.0
    assert j0(lo)[0] > 0 > j0(hi)[0]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if j0(mid)[0] > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bessel_first_zero():
    # p = 1 turns the radial equation into Bessel's equation of order zero
    traj = integrate_ivp(1.0, 2)
    oracle = bessel_j0_first_zero()
    assert abs(math.exp(traj.zeros[0][0]) - oracle) < 1e-8


def test_trajectory_eval_at_the_origin_is_the_start_value():
    # r = 0 is the origin series' (1, 0), with no log(0) on the way
    traj = integrate_ivp(3.0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, du = traj.eval(0.0)
        u_v, du_v = traj.eval(np.array([0.0, 0.5]))
    assert (u, du) == (1.0, 0.0)
    assert (u_v[0], du_v[0]) == (1.0, 0.0) and 0.0 < u_v[1] < 1.0


def test_trajectory_follows_the_seed_model_below_the_first_node():
    # p = 1 (Bessel J0): below the first node the origin series, which is
    # J0 and J0' to rounding there, and it joins the first node continuously
    traj = integrate_ivp(1.0, 2)
    r = math.exp(traj.rho[0]) * np.array([1e-3, 0.1, 0.5, 0.9])
    u, du = traj.eval(r)
    u_ref, du_ref = np.array([j0(x) for x in r]).T
    assert np.allclose(u, u_ref, rtol=1e-15, atol=0.0)
    assert np.allclose(du, du_ref, rtol=1e-12, atol=0.0)
    # the first node is x_s = 1.83 here, where u' = w / r is not small: a
    # relative step delta below it moves u by -delta w to first order
    r0, delta = math.exp(traj.rho[0]), 1e-12
    u_j, du_j = traj.eval(r0 * (1.0 - delta))
    assert u_j == pytest.approx(traj.u[0] - delta * traj.w[0], rel=1e-12)
    assert du_j == pytest.approx(traj.w[0] / r0, rel=1e-12)


def test_trajectory_residual_small():
    traj = integrate_ivp(3.0, 2)
    assert traj.residual_sup() < 1e-8


def test_signed_power_basics():
    assert signed_power(0.0, 7.0) == 0.0
    assert signed_power(-2.0, 3.0) == pytest.approx(-8.0, rel=1e-14)
    assert signed_power(1e-200, 5.0) == 0.0  # graceful underflow
    # p = 1 is the identity even through the log form
    assert signed_power(-0.3, 1.0) == pytest.approx(-0.3, rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=1.0, max_value=500.0))
def test_signed_power_odd(u, p):
    # the nonlinearity is odd, bit-exactly so in the log evaluation
    assert signed_power(-u, p) == -signed_power(u, p)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-3, max_value=5.0),
       st.floats(min_value=1e-3, max_value=5.0),
       st.floats(min_value=1.0, max_value=200.0))
def test_signed_power_monotone(a, b, p):
    lo, hi = sorted((a, b))
    assert signed_power(lo, p) <= signed_power(hi, p)


@pytest.mark.parametrize(
    "shoot, kw",
    [
        pytest.param(integrate_ivp, dict(p=0.0, N=2), id="kw0"),
        pytest.param(integrate_ivp, dict(p=float("nan"), N=2), id="kw1"),
        pytest.param(integrate_ivp, dict(p=float("inf"), N=2), id="kw2"),
        pytest.param(integrate_ivp, dict(p=3.0, N=float("nan")), id="kw3"),
        pytest.param(integrate_ivp, dict(p=3.0, N=2.5), id="kw6"),
        pytest.param(integrate_ivp, dict(p=3.0, N=1), id="kw7"),
        pytest.param(solve_nodal, dict(p=float("nan"), N=2), id="kw9"),
        pytest.param(solve_nodal, dict(p=float("inf"), N=2), id="kw10"),
        pytest.param(solve_nodal, dict(p=2.0, N=float("nan")), id="kw11"),
    ],
)
def test_config_validation(shoot, kw):
    # p and N are checked before the origin series is formed, so the error
    # names the input, not the series
    with pytest.raises(ConfigError, match=r"^(exponent p|dimension N)"):
        shoot(**kw)


@pytest.mark.parametrize("p", [380.0, 383.0, 402.0])
def test_a_numpy_exponent_shoots_as_a_float(p):
    # a np.float64 p once made the stage arithmetic NumPy scalars, which warn
    # ("overflow" at the error norm, "invalid" at a5) where Python floats
    # raise the OverflowError that rejects the step
    assert type(radial._checked(np.float64(p), 2)[0]) is float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_nodal(np.float64(p))
    want = solve_nodal(p)
    for f in dataclasses.fields(want):
        if f.name != "_traj":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert type(got.p) is float
    for f in dataclasses.fields(want._traj):
        a, b = getattr(got._traj, f.name), getattr(want._traj, f.name)
        assert (np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b), f.name


def test_the_tableau_is_scipys_dop853():
    # the stepper's constants, entry by entry, against the installed SciPy's
    from scipy.integrate._ivp import dop853_coefficients as dop853

    assert radial._C == tuple(dop853.C)
    for s, row in enumerate(radial._A):
        assert row == tuple(dop853.A[s, :s]), s
    assert radial._E5 == tuple(dop853.E5[:12])
    assert radial._E3 == tuple(dop853.E3[:12])
    assert not dop853.E5[12] and not dop853.E3[12]
    assert radial._D == tuple(map(tuple, dop853.D))


def _shoot(p, N, a, r0, r_max):
    """The shooting integration of the solution with u(0) = a from r0, as a
    Trajectory: by the scaling u(r) = a U(x), x = |a|^((p-1)/2) r, its
    origin series has the coefficients a c_k |a|^((p-1) k) in r^(2k)."""
    c, d, _ = radial._origin_series(p, N)
    y = abs(a) ** (p - 1.0)
    c, d = ([a * ck * y**k for k, ck in enumerate(coeffs)] for coeffs in (c, d))
    return radial._integrate(p, N, c, d, r0, r_max)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scaling_identity(lam):
    # u_lam(r) = lam^(2/(p-1)) u(lam r) solves the same equation: the
    # invariance solve_nodal rescales by, through the stepper from u(0) = k
    p = 3.0
    base = _shoot(p, 2, 1.0, 1e-6, 8.0)
    k = lam ** (2.0 / (p - 1.0))
    scaled = _shoot(p, 2, k, 1e-6 / lam, 8.0 / lam)
    r = np.linspace(0.05, 7.0 / lam, 200)
    u_s, _ = scaled.eval(r)
    u_b, _ = base.eval(lam * r)
    assert np.max(np.abs(u_s - k * u_b)) < 1e-9


def test_zeros_ordered_and_simple():
    # the second zero ends the integration, far short of the horizon
    traj = integrate_ivp(3.0, 2)
    rhos = traj.zeros[:, 0].tolist()
    assert len(rhos) == 2 and traj.rho[-1] == rhos[-1]
    assert all(a < b for a, b in zip(rhos, rhos[1:]))
    directions = np.sign(traj.zeros[:, 2]).tolist()
    assert directions == [-1, 1]
    for rho_z in rhos:
        _, du = traj.eval(math.exp(rho_z))
        assert abs(du) > 1e-6  # Hopf-type simplicity


def test_nodal_construction(nodal):
    sol = nodal(3.0)
    assert abs(sol.eval(1.0)[0]) < 1e-9
    assert 0 < sol.r_p < sol.s_p < 1
    assert sol.u_min < 0 < sol.u0
    assert sol.u0 == pytest.approx(sol.lam ** (2.0 / (sol.p - 1.0)), rel=1e-14)
    # exactly one interior sign change on the grid
    signs = np.sign(sol.eval(sol.grid[(sol.grid > 0) & (sol.grid < 1)])[0])
    changes = np.sum(signs[:-1] * signs[1:] < 0)
    assert changes == 1


def test_a_zero_of_u_prime_before_r_p_is_named(nodal, monkeypatch):
    # solve_nodal reads the nodal shape off the events of the integration it
    # ran: a critical point on (0, r_p) means u does not decrease there; the
    # one added here lies at half the first zero's radius
    traj = nodal(10.0)._traj
    added = [traj.zeros[0, 0] - math.log(2.0), 0.5, -0.1]
    bad = dataclasses.replace(traj, critical=np.vstack((added, traj.critical)))
    monkeypatch.setattr(radial, "integrate_ivp", lambda *args: bad)
    with pytest.raises(SolverError, match=r"u' vanishes at r=.* on \(0, r_p=.*\): u is not decreasing"):
        solve_nodal(10.0)


@pytest.mark.parametrize("u_min", [-1.5, 0.0])
def test_a_minimum_outside_minus_u0_to_0_is_named(nodal, monkeypatch, u_min):
    # the unscaled u(0) is 1: a minimum below -1 would be the sup norm, one
    # at 0 leaves no negative nodal region
    traj = nodal(10.0)._traj
    critical = traj.critical.copy()
    critical[:, 1] = u_min
    bad = dataclasses.replace(traj, critical=critical)
    monkeypatch.setattr(radial, "integrate_ivp", lambda *args: bad)
    with pytest.raises(SolverError, match=r"u\(0\)=.* is not the sup norm of a sign-changing u"):
        solve_nodal(10.0)


def test_nodal_residual_invariant(nodal):
    for p in (3.0, 7.5):
        assert nodal(p).residual_sup < 1e-7


def test_nodal_self_consistency(nodal, monkeypatch):
    sol = nodal(3.0)
    monkeypatch.setattr(radial, "_SHOOT_RTOL", 5e-13)
    tight = solve_nodal(3.0)
    assert abs(sol.r_p - tight.r_p) / sol.r_p < 1e-8


def test_eval_consistent_with_grid(nodal):
    # the grid past 0 is the shooting steps, scaled: eval returns their
    # states, u' = u0 w / r of the unscaled w at the scaled radius r
    sol = nodal(5.0)
    traj = sol._traj
    r = sol.grid[1::25]
    u, du = sol.eval(r)
    assert np.allclose(u, sol.u0 * traj.u[::25], rtol=1e-10, atol=1e-12)
    assert np.allclose(du, sol.u0 * traj.w[::25] / r, rtol=1e-10, atol=1e-12)


def test_eval_taylor_region(nodal):
    sol = nodal(5.0)
    u, du = sol.eval(0.0)
    assert u == sol.u0 and du == 0.0
    # the integration starts from the origin series at its first node, and
    # the evaluator reads the series below it
    traj = sol._traj
    c, d, x_s = radial._origin_series(5.0, 2)
    assert (traj.c, traj.d) == (c, d)
    assert (radial._horner(c, x_s**2), radial._horner(d, x_s**2)) == (traj.u[0], traj.w[0])
    # below the first node, against an independent DOP853 run from r = 1e-6
    # seeded by the two-term Taylor model (its error there is O(1e-24))
    r = np.geomspace(1e-4, 1.0, 40) * x_s
    ref = _dop853_from_the_origin(5.0, 2, r)
    u, du = sol.eval(r / sol.lam)
    assert np.allclose(u / sol.u0, ref[0], rtol=1e-14, atol=0.0)
    assert np.allclose(r * du / (sol.u0 * sol.lam), ref[1], rtol=1e-13, atol=0.0)


def _dop853_from_the_origin(p, N, r):
    """(u, r u') at radii r of the a = 1 IVP by SciPy's DOP853 at rtol
    2.3e-14 (its floor), started at r = 1e-6 from u = 1 - r^2/(2N)."""
    def rhs(t, y):
        return (y[1], -(N - 2.0) * y[1] - math.exp(2.0 * t) * signed_power(y[0], p))

    r0 = 1e-6
    c = 1.0 / (2.0 * N)
    ref = solve_ivp(rhs, (math.log(r0), math.log(r[-1])), (1.0 - c * r0**2, -2.0 * c * r0**2),
                    method="DOP853", rtol=2.3e-14, atol=1e-300, max_step=0.1,
                    t_eval=np.log(r))
    assert ref.success
    return ref.y


def test_the_series_gives_the_bessel_coefficients():
    # p = 1 is Bessel's equation: u = Gamma(N/2) (x/2)^(1-N/2) J_(N/2-1)(x)
    for N in (2, 3, 5):
        c = radial._origin_series(1.0, N)[0]
        exact = [(-1) ** k * math.gamma(N / 2) / (4**k * math.factorial(k) * math.gamma(k + N / 2))
                 for k in range(len(c))]
        assert list(c) == pytest.approx(exact, rel=1e-14, abs=0.0), N


@pytest.mark.parametrize("p, N", [(2.0, 2), (3.0, 2), (2.0, 3), (3.0, 4)])
def test_the_series_power_is_the_cauchy_product(p, N):
    # c_(k+1) = -b_k / (2(k+1)(2k+N)), b the coefficients of U^p: at integer
    # p, the p-fold Cauchy product of c
    c = radial._origin_series(p, N)[0]
    power = [1.0] + [0.0] * (len(c) - 1)
    for _ in range(int(p)):
        power = [sum(power[j] * c[m - j] for j in range(m + 1)) for m in range(len(c))]
    b = [-2.0 * (k + 1) * (2 * k + N) * c[k + 1] for k in range(len(c) - 1)]
    assert b == pytest.approx(power[:-1], rel=1e-13, abs=0.0)


# the bands: N = 2 from p = 1.25 to 760, N = 3 up to critical, N = 4 to 8
SERIES_CASES = ([(p, 2) for p in (1.25, 1.5, 2.0, 3.0, 8.0, 14.0, 50.0, 400.0, 760.0)]
                + [(p, 3) for p in (1.5, 2.5, 3.3, 4.9999)]
                + [(2.9, 4), (2.0, 5), (1.5, 6), (1.5, 7), (1.3, 8)])


@pytest.mark.parametrize("p, N", SERIES_CASES)
def test_the_series_start_matches_dop853(p, N):
    # at x_s, where solve_nodal starts its steps, the series is the IVP's
    # solution to the rounding of the reference: 3.8e-15 in u and 1.4e-13
    # in r u' (p = 400) at worst
    c, d, x_s = radial._origin_series(p, N)
    u, w = radial._horner(c, x_s * x_s), radial._horner(d, x_s * x_s)
    (u_ref,), (w_ref,) = _dop853_from_the_origin(p, N, np.array([x_s]))
    assert u == pytest.approx(u_ref, rel=1e-14, abs=0.0)
    assert w == pytest.approx(w_ref, rel=5e-13, abs=0.0)


@pytest.mark.parametrize("p, N", SERIES_CASES)
def test_the_series_region_holds_no_event_and_solves_the_equation(p, N):
    # on (0, x_s]: u > 0, u' < 0 and (p-1) r u' + 2u > 0, so none of the
    # three shooting events lies there, and the r-form defect of the kept
    # terms, normalized as in residual_sup, is at rounding level (4.2e-14 at
    # p = 760); the ratio of the last two kept terms backs the tail bound
    c, d, x_s = radial._origin_series(p, N)
    y = x_s * x_s * np.linspace(1e-4, 1.0, 4000)
    u, w = radial._horner(c, y), radial._horner(d, y)
    assert np.all(u > 0) and np.all(w < 0) and np.all((p - 1.0) * w + 2.0 * u > 0)
    term_dd = radial._horner([2 * k * (2 * k - 1) * ck for k, ck in enumerate(c)][1:], y)
    term_d = radial._horner([2 * k * (N - 1) * ck for k, ck in enumerate(c)][1:], y)
    term_u = signed_power(u, p)
    scale = np.maximum(1.0, np.maximum(np.abs(term_dd), np.maximum(np.abs(term_d), np.abs(term_u))))
    assert np.max(np.abs(term_dd + term_d + term_u) / scale) < 1e-13
    assert x_s * x_s * abs(c[-1] / c[-2]) < 0.2


def test_extreme_exponents_name_the_series_limit():
    with pytest.raises(ConfigError, match=r"origin series has no event-free radius at p=1e\+100"):
        solve_nodal(1e100)


@pytest.mark.parametrize("p, N", [(1.25, 2), (1.3, 2), (3.0, 2), (400.0, 2), (760.0, 2),
                                  (2.5, 3), (4.9999, 3), (1.5, 6), (1.3, 8)])
def test_a_zero_of_u_is_a_sign_change_of_the_dense_output(nodal, p, N):
    # each zero of u is a float next to the sign change of its step's float
    # polynomial, and its row keeps that polynomial's value there; the
    # terminal node is that zero, and the evaluator reads its state back
    traj = nodal(p, N)._traj
    for rho_z, u_z, _ in traj.zeros:
        j = int(np.searchsorted(traj.rho, rho_z)) - 1

        def u_at(s):
            return radial._dense_eval(traj.u[j], [c[0, j] for c in traj.F],
                                      (s - traj.rho[j]) / traj.h[j])

        value = u_at(rho_z)
        sides = [np.sign(u_at(math.nextafter(rho_z, end))) for end in (-math.inf, math.inf)]
        assert value == 0 or -np.sign(value) in sides
        assert u_z == value
    u_end, w_end = traj._state(np.array([traj.rho[-1]]))
    assert (u_end[0], w_end[0]) == (traj.u[-1], traj.w[-1])


@pytest.mark.parametrize("c", [0.3, 1e-3, -0.8083498913620493, 14.952283819406915,
                               258.7654321])
def test_the_root_of_a_line_is_its_float(c):
    assert radial._root(lambda x: x - c, c - 1.5, c + 2.0) == c


@pytest.mark.parametrize("c", [0.3, 14.952283819406915, 258.7654321])
@pytest.mark.parametrize("frac", [0.3, 0.7])
def test_a_root_between_two_floats_gives_the_nearer(c, frac):
    # the exact root lies frac of the way from c to the next float
    up = math.nextafter(c, math.inf)
    root = Fraction(c) + frac * (Fraction(up) - Fraction(c))
    got = radial._root(lambda x: float(Fraction(x) - root), c - 1.0, c + 1.0)
    assert got == (c if frac < 0.5 else up)


@pytest.mark.parametrize("fun, a, b, end", [
    (lambda x: x * x + 1.0, -0.5, 2.0, -0.5),
    (lambda x: -(x * x + 1.0), -3.0, 1.0, 1.0),
    (lambda x: x * (x - 2.0), 0.0, 1.0, 0.0),      # a touch at the left end
], ids=["above", "below", "touch"])
def test_no_sign_change_gives_the_end_nearer_zero(fun, a, b, end):
    assert radial._root(fun, a, b) == end


def test_a_tiny_scaled_function_still_has_its_root():
    # values near 1e-150, whose products underflow to zero: no step may
    # divide by one
    assert radial._root(lambda x: 1e-150 * math.expm1(x - 0.3), 0.0, 1.0) == 0.3


def test_supercritical_rejected():
    with pytest.raises(ConfigError):
        solve_nodal(5.0, N=3)
    with pytest.raises(ConfigError):
        solve_nodal(1.0, N=2)


@pytest.mark.parametrize("p, N", [(1.001, 2), (1.004, 3)])
def test_near_one_exponent_names_the_overflow_limit(p, N):
    # u(0) = R2^(2/(p-1)) leaves the float64 range; the error names the
    # smallest exponent that keeps it representable
    with pytest.raises(ConfigError, match=rf"p={p} is too close to 1: .* N={N} needs p > 1\.00"):
        solve_nodal(p, N=N)


def test_nodal_N3():
    sol = solve_nodal(3.0, N=3)
    assert abs(sol.eval(1.0)[0]) < 1e-9
    assert sol.u_min < 0 < sol.u0
    assert sol.residual_sup < 1e-7


def test_large_p_solve_emits_no_warning():
    # the integrator's initial-step probe overflows e^(2 rho) at large p
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_nodal(400.0)
    assert abs(sol.eval(1.0)[0]) < 1e-9


@pytest.mark.parametrize("p", [2.5, 400.0])
def test_dense_eval_matches_ode_solution(nodal, p):
    # the dense output against an independent, much tighter DOP853 solution
    # of the same log-form IVP from the first node, at random points, at
    # every step node and at both ends; at the nodes it returns the node
    # states
    traj = nodal(p)._traj
    N = traj.N
    ts = traj.rho
    rng = np.random.default_rng(7)
    rho = np.sort(np.concatenate([rng.uniform(ts[0], ts[-1], 4000), ts]))

    def rhs(t, y):
        return (y[1], -(N - 2.0) * y[1] - math.exp(2.0 * t) * signed_power(y[0], p))

    y0 = (traj.u[0], traj.w[0])
    with np.errstate(over="ignore"):  # the initial-step probe at large p
        ref = solve_ivp(rhs, (ts[0], ts[-1]), y0, method="DOP853", rtol=2.3e-14,
                        atol=1e-16, max_step=0.075, t_eval=rho)
    assert ref.success
    r = np.exp(rho)
    u, du = traj.eval(r)
    assert np.max(np.abs(u - ref.y[0])) <= 1e-11
    assert np.max(np.abs(r * du - ref.y[1])) <= 2e-11
    u_n, w_n = traj._state(ts)
    assert np.array_equal(u_n, traj.u) and np.array_equal(w_n, traj.w)


def joint_dense_eval(y, F, x):
    """The value and x-derivative of the dense output, both formed on every
    pass: the reference for radial._dense_eval with and without slope."""
    value = derivative = 0.0
    for i, f in enumerate(reversed(F)):
        s = value + f
        if i % 2:
            value, derivative = s * (1.0 - x), derivative * (1.0 - x) - s
        else:
            value, derivative = s * x, derivative * x + s
    return y + value, derivative


def assert_dense_eval_is_the_joint_form(y, F, x):
    value = radial._dense_eval(y, F, x)
    with_slope, slope = radial._dense_eval(y, F, x, slope=True)
    ref_value, ref_slope = joint_dense_eval(y, F, x)
    assert np.array_equal(value, with_slope) and np.array_equal(value, ref_value)
    assert np.array_equal(slope, ref_slope)


def test_the_value_alone_is_the_value_with_the_slope():
    # the derivative is formed only with slope; the value is the same float
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.integers(-8, 8, 7)
    y, F = rng.normal(size=(2, 50)), list(rng.normal(size=(7, 2, 50)) * scale[:, None, None])
    for x in (rng.uniform(size=50), 0.0, 1.0, float(rng.uniform())):
        assert_dense_eval_is_the_joint_form(y, F, x)
    for _ in range(200):  # scalars, as _root probes them
        y0, x = rng.normal(), float(rng.uniform())
        assert_dense_eval_is_the_joint_form(y0, list(rng.normal(size=7)), x)


@pytest.mark.parametrize("p, N", [(400.0, 2), (1.25, 2)])
def test_the_value_alone_is_the_value_on_a_trajectory(nodal, p, N):
    traj = nodal(p, N)._traj
    y = np.array([traj.u[:-1], traj.w[:-1]])
    x = np.random.default_rng(3).uniform(size=y.shape[1])
    assert_dense_eval_is_the_joint_form(y, list(traj.F), x)
    assert_dense_eval_is_the_joint_form(traj.u[5], [c[0, 5] for c in traj.F], 0.3)


@pytest.mark.parametrize("p, N", [(400.0, 2), (4.9999, 3)])
def test_the_trajectory_keeps_the_integrators_variables(monkeypatch, p, N):
    # the steps (rho, u, w) as _dop853 returned them, up to the last node,
    # which is the second zero of u; each step's full width and its dense
    # output, whose end value is the step's end state; and the origin
    # series the steps start from
    runs = []
    real = radial._dop853
    monkeypatch.setattr(radial, "_dop853",
                        lambda *args, **kwargs: runs.append(real(*args, **kwargs)) or runs[-1])
    traj = solve_nodal(p, N)._traj
    ts, us, ws, stages, *_ = runs[-1]
    assert np.array_equal(traj.rho[:-1], ts[:-1]) and np.array_equal(traj.u[:-1], us[:-1])
    assert np.array_equal(traj.w[:-1], ws[:-1])
    assert (traj.rho[-1], traj.u[-1], traj.w[-1]) == tuple(traj.zeros[-1])
    assert ts[-2] < traj.rho[-1] <= ts[-1]
    assert np.array_equal(traj.h, np.diff(ts))
    assert len(stages) == 26 * (len(ts) - 1) and traj.F.shape == (7, 2, len(ts) - 1)
    # per step the 13 stage derivatives of u, then the 13 of w: u' = w at
    # both ends of the step, and w' at its end is w' at the next one's start
    k = np.reshape(stages, (len(ts) - 1, 2, 13))
    assert np.array_equal(k[:, 0, 0], ws[:-1]) and np.array_equal(k[:, 0, 12], ws[1:])
    assert np.array_equal(k[1:, 1, 0], k[:-1, 1, 12])
    assert np.array_equal(traj.F[0], np.diff([us, ws]))  # F_0 = y_new - y
    assert (traj.c, traj.d) == radial._origin_series(p, N)[:2]
    for table in (traj.zeros, traj.critical, traj.fp_critical):
        assert table.shape[0] and table.shape[1] == 3
        assert np.all(np.diff(table[:, 0]) > 0) and table[-1, 0] <= traj.rho[-1]


def _dop853_along(traj):
    """SciPy's DOP853, with the same tolerances, walked through the stepper's
    steps: from the first node, each attempt at the stepper's full step
    width. Returns the step ends and states, the width SciPy proposes after
    each step, each step's dense output and the (root, u, w) events on those
    dense outputs up to the second zero of u, located as solve_ivp does."""
    p, N = traj.p, traj.N

    def rhs(rho, y):
        return (y[1], -(N - 2.0) * y[1] - np.exp(2.0 * rho) * signed_power(y[0], p))

    widths = traj.h
    # a trial stage that leaves the float range is rejected, as in the stepper
    with np.errstate(over="ignore", invalid="ignore"):
        solver = DOP853(rhs, traj.rho[0], (traj.u[0], traj.w[0]),
                        t_bound=math.log(math.exp(radial._LN_RMAX_CAP)),
                        rtol=radial._SHOOT_RTOL, atol=_ABS_TOL)
        ts, ys, proposed, dense = [solver.t], [solver.y], [], []
        for width in widths:
            solver.h_abs = width
            solver.step()
            ts.append(solver.t)
            ys.append(solver.y)
            proposed.append(solver.h_abs)
            dense.append(solver.dense_output())
    events = ([], [], [])
    for sol in dense:
        hits = []
        for i, g in enumerate((lambda y: y[0], lambda y: y[1],
                               lambda y: (p - 1.0) * y[1] + 2.0 * y[0])):
            if g(sol(sol.t_min)) * g(sol(sol.t_max)) < 0:
                root = brentq(lambda rho: g(sol(rho)), sol.t_min, sol.t_max,
                              xtol=4 * EPS, rtol=4 * EPS)
                hits.append((root, i))
        for root, i in sorted(hits):
            events[i].append((root, *sol(root)))
            if i == 0 and len(events[0]) == 2:
                break
        if len(events[0]) == 2:
            break
    return np.array(ts), np.array(ys), np.array(proposed), dense, events


@pytest.mark.parametrize("p, N", [(2.0, 2), (2.5, 3), (8.0, 2), (50.0, 2), (400.0, 2),
                                  (760.0, 2)])
def test_stepper_matches_scipy_dop853(p, N):
    # the shooting integration against SciPy's DOP853 taking the same steps
    # from the same start: SciPy accepts each of them, and the states, the
    # dense output between the nodes and the events agree. Left free, the
    # two part where the error estimate, which cancels to ~1e-12 of its
    # stage sums, rounds differently (BLAS dot products there, scalar sums
    # here) and flips an acceptance; then they differ by the integration
    # error, up to 1e-10 in ln R2, not by the implementation
    traj = integrate_ivp(p, N)
    ts, ys, proposed, dense, events = _dop853_along(traj)
    assert np.array_equal(ts[:-1], traj.rho[:-1])
    assert ts[-1] == traj.rho[-2] + traj.h[-1]
    u_peak, w_peak = np.max(np.abs(traj.u)), np.max(np.abs(traj.w))
    assert np.max(np.abs(ys[:-1, 0] - traj.u[:-1])) <= 1e-11 * u_peak
    assert np.max(np.abs(ys[:-1, 1] - traj.w[:-1])) <= 3e-11 * w_peak
    end = np.array([traj.u[-2], traj.w[-2]]) + traj.F[0, :, -1]  # the last step's end state
    assert np.max(np.abs(ys[-1] - end)) <= 1e-11 * w_peak
    # the step control: on most steps the stepper's next width is the one
    # SciPy proposes, to the rounding of the error estimate; it is shorter
    # after a rejected attempt, and where the estimate is mostly rounding
    # the two part by up to 8%
    ratio = proposed[:-1] / np.diff(ts)[1:]
    assert np.median(np.abs(ratio - 1.0)) < 1e-5
    # the dense output inside every step, u and r u'
    frac = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    rho = traj.rho[:-1, None] + frac * np.diff(traj.rho)[:, None]
    ref = np.array([sol(rhos) for sol, rhos in zip(dense, rho)])
    u, du = traj.eval(np.exp(rho))
    assert np.max(np.abs(u - ref[:, 0])) <= 1e-11 * u_peak
    assert np.max(np.abs(np.exp(rho) * du - ref[:, 1])) <= 3e-11 * w_peak
    for table, theirs in zip((traj.zeros, traj.critical, traj.fp_critical), events):
        theirs = np.array(theirs).reshape(-1, 3)
        assert len(table) == len(theirs)
        # roots in ln r to 1e-11: the radii to 1e-11 relative
        assert np.allclose(table[:, 0], theirs[:, 0], rtol=0.0, atol=1e-11)
        assert np.allclose(table[:, 1:], theirs[:, 1:], rtol=0.0, atol=1e-11 * w_peak)


@pytest.mark.parametrize("p, N", [(400.0, 2), (2.5, 3)])
def test_ln_fp_is_the_u_row_of_the_full_reconstruction(nodal, p, N):
    # ln_fp forms u alone; bit for bit it is ln f_p of the value row of the
    # dense output with its slope, which residual_sup certifies, and of the
    # seed model below the first step node
    sol = nodal(p, N)
    traj = sol._traj
    h, F = traj.h, traj.F
    starts = traj.rho[:-1]
    r = np.geomspace(1e-3 * math.exp(traj.rho[0]) / sol.lam, 1.0, 6001)
    rho = np.log(r * sol.lam)
    seed = rho < starts[0]
    assert 0 < np.count_nonzero(seed) < len(r)
    u = np.empty_like(rho)
    u[seed] = radial._horner(traj.c, np.exp(2.0 * rho[seed]))
    j = np.clip(np.searchsorted(starts, rho[~seed], side="right") - 1, 0, len(starts) - 1)
    x = (rho[~seed] - starts[j]) / h[j]
    u[~seed] = radial._dense_eval(traj.u[j], [c[0, j] for c in F], x, slope=True)[0]
    # r = 1 is the terminal node, a point of the last step's dense output
    assert rho[-1] == traj.rho[-1]
    assert np.array_equal(sol.ln_fp(r), radial._ln_fp(p, u, rho))


# r_p, s_p, u0, u_min; the step count; the radii of the zeros of u, of u' and
# of d ln f_p / d ln r, as float.hex: any change to the operation order of a
# stage or of the step control moves some of them (recorded with Python
# 3.11, glibc libm, x86-64)
STEPPER_PINS = {
    (3.0, 2): (
        ('0x1.29d928726ddc5p-2', '0x1.2d7ab00c98b8ep-1',
         '0x1.892f753dd0d2ep+3', '-0x1.4ba12f7eddff0p+2'),
        60,
        ['0x1.c975965e42da2p+1', '0x1.892f753dd0d2ep+3'],
        ['0x1.cf093bdb87619p+2'],
        ['0x1.8dbef146775b2p+0', '0x1.fe6295e82f740p+2'],
    ),
    (400.0, 2): (
        ('0x1.6e10a7f930869p-117', '0x1.ea8fe2add426dp-48',
         '0x1.3ac8523424467p+1', '-0x1.2bee2c0a05090p+0'),
        123,
        ['0x1.6c583b6ea6c6dp+142', '0x1.fd97ff4c59647p+258'],
        ['0x1.e841ace4fa142p+211'],
        ['0x1.2186a75d48484p-3', '0x1.fb27ced7c34d0p+211'],
    ),
    (760.0, 2): (
        ('0x1.6f5b76f896237p-221', '0x1.f3df36dcd5e20p-90',
         '0x1.3a9d0e0f073fap+1', '-0x1.2c243259ecc95p+0'),
        118,
        ['0x1.dd254b8b03b61p+271', '0x1.4c8216dc75080p+492'],
        ['0x1.44a1bf91f44a4p+403'],
        ['0x1.a4291c7b0d1e6p-4', '0x1.5124b5b20d135p+403'],
    ),
    (2.5, 3): (
        ('0x1.142e1e2a70e50p-2', '0x1.0a3553d6868dep-1',
         '0x1.ae23a5c3e068ap+5', '-0x1.1a66992853da5p+3'),
        70,
        ['0x1.56bcd5476176ap+2', '0x1.3db1b79187ecap+4'],
        ['0x1.4a5cd693106bcp+3'],
        ['0x1.2a1440d6fbb36p+1', '0x1.8737b7bf1ac01p+3'],
    ),
}


@pytest.mark.parametrize("p, N", list(STEPPER_PINS))
def test_stepper_is_pinned_bit_for_bit(nodal, p, N):
    sol = nodal(p, N)
    traj = sol._traj
    scalars, steps, *radii = STEPPER_PINS[p, N]
    assert tuple(x.hex() for x in (sol.r_p, sol.s_p, sol.u0, sol.u_min)) == scalars
    assert len(traj.rho) == steps
    got = (traj.zeros[:, 0], traj.critical[:, 0], traj.fp_critical[:, 0])
    assert [[math.exp(rho).hex() for rho in rhos] for rhos in got] == radii


def extra_stages(t, h, u, w, ku, kw, rhs):
    """ku, kw (the stage derivatives 0..12 of u and w) extended by the dense
    output's stages 13..15 of the steps (t, h) from (u, w), rhs(t, u, w) =
    dw/drho, each weighted stage sum added term by term: with dense_coeffs,
    the reference of the stage-order reductions in radial._dense_output."""
    ku, kw = list(ku), list(kw)
    for s in (13, 14, 15):
        row = radial._A[s]
        v = w + sum(a * k for a, k in zip(row, kw) if a) * h
        x = u + sum(a * k for a, k in zip(row, ku) if a) * h
        ku.append(v)
        kw.append(rhs(t + radial._C[s] * h, x, v))
    return ku, kw


def dense_coeffs(h, y, y_new, k):
    """F_0..F_6 of the steps' dense output from their end states y, y_new
    and their 16 stage derivatives k, added term by term."""
    dy = y_new - y
    return [dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0])] + [
        h * sum(d * ks for d, ks in zip(row, k) if d) for row in radial._D]


def record_dense_outputs(monkeypatch):
    """Patch radial._dense_output to log each call's (t, h, K, F)."""
    calls = []
    real = radial._dense_output

    def spy(t, h, y, y_new, K, p, N):
        F = real(t, h, y, y_new, K, p, N)
        calls.append((t, h, K, F))
        return F

    monkeypatch.setattr(radial, "_dense_output", spy)
    return calls


@pytest.mark.parametrize("p, N", [*STEPPER_PINS, (1.25, 2), (1.5, 6), (4.9999, 3)])
def test_the_stage_order_sums_are_the_term_by_term_sums(monkeypatch, p, N):
    # the builder's extra stages and F_0..F_6 for all steps, bit for bit
    # the term-by-term sums over the same stage buffer: the reduction over
    # the leading stage axis adds in stage order
    runs = []
    real = radial._dop853
    monkeypatch.setattr(radial, "_dop853", lambda *args: runs.append(real(*args)) or runs[-1])
    calls = record_dense_outputs(monkeypatch)
    traj = integrate_ivp(p, N)
    ts, us, ws, flat, *_ = runs[-1]
    rho, y = np.array(ts), np.array([us, ws])
    h = np.diff(rho)
    (_, _, K, F), = [call for call in calls if np.ndim(call[0])]
    stages = np.reshape(flat, (len(h), 2, 13))
    ku, kw = extra_stages(
        rho[:-1], h, y[0, :-1], y[1, :-1], stages[:, 0].T, stages[:, 1].T,
        lambda t, x, v: -(N - 2.0) * v - radial._exp(2.0 * t) * signed_power(x, p))
    k = np.array([ku, kw]).transpose(1, 0, 2)
    assert np.array_equal(K, k)
    assert np.array_equal(F, dense_coeffs(h, y[:, :-1], y[:, 1:], k))
    assert F is traj.F


@pytest.mark.parametrize("p, N", [(1.25, 2), (1.6, 3)])
def test_the_crossing_check_certifies_the_kept_dense_output(monkeypatch, p, N):
    # for p < 2 each step across a zero of u is certified on its one-column
    # dense output, built from the trajectory's dw/drho: bit for bit the
    # coefficients the trajectory keeps for that step
    calls = record_dense_outputs(monkeypatch)
    traj = integrate_ivp(p, N)
    certified = {(t, h): F for t, h, _, F in calls if np.ndim(t) == 0}
    steps = np.searchsorted(traj.rho, traj.zeros[:, 0]) - 1
    assert len(steps) == 2 and len(certified) >= 2
    for j in steps.tolist():
        assert np.array_equal(certified[traj.rho[j], traj.h[j]][:, :, 0], traj.F[:, :, j])


@pytest.mark.parametrize("p, counts", [(3.0, (60, 14, 878)), (1.25, (78, 42, 1436))])
def test_integrator_counts_its_work(nodal, p, counts):
    # nodes, rejected attempts and evaluations of dw/drho: 2 at the start,
    # 12 per attempt (no stage overflows here) and, for p < 2, the dense
    # output's 3 extra stages on each attempt across a zero of u (none of
    # them is rejected for its defect here)
    traj = nodal(p)._traj
    assert (len(traj.rho), traj.rejected, traj.rhs_evals) == counts
    crossings = len(traj.zeros) if p < 2 else 0
    assert traj.rhs_evals == 2 + 12 * (len(traj.rho) - 1 + traj.rejected) + 3 * crossings


# (nodes, evaluations of dw/drho) of the shooting integration; the step
# cap of 0.075 in ln r that it no longer has took 745 to 5141 nodes here
LADDER_COUNTS = {
    (1.25, 2): (78, 1436), (2.0, 2): (59, 962), (3.0, 2): (60, 878),
    (8.0, 2): (92, 1334), (14.0, 2): (105, 1478), (39.0, 2): (119, 1706),
    (100.0, 2): (128, 1886), (250.0, 2): (125, 1778),
    (400.0, 2): (123, 1754), (760.0, 2): (118, 1718),
    (1.5, 3): (73, 1256), (2.5, 3): (70, 1082), (4.9, 3): (101, 1358),
    (1.5, 4): (77, 1316), (2.9, 4): (85, 1130),
    (2.0, 5): (78, 1118), (1.5, 6): (89, 1436), (1.5, 7): (95, 1484), (1.3, 8): (94, 1544),
}


@pytest.mark.parametrize("p, N", list(LADDER_COUNTS))
def test_shooting_ladder_meets_the_contract(nodal, p, N):
    sol = nodal(p, N)
    traj = sol._traj
    assert sol.residual_sup < 1e-7
    nodes, rhs_evals = LADDER_COUNTS[p, N]
    assert len(traj.rho) <= nodes and traj.rhs_evals <= rhs_evals
    assert len(traj.rho) <= 150


# left to the error control alone, the step across a zero of u leaves a
# defect of 1.2e-7 to 3.0e-7 at the first four (5.3e-8 at p = 1.5)
@pytest.mark.parametrize("p, N", [(1.275, 2), (1.375, 2), (1.325, 3), (1.425, 3), (1.5, 2)])
def test_a_step_across_a_zero_of_u_keeps_its_defect(monkeypatch, p, N):
    # |u|^(p-1) u is only C^(1, p-1) at a zero of u, so for p < 2 the dense
    # output's defect on a step across it falls only like h^p; the loop
    # shrinks such a step until its defect is under _CROSSING_DEFECT
    traj = integrate_ivp(p, N)
    defects = radial._defects(p, N, traj.rho[:-1], traj.h, np.diff(traj.rho),
                              np.array([traj.u[:-1], traj.w[:-1]]), traj.F)
    for rho_z in traj.zeros[:, 0]:
        j = min(np.searchsorted(traj.rho, rho_z) - 1, len(traj.h) - 1)
        assert np.max(defects[:, j]) < radial._CROSSING_DEFECT
    assert traj.residual_sup() < 0.1 * radial._RESIDUAL_BOUND
    monkeypatch.setattr(radial, "_CROSSING_DEFECT", math.inf)
    assert integrate_ivp(p, N).residual_sup() > 5e-8


@pytest.mark.parametrize("p", [1.25, 1.5, 1.8])
def test_the_residual_samples_every_step(nodal, p):
    # the steps near each zero of u shrink to 1e-5 to 1e-4 in ln r at
    # p < 2: a defect planted in the dense output of the shortest step
    # before the terminal one shows in residual_sup
    traj = nodal(p)._traj
    assert traj.residual_sup() < 1e-7
    width = np.diff(traj.rho)[:-1]
    j = int(np.argmin(width))
    assert width[j] < 1e-3
    F = traj.F.copy()
    # what an error of 1e-3 in stage 5 of w does to F_3..F_6 of w
    F[3:, 1, j] += traj.h[j] * 1e-3 * np.array(radial._D)[:, 5]
    assert dataclasses.replace(traj, F=F).residual_sup() > 1e-5


def test_solve_rejects_a_residual_past_the_contract(monkeypatch):
    # an integrator tolerance of 1e-7 in place of 1e-12 leaves a dense
    # output residual of 2.9e-7 at N = 6 (9.1e-8 at 1e-8)
    monkeypatch.setattr(radial, "_SHOOT_RTOL", 1e-7)
    with pytest.raises(SolverError, match=r"residual 2\.92\d+e-07 exceeds the bound 1e-07"):
        solve_nodal(1.5, N=6)


def test_solve_computes_the_residual_once(monkeypatch):
    calls = []
    real = Trajectory.residual_sup
    monkeypatch.setattr(Trajectory, "residual_sup",
                        lambda traj: calls.append(traj) or real(traj))
    sol = solve_nodal(3.0)
    assert sol.residual_sup < 1e-7
    assert calls == [sol._traj]


def test_a_nan_residual_fails_the_contract(nodal, monkeypatch):
    # an overflowing step sample makes its defect nan: the sup keeps it
    # (max(worst, nan) would drop it), and the shooting check rejects it
    traj = nodal(3.0)._traj
    u = traj.u.copy()
    u[len(u) // 2] = math.inf
    with np.errstate(invalid="ignore"):
        assert math.isnan(dataclasses.replace(traj, u=u).residual_sup())
    monkeypatch.setattr(Trajectory, "residual_sup", lambda traj: math.nan)
    with pytest.raises(SolverError, match=r"residual nan exceeds the bound 1e-07"):
        solve_nodal(3.0)


@pytest.mark.parametrize("N", [2, 3])
def test_the_u1_contract_is_scale_free(N):
    # |u(1)| / u(0) is |u| at the unscaled terminal node, so the rescale by
    # u(0) = R2^(2/(p-1)) amplifies no rounding of ln R2: p = 1.2 solves,
    # and closer to 1 u(0) leaves the float64 range first
    sol = solve_nodal(1.2, N)
    assert abs(sol.eval(1.0)[0]) / sol.u0 < 1e-9 and sol.residual_sup < 1e-7
    with pytest.raises(ConfigError, match=r"p=1\.001 is too close to 1: u\(0\) = .* overflows"):
        solve_nodal(1.001, N)


@pytest.mark.parametrize("p, N", [(1.25, 2), (1.3, 3)])
def test_the_lowest_exponents_still_solve(nodal, p, N):
    assert abs(nodal(p, N).eval(1.0)[0]) < 1e-9


def test_no_second_zero_before_the_last_horizon_is_a_horizon_error():
    with pytest.raises(HorizonError, match=r"second zero not found before r=exp\(345\)"):
        solve_nodal(800.0)


def test_solve_integrates_once_to_the_float_horizon(monkeypatch):
    # one integration to e^345 for every exponent; it stops at the second
    # zero, at ln R2 = 34.45 for p = 4.9999, N = 3
    horizons = []
    real = radial._integrate

    def spy(p, N, c, d, r0, r_max):
        horizons.append(r_max)
        return real(p, N, c, d, r0, r_max)

    monkeypatch.setattr(radial, "_integrate", spy)
    sol = solve_nodal(4.9999, N=3)
    assert math.log(sol.lam) == pytest.approx(34.45, abs=5e-3)
    assert horizons == [math.exp(345.0)]


@pytest.mark.parametrize("p", [1e19, 3e19, 1e20])
def test_an_overflowing_extra_stage_is_no_warning(p):
    # at N = 2 an extra dense-output stage whose w overflowed to inf once
    # made -(N - 2) w a 0 * inf, a raw RuntimeWarning before the HorizonError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HorizonError, match=r"second zero not found before r=exp\(345\)"):
            solve_nodal(p)


@pytest.mark.parametrize("p", [4.99999, 4.999999])
def test_a_simple_zero_on_a_small_lobe_is_not_degenerate(p):
    # next to the N = 3 critical exponent the negative lobe's largest |r u'|
    # is about 1e-6, and at the second zero |r u'| falls below the absolute
    # 1e3 _ABS_TOL; the tangential-zero test is relative to the lobe
    # (7.3e-7 and 7.0e-8 here, against 1.9e-12 and 2.0e-14 at the zero)
    traj = integrate_ivp(p, 3)
    lobe = np.abs(traj.w[traj.rho > traj.zeros[0][0]])
    assert abs(traj.zeros[-1][2]) < 1e3 * _ABS_TOL and np.max(lobe) < 1e-6
    assert solve_nodal(p, N=3).residual_sup < 1e-7


def test_overflow_inside_a_step_is_a_stiffness_error():
    # past ln r = 354.9 the factor e^(2 ln r) leaves the float range: each
    # stage that gets there overflows, so its step is rejected, until the
    # step falls below 10 ulp of ln r
    r0 = math.exp(354.0)
    with pytest.raises(StiffnessError, match=r"integration failed at r=1\.3\d+e\+154"):
        _shoot(3.0, 2, 1e-160, r0, math.exp(356.0))


def two_pass_fp_cells(sol):
    """`RadialSolution.fp_cells` as it was with one evaluation of the dense
    output per cell set: the reference of the one-pass version."""
    nodes = sol._traj.rho
    first = nodes[0]
    lo = 0.5 * math.log(EPS / sol.p)
    dr = math.sqrt(radial._CELL_DEFECT / sol.p)
    mid = min(math.log(dr / radial._SERIES_CELL), first)
    wide = np.linspace(lo, mid, math.ceil((mid - lo) / radial._SERIES_CELL) + 1)
    r_mid, r_first = math.exp(mid), math.exp(first)
    narrow = np.log(np.linspace(r_mid, r_first, math.ceil((r_first - r_mid) / dr) + 1))
    frac = np.arange(radial._CELLS_PER_STEP) / radial._CELLS_PER_STEP
    cut = (nodes[:-1, None] + frac * np.diff(nodes)[:, None]).ravel()
    rho = np.concatenate((wide[:-1], narrow[:-1], cut, nodes[-1:]))
    widths = np.diff(rho)
    cells = []
    for split in (1, 2):
        j = np.repeat(np.arange(len(widths)), split)
        mid = rho[j] + np.tile((np.arange(split) + 0.5) / split, len(widths)) * widths[j]
        u, = sol._traj._state(mid, rows=1)
        cells.append((widths[j] / split, radial._exp(radial._ln_fp(sol.p, u, mid))))
    return tuple(cells)


@pytest.mark.parametrize("p, N", [(1.25, 2), (8.0, 2), (400.0, 2), (760.0, 2),
                                  (2.5, 3), (4.9999, 3), (1.5, 6)])
def test_the_cells_of_both_sets_are_sampled_at_once(nodal, p, N):
    # one evaluation over the midpoints of both cell sets gives the cells of
    # one evaluation per set, bit for bit
    got, want = nodal(p, N).fp_cells(), two_pass_fp_cells(nodal(p, N))
    assert len(got) == len(want) == 2
    for (h, f), (h_ref, f_ref) in zip(got, want):
        assert np.array_equal(h, h_ref) and np.array_equal(f, f_ref)
