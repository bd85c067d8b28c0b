import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lanemorse import (
    ConfigError, HorizonError, SolverError, StiffnessError, Trajectory,
    integrate_ivp, radial, solve_nodal,
)
from lanemorse.radial import _ABS_TOL, _MAX_LOG_STEP, signed_power


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
    traj = integrate_ivp(1.0, 2, 10.0)
    oracle = bessel_j0_first_zero()
    assert abs(math.exp(traj.zeros[0][0]) - oracle) < 1e-8


def test_trajectory_eval_at_the_origin_is_the_start_value():
    # r = 0 is the origin series' (1, 0), with no log(0) on the way
    traj = integrate_ivp(3.0, 2, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, du = traj.eval(0.0)
        u_v, du_v = traj.eval(np.array([0.0, 0.5]))
    assert (u, du) == (1.0, 0.0)
    assert (u_v[0], du_v[0]) == (1.0, 0.0) and 0.0 < u_v[1] < 1.0


def test_trajectory_follows_the_seed_model_below_the_first_node():
    # p = 1 (Bessel J0): below the first node the origin series, which is
    # J0 and J0' to rounding there, and it joins the first node continuously
    traj = integrate_ivp(1.0, 2, 10.0)
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
    traj = integrate_ivp(3.0, 2, 30.0)
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
    "kw",
    [
        dict(p=0.0, N=2, r_max=100.0),
        dict(p=float("nan"), N=2, r_max=100.0),
        dict(p=float("inf"), N=2, r_max=100.0),
        dict(p=3.0, N=float("nan"), r_max=100.0),
        dict(p=3.0, N=2, r_max=float("nan")),
        dict(p=3.0, N=2, r_max=float("inf")),
        dict(p=3.0, N=2.5, r_max=100.0),
        dict(p=3.0, N=1, r_max=100.0),
        dict(p=3.0, N=2, r_max=1e-7),
        dict(p=float("nan"), N=2),
        dict(p=float("inf"), N=2),
        dict(p=2.0, N=float("nan")),
    ],
)
def test_config_validation(kw):
    # integrate_ivp(p, N, r_max), and solve_nodal(p, N) where r_max is not
    # given: p and N are checked before the origin series is formed, so the
    # error names the input, not the series
    shoot = integrate_ivp if "r_max" in kw else solve_nodal
    with pytest.raises(ConfigError, match=r"^(exponent p|dimension N|r_max=)"):
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


def _shoot(p, N, r0, r_max, u0, w0):
    """The shooting stepper from the state (u0, w0) at r0, as a Trajectory."""
    rho0 = math.log(r0)
    ts, us, ws, tables, rejected, rhs_evals = radial._dormand_prince(
        p, N, rho0, math.log(r_max), u0, w0, radial._accel(rho0, u0, w0, p, N))
    return Trajectory(p, N, np.array(ts), np.array(us), np.array(ws),
                      *(np.array(rows, dtype=float).reshape(-1, 3) for rows in tables),
                      rejected=rejected, rhs_evals=rhs_evals)


def _scaled_seed(p, N, a, r):
    """(u, r u') at r of the solution with u(0) = a: a (U(x), x U'(x)) of the
    origin series at x = |a|^((p-1)/2) r, by the scaling u(r) = a U(x)."""
    c, d, _ = radial._origin_series(p, N)
    y = abs(a) ** (p - 1.0) * r**2
    return a * radial._horner(c, y), a * radial._horner(d, y)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scaling_identity(lam):
    # u_lam(r) = lam^(2/(p-1)) u(lam r) solves the same equation: the
    # invariance solve_nodal rescales by, through the stepper from u(0) = k
    p = 3.0
    base = _shoot(p, 2, 1e-6, 8.0, *_scaled_seed(p, 2, 1.0, 1e-6))
    k = lam ** (2.0 / (p - 1.0))
    scaled = _shoot(p, 2, 1e-6 / lam, 8.0 / lam, *_scaled_seed(p, 2, k, 1e-6 / lam))
    r = np.linspace(0.05, 7.0 / lam, 200)
    u_s, _ = scaled.eval(r)
    u_b, _ = base.eval(lam * r)
    assert np.max(np.abs(u_s - k * u_b)) < 1e-9


def test_zeros_ordered_and_simple():
    # the second zero ends the integration, far short of r_max
    traj = integrate_ivp(3.0, 2, 1e4)
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
    x_s = radial._origin_series(5.0, 2)[2]
    assert radial._seed(5.0, 2, x_s**2) == (traj.u[0], traj.w[0])
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
    x_s = radial._origin_series(p, N)[2]
    u, w = radial._seed(p, N, x_s * x_s)
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
def test_the_terminal_zero_is_the_nearest_float(nodal, p, N):
    # the rescale multiplies u(R2) by R2^(2/(p-1)): the last root is the
    # float nearest the interpolant's zero, so |u| <= |w| ulp(ln R2) / 2
    traj = nodal(p, N)._traj
    for rho_z, u_z, w_z in traj.zeros:
        assert abs(u_z) <= 0.6 * abs(w_z) * math.ulp(rho_z)


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
    # the Hermite reconstruction against an independent DOP853 solution of
    # the same log-form IVP from the first node, at random points, at every
    # step node and at both ends; at the nodes it returns the node states
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
                        atol=1e-16, max_step=_MAX_LOG_STEP, t_eval=rho)
    assert ref.success
    r = np.exp(rho)
    u, du = traj.eval(r)
    assert np.max(np.abs(u - ref.y[0])) <= 1e-11
    assert np.max(np.abs(r * du - ref.y[1])) <= 2e-11
    u_n, w_n = traj._state(ts)
    assert np.array_equal(u_n, traj.u) and np.array_equal(w_n, traj.w)


@pytest.mark.parametrize("p, N", [(400.0, 2), (4.9999, 3)])
def test_the_trajectory_keeps_the_integrators_variables(monkeypatch, p, N):
    # the steps (rho, w) and the (root, u, w) event rows are stored as
    # _dormand_prince returned them, and the Hermite data reads the stored
    # arrays
    runs = []
    real = radial._dormand_prince
    monkeypatch.setattr(radial, "_dormand_prince",
                        lambda *args, **kwargs: runs.append(real(*args, **kwargs)) or runs[-1])
    traj = solve_nodal(p, N)._traj
    ts, _, ws, tables, *_ = runs[-1]
    assert np.array_equal(traj.rho, ts) and np.array_equal(traj.w, ws)
    for table, rows in zip((traj.zeros, traj.critical, traj.fp_critical), tables):
        assert rows and all(len(row) == 3 for row in rows)
        assert [tuple(row) for row in table.tolist()] == rows
    data = traj._hermite_data
    assert data[0] is traj.rho and data[2] is traj.w


def _rk45_reference(p, N, r0, r_max, y0):
    """The same log-form IVP from the state y0 at r0, with the same
    tolerances, step cap and events (the second zero of u terminal), through
    SciPy's RK45 (solve_ivp)."""

    def rhs(rho, y):
        u = float(y[0])
        power = math.copysign(math.exp(p * math.log(abs(u))), u) if u else 0.0
        return (y[1], -(N - 2.0) * y[1] - math.exp(2.0 * rho) * power)

    def zero_ev(rho, y):
        return y[0]

    zero_ev.terminal = 2

    def crit_ev(rho, y):
        return y[1]

    def fp_crit_ev(rho, y):
        return (p - 1.0) * y[1] + 2.0 * y[0]

    with np.errstate(over="ignore"):  # the initial-step probe at large p
        return solve_ivp(rhs, (math.log(r0), math.log(r_max)), y0,
                         rtol=radial._SHOOT_RTOL, atol=_ABS_TOL, max_step=_MAX_LOG_STEP,
                         events=(zero_ev, crit_ev, fp_crit_ev))


@pytest.mark.parametrize("p, N", [(400.0, 2), (2.5, 3)])
def test_ln_fp_is_the_u_row_of_the_full_reconstruction(nodal, p, N):
    # ln_fp forms u alone; bit for bit it is ln f_p of the u row of the
    # three-row reconstruction that residual_sup certifies, and of the seed
    # model below the first step node
    sol = nodal(p, N)
    traj = sol._traj
    data = traj._hermite_data
    r = np.geomspace(1e-3 * math.exp(traj.rho[0]) / sol.lam, 1.0, 6001)
    rho = np.log(r * sol.lam)
    seed = rho < data[0][0]
    assert 0 < np.count_nonzero(seed) < len(r)
    u = np.empty_like(rho)
    u[seed] = radial._seed(p, N, np.exp(2.0 * rho[seed]))[0]
    j = np.clip(np.searchsorted(data[0], rho[~seed]) - 1, 0, len(data[0]) - 2)
    th = (rho[~seed] - data[0][j]) / (data[0][j + 1] - data[0][j])
    u[~seed] = radial._hermite(data, j, th, rows=3)[0]
    assert np.array_equal(sol.ln_fp(r), radial._ln_fp(p, u, rho))


# the nonlinear term stays above the rounding of the state all the way, so
# the step cap binds throughout and the stepper takes SciPy's steps
CAPPED_THROUGHOUT = [(2.0, 2), (2.5, 3)]


@pytest.mark.parametrize("p, N", CAPPED_THROUGHOUT + [(8.0, 2), (50.0, 2), (400.0, 2),
                                                      (760.0, 2)])
def test_stepper_matches_scipy_rk45(p, N):
    # the shooting stepper (to the horizon e^(0.5 p + 30)) against
    # SciPy's RK45 with the same controller and the step cap everywhere: the
    # same events and the same trajectory. At larger p the stepper lifts the
    # cap where u is harmonic to working precision, so it takes fewer steps.
    # Both start at r = 1e-6 from the two-term Taylor state this comparison
    # was recorded from: where the steps differ (p >= 400) the two event
    # roots agree to 1e-11 only for some start states: a few ulp of the
    # start u move the gap between the two ln R2 by up to 1.5e-10, and from
    # the origin series' state at 1e-6 it is 3.1e-11 at p = 400
    r0, r_max = 1e-6, math.exp(min(0.5 * p + 30.0, 345.0))
    c = 1.0 / (2.0 * N)  # u = 1 - r^2/(2N) + O(r^4)
    y0 = (1.0 - c * r0**2, -2.0 * c * r0**2)
    traj = _shoot(p, N, r0, r_max, *y0)
    ref = _rk45_reference(p, N, r0, r_max, y0)
    assert ref.status == 1
    rho = traj.rho
    if (p, N) in CAPPED_THROUGHOUT:
        assert len(rho) == len(ref.t)
        # the error estimate cancels to ~1e-12 of the stage sums, so rounding
        # (fused multiply-adds in SciPy's BLAS dot, scalar sums here) moves
        # each step size by ~1e-5 relative: the step ends drift while the
        # solution through them agrees to the tolerances below
        assert np.max(np.abs(rho - ref.t)) < 1e-4
    else:
        assert len(rho) <= len(ref.t)
    assert rho[-1] == pytest.approx(ref.t[-1], rel=1e-11)
    u, du = traj.eval(np.exp(ref.t))
    assert np.max(np.abs(u - ref.y[0])) <= 1e-11 * np.max(np.abs(ref.y[0]))
    # r u' at p = 760 differs by 1.9e-11 of its peak, after the first zero
    w_ref = ref.y[1]
    assert np.max(np.abs(np.exp(ref.t) * du - w_ref)) <= 3e-11 * np.max(np.abs(w_ref))
    events = (traj.zeros, traj.critical, traj.fp_critical)
    for table, theirs, ref_states in zip(events, ref.t_events, ref.y_events):
        assert len(table) == len(theirs)
        # roots in ln r to 1e-11: the radii to 1e-11 relative
        assert np.allclose(table[:, 0], theirs, rtol=0.0, atol=1e-11)
        if len(table):
            assert np.allclose(table[:, 1:], ref_states, rtol=0.0,
                               atol=1e-11 * np.max(np.abs(w_ref)))


# r_p, s_p, u0, u_min; the step count; the radii of the zeros of u, of u' and
# of d ln f_p / d ln r, as float.hex: any change to the operation order of a
# stage or of the step control moves some of them (recorded with Python
# 3.11, glibc libm, x86-64)
STEPPER_PINS = {
    (3.0, 2): (
        ('0x1.29d928726de7fp-2', '0x1.2d7ab00c98b79p-1',
         '0x1.892f753dd0cadp+3', '-0x1.4ba12f7eddf46p+2'),
        507,
        ['0x1.c975965e42e2ap+1', '0x1.892f753dd0cadp+3'],
        ['0x1.cf093bdb87561p+2'],
        ['0x1.8dbef1467692bp+0', '0x1.fe6295e82f609p+2'],
    ),
    (400.0, 2): (
        ('0x1.6e10a7fa691fep-117', '0x1.ea8fe2af4fc03p-48',
         '0x1.3ac85234224eap+1', '-0x1.2bee2c0a03e51p+0'),
        715,
        ['0x1.6c583b6e17743p+142', '0x1.fd97ff49ddc4cp+258'],
        ['0x1.e841ace412e25p+211'],
        ['0x1.2186a75d463d0p-3', '0x1.fb27ced6d2a97p+211'],
    ),
    (760.0, 2): (
        ('0x1.6f5b76fb1f1ccp-221', '0x1.f3df36e026c95p-90',
         '0x1.3a9d0e0f057cep+1', '-0x1.2c243259eb758p+0'),
        688,
        ['0x1.dd254b8a592b4p+271', '0x1.4c8216d9b2c6bp+492'],
        ['0x1.44a1bf916a116p+403'],
        ['0x1.a4291c7b0faefp-4', '0x1.5124b5b17cde1p+403'],
    ),
    (2.5, 3): (
        ('0x1.142e1e2a72175p-2', '0x1.0a3553d687168p-1',
         '0x1.ae23a5c3dfcffp+5', '-0x1.1a66992854ccbp+3'),
        512,
        ['0x1.56bcd54762979p+2', '0x1.3db1b79187981p+4'],
        ['0x1.4a5cd69310bd6p+3'],
        ['0x1.2a1440d6fc2dep+1', '0x1.8737b7bf1a9c8p+3'],
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


@pytest.mark.parametrize("p, counts", [(3.0, (507, 0, 3038)), (1.25, (409, 23, 2588))])
def test_integrator_counts_its_work(nodal, p, counts):
    # nodes, rejected attempts and evaluations of dw/drho: 2 at the start and
    # 6 per attempt (no stage overflows here), as with the cap on every step
    traj = nodal(p)._traj
    assert (len(traj.rho), traj.rejected, traj.rhs_evals) == counts
    assert traj.rhs_evals == 2 + 6 * (len(traj.rho) - 1 + traj.rejected)


# (nodes, evaluations of dw/drho) with the 0.075 cap on every step
CAPPED_COUNTS = {
    (1.25, 2): (745, 4592), (2.0, 2): (764, 4622), (3.0, 2): (806, 4832),
    (8.0, 2): (866, 5234), (14.0, 2): (886, 5354), (39.0, 2): (998, 6014),
    (100.0, 2): (1320, 7952), (250.0, 2): (2163, 13016),
    (400.0, 2): (3029, 18212), (760.0, 2): (5141, 30884),
    (1.5, 3): (896, 5474), (2.5, 3): (915, 5510), (4.9, 3): (1185, 7112),
    (1.5, 4): (1032, 6284), (2.9, 4): (1232, 7388),
}
# from N = 5 on the cap shrinks like 1 / (N-2), so these take more steps
HIGH_DIMENSION = [(2.0, 5), (1.5, 6), (1.5, 7), (1.3, 8)]


@pytest.mark.parametrize("p, N", list(CAPPED_COUNTS) + HIGH_DIMENSION)
def test_shooting_ladder_meets_the_contract(nodal, p, N):
    sol = nodal(p, N)
    traj = sol._traj
    assert sol.residual_sup < 1e-7
    if (p, N) in CAPPED_COUNTS:
        nodes, rhs_evals = CAPPED_COUNTS[p, N]
        assert len(traj.rho) <= nodes and traj.rhs_evals <= rhs_evals
    if p >= 100:
        # u is harmonic between the two bubbles, which no cap slices up
        assert len(traj.rho) <= 1000


def test_solve_rejects_a_residual_past_the_contract(monkeypatch):
    # an integrator tolerance of 1e-8 in place of 1e-12 leaves an
    # interpolated residual of 3.9e-7 at N = 6
    monkeypatch.setattr(radial, "_SHOOT_RTOL", 1e-8)
    with pytest.raises(SolverError, match=r"residual 3\.87\d+e-07 exceeds the bound 1e-07"):
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
    data = list(nodal(3.0)._traj._hermite_data)
    data[1] = data[1].copy()
    data[1][len(data[1]) // 2] = math.inf
    with np.errstate(invalid="ignore"):
        assert math.isnan(radial._residual_sup_log(tuple(data), 3.0, 2))
    monkeypatch.setattr(Trajectory, "residual_sup", lambda traj: math.nan)
    with pytest.raises(SolverError, match=r"residual nan exceeds the bound 1e-07"):
        solve_nodal(3.0)


@pytest.mark.parametrize("p, N, u1", [(1.2, 3, "1.132e-08"), (1.2, 2, "1.676e-09")])
def test_the_float_floor_of_u1_is_named(p, N, u1):
    # the terminal zero is the float ln R2 nearest the root, whose half ulp
    # allows |u(1)| up to a floor above 1e-9 here, and |u(1)| lands above
    # 1e-9, so p is too close to 1 for the contract
    message = rf"\|u\(1\)\|={u1} exceeds .* at p={p}, N={N} .* float floor .* is [0-9.]+e-08"
    with pytest.raises(ConfigError, match=message):
        solve_nodal(p, N)


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
    real = radial.integrate_ivp
    monkeypatch.setattr(radial, "integrate_ivp",
                        lambda p, N, r_max: horizons.append(r_max) or real(p, N, r_max))
    sol = solve_nodal(4.9999, N=3)
    assert math.log(sol.lam) == pytest.approx(34.45, abs=5e-3)
    assert horizons == [math.exp(345.0)]


def test_overflow_inside_a_step_is_a_stiffness_error():
    # past ln r = 354.9 the factor e^(2 ln r) leaves the float range: each
    # stage that gets there overflows, so its step is rejected, until the
    # step falls below 10 ulp of ln r
    r0 = math.exp(354.0)
    with pytest.raises(StiffnessError, match=r"integration failed at r=1\.3\d+e\+154"):
        _shoot(3.0, 2, r0, math.exp(356.0), *_scaled_seed(3.0, 2, 1e-160, r0))
