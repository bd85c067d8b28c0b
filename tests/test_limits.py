import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lanemorse import (
    ConfigError,
    limit_constants,
    limit_residual,
    liouville_mass,
    liouville_profile,
    rayleigh_eta1,
    singular_mass,
    singular_profile,
    sphere_spectrum,
    verification_battery,
)
from lanemorse import limits
from lanemorse.limits import (
    LIMIT_DELTA,
    MAX_LIMIT_N,
    REFERENCE_ELL,
    _count_below,
    eta1,
    eta1_d1,
    limit_potential,
    power_tail_integral,
)


# ---------------------------------------------------------------------------
# constants and algebraic identities


def test_constants_from_reference_ell():
    k = limit_constants()
    # direct evaluation of the defining formulas, independently of the module
    assert k.gamma == pytest.approx(math.sqrt(2 * 7.1979**2 + 4) - 2, abs=1e-12)
    assert abs(k.gamma - 8.3740) < 5e-4
    assert abs(k.delta - 7.474) < 5e-3
    assert k.morse_Z == 11


def test_H_quadrature_matches_closed_form():
    k = limit_constants()
    g, d, ell = k.gamma, k.delta, k.ell
    # the partial mass integral has an elementary antiderivative
    closed = -2.0 * (g + 2.0) * ell ** (g + 2.0) / (d ** (g + 2.0) + ell ** (g + 2.0))
    assert k.H == pytest.approx(closed, rel=1e-10)
    # and the closed form collapses algebraically to -gamma
    assert k.H == pytest.approx(-g, rel=1e-10)


def test_algebraic_identities():
    k = limit_constants()
    g, d, ell = k.gamma, k.delta, k.ell
    assert abs(g * (g + 4.0) - 2.0 * ell * ell) < 1e-10
    assert abs((g + 2.0) ** 2 - (2.0 * ell * ell + 4.0)) < 1e-10
    z_at_ell = singular_profile(ell, k)
    assert abs(z_at_ell) < 1e-10
    h_at_delta = np.exp(singular_profile(d, k)) * d * d
    assert abs(h_at_delta - (ell * ell + 2.0)) < 1e-10


def test_planar_peak_identity():
    g_at = limit_potential(math.sqrt(8.0), 2) * 8.0
    assert abs(g_at - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# profiles


def test_profile_values():
    assert liouville_profile(0.0, 2) == 0.0
    assert liouville_profile(0.0, 3) == 1.0
    assert limit_potential(0.0, 2) == 1.0
    with pytest.raises(ConfigError):
        singular_profile(0.0, limit_constants())


def test_eta1_peak():
    # single-variable calculus: maximum sqrt(2) at |x| = sqrt(8) in the plane
    r8 = math.sqrt(8.0)
    assert float(eta1(r8, 2)) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert float(eta1_d1(r8, 2)) == pytest.approx(0.0, abs=1e-15)
    r = np.linspace(0.1, 50, 2000)
    assert np.max(eta1(r, 2)) <= math.sqrt(2.0) + 1e-12


def test_eta1_decay():
    for N in (2, 3, 4, 5):
        assert float(eta1(1e-6, N)) * (1e-6) ** (N - 1) < 1e-5
        assert float(eta1(1e6, N)) / 1e6 < 1e-5


def test_profiles_positive():
    r = np.logspace(-3, 3, 50)
    k = limit_constants()
    assert np.all(eta1(r, 2) > 0)
    assert np.all(limit_potential(r, 3) > 0)
    assert np.all(np.exp(singular_profile(r, k)) > 0)


# ---------------------------------------------------------------------------
# quadrature: masses and tails


def test_liouville_mass_8pi():
    assert liouville_mass() == pytest.approx(8.0 * math.pi, rel=1e-6)


def test_singular_profile_mass_finite():
    k = limit_constants()
    mass = singular_mass(k)
    assert math.isfinite(mass)
    # elementary antiderivative gives 4 pi (gamma + 2)
    assert mass == pytest.approx(4.0 * math.pi * (k.gamma + 2.0), rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=0.1, max_value=30.0),
)
def test_power_tail_integral_against_quad(m, extra, c, lo):
    q = (m + 1) / 2.0 + extra * 0.75
    exact = power_tail_integral(m, q, c, lo)
    num, _ = quad(lambda r: r**m * (1.0 + r * r / c) ** -q, lo, np.inf,
                  epsabs=1e-13, epsrel=1e-12, limit=300)
    assert exact == pytest.approx(num, rel=1e-8, abs=1e-12)
    full = power_tail_integral(m, q, c, 0.0)
    assert full >= exact >= 0.0


# ---------------------------------------------------------------------------
# the limit eigenvalue


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_rayleigh_eta1(N):
    assert rayleigh_eta1(N) == pytest.approx(-(N - 1.0), rel=1e-6)


@pytest.mark.parametrize("N,lam", [(2, -1.0), (3, -2.0), (4, -3.0), (5, -4.0)])
def test_limit_residual_at_eigenvalue(N, lam):
    assert limit_residual(N, lam) < 1e-10


def test_limit_residual_wrong_eigenvalue():
    assert limit_residual(2, 0.0) > 1e-2


# ---------------------------------------------------------------------------
# the counts that make it the first


def _limit_problem(N):
    """(f, t_peak, alpha, lambda) of the limit problem in dimension N, built
    here from V = kappa / (1 + r^2/c)^2: f = V r^2 peaks at r^2 = c."""
    c = 8.0 if N == 2 else N * (N - 2.0)
    return (lambda t: limit_potential(np.exp(t), N) * np.exp(2.0 * t),
            0.5 * math.log(c), 0.5 * (N - 2.0), -(N - 1.0))


def _singular_problem():
    k = limit_constants()
    return (lambda t: np.exp(singular_profile(np.exp(t), k)) * np.exp(2.0 * t),
            math.log(k.delta), 0.0, -(k.ell**2 + 2.0) / 2.0)


@pytest.mark.parametrize("problem", [
    pytest.param(lambda: _limit_problem(2), id="eta1-2"),
    pytest.param(lambda: _limit_problem(5), id="eta1-5"),
    pytest.param(lambda: _limit_problem(MAX_LIMIT_N), id="eta1-139"),
    pytest.param(_singular_problem, id="singular"),
])
def test_a_count_bisects_to_the_first_limit_eigenvalue(problem):
    # the walk's lowest eigenvalue, bisected between the two counts of the
    # battery, lies within LIMIT_DELTA / 10 of the exact first eigenvalue;
    # the midpoint cells place it above (8.9e-6 |lambda| at N = 2)
    f, t_peak, alpha, lam = problem()
    lo, hi = lam * (1.0 + LIMIT_DELTA), lam * (1.0 - LIMIT_DELTA)
    assert [_count_below(f, t_peak, alpha, E) for E in (lo, hi)] == [0, 1]
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _count_below(f, t_peak, alpha, mid) == 0 else (lo, mid)
    assert lam <= lo and abs(hi - lam) < 0.1 * LIMIT_DELTA * abs(lam)


@pytest.mark.parametrize("N", [2, 5, MAX_LIMIT_N])
def test_no_limit_count_moves_with_halved_cells_or_a_doubled_span(N, monkeypatch):
    # doubling LIMIT_SPAN doubles the part of the walk beyond the peak of f
    counts = lambda: [(c.name, c.value) for c in verification_battery(N) if "count" in c.name]
    base = counts()
    assert [v for _, v in base] == [0, 1] * (2 if N == 2 else 1)
    monkeypatch.setattr(limits, "LIMIT_CELL", 0.5 * limits.LIMIT_CELL)
    assert counts() == base
    monkeypatch.undo()
    monkeypatch.setattr(limits, "LIMIT_SPAN", 2.0 * limits.LIMIT_SPAN)
    assert counts() == base


# ---------------------------------------------------------------------------
# the full battery used by the CLI


def test_verification_battery_passes():
    for N in (2, 3):
        checks = verification_battery(N=N)
        failed = [c.name for c in checks if not c.passed]
        assert failed == []


BATTERY_NAMES = [
    "z_ell_root", "h_at_delta", "g_at_sqrt8", "H_quadrature", "liouville_mass",
    "singular_mass_finite", "rayleigh_eta1", "limit_residual",
    "residual_wrong_eigenvalue", "eta1_decay_origin", "eta1_decay_infinity",
    "eta1_count_below", "eta1_count_above",
]
PLANAR_NAMES = ["singular_count_below", "singular_count_above"]


@pytest.mark.parametrize("N, names", [
    (2, BATTERY_NAMES + PLANAR_NAMES),
    (3, BATTERY_NAMES),
    (MAX_LIMIT_N, BATTERY_NAMES),
])
def test_battery_check_names(N, names):
    # no check restates a definition: the gamma and morse_Z formulas are
    # guarded by test_algebraic_identities and test_constants_from_reference_ell
    checks = verification_battery(N=N)
    assert [c.name for c in checks] == names
    # the lambda = 0 residual is (N-1) eta_1/r^2 at r = 1e-3, about (N-1) 1e3,
    # and its record obeys the same |value - expected| < tol rule as the rest
    wrong = checks[names.index("residual_wrong_eigenvalue")]
    assert wrong.passed
    assert abs(wrong.value - wrong.expected) < wrong.tol * abs(wrong.expected)
    assert wrong.expected == pytest.approx((N - 1) * 1e3, rel=1e-5)
    # each count is an integer against 0 or 1, its anchor naming its E
    lam = {"eta1": -(N - 1.0), "singular": -(REFERENCE_ELL**2 + 2.0) / 2.0}
    for c in checks:
        if "_count_" in c.name:
            prefix, side = c.name.split("_count_")
            E = lam[prefix] * (1.0 + (LIMIT_DELTA if side == "below" else -LIMIT_DELTA))
            n = 1.0 if side == "above" else 0.0
            assert (c.value, c.expected, c.tol, c.passed) == (n, n, 0.5, True)
            assert c.anchor.endswith(f" = {E:.10g}")


@pytest.mark.parametrize("call, match", [
    ((verification_battery, 2.5), "dimension N must be an integer, got 2.5"),
    ((verification_battery, math.nan), "dimension N must be an integer, got nan"),
    ((verification_battery, math.inf), "dimension N must be an integer, got inf"),
    ((sphere_spectrum, 2.5, 3), r"sphere spectrum needs an integer N >= 2, got 2\.5"),
    ((sphere_spectrum, math.nan, 3), "sphere spectrum needs an integer N >= 2, got nan"),
    ((sphere_spectrum, 2, 2.5), r"k_max must be a nonnegative integer, got 2\.5"),
    ((sphere_spectrum, 2, math.inf), "k_max must be a nonnegative integer, got inf"),
], ids=["battery-2.5", "battery-nan", "battery-inf", "sphere-N-2.5", "sphere-N-nan",
        "sphere-k-2.5", "sphere-k-inf"])
def test_a_dimension_that_is_not_an_integer_is_a_config_error(call, match):
    # 2.5 used to pass all 11 checks of the battery, nan to leak SciPy's
    # IntegrationWarning, and sphere_spectrum to raise a bare TypeError
    fn, *args = call
    with pytest.raises(ConfigError, match=match):
        fn(*args)


@pytest.mark.parametrize("N", [0, 1])
def test_verification_battery_rejects_low_dimension(N):
    # N = 1 used to divide by zero in the eta_1 decay checks
    with pytest.raises(ConfigError, match="N must be >= 2"):
        verification_battery(N=N)


def test_limit_dimension_cap_is_the_float64_edge():
    # power_tail_integral(N + 3, ...) scales with c^((N+4)/2), c = N (N - 2)
    ln_max = math.log(np.finfo(float).max)
    ln_scale = lambda N: (N + 4) / 2.0 * math.log(N * (N - 2))
    assert ln_scale(MAX_LIMIT_N) < ln_max < ln_scale(MAX_LIMIT_N + 1)
    assert all(c.passed for c in verification_battery(N=MAX_LIMIT_N))
    with pytest.raises(ConfigError, match=f"N must be <= {MAX_LIMIT_N}"):
        verification_battery(N=MAX_LIMIT_N + 1)

