import dataclasses
import math

import numpy as np
import pytest

from lanemorse import (
    ConfigError, Trajectory, UnimodalityError, limit_constants, scales, solve_nodal,
)
from lanemorse import radial
from lanemorse.limits import REFERENCE_ELL, liouville_profile, singular_profile
from lanemorse.profile import fp_values, rescaled_potential, rescaled_profile

P_LADDER = (50.0, 100.0, 200.0, 400.0)


def test_scales_against_direct_formula(nodal):
    # p = 3 is small enough for naive powering, giving an independent route
    sol = nodal(3.0)
    sc = scales(sol)
    assert sc.eps_plus == pytest.approx((sol.p * sol.u0 ** (sol.p - 1)) ** -0.5, rel=1e-13)
    assert sc.eps_minus == pytest.approx(
        (sol.p * abs(sol.u_min) ** (sol.p - 1)) ** -0.5, rel=1e-13
    )
    assert sc.ell_hat == pytest.approx(sol.s_p / sc.eps_minus, rel=1e-14)


def test_an_underflowing_blowup_scale_is_named(nodal):
    # eps = exp(-(ln p + (p-1) ln|u|) / 2) underflows to 0 for |u| = 1e20 at
    # p = 50; the ratios r_p/eps_plus and s_p/eps_minus would divide by it
    sol = nodal(50.0)
    for field, name in (("u0", "eps_plus"), ("u_min", "eps_minus")):
        bad = dataclasses.replace(sol, **{field: math.copysign(1e20, getattr(sol, field))})
        with pytest.raises(ConfigError, match=f"{name} = exp\\(-1130.*p=50.0, N=2"):
            scales(bad)


def test_eps_ordering(nodal):
    for p in (2.0, 5.0, 50.0):
        sc = scales(nodal(p))
        assert sc.eps_plus < sc.eps_minus


def test_ell_hat_near_reference(nodal):
    sc = scales(nodal(400.0))
    assert abs(sc.ell_hat - REFERENCE_ELL) / REFERENCE_ELL < 0.05


def test_ell_hat_gap_decreasing(nodal):
    gaps = [abs(scales(nodal(p)).ell_hat - REFERENCE_ELL) for p in P_LADDER]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_ratios_increasing(nodal):
    rp = [scales(nodal(p)).ratio_plus for p in P_LADDER]
    rm = [scales(nodal(p)).ratio_minus for p in P_LADDER]
    assert all(a < b for a, b in zip(rp, rp[1:]))
    assert all(a < b for a, b in zip(rm, rm[1:]))


def test_central_steepness_increasing(nodal):
    # p u(0)^(p-1) = eps_plus^(-2) must increase along the sweep
    vals = [-2.0 * math.log(scales(nodal(p)).eps_plus) for p in (10.0, 50.0, 100.0, 400.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_rescaled_profile_pins(nodal):
    sol = nodal(100.0)
    sc = scales(sol)
    assert rescaled_profile(sol, "+", 0.0) == 0.0
    assert abs(rescaled_profile(sol, "-", sol.s_p / sc.eps_minus)) < 1e-9
    assert rescaled_potential(sol, "+", 0.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(rescaled_potential(sol, "-", sol.s_p / sc.eps_minus) - 1.0) < 1e-9


def test_rescaled_domain_errors(nodal):
    sol = nodal(3.0)
    sc = scales(sol)
    with pytest.raises(ConfigError):
        rescaled_profile(sol, "+", 1.5 / sc.eps_plus)
    with pytest.raises(ConfigError):
        rescaled_potential(sol, "x", 1.0)


@pytest.mark.parametrize("r", [math.nan, [0.5, math.nan]])
def test_a_nan_radius_is_outside_the_ball(nodal, r):
    # the range checks are negated, so nan fails them rather than being
    # evaluated to nan
    sol = nodal(3.0)
    for read in (sol.eval, sol.ln_fp, lambda r: fp_values(sol, r)):
        with pytest.raises(ConfigError, match=r"radius outside \[0, 1\]"):
            read(r)
    for sign in ("+", "-"):
        for rescaled in (rescaled_profile, rescaled_potential):
            with pytest.raises(ConfigError, match="rescaled radius outside the unit ball"):
                rescaled(sol, sign, np.multiply(r, 2.0))


def test_positive_rescaling_converges_to_liouville(nodal):
    x = np.linspace(0.0, 5.0, 101)
    U = liouville_profile(x, 2)
    sups = [
        float(np.max(np.abs(rescaled_profile(nodal(p), "+", x) - U)))
        for p in (100.0, 400.0)
    ]
    assert sups[1] < sups[0]


def test_negative_potential_converges_to_singular_profile(nodal):
    x = np.linspace(1.0, 5.0, 101)
    target = np.exp(singular_profile(x, limit_constants()))
    sups = [
        float(np.max(np.abs(rescaled_potential(nodal(p), "-", x) - target)))
        for p in (100.0, 400.0)
    ]
    assert sups[1] < sups[0]


def test_fp_vanishes_at_interval_ends(nodal):
    sol = nodal(50.0)
    assert fp_values(sol, 0.0) == 0.0
    assert fp_values(sol, sol.r_p) < 1e-6
    assert fp_values(sol, 1.0) < 1e-6


@pytest.mark.parametrize("p", [8.0, 400.0, 760.0])
def test_fp_values_is_p_u_to_the_p_minus_1_r_squared(nodal, p):
    # from below the integration start (the seed model) to r = 1, against
    # p (|u|^((p-1)/2) r)^2 from eval, which keeps |u|^(p-1) in range; the
    # 1e-300 floor only spares the subnormal values, where no float has
    # 12 digits
    sol = nodal(p)
    r = np.concatenate(([0.0], np.geomspace(1e-3 * sol.grid[1], 1.0, 2000)))
    u, _ = sol.eval(r)
    direct = p * (np.abs(u) ** ((p - 1.0) / 2.0) * r) ** 2
    f = fp_values(sol, r)
    assert f[0] == 0.0 and fp_values(sol, 0.0) == 0.0
    assert np.allclose(f, direct, rtol=1e-12, atol=1e-300)


def test_fp_maxima_near_limits(nodal):
    sol = nodal(400.0)
    ell = REFERENCE_ELL
    assert 1.8 < sol.max_plus < 2.2
    assert abs(sol.max_minus - (ell * ell + 2.0)) / (ell * ell + 2.0) < 0.10


def test_fp_uniform_bound(nodal):
    # sup f_p <= 60: the limit peak ell^2+2 ~ 53.8 plus margin
    for p in (2.0, 5.0, 10.0, 50.0, 100.0, 400.0):
        sol = nodal(p)
        assert max(sol.max_plus, sol.max_minus) <= 60.0


def test_maximizer_scale_trends(nodal):
    k = limit_constants()
    gaps_plus, gaps_minus = [], []
    for p in (100.0, 400.0):
        sol = nodal(p)
        sc = scales(sol)
        gaps_plus.append(abs(sol.c_p / sc.eps_plus - math.sqrt(8.0)))
        gaps_minus.append(abs(sol.d_p / sc.eps_minus - k.delta))
    assert gaps_plus[1] < gaps_plus[0]
    assert gaps_minus[1] < gaps_minus[0]


def test_fp_unimodal_structure(nodal):
    # one local max per nodal interval, visible from the solve succeeding
    sol = nodal(10.0)
    assert 0 < sol.c_p < sol.r_p < sol.d_p < 1.0


@pytest.mark.parametrize("p", [8.3, 100.0, 400.0, 760.0])
def test_maximizers_are_critical_points(nodal, p):
    # d ln f_p / d ln r = (p-1) r u'/u + 2 vanishes at both maximizers
    sol = nodal(p)
    for r in (sol.c_p, sol.d_p):
        u, du = sol.eval(r)
        assert abs((p - 1.0) * r * du / u + 2.0) <= 1e-10


def test_analyze_fp_reads_maxima_off_the_events(monkeypatch):
    # solve_nodal takes the maxima from the event states, with no
    # evaluation of the trajectory, and they agree with f_p evaluated
    # through the dense output
    evals = []

    def counting_eval(traj, r):
        evals.append(np.size(r))
        return real_eval(traj, r)

    real_eval = Trajectory.eval
    monkeypatch.setattr(Trajectory, "eval", counting_eval)
    sol = solve_nodal(50.0)
    monkeypatch.undo()
    assert evals == []
    assert sol.max_plus == pytest.approx(fp_values(sol, sol.c_p), rel=1e-13)
    assert sol.max_minus == pytest.approx(fp_values(sol, sol.d_p), rel=1e-13)


@pytest.mark.parametrize("where", ["positive", "negative"])
@pytest.mark.parametrize("count", [0, 2])
def test_analyze_fp_requires_one_critical_point(nodal, monkeypatch, where, count):
    # solve_nodal reads the f_p events ((ln r, u, w) rows) of the integration it ran
    sol = nodal(10.0)
    traj = sol._traj
    rho_p, rho_2 = traj.zeros[:, 0]
    (c,) = [row for row in traj.fp_critical if row[0] < rho_p]
    (d,) = [row for row in traj.fp_critical if row[0] > rho_p]
    if where == "positive":
        edited = [d] if count == 0 else [c - [math.log(2.0), 0.0, 0.0], c, d]
    else:
        edited = [c] if count == 0 else [c, d, [0.5 * (d[0] + rho_2), *d[1:]]]
    bad = dataclasses.replace(traj, fp_critical=np.array(edited))
    monkeypatch.setattr(radial, "integrate_ivp", lambda *args: bad)
    with pytest.raises(UnimodalityError, match=f"f_p has {count} critical points on the {where}"):
        solve_nodal(10.0)
