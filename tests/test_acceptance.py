"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with -s to see them on
success). Computations are shared through the session-scoped solution cache,
so the whole battery runs in a few minutes.
"""

import math
import time

import numpy as np


from lanemorse import (
    annulus_betas,
    build_problem,
    count_negative,
    integrate_ivp,
    limit_constants,
    limit_residual,
    liouville_mass,
    morse_index,
    rayleigh_eta1,
    scales,
    sphere_spectrum,
    verification_battery,
    weighted_radial_eigs,
)
from lanemorse.spectral import auto_grid_size, auto_inner_radius, prufer_angles

from test_radial import bessel_j0_first_zero
from test_spectral import homogeneous_dim_dp, lattice_annuli

SWEEP = (2.0, 3.0, 5.0, 10.0, 50.0, 100.0, 200.0, 400.0)
LADDER = (50.0, 100.0, 200.0, 400.0)

# discrete beta_2 carries an O(h^2) bias that Richardson extrapolation
# reduces below this allowance; the continuum margin over -(N-1) shrinks to
# ~1e-9 at p = 400, so the strict inequality is asserted up to it
BETA2_DISC_TOL = 1e-8


def _report(name: str, passed: bool, detail: str = "") -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}", flush=True)
    assert passed, f"{name}: {detail}"


def test_criterion_bessel_oracle():
    t0 = time.time()
    traj = integrate_ivp(1.0, 2)
    zero = math.exp(traj.zeros[0][0])
    oracle = bessel_j0_first_zero()
    err = abs(zero - oracle)
    _report(
        "bessel-oracle (first zero 2.404825558 within 1e-8)",
        err < 1e-8 and abs(oracle - 2.404825558) < 1e-8,
        f"err={err:.2e} elapsed={time.time() - t0:.2f}s",
    )


def test_criterion_shooting_contract(nodal):
    t0 = time.time()
    worst_bc, worst_res = 0.0, 0.0
    ok = True
    cases = [(p, 2) for p in (2.0, 3.0, 5.0, 10.0, 50.0, 100.0, 400.0)]
    # near p = 1, u(0) = R2^(2/(p-1)) is 3.4e74 (p = 1.02) and 2.7e32
    # (p = 1.05, N = 3): the contract bounds u(1) relative to it
    for p, N in cases + [(1.02, 2), (1.05, 3)]:
        sol = nodal(p, N)
        worst_bc = max(worst_bc, abs(sol.eval(1.0)[0]) / sol.u0)
        worst_res = max(worst_res, sol.residual_sup)
        signs = np.sign(sol.eval(sol.grid[(sol.grid > 0) & (sol.grid < 1)])[0])
        ok &= int(np.sum(signs[:-1] * signs[1:] < 0)) == 1
    _report(
        "shooting-contract (|u(1)|/u(0)<1e-9, one interior zero, residual<1e-7)",
        ok and worst_bc < 1e-9 and worst_res < 1e-7,
        f"max|u(1)|/u(0)={worst_bc:.1e} max residual={worst_res:.1e} "
        f"elapsed={time.time() - t0:.1f}s",
    )


def test_criterion_limit_eigenvalue():
    t0 = time.time()
    worst_rq, worst_res = 0.0, 0.0
    for N in (2, 3, 4, 5):
        rq = rayleigh_eta1(N)
        worst_rq = max(worst_rq, abs(rq + (N - 1.0)) / (N - 1.0))
        worst_res = max(worst_res, limit_residual(N, -(N - 1.0)))
    _report(
        "limit-eigenvalue (rayleigh(eta1)=-(N-1) to 1e-6; residual<1e-10)",
        worst_rq < 1e-6 and worst_res < 1e-10,
        f"max rel err={worst_rq:.1e} max residual={worst_res:.1e} "
        f"elapsed={time.time() - t0:.2f}s",
    )


def test_criterion_liouville_mass():
    mass = liouville_mass()
    err = abs(mass - 8.0 * math.pi) / (8.0 * math.pi)
    _report("liouville-mass (8 pi within 1e-6 relative)", err < 1e-6,
            f"rel err={err:.1e}")


def test_criterion_algebraic_identities():
    k = limit_constants()
    g, d, ell = k.gamma, k.delta, k.ell
    from lanemorse.limits import _z_ell_log, limit_potential

    checks = {
        "gamma(gamma+4)=2ell^2": abs(g * (g + 4.0) - 2.0 * ell * ell),
        "h(delta)=ell^2+2": abs(math.exp(_z_ell_log(d, g, d)) * d * d - (ell**2 + 2)),
        "Z(ell)=0": abs(_z_ell_log(ell, g, d)),
        "g(sqrt8)=2": abs(float(limit_potential(math.sqrt(8.0), 2)) * 8.0 - 2.0),
    }
    worst = max(checks.values())
    _report("algebraic-identities (all to 1e-10)", worst < 1e-10,
            " ".join(f"{k}:{v:.1e}" for k, v in checks.items()))


def test_criterion_sphere_spectrum():
    t0 = time.time()
    ok = True
    for N in range(2, 11):
        for k, (lam, mult) in enumerate(sphere_spectrum(N, 50)):
            ok &= lam == k * (k + N - 2)
            ok &= mult == homogeneous_dim_dp(N, k) - homogeneous_dim_dp(N, k - 2)
    _report("sphere-spectrum (exact integers, k<=50, N<=10, vs DP oracle)", ok,
            f"elapsed={time.time() - t0:.2f}s")


def test_criterion_radial_morse_index(nodal):
    t0 = time.time()
    ok = True
    details = []
    for p in SWEEP:
        sol = nodal(p)
        inner = auto_inner_radius(sol)
        M = auto_grid_size(sol, inner)
        counts = {
            "w": count_negative(build_problem(sol, inner, M)),
            "w2M": count_negative(build_problem(sol, inner, 2 * M)),
            "wn2": count_negative(build_problem(sol, inner / 2.0, M)),
        }
        if any(c != 2 for c in counts.values()):
            ok = False
            details.append(f"p={p}: {counts}")
    _report(
        "radial-morse-index (inertia counts = 2, doubling-stable)",
        ok, "; ".join(details) or f"all 2, elapsed={time.time() - t0:.1f}s",
    )


def test_criterion_beta2_above_minus_one(nodal):
    rows = []
    ok = True
    for p in SWEEP:
        betas = annulus_betas(nodal(p)).betas
        ok &= betas[1] > -1.0 - BETA2_DISC_TOL and betas[1] < 0.0
        rows.append(f"p={p:g}:{betas[1] + 1.0:+.1e}")
    _report(
        "beta2-lower-bound (beta_2 > -1 across the sweep, up to 1e-8 grid bias)",
        ok, "margins " + " ".join(rows),
    )


def test_criterion_ell_constant(nodal):
    ok = True
    ell400 = scales(nodal(400.0)).ell_hat
    rel = abs(ell400 - 7.1979) / 7.1979
    ok &= rel < 0.05
    gaps = [abs(scales(nodal(p)).ell_hat - 7.1979) for p in LADDER]
    ok &= all(a > b for a, b in zip(gaps, gaps[1:]))
    _report(
        "ell-constant (within 5% at p=400, gap strictly decreasing on the ladder)",
        ok, f"ell_hat(400)={ell400:.4f} rel={rel:.3f} gaps=" +
        " ".join(f"{g:.3f}" for g in gaps),
    )


def test_criterion_beta1_window_and_trend(nodal):
    betas = {}
    for p in LADDER:
        betas[p] = float(annulus_betas(nodal(p)).betas[0])
    ok = all(-36.0 < betas[p] < -25.0 for p in (200.0, 400.0))
    gaps = [abs(betas[p] + 26.9) for p in LADDER]
    ok &= all(a > b for a, b in zip(gaps, gaps[1:]))
    _report(
        "beta1-window (in (-36,-25) for p>=200; |beta1+26.9| decreasing)",
        ok, " ".join(f"beta1({p:g})={betas[p]:.3f}" for p in LADDER),
    )


def test_criterion_morse_index_12(nodal):
    ok = True
    details = []
    for p in (200.0, 400.0):
        t0 = time.time()
        rep = morse_index(nodal(p))
        good = (rep.total == 12 and rep.contributions == [1, 1, 2, 2, 2, 2, 2]
                and rep.stable)
        ok &= good
        details.append(f"p={p:g}: total={rep.total} ledger={rep.contributions} "
                       f"stable={rep.stable} ({time.time() - t0:.1f}s)")
    _report("morse-index-12 (total = 1+1+2*5, stable: the Pruefer total agrees)",
            ok, "; ".join(details))


# half-width of the E window around each finite-p beta: the walk's midpoint
# cells place beta_1 up to 1.8e-3 above the annulus value (p = 400)
BETA_WINDOW = 1e-2


def test_criterion_appendix_estimate(nodal):
    # the singular limit's first eigenvalue -(ell^2+2)/2 by the battery's two
    # counts; and beta_1, beta_2 of the annulus bracketed by the mode-0 walk
    # over the whole ball, on both cell sets: i-1 zeros at beta_i - window
    # and i at beta_i + window
    limit = [c for c in verification_battery(2) if c.name.startswith("singular_count")]
    ok = [c.value for c in limit] == [0.0, 1.0]
    details = []
    for p, N in ((8.0, 2), (400.0, 2), (2.5, 3)):
        sol = nodal(p, N)
        alpha = 0.5 * (N - 2)
        counts = []
        for beta in annulus_betas(sol).betas[:2]:
            for E in (beta - BETA_WINDOW, beta + BETA_WINDOW):
                kappa = math.sqrt(alpha * alpha - E)
                thetas = prufer_angles(kappa, [(h, f - kappa * kappa) for h, f in sol.fp_cells()])
                counts.append([math.floor(t) for t in thetas])
        ok &= counts == [[0, 0], [1, 1], [1, 1], [2, 2]]
        details.append(f"(p={p:g}, N={N}): {[c[0] for c in counts]}")
    _report(
        "appendix-estimate (singular limit counts 0, 1 at -(ell^2+2)/2 (1 +- 1e-4); "
        "beta_1, beta_2 counted from both sides at +-1e-2)",
        ok, f"limit {[c.value for c in limit]}; " + "; ".join(details),
    )


def test_criterion_property_suite(nodal):
    t0 = time.time()
    ok = True
    # domain monotonicity on nested annuli, grids on one graded lattice
    sol = nodal(5.0)
    inner0 = sol.r_p / 2.0
    prev = None
    for inner, M in lattice_annuli(sol, inner0 / 8.0, 8192, (
            inner0, inner0 / 2.0, inner0 / 4.0, inner0 / 8.0)):
        betas = weighted_radial_eigs(build_problem(sol, inner, M), 3)
        if prev is not None:
            ok &= bool(np.all(betas <= prev + 1e-7))
        prev = betas
    _report(
        "property-suite (nesting monotone)", ok, f"elapsed={time.time() - t0:.1f}s",
    )
