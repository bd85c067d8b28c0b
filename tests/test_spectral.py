import dataclasses
import functools
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgtsv

from lanemorse import (
    ConfigError,
    SolverError,
    annulus_betas,
    build_problem,
    count_negative,
    morse_index,
    scales,
    solve_nodal,
    sphere_spectrum,
    weighted_radial_eigs,
)
from lanemorse import cli, radial, spectral
from lanemorse.cli import EXIT_CHECK, main
from lanemorse.spectral import (
    AnnulusEigenProblem,
    LogGridMap,
    _assemble_ledger,
    auto_grid_size,
    auto_inner_radius,
    mapped_problem,
    prufer_angles,
    prufer_counts,
)

# a graded map with two bumps, as the solution annuli have at large p
GRADED = LogGridMap(inner=math.exp(-40.0), centres=(-30.0, -8.0))
# beta_1..beta_3 at p = 400 (morse --p 400 --N 2 with the uniform 116811-node
# grid pair that preceded the graded map)
P400_BETAS = (-26.7471221471375, -1.00000000004608, 1.21926818488687e-4)


def free_problem(N, inner, M, q=None):
    """Annulus problem on a uniform grid (constant map phi' = |ln inner|)
    with prescribed potential (zero by default)."""
    L = -math.log(inner)
    t = -L + L / (M + 1) * np.arange(1, M + 1)
    qq = np.zeros(M) if q is None else np.asarray(q, dtype=float)
    return AnnulusEigenProblem(inner=inner, M=M, t_nodes=t, q=qq,
                               alpha=0.5 * (N - 2), dt_ds=np.full(M, L),
                               dt_ds_half=np.full(M + 1, L))


def lattice_annuli(sol, inner_deep, M_deep, radii):
    """(inner, M) pairs whose graded grids are sub-grids of the deep one.

    Each inner radius is the node of the (inner_deep, M_deep) grid nearest
    the requested radius, and M counts the deep nodes above it, so the
    problem matrix is a principal submatrix of the deep one.
    """
    t = build_problem(sol, inner_deep, M_deep).t_nodes
    out = []
    for r in radii:
        j = int(np.argmin(np.abs(t - math.log(r))))
        out.append((math.exp(t[j]), M_deep - j - 1))
    return out


# ---------------------------------------------------------------------------
# assembly and exactly solvable cases


def test_dirichlet_exact_n2():
    # q = 0, N = 2: the log-variable operator is the Dirichlet Laplacian on
    # an interval of length |ln a|
    inner, M = 0.1, 4000
    prob = free_problem(2, inner, M)
    spec = weighted_radial_eigs(prob, 4)
    L = -math.log(inner)
    for j, beta in enumerate(spec, start=1):
        continuum = (j * math.pi / L) ** 2
        assert abs(beta - continuum) / continuum < 1e-5
        h = L / (M + 1)
        discrete = 2.0 / h**2 * (1.0 - math.cos(j * math.pi / (M + 1)))
        assert abs(beta - discrete) < 1e-10 * discrete


def test_dirichlet_exact_n3_shift():
    inner, M = 0.05, 4000
    prob = free_problem(3, inner, M)
    spec = weighted_radial_eigs(prob, 3)
    L = -math.log(inner)
    for j, beta in enumerate(spec, start=1):
        target = (j * math.pi / L) ** 2 + 0.25
        assert abs(beta - target) < 2e-5 * target


def test_assembled_diagonal(nodal):
    # the conservative scheme on the graded map ...
    sol = nodal(3.0)
    prob = build_problem(sol, 0.01, 64)
    k = 1.0 / 65
    m, a = prob.dt_ds, 1.0 / prob.dt_ds_half
    expected = (a[:-1] + a[1:]) / (k**2 * m) + prob.alpha**2 - prob.q
    assert np.allclose(prob.diagonal(), expected, rtol=0, atol=0)
    assert np.all(prob.offdiagonal() == -a[1:-1] / (k**2 * np.sqrt(m[:-1] * m[1:])))
    assert np.all(np.diff(m) != 0.0)  # the map is not uniform
    # ... whose weights are the derivative of its nodes ...
    t = np.concatenate(([math.log(0.01)], prob.t_nodes, [0.0]))
    assert np.allclose(np.diff(t) / k, prob.dt_ds_half, rtol=2e-3, atol=0)
    assert np.allclose((t[2:] - t[:-2]) / (2 * k), m, rtol=2e-3, atol=0)
    # ... and a constant map gives back the plain second difference 2/h^2
    flat = free_problem(3, 0.01, 64)
    h = -math.log(0.01) / 65
    assert np.allclose(flat.diagonal(), 2.0 / h**2 + 0.25, rtol=1e-14, atol=0)
    assert np.allclose(flat.offdiagonal(), -1.0 / h**2, rtol=1e-14, atol=0)


def test_coarsened_grid_is_the_direct_grid():
    # every second node of the (2M+1)-node grid is the M-node grid of the map
    f = lambda t: 10.0 / np.cosh(t + 8.0) ** 2
    fine = mapped_problem(GRADED, 2, 2 * 300 + 1, f)
    coarse = fine.coarsened()
    direct = mapped_problem(GRADED, 2, 300, f)
    assert coarse.M == 300 and coarse.k == 2.0 * fine.k
    for name in ("t_nodes", "q", "dt_ds", "dt_ds_half"):
        assert np.allclose(getattr(coarse, name), getattr(direct, name),
                           rtol=1e-13, atol=1e-13), name
    with pytest.raises(ConfigError):
        direct.coarsened()  # an even node count has no nested coarse grid


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300])
def test_a_bad_potential_sample_is_a_named_error(nodal, monkeypatch, bad):
    # one nan, inf or negative sample of f_p: the named limit, not LAPACK's
    # bare ValueError on the assembled matrix
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        free_problem(2, 0.01, 8, q=[0.0] * 4 + [bad] + [0.0] * 3)
    real = spectral.fp_values

    def spoiled(sol, r):
        q = real(sol, r)
        q[len(q) // 2] = bad
        return q

    monkeypatch.setattr(spectral, "fp_values", spoiled)
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        annulus_betas(nodal(8.0))


@pytest.mark.parametrize("p", [None, 8.0, 400.0, 760.0])
def test_the_map_inverts_its_primitive_to_rounding(nodal, p):
    # phi(s) solves S(t) = S(t0) + s (S(0) - S(t0)) and phi' = (S(0) - S(t0)) / g
    # as closely as Newton run to convergence in extended precision: the
    # map's Newton steps leave only the rounding of S (at most 2.9e-13 in t)
    gmap = GRADED if p is None else spectral._grid_map(
        nodal(p), auto_inner_radius(nodal(p)))
    s = np.linspace(0.0, 1.0, 4001)
    t, dt_ds = gmap(s)
    L = np.longdouble
    th = lambda x: [np.tanh((x - L(c)) / L(spectral.BUMP_WIDTH)) for c in gmap.centres]
    S = lambda x: L(spectral.G_FREE) * x + L(spectral.G_BUMP * spectral.BUMP_WIDTH) * sum(th(x))
    g = lambda x: L(spectral.G_FREE) + L(spectral.G_BUMP) * sum(1 - y * y for y in th(x))
    t0 = L(gmap.t0)
    total = S(L(0.0)) - S(t0)
    target = S(t0) + s.astype(L) * total
    ref = t.astype(L)
    for _ in range(6):
        ref = np.clip(ref - (S(ref) - target) / g(ref), t0, L(0.0))
    assert np.max(np.abs(t - ref.astype(float))) <= 1e-12
    assert np.max(np.abs(dt_ds / (total / g(ref)).astype(float) - 1.0)) <= 1e-13


def loose_primitive_density(gmap, t):
    """`LogGridMap._primitive_density` as it was, with a new array per
    operation: the reference of the in-place version."""
    t = np.asarray(t, dtype=float)
    th = [np.tanh((t - c) / spectral.BUMP_WIDTH) for c in gmap.centres]
    return (spectral.G_FREE * t + spectral.G_BUMP * spectral.BUMP_WIDTH * sum(th),
            spectral.G_FREE + spectral.G_BUMP * sum(1.0 - x * x for x in th))


@pytest.mark.parametrize("p, N", [(1.25, 2), (8.0, 2), (400.0, 2), (760.0, 2), (4.9999, 3)])
def test_the_primitive_in_place_is_the_primitive(nodal, p, N):
    # bit for bit on the nodes and half nodes of the 2M+1 grid, on the lookup
    # table and at both ends
    sol = nodal(p, N)
    inner = auto_inner_radius(sol)
    gmap = spectral._grid_map(sol, inner)
    M = 2 * auto_grid_size(sol, inner) + 1
    t = gmap(np.arange(1, 2 * M + 2) / (2.0 * (M + 1)))[0]
    for x in (t, gmap._table[0], 0.0, gmap.t0):
        got, want = gmap._primitive_density(x), loose_primitive_density(gmap, x)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("p, N", [(1.25, 2), (8.0, 2), (400.0, 2), (760.0, 2), (4.9999, 3)])
def test_each_map_quantity_is_its_two_pass_form(nodal, p, N):
    # total takes S at both ends in one pass, and phi' reads g off the last
    # Newton pass: bit for bit the forms with a pass per end and a pass of
    # its own for g, on the nodes and half nodes of the 2M+1 grid
    sol = nodal(p, N)
    inner = auto_inner_radius(sol)
    gmap = spectral._grid_map(sol, inner)
    two_pass = float(gmap._primitive_density(0.0)[0] - gmap._primitive_density(gmap.t0)[0])
    assert gmap.total == two_pass
    M = 2 * auto_grid_size(sol, inner) + 1
    t, dt_ds = gmap(np.arange(1, 2 * M + 2) / (2.0 * (M + 1)))
    G = gmap._table[1]
    assert np.array_equal(dt_ds, (G[-1] - G[0]) / gmap._primitive_density(t)[1])


def record_table_builds(monkeypatch):
    """The inner radius of each map whose table of S(t) is built, in order."""
    builds = []
    real = LogGridMap._table.func
    table = functools.cached_property(lambda gmap: builds.append(gmap.inner) or real(gmap))
    table.__set_name__(LogGridMap, "_table")
    monkeypatch.setattr(LogGridMap, "_table", table)
    return builds


def test_the_grids_of_one_annulus_share_one_lookup_table(nodal, monkeypatch):
    # the seed grid and the 2M+1 grid invert the same map: its table of S(t)
    # is built once per annulus_betas call
    builds = record_table_builds(monkeypatch)
    inners = [annulus_betas(nodal(p)).inner for p in (8.0, 400.0)]
    assert builds == inners


def test_each_annulus_call_builds_its_own_map(nodal, monkeypatch):
    # no map outlives its call: two calls on one solution build two tables,
    # and give the same values
    builds = record_table_builds(monkeypatch)
    first, second = annulus_betas(nodal(8.0)), annulus_betas(nodal(8.0))
    assert builds == [first.inner, second.inner]
    assert np.array_equal(first.coarse, second.coarse)
    assert np.array_equal(first.fine, second.fine)


def test_richardson_ratio_on_graded_map():
    # smooth potential: the scheme's eigenvalue error is k^2, so the nested
    # (M, 2M+1, 4M+3) differences shrink by ~4 and (4 fine - coarse)/3 holds
    f = lambda t: 20.0 / np.cosh(t + 30.0) ** 2 + 40.0 / np.cosh((t + 8.0) / 1.5) ** 2
    M = 200
    b = [weighted_radial_eigs(mapped_problem(GRADED, 2, m, f), 3)
         for m in (M, 2 * M + 1, 4 * M + 3)]
    ratio = (b[0] - b[1]) / (b[1] - b[2])
    assert np.all((3.5 <= ratio) & (ratio <= 4.5)), ratio


def test_free_spectrum_on_graded_map():
    # q = 0: beta_j -> (j pi / L)^2 + alpha^2 on the graded grid too
    exact = (np.arange(1, 4) * math.pi / 40.0) ** 2 + 0.25
    finest = mapped_problem(GRADED, 3, 4 * 400 + 3, np.zeros_like)
    probs = [finest.coarsened().coarsened(), finest.coarsened(), finest]
    b = [weighted_radial_eigs(prob, 3) for prob in probs]
    err = [bj - exact for bj in b]
    assert np.all(err[0] > 0) and np.all(err[0] < 1e-4 * exact)
    ratio = err[0] / err[1], err[1] / err[2]
    assert np.all((3.5 <= np.array(ratio)) & (np.array(ratio) <= 4.5)), ratio
    assert np.all(np.abs((4.0 * b[2] - b[1]) / 3.0 - exact) < 1e-7 * exact)


def test_build_problem_rejects_bad_inner(nodal):
    sol = nodal(3.0)
    with pytest.raises(ConfigError):
        build_problem(sol, sol.r_p * 1.5, 64)
    with pytest.raises(ConfigError):
        build_problem(sol, 0.01, 1)


def test_inner_rule_is_not_clamped(nodal):
    # eps_plus^2 = 5.3e-302 at p = 765: the annulus takes the rule's value,
    # with no floor at 1e-300
    sol = nodal(765.0)
    assert auto_inner_radius(sol) == scales(sol).eps_plus ** 2 < 1e-300
    rep = morse_index(sol)
    assert rep.annulus.inner == auto_inner_radius(sol)
    assert rep.total == 12 and rep.stable


# ---------------------------------------------------------------------------
# negative counts by the LAPACK Sturm count


def test_count_zero_potential():
    assert count_negative(free_problem(2, 0.1, 500)) == 0
    assert count_negative(free_problem(3, 0.1, 500)) == 0
    # at and below the floor alpha^2 - max q - 1 = -1 nothing is counted:
    # stebz rejects the empty interval (floor, floor] and prints to C stdout
    assert count_negative(free_problem(2, 0.1, 500), shift=-1.0) == 0
    assert count_negative(free_problem(2, 0.1, 500), shift=-5.0) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=400.0), min_size=4, max_size=24),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_count_matches_dense_eigensolve(qvals, shift):
    # Sturm count against a dense symmetric eigensolve on the same matrix
    M = len(qvals)
    prob = free_problem(2, 0.05, M, q=qvals)
    d, e = prob.diagonal(), prob.offdiagonal()
    A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    eigs = np.linalg.eigvalsh(A)
    expected = int(np.sum(eigs < shift))
    if np.min(np.abs(eigs - shift)) < 1e-9:
        return  # shift landed on an eigenvalue; the count is ill-posed
    assert count_negative(prob, shift=shift) == expected


def test_count_cross_oracle(nodal):
    sol = nodal(5.0)
    prob = build_problem(sol, auto_inner_radius(sol), 4096)
    spec = weighted_radial_eigs(prob, 6)
    assert count_negative(prob) == int(np.sum(spec < 0))


def test_a_nan_shift_is_named_and_infinite_shifts_count():
    # nan once reached stebz as its tolerance and came back as "did not
    # converge"; the infinities bound the whole spectrum or none of it
    prob = free_problem(2, 0.1, 64, q=np.linspace(0.0, 40.0, 64))
    with pytest.raises(ConfigError, match="shift=nan must be a number"):
        count_negative(prob, math.nan)
    assert count_negative(prob, math.inf) == 64
    assert count_negative(prob, -math.inf) == 0


@pytest.mark.parametrize("k", [3.5, math.nan, math.inf, 0, 65, -1.0])
def test_each_eigenvalue_count_limit_is_one_named_error(k):
    # a non-integer k once reached SciPy's own ValueError ("select_range
    # must contain integers")
    prob = free_problem(2, 0.1, 64)
    with pytest.raises(ConfigError, match=f"k={k} must be an integer from 1 to the grid's M=64"):
        weighted_radial_eigs(prob, k)


def test_a_whole_float_k_is_an_int():
    prob = free_problem(2, 0.1, 64, q=np.linspace(0.0, 40.0, 64))
    assert np.array_equal(weighted_radial_eigs(prob, 3.0), weighted_radial_eigs(prob, 3))


# ---------------------------------------------------------------------------
# the weighted spectrum on solution annuli


def test_radial_counts_are_two(nodal):
    for p in (5.0, 50.0, 400.0):
        sol = nodal(p)
        inner = auto_inner_radius(sol)
        M = auto_grid_size(sol, inner)
        assert count_negative(build_problem(sol, inner, M)) == 2
        # agreement under grid doubling
        assert count_negative(build_problem(sol, inner, 2 * M)) == 2


def test_beta2_strictly_above_threshold_small_p(nodal):
    # at moderate p the margin over -(N-1) is genuinely resolvable
    for p, margin in ((2.0, 0.3), (3.0, 0.05), (5.0, 0.005), (10.0, 5e-5)):
        betas = annulus_betas(nodal(p)).betas
        assert betas[1] > -1.0 + margin / 2.0
        assert betas[1] < 0.0


def test_beta1_window_p400(nodal):
    betas = annulus_betas(nodal(400.0)).betas
    assert -36.0 < betas[0] < -25.0
    assert betas[2] > 0.0


def test_beta1_bounded_by_sup_fp(nodal):
    # the first weighted eigenvalue cannot drop below -sup f_p
    for p in (5.0, 50.0, 400.0):
        sol = nodal(p)
        inner = auto_inner_radius(sol)
        spec = weighted_radial_eigs(
            build_problem(sol, inner, auto_grid_size(sol, inner)), 1
        )
        assert spec[0] >= -max(sol.max_plus, sol.max_minus)


def test_domain_monotonicity_nested_annuli(nodal):
    # beta_i^n >= beta_i^(n+1): deepening the annulus lowers every eigenvalue.
    # The inner radii sit on one graded lattice, so the grids nest and the
    # discrete property holds exactly (Cauchy interlacing).
    sol = nodal(5.0)
    inner0 = sol.r_p / 2.0
    deep = build_problem(sol, inner0 / 16.0, 8192)
    prev = None
    prev_count = 0
    for inner, M in lattice_annuli(sol, inner0 / 16.0, 8192, (
            inner0, inner0 / 2.0, inner0 / 4.0, inner0 / 16.0)):
        prob = build_problem(sol, inner, M)
        assert np.allclose(prob.t_nodes, deep.t_nodes[-M:], rtol=0, atol=1e-12)
        spec = weighted_radial_eigs(prob, 3)
        neg_count = count_negative(prob)
        if prev is not None:
            assert np.all(spec <= prev + 1e-7)
        assert neg_count >= prev_count
        prev, prev_count = spec, neg_count
    assert prev_count == 2


def test_grid_convergence(nodal):
    sol = nodal(50.0)
    inner = auto_inner_radius(sol)
    M = auto_grid_size(sol, inner)
    b1 = weighted_radial_eigs(build_problem(sol, inner, M), 1)[0]
    b2 = weighted_radial_eigs(build_problem(sol, inner, 2 * M), 1)[0]
    assert abs(b2 - b1) / abs(b1) < 1e-4


def test_whole_float_sizes_are_reported_as_ints():
    # N = 3.0 once reached math.comb in the sphere multiplicities as a float
    rep = morse_index(solve_nodal(2.5, N=3.0))
    assert rep.total == 10 and type(rep.N) is int and rep.N == 3


def test_the_library_names_the_spectral_limits(nodal, monkeypatch):
    # the rule's own inner radius passes the range check: one that
    # underflows to 0 is named
    sol = nodal(5.0)
    monkeypatch.setattr(spectral, "auto_inner_radius", lambda sol: 0.0)
    for solve in (annulus_betas, morse_index):
        with pytest.raises(ConfigError, match="inner radius 0.000e\\+00 must lie in"):
            solve(sol)


@pytest.mark.parametrize("p, N", [(5.0, 2), (400.0, 2), (2.5, 3)])
def test_the_grid_rule_gives_at_least_seven_nodes(nodal, p, N):
    # annulus_betas checks no grid size: the density is at least G_FREE on
    # (ln inner, 0), so M >= ceil(G_FREE ln(1/inner)), and the inner rule
    # gives inner <= r_p/10 < 1/10, so M >= ceil(3 ln 10) = 7 > 3 = N_BETAS
    sol = nodal(p, N)
    assert auto_inner_radius(sol) <= sol.r_p / 10.0 < 0.1
    for inner in [*np.geomspace(5e-324, 0.1, 60).tolist(), 0.1]:
        bound = math.ceil(spectral.G_FREE * -math.log(inner))
        assert auto_grid_size(sol, inner) >= bound >= 7 > spectral.N_BETAS, inner


def test_the_smallest_inner_radii_keep_working(nodal, monkeypatch):
    # no annulus is deepened, so the smallest subnormal serves morse_index too
    sol = nodal(5.0)
    monkeypatch.setattr(spectral, "auto_inner_radius", lambda sol: 5e-324)
    ann = annulus_betas(sol)
    assert ann.inner == 5e-324 and ann.m_rad == 2 and np.all(np.isfinite(ann.betas))
    rep = morse_index(sol)
    assert rep.annulus.inner == 5e-324 and rep.annulus.m_rad == 2 and rep.stable


# ---------------------------------------------------------------------------
# bisection seeded by the coarser grid


def seeded_pair(sol, k=3):
    """The (2M+1)-node grid of the default annulus and the k smallest
    eigenvalues of its M-node coarsening, the seeds annulus_betas passes."""
    inner = auto_inner_radius(sol)
    fine = build_problem(sol, inner, 2 * auto_grid_size(sol, inner) + 1)
    return fine, weighted_radial_eigs(fine.coarsened(), k)


def record_bisections(monkeypatch):
    """(select, number of values found) of every stebz call, in order."""
    calls = []

    def counted(d, e, **kw):
        out = eigvalsh_tridiagonal(d, e, **kw)
        calls.append((kw["select"], len(out)))
        return out

    monkeypatch.setattr(spectral, "eigvalsh_tridiagonal", counted)
    return calls


def record_selects(monkeypatch):
    """{rows: [select of each stebz call on a matrix of that many rows]}."""
    selects = {}

    def counted(d, e, **kw):
        selects.setdefault(len(d), []).append(kw["select"])
        return eigvalsh_tridiagonal(d, e, **kw)

    monkeypatch.setattr(spectral, "eigvalsh_tridiagonal", counted)
    return selects


@pytest.mark.parametrize("p, N", [(8.0, 2), (400.0, 2), (2.5, 3), (1.5, 3)])
def test_seeded_bisection_matches_the_index_range(nodal, monkeypatch, p, N):
    # inverse iteration and one certifying count: each seeded value lies
    # within its certified radius of the bisected one, and within 2e-10
    fine, near = seeded_pair(nodal(p, N))
    calls = record_bisections(monkeypatch)
    seeded = spectral._rung(fine, near)[0]
    assert calls == [("v", 3)]
    radius = spectral._rayleigh_intervals(fine.diagonal(), fine.offdiagonal(), near)[1]
    error = np.abs(seeded - weighted_radial_eigs(fine, 3))
    assert np.all(error <= radius) and np.all(error <= 2e-10), (error, radius)


@pytest.mark.parametrize("seeds", ["shifted", "beta_2 to beta_4"])
def test_uncertified_seeds_fall_back_to_the_index_range(nodal, monkeypatch, seeds):
    # seeds 1% (at least 1e-5) off leave beta_1 a radius of 5.9e-7 after four
    # solves, above the bound, so nothing is counted; seeds that skip beta_1
    # give three certified intervals, but the count finds four
    fine, near = seeded_pair(nodal(8.0), k=4)
    if seeds == "shifted":
        near = near[:3] + np.maximum(1e-2 * np.abs(near[:3]), 1e-5)
        expected = []
    else:
        near = near[1:]
        expected = [("v", 4)]
    calls = record_bisections(monkeypatch)
    got = spectral._rung(fine, near)[0]
    assert calls == expected + [("i", 3)]
    assert np.array_equal(got, weighted_radial_eigs(fine, 3))


def test_a_radius_above_the_bound_falls_back(nodal, monkeypatch):
    # one solve per seed leaves beta_1 a radius of 3.7e-4 at p = 8, which
    # the seeds' neighbourhood would have admitted; the bound does not
    fine, near = seeded_pair(nodal(8.0))
    monkeypatch.setattr(spectral, "_INVERSE_STEPS", 1)
    radius = spectral._rayleigh_intervals(fine.diagonal(), fine.offdiagonal(), near)[1]
    assert radius[0] > 1e-4
    calls = record_bisections(monkeypatch)
    got = spectral._rung(fine, near)[0]
    assert calls[-1] == ("i", 3)
    assert np.array_equal(got, weighted_radial_eigs(fine, 3))


def test_a_close_fourth_eigenvalue_does_not_stop_the_certificate(nodal, monkeypatch):
    # at p = 760 beta_4 - beta_3 is about 5e-5, but the certified interval
    # around the Rayleigh quotient is some 1e-9 wide and holds beta_3 alone
    fine, near = seeded_pair(nodal(760.0))
    betas = weighted_radial_eigs(fine, 4)
    assert 4e-5 < betas[3] - betas[2] < 6e-5
    calls = record_bisections(monkeypatch)
    got = spectral._rung(fine, near)[0]
    assert calls == [("v", 3)]
    assert np.max(np.abs(got - betas[:3])) <= 2e-10


@pytest.mark.parametrize("fault", ["singular solve", "non-finite residual"])
def test_a_failed_inverse_iteration_falls_back_quietly(nodal, monkeypatch, fault):
    # a gttrf that reports a zero pivot, or a solve that leaves inf in x (nan
    # in rho and delta), gives the index-range values and no warning
    fine, near = seeded_pair(nodal(8.0))
    if fault == "singular solve":
        factor = spectral.dgttrf
        monkeypatch.setattr(spectral, "dgttrf", lambda *a: (*factor(*a)[:-1], 1))
    else:
        solve = spectral.dgttrs

        def overflowing(*args):
            x, info = solve(*args)
            return np.where(x > 0, np.inf, x), info

        monkeypatch.setattr(spectral, "dgttrs", overflowing)
    calls = record_bisections(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spectral._rung(fine, near)[0]
    assert calls == [("i", 3)]
    assert np.array_equal(got, weighted_radial_eigs(fine, 3))


# the ends of the benchmark bands: morse N = 2, p in [380, 420]; sweep N = 2,
# p in [4, 14] and N = 3, p in [1.5, 3.3]
BAND_ENDS = [(380.0, 2), (420.0, 2), (4.0, 2), (14.0, 2), (1.5, 3), (3.3, 3)]


@pytest.mark.parametrize("p, N", BAND_ENDS)
def test_the_fine_grid_is_certified_at_the_band_ends(nodal, monkeypatch, p, N):
    # only the quarter-size seed grid is bisected by index range: a fallback
    # would bisect the M or the 2M+1 grid so too, and count m_rad on M
    selects = record_selects(monkeypatch)
    rep = morse_index(nodal(p, N))
    assert rep.stable
    M = rep.annulus.M
    assert selects == {M // 4: ["i"], M: ["v"], 2 * M + 1: ["v"]}


@pytest.mark.parametrize("p, N", BAND_ENDS + [
    (400.0, 2), (8.0, 2), (2.5, 3), (20.0, 2), (760.0, 2),
    (1.5, 4), (2.9, 4), (1.5, 5), (2.2, 5), (1.3, 6), (1.7, 6)])
def test_the_quarter_grid_seeds_certify_the_M_grid(nodal, monkeypatch, p, N):
    # the ladder of annulus_betas: the M // 4 grid, bisected, seeds the M
    # grid, whose values and prolonged vectors start the 2M+1 grid. Each M
    # value lies within its certified radius of the bisected one, and within
    # 2e-10; neither grid falls back to the index range
    sol = nodal(p, N)
    inner = auto_inner_radius(sol)
    M = auto_grid_size(sol, inner)
    seeds = weighted_radial_eigs(build_problem(sol, inner, M // 4), 3)
    fine = build_problem(sol, inner, 2 * M + 1)
    coarse = fine.coarsened()
    calls = record_bisections(monkeypatch)
    got, x = spectral._rung(coarse, seeds)[:2]
    spectral._rung(fine, got, spectral._prolonged(fine, x))
    assert calls == [("v", 3), ("v", 3)]
    radius = spectral._rayleigh_intervals(coarse.diagonal(), coarse.offdiagonal(), seeds)[1]
    error = np.abs(got - weighted_radial_eigs(coarse, 3))
    assert np.all(error <= radius) and np.all(error <= 2e-10), (error, radius)


def test_an_unresolved_seed_grid_falls_back_quietly(nodal, monkeypatch):
    # at p = 4.9999, N = 3 the quarter grid does not resolve the bubble
    # tower: its seeds leave radii of 2e-7 to 4e-6 on the M grid, which is
    # then bisected by index range, with no warning and the same count
    selects = record_selects(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = morse_index(nodal(4.9999, 3))
    assert rep.total == 5 and rep.stable
    M = rep.annulus.M
    assert selects == {M // 4: ["i"], M: ["i", "v"], 2 * M + 1: ["v"]}


def sturm_counts_at_zero(monkeypatch):
    """The M of every grid that `count_negative` counts up to 0, in order."""
    grids = []
    real = spectral.count_negative

    def counted(prob, shift=0.0):
        if shift == 0.0:
            grids.append(prob.M)
        return real(prob, shift)

    monkeypatch.setattr(spectral, "count_negative", counted)
    return grids


# the acceptance grid of tests/test_acceptance.py
ACCEPTANCE_P = (2.0, 3.0, 5.0, 10.0, 50.0, 100.0, 200.0, 400.0)


@pytest.mark.parametrize("p", ACCEPTANCE_P)
def test_the_certified_M_values_give_m_rad(nodal, monkeypatch, p):
    # beta_3's interval lies above 0 and no interval holds 0: m_rad is the
    # number of intervals below 0, with no Sturm count of its own, and it is
    # the count of the M grid
    sol = nodal(p)
    at_zero = sturm_counts_at_zero(monkeypatch)
    ann = annulus_betas(sol)
    assert at_zero == []
    coarse = build_problem(sol, ann.inner, 2 * ann.M + 1).coarsened()
    assert ann.m_rad == count_negative(coarse) == 2


@pytest.mark.parametrize("p", [4.999, 4.9999])
def test_an_uncertified_M_grid_counts_m_rad(nodal, monkeypatch, p):
    # next to the N = 3 critical exponent the M grid falls back to the index
    # range: no intervals, so the Sturm count takes m_rad
    at_zero = sturm_counts_at_zero(monkeypatch)
    ann = annulus_betas(nodal(p, 3))
    assert ann.m_rad == 2 and at_zero == [ann.M]


def test_an_interval_that_holds_0_leaves_m_rad_to_the_sturm_count(nodal, monkeypatch):
    # intervals doctored so that beta_2's holds 0, beta_3's reaches down to
    # it, or all three lie below 0 (where a fourth eigenvalue may too), or
    # none at all (bisected values): the Sturm count decides
    sol = nodal(8.0)
    ann = annulus_betas(sol)
    coarse = build_problem(sol, ann.inner, 2 * ann.M + 1).coarsened()
    rho, radius = ann.coarse, np.full(3, 1e-9)
    at_zero = sturm_counts_at_zero(monkeypatch)
    assert spectral._negative_count(coarse, rho, radius) == 2 and at_zero == []
    for values, delta in ((rho, np.array([1e-9, -rho[1], 1e-9])),
                          (rho, np.array([1e-9, 1e-9, rho[2]])),
                          (rho - rho[2] - 1e-3, radius), (rho, None)):
        assert spectral._negative_count(coarse, values, delta) == 2
    assert at_zero == [ann.M] * 4


def gtsv_intervals(d, e, sigmas):
    """`_rayleigh_intervals` as it was with one LAPACK gtsv (factor and
    solve) per step: the reference of the factor-once version."""
    slack = 4.0 * np.finfo(float).eps * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    rho, delta = np.empty_like(sigmas), np.empty_like(sigmas)
    for i, sigma in enumerate(sigmas):
        x = np.ones_like(d)
        for _ in range(spectral._INVERSE_STEPS):
            _, _, _, x, info = dgtsv(e, d - sigma, e, x)
            assert info == 0
            x /= np.linalg.norm(x)
        tx = d * x
        tx[:-1] += e * x[1:]
        tx[1:] += e * x[:-1]
        rho[i] = x @ tx
        delta[i] = np.linalg.norm(tx - rho[i] * x) + slack
    return rho, delta


@pytest.mark.parametrize("p", [8.0, 400.0])
def test_one_factorization_per_shift_solves_as_gtsv(nodal, p):
    # gttrf once and gttrs per step do gtsv's arithmetic: bit for bit
    fine, near = seeded_pair(nodal(p))
    d, e = fine.diagonal(), fine.offdiagonal()
    got, want = spectral._rayleigh_intervals(d, e, near)[:2], gtsv_intervals(d, e, near)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_the_prolonged_start_keeps_every_M_node(nodal):
    # the M nodes are the odd 2M+1 nodes: x is kept there bit for bit; each
    # even node is the mean of its neighbours in y = x / sqrt(phi'), 0
    # beyond both Dirichlet ends, scaled back by sqrt(phi')
    fine, _ = seeded_pair(nodal(8.0))
    x = np.random.default_rng(3).standard_normal((3, fine.coarsened().M))
    got = spectral._prolonged(fine, x)
    assert got.shape == (3, fine.M)
    assert np.array_equal(got[:, 1::2], x)
    m = fine.dt_ds

    def y(row, j):  # at the odd fine node j, the coarse node j // 2
        return 0.0 if j < 0 or j >= fine.M else row[j // 2] / math.sqrt(m[j])

    for i, row in enumerate(x):
        for j in range(0, fine.M, 2):
            want = 0.5 * (y(row, j - 1) + y(row, j + 1)) * math.sqrt(m[j])
            assert got[i, j] == pytest.approx(want, rel=1e-15, abs=0), (i, j)


@pytest.mark.parametrize("p, N, solves", [(400.0, 2, 18), (4.9999, 3, 24)])
def test_the_fine_rung_solves_twice_from_the_M_vectors(monkeypatch, capsys, p, N, solves):
    # per morse request: one gttrf per shift on M and on 2M+1; four gttrs
    # per shift on M from x = ones, two on 2M+1 from the prolonged M
    # vectors. Where the M grid falls back (next to the N = 3 critical
    # exponent) its vectors are not certified and 2M+1 starts cold
    counts = {"dgttrf": 0, "dgttrs": 0}
    for name in counts:
        def counted(*args, _real=getattr(spectral, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(spectral, name, counted)
    assert main(["morse", "--p", str(p), "--N", str(N)]) == cli.EXIT_OK
    capsys.readouterr()
    assert counts == {"dgttrf": 6, "dgttrs": solves}


def test_a_non_finite_start_costs_a_bisection(nodal, monkeypatch):
    # a start that is not finite fails the 2M+1 certificate: that grid is
    # bisected by index range, quietly, to the values it would have alone
    monkeypatch.setattr(spectral, "_prolonged",
                        lambda fine, x: np.full((len(x), fine.M), np.nan))
    sol = nodal(8.0)
    selects = record_selects(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ann = annulus_betas(sol)
    M = ann.M
    assert selects == {M // 4: ["i"], M: ["v"], 2 * M + 1: ["i"]}
    fine = build_problem(sol, ann.inner, 2 * M + 1)
    assert np.array_equal(ann.fine, weighted_radial_eigs(fine, 3))


# ---------------------------------------------------------------------------
# sphere spectrum


def homogeneous_dim_dp(n_vars: int, deg: int) -> int:
    """Monomial count by dynamic programming (no binomial formula)."""
    if deg < 0:
        return 0
    counts = [1] * (deg + 1)  # one variable
    for _ in range(n_vars - 1):
        acc = 0
        new = []
        for k in range(deg + 1):
            acc += counts[k]
            new.append(acc)
        counts = new
    return counts[deg]


def test_sphere_spectrum_exact_small():
    assert sphere_spectrum(2, 3) == [(0, 1), (1, 2), (4, 2), (9, 2)]
    assert sphere_spectrum(3, 2)[2] == (6, 5)
    assert sphere_spectrum(4, 1)[1] == (3, 4)


def test_sphere_spectrum_against_combinatorial_oracle():
    for N in range(2, 11):
        spec = sphere_spectrum(N, 50)
        for k, (lam, mult) in enumerate(spec):
            assert lam == k * (k + N - 2)
            assert mult == homogeneous_dim_dp(N, k) - homogeneous_dim_dp(N, k - 2)
            assert mult > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=40))
def test_sphere_multiplicity_recursion(N, k):
    # dim of degree-k spherical harmonics equals the trace dimension
    # difference of homogeneous polynomials in N variables
    lam, mult = sphere_spectrum(N, k)[k]
    assert lam - sphere_spectrum(N, k - 1)[k - 1][0] == 2 * k + N - 3
    assert mult == homogeneous_dim_dp(N, k) - homogeneous_dim_dp(N, k - 2)


# ---------------------------------------------------------------------------
# the Morse ledger


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=-35.9, max_value=-25.1),
    st.floats(min_value=-0.99, max_value=-0.01),
)
def test_ledger_arithmetic_window(b1, b2):
    # whenever beta_1 is in (-36, -25) and beta_2 in (-1, 0) the planar
    # ledger must read 1 + 1 + 2*5 = 12
    ledger = _assemble_ledger(2, [(1, b1), (2, b2)])
    assert sum(e.mult for e in ledger if e.contributes) == 12
    assert [e.mult for e in ledger if e.contributes] == [1, 1, 2, 2, 2, 2, 2]


def test_ledger_tie_handling():
    # a sum inside the tie window counts as nonnegative and is flagged
    ledger = _assemble_ledger(2, [(1, -26.0), (2, -1.0 + 1e-12)])
    assert sum(e.mult for e in ledger if e.contributes) == 12
    boundary = [e for e in ledger if e.boundary]
    assert len(boundary) == 1 and boundary[0].i == 2 and boundary[0].k == 1


def test_morse_report_moderate_p(nodal):
    rep = morse_index(nodal(5.0))
    assert rep.annulus.m_rad == 2
    assert rep.total >= rep.N + 2
    assert rep.stable


def test_morse_index_builds_each_grid_once(nodal, monkeypatch):
    # two annulus problems of one map, the M // 4 seed grid and the 2M+1
    # grid: f_p sampled once on each, beta_1..beta_3 by index range on M // 4
    # and by one rung each on M and 2M+1, with no fallback, two Sturm counts (the certificates of the inverse iteration on M and 2M+1; the
    # M grid's certified values give m_rad), three stebz calls in all (index
    # range on M // 4 and the two counts) and one tridiagonal assembly per
    # grid; only the 2M+1 grid starts from the M grid's vectors
    sol = nodal(5.0)
    grids, samples, scans, problems, diagonals, offdiagonals = [], [], [], [], [], []

    def counted(calls, fn, key=lambda *a, **kw: None):
        def wrapper(*args, **kwargs):
            calls.append(key(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "weighted_radial_eigs", counted(
        grids, spectral.weighted_radial_eigs,
        lambda prob, k, tol=None: (prob.inner, prob.M, k, "index range")))
    monkeypatch.setattr(spectral, "_rung", counted(
        grids, spectral._rung,
        lambda prob, near, starts=None: (prob.inner, prob.M, len(near), starts is not None)))
    monkeypatch.setattr(spectral, "fp_values", counted(
        samples, spectral.fp_values, lambda sol, r: np.size(r)))
    monkeypatch.setattr(spectral, "count_negative", counted(
        scans, spectral.count_negative, lambda prob, shift=0.0: (prob.inner, prob.M)))
    monkeypatch.setattr(spectral, "mapped_problem", counted(
        problems, spectral.mapped_problem, lambda gmap, N, M, potential: M))
    for log, name in ((diagonals, "diagonal"), (offdiagonals, "offdiagonal")):
        monkeypatch.setattr(AnnulusEigenProblem, name, counted(
            log, getattr(AnnulusEigenProblem, name), lambda prob: prob.M))
    calls = record_bisections(monkeypatch)
    rep = morse_index(sol)
    assert rep.stable
    inner, M = rep.annulus.inner, rep.annulus.M
    assert problems == samples == [M // 4, 2 * M + 1]
    assert grids == [(inner, M // 4, 3, "index range"), (inner, M, 3, False),
                     (inner, 2 * M + 1, 3, True)]
    assert scans == [(inner, M), (inner, 2 * M + 1)]
    assert calls == [("i", 3), ("v", 3), ("v", 3)]
    assert diagonals == offdiagonals == [M // 4, M, 2 * M + 1]


def test_a_morse_request_builds_the_dense_output_once(monkeypatch):
    # the event location, the residual check, the annulus sampling and the
    # Pruefer cells all read the one dense output of the trajectory, built
    # once for all steps; the loop builds a one-column one only on an
    # attempt across a zero of u for p < 2
    builds = []
    real = radial._dense_output
    monkeypatch.setattr(radial, "_dense_output",
                        lambda *a: builds.append(np.shape(a[4])[2]) or real(*a))
    sol = solve_nodal(400.0)
    rep = morse_index(sol)
    assert rep.total == 12 and builds == [len(sol._traj.h)] and builds[0] > 1


def test_a_prufer_disagreement_is_reported(nodal, monkeypatch):
    # a Pruefer count that differs from the ledger, in the total or in Z_0
    # alone (Z_0 + 2, Z_1 - 1 keeps the planar total), makes the report
    # unstable (exit 2); it is not resolved
    sol = nodal(5.0)
    honest = prufer_counts(sol)
    for doctored, totals in (([honest[0], honest[1] + 1] + honest[2:], (10, 12)),
                             ([honest[0] + 2, honest[1] - 1] + honest[2:], (10, 10))):
        monkeypatch.setattr(spectral, "prufer_counts", lambda sol, ledger=None, d=doctored: d)
        rep = morse_index(sol)
        assert rep.stable is False and rep.stability_totals == totals
        assert main(["morse", "--p", "5", "--out", os.devnull]) == EXIT_CHECK


def test_a_per_mode_disagreement_with_equal_totals_is_unstable(nodal, monkeypatch):
    # the ledger counts [2, 1, 1, 1, 1, 0] per mode at p = 5; a Pruefer vector
    # with the same total and the same Z_0 still disagrees on modes 3 and 4
    sol = nodal(5.0)
    monkeypatch.setattr(spectral, "prufer_counts", lambda sol, ledger=None: [2, 1, 1, 2, 0])
    rep = morse_index(sol)
    assert rep.stable is False and rep.stability_totals == (10, 10)
    assert main(["morse", "--p", "5", "--out", os.devnull]) == EXIT_CHECK


def test_a_thin_prufer_margin_is_an_error(nodal, monkeypatch):
    # theta_0(1)/pi moved to 1e-9 above an integer on the unsplit cells: the
    # 2-fold split moves it by far more, so the count is not trusted
    sol = nodal(5.0)
    real = spectral.prufer_angles

    def doctored(z, cells):
        theta, split = real(z, cells)
        # N = 2: the k = 0 walk starts from y'/y = alpha = 0
        return [math.floor(theta) + 1e-9, split] if z == 0.0 else [theta, split]

    monkeypatch.setattr(spectral, "prufer_angles", doctored)
    with pytest.raises(SolverError, match=r"Pruefer margin 1\.000e-09 of sphere mode k=0"):
        morse_index(sol)


def test_a_non_finite_prufer_angle_names_the_mode(nodal, monkeypatch):
    # one nan in f_p reaches the angle of every walked mode; the first, k = 0,
    # is named before its integer part is taken
    sol = nodal(5.0)
    real = radial.RadialSolution.fp_cells

    def poisoned(self):
        (h, f), *rest = real(self)
        f = f.copy()
        f[len(f) // 2] = np.nan
        return [(h, f), *rest]

    monkeypatch.setattr(radial.RadialSolution, "fp_cells", poisoned)
    with pytest.raises(SolverError, match="Pruefer angle of sphere mode k=0 is not finite"):
        prufer_counts(sol)


def test_a_lost_radial_eigenvalue_names_both_counts(nodal):
    # at p = 1.25 the rule's annulus (inner 0.0216) misses the second radial
    # eigenvalue; the Pruefer count on the whole ball finds both
    with pytest.raises(SolverError, match="found 1 on the annulus .* and 2 by Pruefer count"):
        morse_index(nodal(1.25))
    assert prufer_counts(nodal(1.25)) == [2, 1, 1, 0]


def test_the_series_region_cells_carry_theta0_at_p_1_25(nodal):
    # the shooting steps start at the series radius 1.09 (before the rescale),
    # below which f_p still reaches about 1.3 at p = 1.25: the cells there
    # keep theta_0(1)/pi at 2.0396, and without them it falls to 1.993, one
    # zero short of m_rad = 2
    sol = nodal(1.25)
    cells = sol.fp_cells()
    assert prufer_angles(0.0, cells) == pytest.approx([2.039584] * 2, abs=5e-6)
    # below the first node the cells are no wider than _SERIES_CELL, a cell
    # of width h has h^2 f_p <= 1e-4 e^h, and they start where f_p <= eps;
    # from the first node on each step is cut into _CELLS_PER_STEP cells
    n = (len(sol._traj.rho) - 1) * radial._CELLS_PER_STEP
    for (h, f), split in zip(cells, (1, 2)):
        below = slice(0, len(h) - n * split)
        assert np.all(h[below] <= radial._SERIES_CELL / split * (1 + 1e-12))
        assert np.sum(h) == pytest.approx(sol._traj.rho[-1] - 0.5 * math.log(2.0**-52 / 1.25))
    h, f = cells[0]
    assert np.all(h[:-n] ** 2 * f[:-n] <= 1e-4 * np.exp(h[:-n]))
    steps = [(h[len(h) - n * split:], f[len(f) - n * split:]) for (h, f), split in zip(cells, (1, 2))]
    assert prufer_angles(0.0, steps) == pytest.approx([1.99283] * 2, abs=1e-5)


def test_prufer_angle_is_exact_for_a_constant_coefficient():
    # y'' + c y = 0 from y'/y = z over length L has the closed form, whatever
    # the cells: one cell of omega L = 10.3 is cut into pieces below pi. The
    # three cell sets are walked by one solve
    L, z = 3.0, 0.7
    for c in (10.3**2 / L**2, 0.0, -4.0):
        w = math.sqrt(abs(c))
        if c > 0:  # y = cos(w t) + (z / w) sin(w t); zeros by the scaled angle
            y = math.cos(w * L) + z / w * math.sin(w * L)
            dy = z * math.cos(w * L) - w * math.sin(w * L)
            zeros = math.floor((math.atan2(1.0, z / w) + w * L) / math.pi)
            theta = zeros + math.atan2(1.0, dy / y) / math.pi
        elif c == 0:  # y = 1 + z t, no zero
            theta = math.atan2(1.0, z / (1.0 + z * L)) / math.pi
        else:  # y = cosh(w t) + (z / w) sinh(w t), no zero
            zL = w * (w * math.tanh(w * L) + z) / (w + z * math.tanh(w * L))
            theta = math.atan2(1.0, zL) / math.pi
        got = prufer_angles(z, [(np.full(n, L / n), np.full(n, c)) for n in (1, 7, 100)])
        assert got == pytest.approx([theta] * 3, abs=1e-12), c


@pytest.mark.parametrize("z, widths, theta", [
    # y = 1 - 2t is 0 on the cell end t = 1/2 and -1 at t = 1: one zero. A
    # bare y[i] y[i-1] < 0 count sees none and gives 0.1476
    (-2.0, [0.5, 0.5], 1.1475836176504333),
    # y = 1 - t is 0 at the end t = 1: no zero inside, theta = pi
    (-1.0, [1.0], 1.0),
    (-1.0, [0.5, 0.5], 1.0),
])
def test_a_zero_on_a_cell_end_takes_the_sign_before_it(z, widths, theta):
    h = np.array(widths)
    assert prufer_angles(z, [(h, np.zeros_like(h))]) == [theta]
    assert loop_prufer_angle(z, h, np.zeros_like(h)) == theta


def loop_prufer_angle(z, h, c):
    """theta / pi at the end of y'' + c y = 0 from y'/y = z: the per-cell
    reference walk of z = y'/y.

    Each cell maps z in closed form, z -> (g + a z) / (a + b z) with
    denominator y(end) / y(start) (divided by cosh where c <= 0); a negative
    one is one zero, once cells with sqrt(c) h >= pi are cut below pi.
    """
    w = np.sqrt(np.abs(c))
    pieces = np.where(c > 0, w * h // np.pi + 1, 1).astype(int)
    h, c, w = (np.repeat(x, pieces) for x in (h / pieces, c, w))
    osc = c > 0
    a = np.where(osc, np.cos(w * h), 1.0)
    s = np.where(osc, np.sin(w * h), np.tanh(w * h))
    b = np.divide(s, w, out=h.copy(), where=w > 0)
    g = np.where(osc, -w * s, w * s)
    zeros = 0
    for ai, bi, gi in zip(a.tolist(), b.tolist(), g.tolist()):
        # a zero exactly on a cell end is counted in the next cell
        den = ai + bi * z or 1e-300
        if den < 0:
            zeros += 1
        z = (gi + ai * z) / den
    return zeros + math.atan2(1.0, z) / math.pi


@pytest.mark.parametrize("p, N", [(1.3, 2), (8.0, 2), (14.0, 2), (400.0, 2), (760.0, 2),
                                  (1.5, 3), (3.3, 3), (4.9999, 3), (2.9, 4), (1.5, 6)])
def test_the_banded_walk_is_the_per_cell_walk(nodal, p, N):
    # every (mode, split) that prufer_counts walks: the same zero count and
    # end angle as the per-cell reference, up to the order of the rounding
    sol = nodal(p, N)
    cells = sol.fp_cells()
    walked = 0
    for k in range(len(prufer_counts(sol))):
        s = 0.5 * (N - 2) + k
        if k == 1 or s * s >= max(sol.max_plus, sol.max_minus):
            continue
        walked += 1
        got = prufer_angles(s, [(h, f - s * s) for h, f in cells])
        want = [loop_prufer_angle(s, h, f - s * s) for h, f in cells]
        assert [math.floor(x) for x in got] == [math.floor(x) for x in want], k
        assert got == pytest.approx(want, rel=0, abs=1e-11), k
    assert walked


def where_cell_maps(h, c):
    """`_cell_maps` as it was with every transcendental on every cell and
    np.where picking one: the reference of the masked version."""
    w = np.sqrt(np.abs(c))
    pieces = np.where(c > 0, w * h // np.pi + 1, 1).astype(int)
    h, c, w = (np.repeat(x, pieces) for x in (h / pieces, c, w))
    osc, wh = c > 0, w * h
    t = np.tanh(wh)
    scale = np.where(osc, 1.0, 1.0 / (1.0 + t))
    s = np.where(osc, np.sin(wh), t) * scale
    b = np.divide(s, w, out=h * scale, where=w > 0)
    return np.where(osc, np.cos(wh), scale), b, np.where(osc, -w, w) * s


@pytest.mark.parametrize("p, N", BAND_ENDS + [(400.0, 2)])
def test_the_cell_maps_are_the_where_maps(nodal, p, N):
    # bit for bit on the cells of every mode that prufer_counts walks, on
    # cells with c == 0 exactly and on cells cut into pieces
    sol = nodal(p, N)
    sets = [(h, f - s * s) for h, f in sol.fp_cells()
            for s in 0.5 * (N - 2) + np.arange(len(prufer_counts(sol)))]
    h = np.array([0.1, 0.5, 2.0, 0.3, 0.25, 1.0, 0.2])
    c = np.array([0.0, 100.0, 30.0, -0.0, -4.0, 0.0, 1e4])
    sets += [(h, c), (h[[0, 3, 5]], c[[0, 3, 5]])]
    for h, c in sets:
        got, want = spectral._cell_maps(h, c), where_cell_maps(h, c)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(got[0]) == 3 and len(spectral._cell_maps(*sets[-2])[0]) == 1 + 2 + 4 + 3 + 7


def test_the_band_residual_is_exact_to_its_rounding():
    # the refinement step's residual, against rational arithmetic, where it
    # is pure rounding: x is the substitution's own solution
    from fractions import Fraction
    from scipy.linalg.blas import dtbsv

    rng = np.random.default_rng(5)
    n = 60
    band = np.zeros((4, n))
    for d in (1, 2, 3):
        band[d, :-d] = rng.uniform(-2.0, 2.0, n - d)
    rhs = rng.uniform(-1.0, 1.0, n)
    x = dtbsv(3, band, rhs, lower=1, diag=1)
    got = spectral._band_residual(band, x, rhs)
    for i in range(n):
        exact = Fraction(rhs[i]) - Fraction(x[i]) - sum(
            Fraction(band[d, i - d]) * Fraction(x[i - d]) for d in (1, 2, 3) if i >= d)
        assert abs(Fraction(got[i]) - exact) <= Fraction(math.ulp(float(exact))) + 1e-30
    assert np.count_nonzero(got) > n // 2


@pytest.mark.parametrize("p, N, refined", [(4.9999, 3, [0]), (400.0, 2, []), (2.5, 3, [])])
def test_only_a_shrinking_walk_is_refined(nodal, monkeypatch, p, N, refined):
    # next to the N = 3 critical exponent mode 0 follows the recessive
    # solution and is refined; the benchmark bands' walks shrink by at most 6
    sol = nodal(p, N)
    cells = sol.fp_cells()
    modes = len(prufer_counts(sol))
    calls = []
    real = spectral._band_residual
    monkeypatch.setattr(spectral, "_band_residual",
                        lambda *args: calls.append(k) or real(*args))
    for k in range(modes):
        s = 0.5 * (N - 2) + k
        if k != 1 and s * s < max(sol.max_plus, sol.max_minus):
            prufer_angles(s, [(h, f - s * s) for h, f in cells])
    assert calls == refined


# the Sturm count `count_negative`, which certifies the seeds and takes m_rad,
# against bisected values: on nested (M, 2M+1) pairs it decides every ledger
# entry (i, k) by one count on the finer grid, and the total must be the
# value ledger's
COUNT_CASES = [(2.0, 2), (5.0, 2), (50.0, 2), (400.0, 2), (2.5, 3), (2.9, 4), (1.5, 3)]
COUNT_GRIDS = [3, 5, 8, 12, 20, 40, 80, 200]


def ledger_K(rep):
    """Number of contributing modes of beta_1 and beta_2 on the ledger."""
    return [sum(e.contributes for e in rep.ledger if e.i == i) for i in (1, 2)]


@pytest.fixture(scope="module")
def main_reports(nodal):
    cache = {}

    def get(p, N):
        if (p, N) not in cache:
            cache[(p, N)] = morse_index(nodal(p, N))
        return cache[(p, N)]

    return get


def counted_total(N, fine, coarse, start):
    """Ledger total of the pair (coarse values, fine grid), by Sturm counts.

    Entry (i, k) contributes when (4 f_i - c_i)/3 + lambda_k < -1e-7, f_i the
    i-th eigenvalue of `fine`: when `fine` has at least i eigenvalues below
    tau = (c_i - 3 (lambda_k + 1e-7)) / 4. tau falls as k grows, so beta_i
    contributes for k < K_i; the walk starts at K_i = start[i-1].
    """
    def contributes(i, k):
        tau = (coarse[i - 1] - 3.0 * (k * (k + N - 2) + spectral.LEDGER_TIE_EPS)) / 4.0
        return count_negative(fine, tau) >= i

    total = 0
    for i, K in enumerate(start, start=1):
        while K > 0 and not contributes(i, K - 1):
            K -= 1
        while contributes(i, K):
            K += 1
        total += sum(spectral.sphere_mode_multiplicity(N, k) for k in range(K))
    return total


def counted_and_reference(sol, inner, M, start):
    """(counted total, value-based total) of the nested (M, 2M+1) pair."""
    fine = build_problem(sol, inner, 2 * M + 1)
    coarse = weighted_radial_eigs(fine.coarsened(), 2)
    betas = (4.0 * weighted_radial_eigs(fine, 2) - coarse) / 3.0
    ledger = _assemble_ledger(sol.N, [(1, float(betas[0])), (2, float(betas[1]))])
    reference = sum(e.mult for e in ledger if e.contributes)
    return counted_total(sol.N, fine, coarse, start), reference


@pytest.mark.parametrize("start", ["ledger", "zero", "nine"])
@pytest.mark.parametrize("M", COUNT_GRIDS)
@pytest.mark.parametrize("p, N", COUNT_CASES)
def test_counted_total_matches_the_value_ledger(nodal, main_reports, p, N, M, start):
    # coarse grids move beta_i far from the main values, so the walk meets
    # totals above and below the main one, from starts near and far
    rep = main_reports(p, N)
    K = {"ledger": ledger_K(rep), "zero": [0, 0], "nine": [9, 9]}[start]
    counted, reference = counted_and_reference(nodal(p, N), rep.annulus.inner, M, K)
    assert counted == reference


def test_counted_total_follows_a_moved_ledger(nodal, main_reports):
    # at p = 400 the M = 20 pair moves beta_1 to about -42: total 16, not 12
    rep = main_reports(400.0, 2)
    counted, reference = counted_and_reference(nodal(400.0), rep.annulus.inner, 20,
                                               ledger_K(rep))
    assert counted == reference == 16 != rep.total


# the Pruefer counts against the ledger: COUNT_CASES, points across both
# sweep bands (N = 2, p in [4, 14]; N = 3, p in [1.5, 3.3]) and the morse
# band (N = 2, p in [380, 420])
PRUFER_CASES = [(4.0, 2), (9.0, 2), (14.0, 2), (1.8, 3), (3.3, 3), (380.0, 2), (420.0, 2)]


@pytest.mark.parametrize("p, N", COUNT_CASES + PRUFER_CASES)
def test_prufer_total_is_the_ledger_total(nodal, main_reports, p, N):
    rep = main_reports(p, N)
    counts = prufer_counts(nodal(p, N))
    assert counts[0] == rep.annulus.m_rad == 2 and counts[-1] == 0
    assert rep.stability_totals == (rep.total, rep.total) and rep.stable
    ledger_counts = [sum(e.contributes for e in rep.ledger if e.k == k)
                     for k in range(len(counts))]
    assert counts == ledger_counts


def test_morse_report_three_dimensional(nodal):
    # the decomposition machinery is dimension-generic: lambda_k = k(k+1)
    # with multiplicities 2k+1 on the two-sphere
    rep = morse_index(nodal(3.0, N=3))
    assert rep.annulus.m_rad == 2
    assert rep.total >= 5  # N + 2
    assert all(e.mult == 2 * e.k + 1 for e in rep.ledger)


def test_morse_report_p400(nodal):
    rep = morse_index(nodal(400.0))
    assert rep.total == 12
    assert rep.contributions == [1, 1, 2, 2, 2, 2, 2]
    assert rep.annulus.m_rad == 2
    assert -36.0 < rep.annulus.betas[0] < -25.0
    assert rep.stable
    assert rep.stability_totals == (12, 12)


def test_morse_index_p400_matches_anchors(nodal):
    rep = morse_index(nodal(400.0))
    got = tuple(float(b) for b in rep.annulus.betas)
    for value, anchor, tol in zip(got, P400_BETAS, (5e-8, 5e-9, 5e-8)):
        assert abs(value - anchor) <= tol, (value, anchor)
    assert rep.total == 12
    assert rep.stability_totals == (12, 12)


def test_morse_index_p400_bisects_few_rows(nodal, monkeypatch):
    # the graded (M, 2M+1) pair has fewer than 13k rows (the uniform grids
    # of 116811 nodes passed about 1.17M); only the M // 4 seed grid is
    # bisected by index range, M and 2M+1 in value brackets only (their
    # certificates and the negative count)
    selects = record_selects(monkeypatch)
    rep = morse_index(nodal(400.0))
    assert rep.total == 12
    M = rep.annulus.M
    assert sorted(selects) == [M // 4, M, 2 * M + 1] and M < 4_300, selects
    assert [set(selects[rows]) for rows in sorted(selects)] == [{"i"}, {"v"}, {"v"}]


@pytest.mark.parametrize("p, N", [(1.5, 2), (8.0, 2), (400.0, 2), (4.9, 3), (2.9, 4)])
def test_k1_ledger_row_is_the_sturm_count(nodal, p, N):
    # u' vanishes once in (0, 1), at s_p, so exactly one k = 1 pair
    # contributes, whichever side of the tie window beta_2 + (N-1) falls
    sol = nodal(p, N)
    assert [math.exp(rho) / sol.lam for rho in sol._traj.critical[:, 0]] == pytest.approx(
        [sol.s_p], rel=1e-15)
    rep = morse_index(sol)
    assert [e.i for e in rep.ledger if e.k == 1 and e.contributes] == [1]


@pytest.mark.parametrize("edit", ["extra", "missing"])
def test_morse_index_rejects_a_wrong_sturm_count(nodal, monkeypatch, edit):
    # Z_1 is the zero count of u': one other than the ledger's k = 1 row is a
    # per-mode disagreement like any other, reported unstable (exit 2)
    count, prufer_total = (2, 14) if edit == "extra" else (0, 2)
    bad = dataclasses.replace(nodal(50.0), du_zeros=count)
    rep = morse_index(bad)
    assert rep.stable is False and rep.stability_totals == (12, prufer_total)
    monkeypatch.setattr(cli, "solve_nodal", lambda p, N: bad)
    assert main(["morse", "--p", "50", "--out", os.devnull]) == EXIT_CHECK


# the run-end walk of prufer_counts: two walked modes with one count settle
# every mode between them
@pytest.mark.parametrize("p, N, walked", [(400.0, 2, [0, 5, 6]), (14.0, 2, [0, 4, 5]),
                                          (2.5, 3, [0, 2, 3])])
def test_a_morse_request_walks_the_run_ends(nodal, monkeypatch, p, N, walked):
    # the ledger counts [2, 1, 1, 1, 1, 1, 0] at p = 400 run 0, 1..5 and 6:
    # Z_1 = du_zeros costs no walk and Z_5 = Z_1 settles modes 2 to 4 (the
    # walk of every mode took 6 walks there, 5 at p = 14 and 3 at (2.5, 3))
    modes = []
    real = spectral.prufer_angles
    monkeypatch.setattr(spectral, "prufer_angles",
                        lambda z, cells: modes.append(z - 0.5 * (N - 2)) or real(z, cells))
    rep = morse_index(nodal(p, N))
    assert rep.stable and modes == walked


def test_a_run_whose_ends_differ_is_walked_inside(nodal, monkeypatch):
    # Z_1 = 2 against Z_5 = 1: modes 2 to 4 are walked, in order, and the
    # counts are those of the walk of every mode
    bad = dataclasses.replace(nodal(50.0), du_zeros=2)
    modes = []
    real = spectral.prufer_angles
    monkeypatch.setattr(spectral, "prufer_angles",
                        lambda z, cells: modes.append(z) or real(z, cells))
    counts = prufer_counts(bad, [2, 1, 1, 1, 1, 1, 0])
    assert counts == prufer_counts(bad) == [2, 2, 1, 1, 1, 1, 0]
    assert modes[:6] == [0, 5, 2, 3, 4, 6]


def outcome(fn):
    """fn()'s value, or the type and message of the SolverError it raises."""
    try:
        return fn()
    except SolverError as exc:
        return type(exc).__name__, str(exc)


def report(sol):
    """(total, stable, stability_totals, m_rad) of morse_index(sol), or its error."""
    def run():
        rep = morse_index(sol)
        return rep.total, rep.stable, rep.stability_totals, rep.annulus.m_rad
    return outcome(run)


def assert_run_ends_are_every_mode(sol, monkeypatch):
    """morse_index(sol) reports what it did with every mode walked and m_rad
    by the Sturm count, and each ledger walk it made gives the counts, or
    the error, of the walk of every mode. Returns the report."""
    real = spectral.prufer_counts
    ledgers = []
    with monkeypatch.context() as m:
        m.setattr(spectral, "prufer_counts",
                  lambda sol, ledger=None: ledgers.append(ledger) or real(sol, ledger))
        got = report(sol)
    for ledger in ledgers:
        assert outcome(lambda: real(sol, ledger)) == outcome(lambda: real(sol)), ledger
    with monkeypatch.context() as m:
        m.setattr(spectral, "prufer_counts", lambda sol, ledger=None: real(sol))
        m.setattr(spectral, "_negative_count", lambda prob, rho, delta: count_negative(prob))
        assert got == report(sol)
    return got


# the exponents where m(u_p) changes (Brent on the annulus beta_1, see the
# ROADMAP finding), each with a band on one side where the report is
# unstable or a theta margin is thin
TRANSITIONS = [(1.668415446, 2), (3.452117867, 2), (30.179607217, 2),
               (3.704562227, 3), (2.241103642, 4), (1.767142246, 5)]


@pytest.mark.parametrize("p, N", TRANSITIONS)
def test_the_run_ends_confirm_what_every_mode_does_next_to_a_transition(
        nodal, monkeypatch, p, N):
    # at relative offsets of +-1e-7, 1e-5, 1e-4 and 1e-3: stable and
    # unstable reports and theta-margin SolverErrors, all as before
    reports = [assert_run_ends_are_every_mode(nodal(p * (1 + s * o), N), monkeypatch)
               for o in (1e-7, 1e-5, 1e-4, 1e-3) for s in (-1, 1)]
    assert any(r[1] is True for r in reports)
    assert any(r[0] == "SolverError" or r[1] is False for r in reports)


@pytest.mark.parametrize("p, N", BAND_ENDS)
def test_the_run_ends_confirm_what_every_mode_does_at_the_band_ends(nodal, monkeypatch, p, N):
    assert assert_run_ends_are_every_mode(nodal(p, N), monkeypatch)[1] is True
