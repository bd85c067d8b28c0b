"""Weighted annulus eigenproblems, negative-eigenvalue counts, Morse ledger.

The |x|^2-weighted radial operator on the annulus (a, 1),

    r^2 ( -v'' - (N-1) v'/r - q(r) v ) = beta v,    q = p |u_p|^(p-1),

turns, under t = ln r and w = r^((N-2)/2) v, into the Dirichlet Schroedinger
problem on (ln a, 0):

    -w'' + (alpha^2 - f(t)) w = beta w,     alpha = (N-2)/2,

with f(t) = q(e^t) e^(2t) = f_p(e^t) and *unit* mass: the 1/|x|^2 weight is
absorbed exactly.

The two bumps of f_p sit at t = ln c_p and ln d_p (radii as small as
e^(-0.45 p)) and have O(1) width in t, while f_p is negligible on most of
(ln a, 0) at large p. The grid is therefore graded: t = phi(s) with s
uniform on [0, 1] and node density (nodes per unit of t)

    g(t) = G_FREE + G_BUMP * sum_c sech^2((t - t_c) / BUMP_WIDTH),

t_c = ln c_p, ln d_p read off the shooting events. S(t) = int g has a closed
form (tanh), which is inverted by table lookup and Newton steps; the table
is built once per map, for all of its grids. The default grid has
M = ceil(int g dt) interior nodes. With s_i = i k, k = 1/(M+1),
m_i = phi'(s_i) and a = 1/phi' at the half nodes, the conservative
second-order scheme, symmetrized by the mass weights m_i, is the tridiagonal

    diag_i = (a_(i-1/2) + a_(i+1/2)) / (k^2 m_i) + alpha^2 - q_i,
    off_i  = -a_(i+1/2) / (k^2 sqrt(m_i m_(i+1))),

which for a constant phi' is the plain second difference on a uniform grid.

Refinement M -> 2M+1 halves k exactly and keeps every node, so f_p is
sampled once for the pair, on the 2M+1 grid (`AnnulusEigenProblem.coarsened`).
Every command solves the annulus by one call, `annulus_betas`, which also
applies the inner-radius and grid rules, checks their limits and takes the
Richardson combination. It builds the annulus' map and climbs a ladder of
three of its grids. A seed grid of max(3, M // 4) nodes, sampled on its own,
is bisected by LAPACK (stebz, through SciPy) from the whole spectrum
(`weighted_radial_eigs`), to the seeding tolerance SEED_TOL; no larger grid
is. Each rung (`_rung`) takes the M grid's eigenvalues by shifted inverse
iteration from the seed grid's values sigma, and the 2M+1 grid's from the M
grid's: T - sigma I is factored once (LAPACK gttrf) and solved,
(T - sigma I) x = x_prev (gttrs), four times from x = ones on M and twice on
2M+1 from the M grid's vector, prolonged to the nested grid (`_prolonged`);
then the Rayleigh quotient rho = x^T T x lies within
delta = |T x - rho x| + 4 eps |T| of an eigenvalue (at most 2.5e-9 on the
default grids, nearly all of it the rounding term). The rung certifies its
values (each delta at most RADIUS_BOUND, the intervals rho +- delta
disjoint, no other eigenvalue below the top one) or bisects the whole
spectrum, so every M and 2M+1 value comes with its radius. Only certified M
vectors start the 2M+1 grid; after an M fallback it solves four times from
x = ones. Every eigenvalue count is the one Sturm count `count_negative`
(stebz with a tolerance as wide as its interval): the two certificates, and
the negative count m_rad of the M grid only where its certified values do
not settle it. Where the top interval lies above 0 and none holds 0, m_rad
is the number of intervals below 0.

The ledger is confirmed mode by mode without a matrix (`prufer_counts`):
sphere mode k has as many negative eigenvalues as its regular solution of
y'' + (f - (alpha+k)^2) y = 0 has zeros in (0, 1), counted by the Pruefer
angle on cells of the shooting steps (`RadialSolution.fp_cells`); k = 1
takes the zeros of u'. The report is stable when these per-mode counts
equal the ledger's. Z_k does not increase with k, so only the ends of each
run of modes with equal ledger counts are walked; a mode inside a run whose
ends agree takes their count, without a margin check of its own. Each cell
maps (y', y) linearly, so one mode's walks over the cells and over their
2-fold split are one lower-banded forward substitution (BLAS tbsv). That
walk, `prufer_angles`, is public: `limits` counts the eigenvalues of the
limit problems on the line with it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import BisectionError, ConfigError, SolverError
from .profile import fp_values, scales
from .radial import RadialSolution

__all__ = [
    "AnnulusEigenProblem",
    "MorseReport",
    "LedgerEntry",
    "LogGridMap",
    "mapped_problem",
    "build_problem",
    "count_negative",
    "weighted_radial_eigs",
    "AnnulusBetas",
    "annulus_betas",
    "sphere_spectrum",
    "sphere_mode_multiplicity",
    "morse_index",
    "prufer_counts",
    "prufer_angles",
    "auto_inner_radius",
    "auto_grid_size",
]

# node density of the graded log grid, in nodes per unit of t = ln r: a floor
# G_FREE everywhere plus G_BUMP * sech^2((t - t_c) / BUMP_WIDTH) around each
# maximizer of f_p. Sized so that the extrapolated betas agree with those of
# a uniform grid of 320 nodes per unit of t to ~2e-8 for p from 2.5 to 760
# (~1e-4 at p = 1.5, where |u|^(p-1) is not smooth at r_p)
G_FREE = 3.0
G_BUMP = 200.0
BUMP_WIDTH = 4.0
# Newton steps on S(t) = target from the table lookup: the lookup leaves t
# about 2e-4 off, the first step 9e-9, and the second leaves only the
# rounding of S (at most 2.9e-13 in t for p up to 760), which a third step
# does not reduce
_NEWTON_STEPS = 2
_TABLE_STEP = 1.0 / 16.0   # t spacing of the lookup table seeding Newton

# |beta_i + lambda_k| below this is sub-discretization noise; such sums are
# counted as nonnegative (the continuum bound beta_2 > -(N-1) settles the
# only case that ever lands here) and flagged on the ledger entry.
LEDGER_TIE_EPS = 1e-7

# absolute tolerance of the LAPACK bisection
BISECT_TOL = 1e-14
# absolute tolerance of the seed grid's bisection: its values only seed the
# M grid's inverse iteration, from about 3.3e-2 times as far from their M
# eigenvalue as from any other, which no tolerance this fine changes
SEED_TOL = 1e-6
# largest certified radius of an M or 2M+1 value: Richardson moves beta by
# at most 4/3 of it (1.3e-8), under LEDGER_TIE_EPS. The default grids give at
# most 1.0e-9 on M and 2.5e-9 on 2M+1 (p from 1.25 to 760, N = 2..6), nearly
# all of it rounding
RADIUS_BOUND = 1e-8
# shifted solves per seed in the inverse iteration from x = ones. On the
# default grids (p from 1.25 to 760, N = 2..6) a seed from the M // 4 grid
# lies at most 3.3e-2 times as far from its M-grid eigenvalue as from any
# other. The third solve leaves a residual of up to 2.7e-8 on M, above
# RADIUS_BOUND; the fourth at most 8.9e-10, against a 4 eps |T| term of
# 1.5e-10 to 2.3e-9
_INVERSE_STEPS = 4
# shifted solves per seed on 2M+1, from the certified M vector prolonged to
# it. An M value lies at most 1.3e-3 times as far from its 2M+1 eigenvalue
# as from any other, and the start is already close: one solve leaves a
# residual of up to 5.0e-8 (p = 1.25, N = 5), above RADIUS_BOUND; the second
# at most 2.6e-10
_WARM_STEPS = 2


@dataclass(frozen=True)
class LogGridMap:
    """The graded map t = phi(s) of s in [0, 1] onto [t0, 0], t0 = ln(inner).

    centres are the bump centres t_c; `total` is int g dt over [t0, 0].
    """

    inner: float
    centres: tuple[float, ...]

    @property
    def t0(self) -> float:
        return math.log(self.inner)

    def _primitive_density(self, t):
        """(S(t), g(t)), S an antiderivative of g, from one tanh per centre:
        sech^2 = 1 - tanh^2. In place, in the order of G_FREE t + G_BUMP
        BUMP_WIDTH sum(tanh) and G_FREE + G_BUMP sum(1 - tanh^2)."""
        t = np.asarray(t, dtype=float)
        S, g, x = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
        for c in self.centres:
            np.subtract(t, c, out=x)
            x /= BUMP_WIDTH
            np.tanh(x, out=x)
            S += x
            x *= x
            np.subtract(1.0, x, out=x)
            g += x
        S *= G_BUMP * BUMP_WIDTH
        S += G_FREE * t
        g *= G_BUMP
        g += G_FREE
        return S, g

    @property
    def total(self) -> float:
        S = self._primitive_density(np.array([self.t0, 0.0]))[0]
        return float(S[1] - S[0])

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, S(t)) on the lookup nodes, _TABLE_STEP apart on [t0, 0]: built
        once per map, for all of its grids."""
        t0 = self.t0
        table = np.linspace(t0, 0.0, max(2, math.ceil(-t0 / _TABLE_STEP) + 1))
        return table, self._primitive_density(table)[0]

    def __call__(self, s) -> tuple[np.ndarray, np.ndarray]:
        """(phi(s), phi'(s)) for s in [0, 1]."""
        s = np.asarray(s, dtype=float)
        t0 = self.t0
        table, G = self._table
        target = G[0] + s * (G[-1] - G[0])
        t = np.interp(target, G, table)
        S, g = self._primitive_density(t)
        for _ in range(_NEWTON_STEPS):
            t = np.clip(t - (S - target) / g, t0, 0.0)
            S, g = self._primitive_density(t)
        return t, (G[-1] - G[0]) / g


def _grid_map(sol: RadialSolution, inner: float) -> LogGridMap:
    """The graded map of the annulus (inner, 1), centred on the f_p maxima."""
    return LogGridMap(inner=inner, centres=(math.log(sol.c_p), math.log(sol.d_p)))


@dataclass
class AnnulusEigenProblem:
    """Discretized radial operator on the annulus (inner, 1) in log variable.

    q holds the potential samples f_p(e^t) on the interior nodes t_nodes =
    phi(i k), k = 1/(M+1), of a mapped grid on (ln inner, 0); dt_ds holds
    phi' on those nodes (the mass weights) and dt_ds_half on the M+1 half
    nodes (i + 1/2) k, i = 0..M. alpha = (N-2)/2 is the symmetrization shift.
    """

    inner: float
    M: int
    t_nodes: np.ndarray
    q: np.ndarray
    alpha: float
    dt_ds: np.ndarray
    dt_ds_half: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.inner < 1.0):
            raise ConfigError("inner radius must lie in (0, 1)")
        if self.M < 2:
            raise ConfigError("need at least two interior grid points")
        if not np.all((self.q >= 0) & (self.q < math.inf)):
            raise ConfigError("potential samples must be finite and nonnegative")

    @property
    def k(self) -> float:
        """Step in the uniform variable s."""
        return 1.0 / (self.M + 1)

    def diagonal(self) -> np.ndarray:
        a = 1.0 / self.dt_ds_half
        return ((a[:-1] + a[1:]) / (self.k**2 * self.dt_ds)
                + self.alpha**2 - self.q)

    def offdiagonal(self) -> np.ndarray:
        a = 1.0 / self.dt_ds_half
        return -a[1:-1] / (self.k**2 * np.sqrt(self.dt_ds[:-1] * self.dt_ds[1:]))

    @functools.cached_property
    def _tridiagonal(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(diagonal, off-diagonal, Sturm floor of `count_negative`); built once."""
        floor = self.alpha**2 - float(np.max(self.q)) - 1.0
        return self.diagonal(), self.offdiagonal(), floor

    def coarsened(self) -> AnnulusEigenProblem:
        """The same problem on every second node: M = 2 M_c + 1 -> M_c.

        The coarse half nodes are the odd fine nodes, so nothing is
        re-evaluated.
        """
        if self.M % 2 == 0 or self.M < 5:
            raise ConfigError(f"an {self.M}-node grid has no nested coarse grid")
        return AnnulusEigenProblem(
            inner=self.inner, M=(self.M - 1) // 2,
            t_nodes=self.t_nodes[1::2], q=self.q[1::2], alpha=self.alpha,
            dt_ds=self.dt_ds[1::2], dt_ds_half=self.dt_ds[0::2],
        )


def _prolonged(fine: AnnulusEigenProblem, x: np.ndarray) -> np.ndarray:
    """Rows of x on the nodes of fine.coarsened(), carried to the nodes of fine.

    The coarse nodes are the odd fine nodes, where x is kept. Each even fine
    node takes the mean of its neighbours in y = x / sqrt(phi'), the function
    values of the symmetrized vector, y being 0 beyond both Dirichlet ends,
    and is scaled back by sqrt(phi').
    """
    root = np.sqrt(fine.dt_ds)
    y = np.zeros((x.shape[0], x.shape[1] + 2))
    y[:, 1:-1] = x / root[1::2]
    out = np.empty((x.shape[0], fine.M))
    out[:, 1::2] = x
    out[:, 0::2] = 0.5 * (y[:, :-1] + y[:, 1:]) * root[0::2]
    return out


def mapped_problem(gmap: LogGridMap, N: int, M: int, potential) -> AnnulusEigenProblem:
    """The annulus problem on the M-node grid of gmap.

    potential(t) gives f at the nodes t; it is called once.
    """
    # nodes and half nodes interleaved: s = j / (2 (M+1)), j = 1..2M+1
    t, dt_ds = gmap(np.arange(1, 2 * M + 2) / (2.0 * (M + 1)))
    t_nodes = t[1::2]
    return AnnulusEigenProblem(
        inner=gmap.inner, M=M, t_nodes=t_nodes, q=potential(t_nodes),
        alpha=0.5 * (N - 2), dt_ds=dt_ds[1::2], dt_ds_half=dt_ds[0::2],
    )


def build_problem(sol: RadialSolution, inner: float, M: int) -> AnnulusEigenProblem:
    """Assemble the annulus eigenproblem on the graded M-node grid.

    The annulus must leave the whole negative nodal region inside, hence
    inner < r_p.
    """
    if not (0.0 < inner < sol.r_p):
        raise ConfigError(
            f"inner radius {inner:.3e} must lie in (0, r_p={sol.r_p:.3e})"
        )
    return mapped_problem(_grid_map(sol, inner), sol.N, M,
                          lambda t: fp_values(sol, np.exp(t)))


def weighted_radial_eigs(prob: AnnulusEigenProblem, k: int,
                         tol: float = BISECT_TOL) -> np.ndarray:
    """k smallest eigenvalues of the weighted problem, bisected from the whole
    spectrum (LAPACK's index range) to the absolute tolerance tol.

    k is an integer from 1 to prob.M; a whole float is kept as an int.
    """
    if not (1 <= k <= prob.M and float(k).is_integer()):
        raise ConfigError(f"k={k} must be an integer from 1 to the grid's M={prob.M}")
    d, e, _ = prob._tridiagonal
    return _stebz(d, e, "i", (0, int(k) - 1), tol)


def _stebz(d: np.ndarray, e: np.ndarray, select: str, select_range,
           tol: float) -> np.ndarray:
    """Eigenvalues of the tridiagonal (d, e) by LAPACK bisection (stebz)."""
    try:
        return eigvalsh_tridiagonal(d, e, select=select, select_range=select_range,
                                    lapack_driver="stebz", tol=tol)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise BisectionError(f"tridiagonal bisection failed: {exc}") from exc


def _rung(prob: AnnulusEigenProblem, near: np.ndarray, starts: np.ndarray | None = None
          ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(values, vectors, radii) of the len(near) smallest eigenvalues of prob,
    by inverse iteration from near, their values on a coarser grid of the
    annulus, and from the rows of starts (see `_rayleigh_intervals`).

    Certified where each radius delta is at most RADIUS_BOUND, the intervals
    rho +- delta are disjoint (so each holds its own eigenvalue), and
    `count_negative` finds exactly len(near) eigenvalues up to the top one, so
    none was missed; a value that is not finite fails each comparison.
    Otherwise `weighted_radial_eigs`, with None, None.
    """
    d, e, _ = prob._tridiagonal
    found = _rayleigh_intervals(d, e, near, starts)
    if found is not None:
        rho, delta, x = found
        lo, hi = rho - delta, rho + delta
        if (np.all(delta <= RADIUS_BOUND) and np.all(hi[:-1] < lo[1:])
                and count_negative(prob, hi[-1]) == len(near)):
            return rho, x, delta
    return weighted_radial_eigs(prob, len(near)), None, None


def _rayleigh_intervals(d: np.ndarray, e: np.ndarray, sigmas: np.ndarray,
                        starts: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(rho, delta, x) per shift sigma: some eigenvalue of T lies within
    delta of the Rayleigh quotient rho of the unit vector x.

    T - sigma I is factored once (LAPACK gttrf, partial pivoting) and its
    factors give solves of (T - sigma I) x = x_prev (gttrs), normalizing x
    after each: gtsv's arithmetic, without factoring again per step. The
    solves start from x = ones, _INVERSE_STEPS of them, or from the row of
    `starts` for that shift, _WARM_STEPS of them. The Rayleigh quotient
    rho = x^T T x lies within delta = |T x - rho x| + 4 eps |T|,
    |T| = max |d| + 2 max |e|, of an eigenvalue. None where the factor is
    singular (gttrf info != 0); nan or inf pass through without a warning.
    """
    # The residual bound (Parlett, The Symmetric Eigenvalue Problem, ch. 4)
    # holds for unit x and any rho; the rest of delta covers rounding, with u
    # the unit roundoff (eps = 2u). Each row of the computed T x sums three
    # products, so it is off by at most gamma_3 (|T| |x|)_i ~ 3u (|T| |x|)_i,
    # of 2-norm at most 3u || |T| ||_2 <= 3u || |T| ||_inf <= 3u |T|; rho x
    # is off by u |rho| <= u |T| in norm. So 4 eps |T| covers both twice
    # over. The subtraction, the norms and the normalization of x change the
    # residual only relatively, by O(n u); where it certifies, the residual
    # is below RADIUS_BOUND, far below |T| (6.6e5 at p = 400), so that is far
    # below 4 eps |T|.
    slack = 4.0 * np.finfo(float).eps * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    rho, delta = np.empty_like(sigmas), np.empty_like(sigmas)
    vectors = np.empty((len(sigmas), len(d)))
    steps = _INVERSE_STEPS if starts is None else _WARM_STEPS
    with np.errstate(all="ignore"):
        for i, sigma in enumerate(sigmas):
            *lu, info = dgttrf(e, d - sigma, e)
            if info != 0:
                return None
            x = np.ones_like(d) if starts is None else starts[i]
            for _ in range(steps):
                x, info = dgttrs(*lu, x)
                if info != 0:
                    return None
                x /= np.linalg.norm(x)
            tx = d * x
            tx[:-1] += e * x[1:]
            tx[1:] += e * x[:-1]
            rho[i] = x @ tx
            delta[i] = np.linalg.norm(tx - rho[i] * x) + slack
            vectors[i] = x
    return rho, delta, vectors


def count_negative(prob: AnnulusEigenProblem, shift: float = 0.0) -> int:
    """Number of eigenvalues of prob's tridiagonal up to shift.

    The Sturm count of LAPACK's bisection (Kahan's, in stebz) on the interval
    (alpha^2 - max q - 1, shift]: that floor lies below the spectrum, because
    the difference part of the matrix is positive semidefinite. The tolerance
    is the whole interval, so stebz counts and does not bisect: no eigenvalue
    is extracted. Nothing lies below the floor, and stebz rejects an empty
    interval, hence the guard. A nan shift is a ConfigError.
    """
    if math.isnan(shift):
        raise ConfigError(f"shift={shift} must be a number")
    d, e, floor = prob._tridiagonal
    if shift <= floor:
        return 0
    return len(_stebz(d, e, "v", (floor, shift), tol=shift - floor))


def _homogeneous_dim(N: int, h: int) -> int:
    # N_h = C(N-1+h, N-1) for h >= 0, else 0
    if h < 0:
        return 0
    return math.comb(N - 1 + h, N - 1)


def _sphere_eigenvalue(N: int, k: int) -> int:
    # lambda_k = k (k + N - 2), the k-th Laplace-Beltrami eigenvalue on S^(N-1)
    return k * (k + N - 2)


def sphere_mode_multiplicity(N: int, k: int) -> int:
    """Multiplicity of the k-th Laplace-Beltrami eigenvalue on S^(N-1)."""
    return _homogeneous_dim(N, k) - _homogeneous_dim(N, k - 2)


def sphere_spectrum(N: int, k_max: int) -> list[tuple[int, int]]:
    """[(lambda_k, multiplicity)] for k = 0..k_max; exact integer arithmetic.

    lambda_k = k (k + N - 2), multiplicity N_k - N_{k-2} with
    N_h = C(N-1+h, N-1).
    """
    if not (float(N).is_integer() and N >= 2):
        raise ConfigError(f"sphere spectrum needs an integer N >= 2, got {N}")
    if not (float(k_max).is_integer() and k_max >= 0):
        raise ConfigError(f"k_max must be a nonnegative integer, got {k_max}")
    N = int(N)
    return [(_sphere_eigenvalue(N, k), sphere_mode_multiplicity(N, k))
            for k in range(int(k_max) + 1)]


@dataclass
class LedgerEntry:
    """One (radial eigenvalue, spherical mode) pair of the spectral ledger."""

    i: int
    k: int
    lam: int
    mult: int
    total_eig: float
    contributes: bool
    boundary: bool = False  # |beta_i + lambda_k| below the tie threshold


@dataclass
class MorseReport:
    """The ledger of one solution's annulus and its Morse index.

    stability_totals is (ledger total, Pruefer total); stable is whether the
    two counts agree on every sphere mode.
    """

    p: float
    N: int
    annulus: AnnulusBetas
    ledger: list[LedgerEntry]
    total: int
    stable: bool
    stability_totals: tuple[int, int]

    @property
    def contributions(self) -> list[int]:
        """Flattened multiplicities of the contributing pairs, e.g. [1,1,2,...]."""
        return [ent.mult for ent in self.ledger if ent.contributes]


def auto_inner_radius(sol: RadialSolution) -> float:
    """Annulus rule min(eps_plus^2, r_p/10), unclamped (no floor)."""
    return min(scales(sol).eps_plus**2, sol.r_p / 10.0)


def auto_grid_size(sol: RadialSolution, inner: float) -> int:
    """M = ceil(int g dt): about one node per unit of the grid density."""
    return math.ceil(_grid_map(sol, inner).total)


N_BETAS = 3  # beta_1, beta_2 enter the ledger; beta_3 >= 0 is checked


@dataclass(frozen=True)
class AnnulusBetas:
    """Raw beta_1..beta_3 of the annulus (inner, 1) on the nested (M, 2M+1)
    grids, and m_rad, the number of negative eigenvalues on the M grid: read
    off its certified values where they settle it, else the Sturm count."""

    inner: float
    M: int
    coarse: np.ndarray
    fine: np.ndarray
    m_rad: int

    @property
    def betas(self) -> np.ndarray:
        """(4 fine - coarse) / 3: the fine grid has exactly half the step k,
        so this Richardson combination removes the scheme's k^2 bias, which
        matters around the beta_2 ~ -(N-1) threshold."""
        return (4.0 * self.fine - self.coarse) / 3.0


def annulus_betas(sol: RadialSolution, inner: float | None = None,
                  M: int | None = None) -> AnnulusBetas:
    """The annulus of sol, solved on the nested (M, 2M+1) grids.

    None selects the rule (`auto_inner_radius`, `auto_grid_size`). Before any
    grid is sized, each limit is one ConfigError that names it: 0 < inner <
    r_p (the annulus holds the negative nodal region) and M >= 3 an integer
    (the coarser grid holds beta_1..beta_3). The call builds the annulus'
    map, and so its table, once, and climbs a ladder of its grids: a seed
    grid of max(3, M // 4) nodes is bisected by index range to SEED_TOL, its
    values seed the M rung and the M values the 2M+1 rung (`_rung`), which
    starts from the M rung's certified vectors. f_p is sampled once on the
    seed grid and once on the 2M+1 grid, which M shares. m_rad is read off
    the M grid's certified values where they settle it (`_negative_count`).
    """
    inner = auto_inner_radius(sol) if inner is None else inner
    if not (0.0 < inner < sol.r_p):
        raise ConfigError(f"inner radius {inner:.3e} must lie in (0, r_p={sol.r_p:.3e})")
    M = auto_grid_size(sol, inner) if M is None else M
    if not (M >= N_BETAS and float(M).is_integer()):
        raise ConfigError(
            f"grid size M={M} must be at least {N_BETAS} and an integer: the "
            f"coarser grid of the pair holds beta_1..beta_{N_BETAS}")
    M = int(M)
    gmap = _grid_map(sol, inner)
    potential = lambda t: fp_values(sol, np.exp(t))
    seed = weighted_radial_eigs(mapped_problem(gmap, sol.N, max(N_BETAS, M // 4), potential),
                                N_BETAS, tol=SEED_TOL)
    fine = mapped_problem(gmap, sol.N, 2 * M + 1, potential)
    coarse = fine.coarsened()
    raw, x, radii = _rung(coarse, seed)
    return AnnulusBetas(inner=inner, M=M, coarse=raw,
                        fine=_rung(fine, raw, None if x is None else _prolonged(fine, x))[0],
                        m_rad=_negative_count(coarse, raw, radii))


def _negative_count(prob: AnnulusEigenProblem, rho: np.ndarray,
                    delta: np.ndarray | None) -> int:
    """count_negative(prob), read off the certified intervals rho +- delta of
    prob's len(rho) smallest eigenvalues where they settle it.

    Certified (`_rung`), each interval holds one eigenvalue and none
    lies between them or above the top one up to its end. So where the top
    interval lies above 0 and no interval holds 0, the eigenvalues up to 0
    are those of the intervals below it; elsewhere, and where the values were
    bisected (delta None), the Sturm count decides.
    """
    if delta is not None:
        lo, hi = rho - delta, rho + delta
        if lo[-1] > 0.0 and np.all((hi < 0.0) | (lo > 0.0)):
            return int(np.count_nonzero(hi < 0.0))
    return count_negative(prob)


def _assemble_ledger(N: int, betas_neg: list[tuple[int, float]]) -> list[LedgerEntry]:
    """Combine negative radial eigenvalues with the sphere spectrum.

    betas_neg is [(i, beta_i)] for the negative radial eigenvalues. For each,
    modes k with beta_i + lambda_k < -LEDGER_TIE_EPS contribute
    mult(lambda_k); the first non-contributing mode is kept on the ledger for
    inspection. Sums inside the tie window are counted as nonnegative and
    flagged.
    """
    entries: list[LedgerEntry] = []
    for i, beta in sorted(betas_neg, key=lambda t: -t[1]):
        k = 0
        while True:
            lam = _sphere_eigenvalue(N, k)
            mult = sphere_mode_multiplicity(N, k)
            s = beta + lam
            contributes = s < -LEDGER_TIE_EPS
            entries.append(LedgerEntry(
                i=i, k=k, lam=lam, mult=mult, total_eig=s,
                contributes=contributes, boundary=abs(s) <= LEDGER_TIE_EPS,
            ))
            if not contributes:
                break
            k += 1
    return entries


def _cell_maps(h: np.ndarray, c: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, g) per cell of y'' + c y = 0, c constant on cells of width h.

    Each cell maps (y', y) linearly: y' -> a y' + g y, y -> b y' + a y, by
    cos/sin where c > 0, once cells with sqrt(c) h >= pi are cut into equal
    pieces below pi, so that y changes sign at most once per cell, and by
    cosh/sinh where c <= 0, scaled by 1/(1 + tanh(sqrt(-c) h)), the inverse
    of the map's dominant eigenvalue, so that nothing overflows.
    """
    w = np.sqrt(np.abs(c))
    if np.any((c > 0) & (w * h >= np.pi)):  # a float // is slow; cuts are rare
        pieces = _pieces(h, c, w)
        h, c, w = (np.repeat(x, pieces) for x in (h / pieces, c, w))
    osc, wh = c > 0, w * h
    grow = ~osc
    # each cell evaluates only its own transcendentals: cos, sin or tanh
    a, s = np.empty_like(wh), np.empty_like(wh)
    a[osc], s[osc] = np.cos(wh[osc]), np.sin(wh[osc])
    t = np.tanh(wh[grow])
    a[grow] = 1.0 / (1.0 + t)  # the scale
    s[grow] = t * a[grow]
    # w = 0 only where c = 0, whose scale is 1: b = h, the limit as w -> 0
    b = np.divide(s, w, out=h * a, where=w > 0)
    return a, b, np.where(osc, -w, w) * s


def _pieces(h: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pieces per cell in `_cell_maps`, w = sqrt(|c|): sqrt(c) h // pi + 1
    where c > 0, else 1."""
    return np.where(c > 0, w * h // np.pi + 1, 1).astype(int)


_WALK_ROUNDING = 1e-13  # rounding of theta/pi that a Pruefer walk may keep unrefined
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for float64


def _two_sum(a, b):
    """(a + b, its rounding error), exactly (Knuth, TAOCP vol. 2, 4.2.2)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    """(a b, its rounding error), exactly (Dekker, Numer. Math. 18 (1971))."""
    prod = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    c = _SPLIT * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return prod, ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _band_residual(band: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - A x for the unit lower-triangular A with 3 subdiagonals in band
    (LAPACK band storage, row d the d-th subdiagonal), rounded once: each
    product is split exactly (_two_prod) and the sum carries its rounding
    errors (_two_sum)."""
    total, err = _two_sum(rhs, -x)
    for d in (1, 2, 3):
        prod, prod_err = _two_prod(band[d, :-d], x[:-d])
        total[d:], e = _two_sum(total[d:], -prod)
        err[d:] += e - prod_err
    return total + err


def prufer_angles(z: float, cells: list[tuple[np.ndarray, np.ndarray]]
                  ) -> list[float]:
    """theta / pi at the end of y'' + c y = 0 from y'/y = z, per (h, c) in cells.

    theta is the Pruefer angle, (y, y') = rho (sin theta, cos theta), which
    passes a multiple of pi at each zero of y. The cell maps of `_cell_maps`
    chain into one lower-banded system in the cell-end states (y', y), each
    walk starting from (z, 1); its forward substitution (BLAS tbsv, bandwidth
    3) walks every cell set at once; where a walk shrinks enough for its
    rounding to reach _WALK_ROUNDING in theta/pi, a second one on the exact
    residual (_band_residual) corrects it. A zero is a sign change of y
    between consecutive cell ends, a y of exactly 0 taking the sign before
    it.
    """
    h, c = (np.concatenate(x) for x in zip(*cells))
    # each walk's last cell, counted after `_cell_maps` cuts cells into pieces
    ends = np.cumsum([len(x) for x, _ in cells])
    maps = _cell_maps(h, c)
    if len(maps[0]) > len(h):
        ends = np.cumsum(_pieces(h, c, np.sqrt(np.abs(c))))[ends - 1]
    # one state per cell end: a walk's cells i:j map its states from `first`
    # on, and the map out of its last state is 0, so the next walk starts
    # from its right-hand side alone
    a, b, g = (-m for m in maps)
    last = ends + np.arange(len(ends))
    first = np.concatenate(([0], last[:-1] + 1))
    # Fortran order is tbsv's own layout: it reads the band without a copy
    band = np.zeros((4, 2 * (last[-1] + 1)), order="F")
    for i, j, lo in zip([0, *ends[:-1].tolist()], ends.tolist(), first.tolist()):
        walk = band[:, 2 * lo:2 * (lo + j - i)]
        walk[1, 1::2] = g[i:j]
        walk[2, 0::2] = walk[2, 1::2] = a[i:j]
        walk[3, 0::2] = b[i:j]
    rhs = np.zeros(band.shape[1])
    rhs[2 * first], rhs[2 * first + 1] = z, 1.0
    x = dtbsv(3, band, rhs, lower=1, diag=1)
    # the substitution's rounding, relative to a walk's end state, grows
    # about as much as the walk shrinks from its largest state (theta/pi
    # moves by 0.1 to 0.3 eps times that factor). Next to a critical
    # exponent a walk follows the recessive solution and shrinks by up to
    # 4e8 (p = 4.9999, N = 3, mode 0: theta/pi 1.2e-11 from a long-double
    # walk of the same cells); there one step of iterative refinement on a
    # residual exact to about eps^2 leaves 5e-15. The benchmark bands
    # shrink by at most 6 and are not refined
    size = np.abs(x[0::2]) + np.abs(x[1::2])
    shrink = max((np.maximum.reduceat(size, first) / size[last]).tolist())
    if shrink * np.finfo(float).eps > _WALK_ROUNDING:
        x += dtbsv(3, band, _band_residual(band, x, rhs), lower=1, diag=1)
    dy, y = np.reshape(x, (-1, 2)).T
    sign = np.sign(y)
    # a y of exactly 0 takes the sign before it (each walk starts at y = 1)
    sign = sign[np.maximum.accumulate(np.where(sign != 0, np.arange(len(y)), 0))]
    flips = np.concatenate(([0], np.cumsum(sign[1:] != sign[:-1])))
    zeros = (flips[last] - flips[first]).tolist()
    return [n + math.atan2(abs(y[i]), sign[i] * dy[i]) / math.pi
            for n, i in zip(zeros, last.tolist())]


def prufer_counts(sol: RadialSolution, ledger: list[int] | None = None) -> list[int]:
    """[Z_0, Z_1, ...]: negative eigenvalues of each sphere mode, to the first 0.

    By Sturm oscillation Z_k is the number of zeros in (0, 1) of the regular
    solution (y'/y = alpha + k at r = 0) of y'' + (f_p - (alpha+k)^2) y = 0,
    with f_p held at its midpoint value on each cell of `sol.fp_cells()`,
    each shooting step cut into equal cells; none where
    (alpha+k)^2 >= max f_p. Z_1 is the zero count of u', which the forward
    walk loses between the bubbles, where it decays. Each walked mode takes
    one banded solve for both cell sets (`prufer_angles`). A theta_k(1)
    that is not finite, or a margin (theta_k(1)/pi to the nearest integer)
    not above its change under a 2-fold cell split, raises SolverError.

    `ledger`, the ledger's count per mode, spares walks. The potential
    (alpha+k)^2 - f_p grows with k, so by min-max Z_k does not increase with
    k, and two modes with the same count settle every mode between them.
    Mode 0 is walked, and of each run of modes k >= 1 with equal ledger
    counts its two ends (Z_1 costs no walk); where they agree, the modes
    inside the run take their count without a walk, and so without a margin
    check of their own; where they differ, those modes are walked too. Past
    the ledger, and without one, every mode is walked. `morse_index`
    compares the list with the ledger's, mode by mode.
    """
    cells = sol.fp_cells()

    def count(k: int) -> int:
        s = 0.5 * (sol.N - 2) + k  # alpha + k
        if k == 1:
            return sol.du_zeros
        if s * s >= max(sol.max_plus, sol.max_minus):
            return 0
        theta, split = prufer_angles(s, [(h, f - s * s) for h, f in cells])
        if not (math.isfinite(theta) and math.isfinite(split)):
            raise SolverError(
                f"Pruefer angle of sphere mode k={k} is not finite "
                f"(theta/pi = {theta}, {split} under a 2-fold split)")
        n = math.floor(theta)
        margin, change = min(theta - n, n + 1 - theta), abs(split - theta)
        if not margin > change:
            raise SolverError(
                f"Pruefer margin {margin:.3e} of sphere mode k={k} (theta/pi = "
                f"{theta:.6f}) is within its change {change:.3e} under a 2-fold split")
        return n

    # the last mode of each run of equal ledger counts, by its first mode
    run_end, k = {}, 1
    for _, run in itertools.groupby([] if ledger is None else ledger[1:]):
        n = len(list(run))
        run_end[k] = k + n - 1
        k += n
    counts: list[int] = []
    ahead: dict[int, int] = {}  # run ends walked before the modes inside
    while not counts or counts[-1] > 0:
        k = len(counts)
        counts.append(ahead.pop(k) if k in ahead else count(k))
        end = run_end.get(k, k)
        if end > k + 1 and counts[-1] > 0:
            ahead[end] = count(end)
            if ahead[end] == counts[-1]:
                counts += [ahead.pop(end)] * (end - k)
    return counts


def morse_index(sol: RadialSolution, inner: float | None = None,
                M: int | None = None) -> MorseReport:
    """Morse index of the solution via the weighted annulus decomposition.

    Takes beta_1..beta_3 from one `annulus_betas(sol, inner, M)` call,
    checks that only two are negative (m_rad, the negative count of the M
    grid) and ledgers the spherical modes k with beta_i + lambda_k < 0. The
    report is stable when the ledger's count of contributing beta_i per mode
    k, to the first mode with none, equals the Pruefer counts Z_k
    (`prufer_counts`, which walks the ends of the ledger's runs of equal
    counts); each total is sum_k mult(lambda_k) Z_k over its counts.
    """
    ann = annulus_betas(sol, inner, M)
    betas = ann.betas
    if ann.m_rad != 2:
        raise SolverError(
            f"expected exactly two negative radial eigenvalues, found {ann.m_rad} on "
            f"the annulus (inner={ann.inner:.3e}, M={ann.M}) and "
            f"{prufer_counts(sol)[0]} by Pruefer count")
    ledger = _assemble_ledger(sol.N, [(1, float(betas[0])), (2, float(betas[1]))])
    # beta_1 has the most modes, and its last entry is the first mode with none
    ledger_counts = [sum(e.contributes for e in ledger if e.k == k)
                     for k in range(max(e.k for e in ledger) + 1)]
    counts = prufer_counts(sol, ledger_counts)
    if betas[2] < -LEDGER_TIE_EPS:
        raise SolverError(f"third radial eigenvalue is negative: {betas[2]:.3e}")
    totals = tuple(sum(sphere_mode_multiplicity(sol.N, k) * z for k, z in enumerate(c))
                   for c in (ledger_counts, counts))
    return MorseReport(p=sol.p, N=sol.N, annulus=ann, ledger=ledger, total=totals[0],
                       stable=ledger_counts == counts, stability_totals=totals)
