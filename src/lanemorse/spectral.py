"""Weighted annulus eigenproblems, negative-eigenvalue counts, Morse ledger.

The |x|^2-weighted radial operator on the annulus (a, 1),

    r^2 ( -v'' - (N-1) v'/r - q(r) v ) = beta v,    q = p |u_p|^(p-1),

turns, under t = ln r and w = r^((N-2)/2) v, into the Dirichlet Schroedinger
problem on (ln a, 0):

    -w'' + (alpha^2 - f(t)) w = beta w,     alpha = (N-2)/2,

with f(t) = q(e^t) e^(2t) = f_p(e^t) and *unit* mass: the 1/|x|^2 weight is
absorbed exactly, so a plain second-difference tridiagonal matrix on a
uniform t grid is all that is needed.

The log grid is also what makes large p tractable: the two bumps of f_p sit
at radii eps_plus and eps_minus, as small as e^(-0.45 p), but have O(1) width
in t, so a uniform t grid resolves both.

Eigenvalues come from LAPACK bisection (stebz) through SciPy, on an (M, 2M)
grid pair combined by Richardson extrapolation (`radial_betas`). The negative
count is taken once, by the signed LDL^T (Sturm sequence) pivot scan, and
cross-checked against the negative bisection values on the same grid. The
first eigenfunction (stein) is computed only on request.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import BisectionError, ConfigError, SolverError
from .profile import fp_values, scales
from .radial import RadialSolution

__all__ = [
    "AnnulusEigenProblem",
    "RadialSpectrum",
    "RadialBetas",
    "MorseConfig",
    "MorseReport",
    "LedgerEntry",
    "build_problem",
    "count_negative",
    "weighted_radial_eigs",
    "radial_betas",
    "checked_radial_betas",
    "sphere_spectrum",
    "sphere_mode_multiplicity",
    "morse_index",
    "auto_inner_radius",
    "auto_grid_size",
]

DEFAULT_GRID_SIZE = 4096
# grid points per unit of ln r; keeps the h^2 eigenvalue error small enough
# for the doubling-stability tolerances across the whole p sweep
GRID_DENSITY = 320.0

# |beta_i + lambda_k| below this is sub-discretization noise; such sums are
# counted as nonnegative (the continuum bound beta_2 > -(N-1) settles the
# only case that ever lands here) and flagged on the ledger entry.
LEDGER_TIE_EPS = 1e-7


@dataclass
class AnnulusEigenProblem:
    """Discretized radial operator on the annulus (inner, 1) in log variable.

    q holds the potential samples f_p(e^t) on the interior nodes t_nodes of a
    uniform grid on (ln inner, 0); alpha = (N-2)/2 is the symmetrization
    shift.
    """

    N: int
    inner: float
    M: int
    t_nodes: np.ndarray
    q: np.ndarray
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.inner < 1.0):
            raise ConfigError("inner radius must lie in (0, 1)")
        if self.M < 2:
            raise ConfigError("need at least two interior grid points")
        if np.any(self.q < 0):
            raise ConfigError("potential samples must be nonnegative")

    @property
    def h(self) -> float:
        return -math.log(self.inner) / (self.M + 1)

    def diagonal(self) -> np.ndarray:
        return 2.0 / self.h**2 + self.alpha**2 - self.q

    def offdiagonal(self) -> np.ndarray:
        return np.full(self.M - 1, -1.0 / self.h**2)


def _uniform_log_grid(inner: float, M: int) -> np.ndarray:
    t0 = math.log(inner)
    h = -t0 / (M + 1)
    return t0 + h * np.arange(1, M + 1)


def build_problem(sol: RadialSolution, inner: float, M: int) -> AnnulusEigenProblem:
    """Assemble the annulus eigenproblem for a computed solution.

    The annulus must leave the whole negative nodal region inside, hence
    inner < r_p.
    """
    if not (0.0 < inner < sol.r_p):
        raise ConfigError(
            f"inner radius {inner:.3e} must lie in (0, r_p={sol.r_p:.3e})"
        )
    if M < 2:
        raise ConfigError("need at least two interior grid points")
    t = _uniform_log_grid(inner, M)
    q = fp_values(sol, np.exp(t))
    return AnnulusEigenProblem(
        N=sol.N, inner=inner, M=M, t_nodes=t, q=q,
        alpha=0.5 * (sol.N - 2),
    )


def count_negative(prob: AnnulusEigenProblem, shift: float = 0.0) -> int:
    """Number of eigenvalues below `shift`, by tridiagonal matrix inertia.

    One signed LDL^T pivot scan; no eigenvalue extraction. An exactly zero
    pivot is retried at shift - 1e-12 and the perturbation reported as a
    warning.
    """
    d = prob.diagonal()
    e = prob.offdiagonal()
    cnt = _ldl_negative_pivots(d - shift, e)
    if cnt is None:
        warnings.warn(
            f"zero pivot at shift {shift}; retrying at shift {shift - 1e-12}",
            RuntimeWarning, stacklevel=2,
        )
        cnt = _ldl_negative_pivots(d - (shift - 1e-12), e)
        if cnt is None:
            raise SolverError("zero pivot persisted under perturbed shift")
    return cnt


def _ldl_negative_pivots(diag: np.ndarray, off: np.ndarray) -> int | None:
    d = diag.tolist()
    e2 = (off * off).tolist()
    count = 0
    piv = d[0]
    if piv == 0.0:
        return None
    if piv < 0.0:
        count += 1
    for i in range(1, len(d)):
        piv = d[i] - e2[i - 1] / piv
        if piv == 0.0:
            return None
        if piv < 0.0:
            count += 1
    return count


@dataclass
class RadialSpectrum:
    """Lowest weighted radial eigenvalues on one annulus."""

    betas: np.ndarray
    eigvec_1: tuple[np.ndarray, np.ndarray] | None = None  # (radii, phi samples)
    inner: float = 0.0
    M: int = 0

    def __post_init__(self):
        if np.any(np.diff(self.betas) < 0):
            raise SolverError("eigenvalues not returned in ascending order")


def weighted_radial_eigs(prob: AnnulusEigenProblem, k: int,
                         want_vector: bool = False) -> RadialSpectrum:
    """k smallest eigenvalues of the weighted problem by Sturm bisection.

    The first eigenfunction, when requested, is recovered by inverse
    iteration, sign-fixed positive and normalized so that the weighted norm
    ||phi/|x| ||_{L^2(A)} equals one.
    """
    if k < 1 or k > prob.M:
        raise ConfigError(f"requested {k} eigenvalues from an {prob.M}-point grid")
    d, e = prob.diagonal(), prob.offdiagonal()
    try:
        betas = eigvalsh_tridiagonal(
            d, e, select="i", select_range=(0, k - 1),
            lapack_driver="stebz", tol=1e-14,
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise BisectionError(f"tridiagonal bisection failed: {exc}") from exc

    vec = None
    if want_vector:
        _, v = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        w = v[:, 0]
        if np.sum(w) < 0:
            w = -w
        # ||phi/|x|||^2 = omega_{N-1} * int w^2 dt  (exact in the t variable)
        omega = sphere_area(prob.N)
        w = w / math.sqrt(omega * prob.h * float(np.sum(w * w)))
        phi = np.exp(-prob.alpha * prob.t_nodes) * w
        vec = (np.exp(prob.t_nodes), phi)

    return RadialSpectrum(
        betas=betas,
        eigvec_1=vec,
        inner=prob.inner,
        M=prob.M,
    )


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere S^(N-1)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def _homogeneous_dim(N: int, h: int) -> int:
    # N_h = C(N-1+h, N-1) for h >= 0, else 0
    if h < 0:
        return 0
    return math.comb(N - 1 + h, N - 1)


def sphere_mode_multiplicity(N: int, k: int) -> int:
    """Multiplicity of the k-th Laplace-Beltrami eigenvalue on S^(N-1)."""
    return _homogeneous_dim(N, k) - _homogeneous_dim(N, k - 2)


def sphere_spectrum(N: int, k_max: int) -> list[tuple[int, int]]:
    """[(lambda_k, multiplicity)] for k = 0..k_max; exact integer arithmetic.

    lambda_k = k (k + N - 2), multiplicity N_k - N_{k-2} with
    N_h = C(N-1+h, N-1).
    """
    if N < 2:
        raise ConfigError("sphere spectrum needs N >= 2")
    if k_max < 0:
        raise ConfigError("k_max must be nonnegative")
    return [(k * (k + N - 2), sphere_mode_multiplicity(N, k)) for k in range(k_max + 1)]


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
class MorseConfig:
    """Controls for the Morse index computation.

    inner=None selects the annulus rule min(eps_plus^2, r_p/10); M=None the
    density-based grid size.
    """

    inner: float | None = None
    M: int | None = None

    def annulus(self, sol: RadialSolution) -> tuple[float, int]:
        """(inner radius, grid size) this configuration selects for sol."""
        inner = self.inner if self.inner is not None else auto_inner_radius(sol)
        M = self.M if self.M is not None else auto_grid_size(inner)
        return inner, M


@dataclass
class MorseReport:
    """Radial eigenvalues, per-mode contributions and the total Morse index."""

    p: float
    N: int
    beta1: float
    beta2: float
    beta3: float
    m_rad: int
    ledger: list[LedgerEntry]
    total: int
    inner: float
    M: int
    stable: bool = True
    stability_totals: tuple[int, ...] = ()

    @property
    def contributions(self) -> list[int]:
        """Flattened multiplicities of the contributing pairs, e.g. [1,1,2,...]."""
        return [ent.mult for ent in self.ledger if ent.contributes]


def auto_inner_radius(sol: RadialSolution) -> float:
    """Annulus rule min(eps_plus^2, r_p/10), floored at the float range."""
    sc = scales(sol)
    return max(min(sc.eps_plus**2, sol.r_p / 10.0), 1e-300)


def auto_grid_size(inner: float) -> int:
    return max(DEFAULT_GRID_SIZE, int(math.ceil(GRID_DENSITY * abs(math.log(inner)))))


N_BETAS = 3  # beta_1, beta_2 enter the ledger; beta_3 >= 0 is checked


@dataclass
class RadialBetas:
    """beta_1..beta_3 on the (M, 2M) grid pair of one annulus."""

    coarse: np.ndarray  # on the M-node grid
    fine: np.ndarray    # on the 2M-node grid

    @property
    def extrapolated(self) -> np.ndarray:
        """Richardson combination (4 fine - coarse) / 3.

        The second-difference scheme has an h^2 eigenvalue bias which matters
        around the beta_2 ~ -(N-1) threshold; this combination removes it.
        """
        return (4.0 * self.fine - self.coarse) / 3.0


def _grid_betas(sol: RadialSolution, inner: float, M: int) -> np.ndarray:
    return weighted_radial_eigs(build_problem(sol, inner, M), N_BETAS).betas


def radial_betas(sol: RadialSolution, inner: float, M: int,
                 coarse: np.ndarray | None = None) -> RadialBetas:
    """beta_1..beta_3 on the (inner, M) and (inner, 2M) grids.

    coarse, when given, holds the values already computed on the (inner, M)
    grid (the fine grid of the (inner, M/2) pair), which is then not rebuilt.
    """
    if coarse is None:
        coarse = _grid_betas(sol, inner, M)
    return RadialBetas(coarse=coarse, fine=_grid_betas(sol, inner, 2 * M))


def checked_radial_betas(sol: RadialSolution, inner: float,
                         M: int) -> tuple[RadialBetas, int]:
    """radial_betas plus the negative-eigenvalue count of the (inner, M) grid.

    The count is one inertia scan of that grid, cross-checked against the
    number of negative bisection values on the same grid.
    """
    prob = build_problem(sol, inner, M)
    coarse = weighted_radial_eigs(prob, N_BETAS).betas
    neg = count_negative(prob)
    if min(neg, N_BETAS) != int(np.sum(coarse < 0)):
        raise SolverError(
            f"inertia count {neg} disagrees with the bisection values "
            f"{coarse.tolist()} (inner={inner:.3e}, M={M})"
        )
    return radial_betas(sol, inner, M, coarse=coarse), neg


def _assemble_ledger(N: int, betas_neg: list[tuple[int, float]],
                     tie_eps: float = LEDGER_TIE_EPS) -> tuple[list[LedgerEntry], int]:
    """Combine negative radial eigenvalues with the sphere spectrum.

    betas_neg is [(i, beta_i)] for the negative radial eigenvalues. For each,
    modes k with beta_i + lambda_k < -tie_eps contribute mult(lambda_k); the
    first non-contributing mode is kept on the ledger for inspection. Sums
    inside [-tie_eps, tie_eps] are counted as nonnegative and flagged.
    """
    entries: list[LedgerEntry] = []
    total = 0
    for i, beta in sorted(betas_neg, key=lambda t: -t[1]):
        k = 0
        while True:
            lam = k * (k + N - 2)
            mult = sphere_mode_multiplicity(N, k)
            s = beta + lam
            contributes = s < -tie_eps
            entries.append(LedgerEntry(
                i=i, k=k, lam=lam, mult=mult, total_eig=s,
                contributes=contributes, boundary=abs(s) <= tie_eps,
            ))
            if not contributes:
                break
            total += mult
            k += 1
    return entries, total


def morse_index(sol: RadialSolution, config: MorseConfig | None = None) -> MorseReport:
    """Morse index of the solution via the weighted annulus decomposition.

    Computes the first radial eigenvalues beta_i of the weighted operator on
    the annulus, checks that only two of them are negative, and sums the
    multiplicities of the spherical modes k with beta_i + lambda_k < 0. The
    annulus and grid follow the configured rules and the count is re-verified
    under doubling of n (inner halved) and of M; a changed count is reported
    (stable=False) rather than silently resolved.
    """
    cfg = config or MorseConfig()
    inner, M = cfg.annulus(sol)
    spec, m_rad = checked_radial_betas(sol, inner, M)
    betas = spec.extrapolated
    if m_rad != 2:
        raise SolverError(
            f"expected exactly two negative radial eigenvalues, found {m_rad} "
            f"(inner={inner:.3e}, M={M}); annulus rule violated?"
        )
    if betas[2] < -LEDGER_TIE_EPS:
        raise SolverError(f"third radial eigenvalue is negative: {betas[2]:.3e}")

    ledger, total = _assemble_ledger(sol.N, [(1, float(betas[0])), (2, float(betas[1]))])

    totals = [total]
    for check in (
        radial_betas(sol, *MorseConfig(inner=inner / 2.0, M=cfg.M).annulus(sol)),
        radial_betas(sol, inner, 2 * M, coarse=spec.fine),
    ):
        b = check.extrapolated
        _, tot = _assemble_ledger(sol.N, [(1, float(b[0])), (2, float(b[1]))])
        totals.append(tot)
    stable = len(set(totals)) == 1

    return MorseReport(
        p=sol.p, N=sol.N,
        beta1=float(betas[0]), beta2=float(betas[1]), beta3=float(betas[2]),
        m_rad=m_rad, ledger=ledger, total=total,
        inner=inner, M=M, stable=stable, stability_totals=tuple(totals),
    )
