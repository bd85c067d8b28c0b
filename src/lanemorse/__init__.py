"""Numerical laboratory for nodal radial Lane-Emden solutions on the ball.

Solves the radial problem by shooting, extracts the blow-up scales and
rescaled profiles, solves the weighted eigenvalue problems on approximating
annuli, and assembles the Morse index ledger (total 12 for large p in the
plane), together with the closed-form limit objects used to cross-check
every step.
"""

from .errors import (
    BisectionError,
    ConfigError,
    HorizonError,
    LaneMorseError,
    SolverError,
    StiffnessError,
    TangentialZeroError,
    UnimodalityError,
)
from .profile import Scales, fp_values, rescaled_potential, rescaled_profile, scales
from .radial import RadialSolution, Trajectory, integrate_ivp, solve_nodal

__version__ = "0.1.0"

# spectral imports scipy.linalg, and limits scipy.integrate and scipy.special
# (and spectral, for its Pruefer walk), which take most of the package's
# import time; solve needs neither, so their names load them on first access
_SPECTRAL_NAMES = (
    "AnnulusEigenProblem", "AnnulusBetas", "MorseReport", "LedgerEntry",
    "build_problem", "count_negative", "weighted_radial_eigs", "annulus_betas",
    "sphere_spectrum", "morse_index", "prufer_counts",
)
_LIMITS_NAMES = (
    "REFERENCE_ELL", "LimitConstants", "Check", "limit_constants",
    "liouville_profile", "singular_profile", "liouville_mass", "singular_mass",
    "rayleigh_eta1", "limit_residual", "verification_battery",
)


def __getattr__(name):
    if name in _SPECTRAL_NAMES:
        from . import spectral

        return getattr(spectral, name)
    if name in _LIMITS_NAMES:
        from . import limits

        return getattr(limits, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # radial
    "Trajectory", "RadialSolution", "integrate_ivp", "solve_nodal",
    # profile
    "Scales", "scales", "rescaled_profile", "rescaled_potential", "fp_values",
    # spectral
    *_SPECTRAL_NAMES,
    # limits
    *_LIMITS_NAMES,
    # errors
    "LaneMorseError", "ConfigError", "SolverError",
    "StiffnessError", "TangentialZeroError", "HorizonError",
    "UnimodalityError", "BisectionError",
]
