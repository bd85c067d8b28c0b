"""Numerical laboratory for nodal radial Lane-Emden solutions on the ball.

Solves the radial problem by shooting, extracts the blow-up scales and
rescaled profiles, solves the weighted eigenvalue problems on approximating
annuli, and assembles the Morse index ledger (total 12 for large p in the
plane), together with the closed-form limit objects used to cross-check
every step.
"""

from .errors import (
    BisectionError,
    CheckError,
    ConfigError,
    HorizonError,
    LaneMorseError,
    SolverError,
    StiffnessError,
    TangentialZeroError,
    UnimodalityError,
)
from .limits import (
    REFERENCE_ELL,
    Check,
    LimitConstants,
    QuotientParts,
    TestFunctionSpec,
    limit_constants,
    limit_residual,
    liouville_mass,
    liouville_profile,
    quotient_closed_forms,
    rayleigh_eta1,
    rayleigh_limit,
    singular_mass,
    singular_profile,
    test_function_quotient,
    verification_battery,
)
from .profile import FpAnalysis, Scales, analyze_fp, fp_values, rescaled_potential, rescaled_profile, scales
from .radial import IvpConfig, RadialSolution, Trajectory, integrate_ivp, solve_nodal
from .spectral import (
    AnnulusEigenProblem,
    LedgerEntry,
    MorseReport,
    annulus_betas,
    build_problem,
    count_negative,
    morse_index,
    richardson,
    sphere_spectrum,
    weighted_radial_eigs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # radial
    "IvpConfig", "Trajectory", "RadialSolution", "integrate_ivp", "solve_nodal",
    # profile
    "Scales", "FpAnalysis", "scales", "rescaled_profile", "rescaled_potential",
    "fp_values", "analyze_fp",
    # spectral
    "AnnulusEigenProblem", "MorseReport", "LedgerEntry", "build_problem",
    "count_negative", "weighted_radial_eigs", "annulus_betas", "richardson",
    "sphere_spectrum", "morse_index",
    # limits
    "REFERENCE_ELL", "LimitConstants", "TestFunctionSpec", "QuotientParts",
    "Check", "limit_constants", "liouville_profile", "singular_profile",
    "liouville_mass", "singular_mass", "rayleigh_eta1", "rayleigh_limit",
    "limit_residual",
    "test_function_quotient", "quotient_closed_forms", "verification_battery",
    # errors
    "LaneMorseError", "ConfigError", "SolverError", "CheckError",
    "StiffnessError", "TangentialZeroError", "HorizonError",
    "UnimodalityError", "BisectionError",
]
