"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 3, any SolverError -> 1.
"""


class LaneMorseError(Exception):
    """Base class for all package errors."""


class ConfigError(LaneMorseError):
    """Invalid configuration or parameters."""


class SolverError(LaneMorseError):
    """A numerical routine failed to produce a trustworthy result."""


class StiffnessError(SolverError):
    """Integrator step size underflowed."""


class TangentialZeroError(SolverError):
    """A detected zero crossing is degenerate (value and slope both vanish)."""


class HorizonError(SolverError):
    """Integration horizon exhausted before the requested event occurred."""


class UnimodalityError(SolverError):
    """f_p does not have exactly one critical point on a nodal interval."""


class BisectionError(SolverError):
    """Tridiagonal eigenvalue bisection failed to converge."""
