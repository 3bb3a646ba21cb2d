"""Exception and warning types raised across the package.

Everything derives from :class:`SimulationError` so callers can catch the
whole family at once; the CLI maps subfamilies onto exit codes. Warnings
go out through warn_at_caller, so they name the caller's line.
"""

import sys
import warnings


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class UnknownMode(SimulationError, ValueError):
    """A mode id does not exist in the basis at hand."""


class NormTooLarge(SimulationError):
    """Matrix exponential argument is outside the supported norm range."""


class DegenerateCoupling(SimulationError, ValueError):
    """Dressed-state construction with a vanishing coupling."""


class WrongExcitation(SimulationError, ValueError):
    """The exchange-statistics factor is only defined for the (0, 0) doublet."""


class BadSolidAngle(SimulationError, ValueError):
    """Solid angle outside [0, 4*pi]."""


class BadTheta(SimulationError, ValueError):
    """Polar angle outside [0, pi], or too few path samples."""


class DegeneratePath(SimulationError, ValueError):
    """Loop vertices that do not define an oriented spherical polygon."""


class BasisMismatch(SimulationError, ValueError):
    """Two objects built over different bases were combined."""


class VanishingOverlap(SimulationError):
    """Consecutive transported states nearly orthogonal; path too coarse."""


class NormDrift(SimulationError):
    """State norm drifted beyond tolerance during time evolution."""


class NonAdiabatic(SimulationError):
    """Leakage out of the followed eigenstate exceeded the threshold."""


class StepLimit(SimulationError, ValueError):
    """A time route would need more steps than the step rule allows."""


class SizeLimit(SimulationError, ValueError):
    """A basis, loop, lifted table or factorial above what a run may hold."""


class TruncationWarning(UserWarning):
    """A truncated series or basis dropped terms above the noise floor."""


def warn_at_caller(message: str, category: type[Warning] = UserWarning) -> None:
    """warnings.warn at the first frame outside the package, however deep
    the call that warns."""
    level, caller, package = 2, sys._getframe(1), __package__ + "."
    while caller.f_back and caller.f_globals["__name__"].startswith(package):
        level, caller = level + 1, caller.f_back
    warnings.warn(message, category, stacklevel=level)
