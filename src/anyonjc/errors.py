"""Exception and warning types raised across the package.

Input the package rejects raises ValueError: a plain one, or StepLimit
or SizeLimit where a step or size cap rejects it (both also derive from
SimulationError). A run that fails raises the SimulationError family. The
CLI maps ValueError to exit 4, NonAdiabatic and NormDrift to exit 3, and
any other SimulationError to exit 2. Warnings
go out through warn_at_caller, so they name the caller's line.
"""

import sys
import warnings


class SimulationError(Exception):
    """Base class of the errors raised by a run that fails."""


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
