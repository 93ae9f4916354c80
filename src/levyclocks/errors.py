"""Semantic exception hierarchy shared by all levyclocks modules."""

from __future__ import annotations

__all__ = [
    "LevyClocksError", "DomainError", "ConstructionError", "AssumptionError",
    "EvaluationError", "ClassificationError", "CapabilityError",
    "HorizonExceededError", "RescalingError",
]


class LevyClocksError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LevyClocksError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class ConstructionError(LevyClocksError, ValueError):
    """A model parameter constraint is violated; the message names it."""


class AssumptionError(LevyClocksError):
    """A standing assumption (e.g. positive drift) does not hold."""


class EvaluationError(LevyClocksError, ArithmeticError):
    """A callee returned a non-finite value where a finite one is required."""


class ClassificationError(LevyClocksError):
    """Boundary behaviour matches none of the supported case patterns."""


class CapabilityError(LevyClocksError, NotImplementedError):
    """The requested operation is not available for this model family."""


class HorizonExceededError(LevyClocksError):
    """A clock target exceeds the simulated capacity even after extension."""


class RescalingError(LevyClocksError, OverflowError):
    """A value the result needs leaves double range.

    Raised where a tilted-identity weight exp(-psi(m) T) or exp(-m xi)
    would overflow, where every first-passage weight exp(theta tau)
    underflows to 0, where the fundamental relation's A(8) or its targets
    rescaled by start^+-alpha leave double range, and where a
    Cauchy-modulus path's squared radius does.  The clock refuses nothing:
    it reads a path only up to its target, whatever A does past it.
    """
