"""Semantic exception hierarchy shared by all levyclocks modules."""

from __future__ import annotations

__all__ = [
    "LevyClocksError", "DomainError", "ConstructionError", "AssumptionError",
    "BracketError", "EvaluationError", "ClassificationError",
    "CapabilityError", "HorizonExceededError", "RescalingError",
]


class LevyClocksError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LevyClocksError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class ConstructionError(LevyClocksError, ValueError):
    """A model parameter constraint is violated; the message names it."""


class AssumptionError(LevyClocksError):
    """A standing assumption (e.g. positive drift) does not hold."""


class BracketError(LevyClocksError, ValueError):
    """Root bracket does not straddle a sign change."""


class EvaluationError(LevyClocksError, ArithmeticError):
    """A callee returned a non-finite value where a finite one is required."""


class ClassificationError(LevyClocksError):
    """Boundary behaviour matches none of the supported case patterns."""


class CapabilityError(LevyClocksError, NotImplementedError):
    """The requested operation is not available for this model family."""


class HorizonExceededError(LevyClocksError):
    """A clock target exceeds the simulated capacity even after extension."""


class RescalingError(LevyClocksError, OverflowError):
    """An exponential weight overflowed; reduce the time horizon."""
