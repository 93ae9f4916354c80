"""Scalar special functions and solvers used by every other module.

Log-gamma is the standard library's behind a domain guard; digamma and
trigamma run a recurrence plus asymptotic series (reflection for negative
arguments); and a Brent-style bracketing root finder serves every supremum
in ``rate`` (the maximiser of a concave objective is the root of its exact
derivative).  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError, DomainError, EvaluationError

__all__ = [
    "EULER_GAMMA",
    "Bracket",
    "log_gamma",
    "digamma",
    "trigamma",
    "find_root",
]

EULER_GAMMA = 0.5772156649015328606065120900824024


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0 (``math.lgamma``).

    Returns +inf past x ~ 2.5e305, where the value leaves float range.

    Raises:
        DomainError: if ``x`` is not a finite positive real.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _digamma_positive(x: float) -> float:
    """Digamma for x > 0: recurrence up to >= 12, then asymptotic series."""
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # Psi(x) ~ ln x - 1/(2x) - sum B_{2n} / (2n x^{2n})
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0
           - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0
           - inv2 * (691.0 / 32760.0 - inv2 * (1.0 / 12.0)))))))
    return acc + math.log(x) - 0.5 * inv - tail


def digamma(x: float) -> float:
    """Digamma function Psi(x) for real x away from the poles 0, -1, -2, ...

    Negative arguments go through the reflection formula
    ``Psi(x) = Psi(1 - x) - pi / tan(pi x)``, with the tangent argument
    reduced modulo pi for accuracy far from the origin.

    Raises:
        DomainError: at a pole or for non-finite input.
    """
    if not math.isfinite(x):
        raise DomainError(f"digamma requires finite x, got {x!r}")
    if x > 0.0:
        return _digamma_positive(x)
    frac = x - round(x)
    if frac == 0.0:
        raise DomainError(f"digamma pole at non-positive integer x = {x!r}")
    return _digamma_positive(1.0 - x) - math.pi / math.tan(math.pi * frac)


def _trigamma_positive(x: float) -> float:
    acc = 0.0
    while x < 12.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # Psi'(x) ~ 1/x + 1/(2x^2) + sum B_{2n} / x^{2n+1}
    tail = inv * inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0
           - inv2 * (1.0 / 30.0 - inv2 * (5.0 / 66.0
           - inv2 * (691.0 / 2730.0 - inv2 * (7.0 / 6.0)))))))
    return acc + inv + 0.5 * inv2 + tail


def trigamma(x: float) -> float:
    """Trigamma function Psi'(x); reflection for x < 0 as for digamma."""
    if not math.isfinite(x):
        raise DomainError(f"trigamma requires finite x, got {x!r}")
    if x > 0.0:
        return _trigamma_positive(x)
    frac = x - round(x)
    if frac == 0.0:
        raise DomainError(f"trigamma pole at non-positive integer x = {x!r}")
    s = math.sin(math.pi * frac)
    return (math.pi * math.pi) / (s * s) - _trigamma_positive(1.0 - x)


@dataclass(frozen=True)
class Bracket:
    """Finite interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise BracketError(f"bracket endpoints must be finite, got "
                               f"[{self.lo!r}, {self.hi!r}]")
        if not self.lo < self.hi:
            raise BracketError(f"bracket requires lo < hi, got "
                               f"[{self.lo!r}, {self.hi!r}]")


def _checked(f, x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise EvaluationError(f"objective returned non-finite value {v!r} "
                              f"at x = {x!r}")
    return v


def find_root(f, bracket: Bracket, tol: float = 1e-12,
              max_iter: int = 200) -> float:
    """Root of a continuous scalar function by Brent's method.

    Inverse-quadratic / secant steps with a bisection safeguard; always
    converges for a continuous ``f`` with ``f(lo) * f(hi) < 0``.  The
    returned point lies in a sub-bracket of width <= ``tol`` (with a
    floor of a few ulps of the solution).

    Raises:
        BracketError: if the bracket does not straddle a sign change.
        EvaluationError: if ``f`` returns a non-finite value.
    """
    a, b = bracket.lo, bracket.hi
    fa, fb = _checked(f, a), _checked(f, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a!r}, {b!r}]: "
                           f"f(lo) = {fa!r}, f(hi) = {fb!r}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        delta = 0.5 * max(tol, 4.0 * math.ulp(abs(b)))
        m = 0.5 * (c - b)
        if abs(m) <= delta or fb == 0.0:
            return b
        if abs(e) < delta or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(delta * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > delta else math.copysign(delta, m)
        fb = _checked(f, b)
    return b
