"""Scalar special functions and solvers used by every other module.

Log-gamma is the standard library's behind a domain guard; digamma and
trigamma run a recurrence plus asymptotic series (reflection for negative
arguments); and one root finder, for monotone functions given with their
slope, serves every solve in ``rate`` (the maximiser of a concave
objective is the root of its exact derivative, whose slope is the second
derivative).  The root finder solves to a fixed relative tolerance of
1e-14 and answers None, whatever the end, when no sign change lies short
of it.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, EvaluationError

__all__ = [
    "EULER_GAMMA",
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


def _model_step(y: float, g: float, s: float, o: float | None,
                go: float) -> float:
    """Root nearest ``y`` of a local model of an increasing g, on the side
    of ``y`` where the root of g lies: the quadratic with value ``g`` and
    slope ``s`` at ``y`` and value ``go`` at a second point ``o``, or,
    where that has no root on that side (or there is no ``o``), the
    tangent at ``y``.  NaN when neither has."""
    side = -1.0 if g > 0.0 else 1.0
    if o is not None:
        d = o - y
        c = (go - g - s * d) / (d * d)
        disc = s * s - 4.0 * c * g
        if c and disc >= 0.0:
            q = -0.5 * (s + math.copysign(math.sqrt(disc), s))
            if q:
                t = g / q           # the root of smaller magnitude
                if t * side > 0.0:
                    return y + t
                t = q / c
                if t * side > 0.0:
                    return y + t
    t = -g / s if s else side * math.inf
    return y + t if t * side > 0.0 else math.nan


def find_root(f, start: float, end: float) -> float | None:
    """Root of a monotone ``f`` between ``start`` and ``end``.

    ``f(x)`` returns the value and the slope at ``x``.  ``f`` is evaluated
    at ``start``, where it must be finite, and never at ``end``, which may
    be infinite or a pole.

    Each step goes to the root of a local model of ``f`` at the last
    point: the tangent at ``start``, then the quadratic that also matches
    ``f`` at the previous point or, once ``f`` has changed sign, at the
    bracket end across the root.  Before the sign change a step is taken
    if it lands strictly short of ``end`` (a step past float range lands
    on the last float) and either is at most half the last move or gets
    farther than a probe; otherwise the probe is taken.  Consecutive
    probes multiply the distance from ``start`` toward an infinite end,
    and divide the distance left to a finite one, by 2, 4, 8, ...  Inside
    the bracket a step that is not at most half the last move is replaced
    by a bisection, taken by ratio where the bracket spans more than a
    factor of 4.

    The returned point is an evaluated one whose Newton correction (or
    bracket) is at most ``1e-14 * min(max(1, |x|), |end - start|)``, or
    ``1e-14 |x|`` when |x| is smaller than that: a domain narrower than 1
    is solved to the same relative accuracy as a wide one, and a root
    near 0 keeps its relative accuracy.

    Returns None when ``f`` does not change sign short of ``end`` and of
    float range: the probes reach ``end`` or leave float range, or ``f``
    is infinite at a probe, first.

    Raises:
        EvaluationError: if ``f`` is NaN anywhere, or infinite at
            ``start`` or inside the bracket.
    """
    # Work in y = distance from start toward end, on g = sign * f, which
    # is negative at y = 0 and increases toward the root.
    span = abs(end - start)
    ahead = 1.0 if end > start else -1.0
    x = start
    fx, sx = f(x)
    if not math.isfinite(fx):
        raise EvaluationError(f"objective returned {fx!r} at x = {x!r}")
    sign = -1.0 if fx > 0.0 else 1.0
    y, g, s = 0.0, sign * fx, sign * ahead * sx
    ya, ga = y, g                   # nearest point with g < 0
    yb = gb = None                  # nearest point with g > 0
    yp = gp = None                  # the point evaluated before y
    far = span                      # steps land strictly before it
    last = math.inf                 # length of the last move
    grow = 2.0                      # factor of the next probe
    while g != 0.0:
        ax = abs(x)
        scale = 1e-14 * (ax if ax > 1.0 else 1.0)
        if scale > 1e-14 * span:
            scale = 1e-14 * span
        if ax < scale:
            scale = 1e-14 * ax
        if abs(g) <= scale * abs(s):
            return x
        if yb is None:
            new = _model_step(y, g, s, yp, gp)
            if new == math.inf and far == math.inf:     # the last float
                new = (ahead * sys.float_info.max - start) * ahead
            if span == math.inf:
                p = grow * ya if ya else 1.0
                p_ok = math.isfinite(start + ahead * p)
            else:
                p = span - (span - ya) / grow
                p_ok = ya < p < span
            if ya < new < far and (not p_ok or new - ya <= 0.5 * last
                                   or new >= p):
                probe, grow = False, 2.0
            elif p_ok:
                new, probe, grow = p, True, 2.0 * grow
            else:
                return None
        else:
            new = _model_step(y, g, s, yb if y == ya else ya,
                              gb if y == ya else ga)
            if not (ya < new < yb and abs(new - y) <= 0.5 * last):
                # bisect; by ratio across a bracket wider than 1 : 4
                new = (math.sqrt(ya) * math.sqrt(yb) if yb > 4.0 * ya > 0.0
                       else 0.5 * (ya + yb))
                if not ya < new < yb or yb - ya <= scale:
                    y = ya if -ga <= gb else yb
                    return start + ahead * y
        last = abs(new - y)
        x_new = start + ahead * new
        fv, fs = f(x_new)
        if fv != fv:
            raise EvaluationError(f"objective returned NaN at x = "
                                  f"{x_new!r}")
        if not math.isfinite(fv):
            if yb is not None:
                raise EvaluationError(f"objective returned {fv!r} at x = "
                                      f"{x_new!r} inside a bracket")
            if probe:
                return None
            far = new
            continue
        yp, gp = y, g
        x, y, g, s = x_new, new, sign * fv, sign * ahead * fs
        if g < 0.0:
            ya, ga = y, g
        else:
            if yb is None:
                last = math.inf
            yb, gb = y, g
    return x
