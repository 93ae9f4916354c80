"""Large-deviation analytics for the clock of a Lamperti-transformed model.

Computes, for a catalog model with positive drift, the critical point
``m0 = inf{theta : psi'(theta) > 0}``, the speed interval
``Delta = (tau_plus, tau_zero)`` with ``tau_* = 1/psi'`` limits at the
domain ends, the rate function

    I(x) = sup_{m in (m0, m_plus)} { m - x psi(m) },

its Fenchel-Legendre partner ``psi*``, the inverse-exponent transform
``L(theta) = -m  <=>  theta = -psi(m)``, and the six-way boundary
classification (cases 3a/3b/3c at ``tau_zero``, 4a/4b/4c at ``tau_plus``)
with the associated asymptotes and ``b`` limits.  ``profile`` decides
each end's case once and keeps it as a ``BoundaryReport``; ``rate_I`` and
``rate_curve`` read their boundary rows from it.

The limits of psi, psi' and the affine gap at each domain end come in
closed form from the catalog (``LevyModel.end_limits``), and they decide
before any solving whether a root exists.  Every solve then finds the
root of an increasing function from 0 toward a domain end with
``numerics.find_root``, which takes the slope with the value and returns
None when no root lies short of the end and of float range: the
maximiser of ``m - x psi(m)`` (and of ``m y - psi(m)`` for ``psi*``) is
the root of ``psi'(m) = 1/x`` (resp. ``= y``), solved with psi'', and L
is the root of ``psi(m) = -theta``, solved with psi'.  Each step
evaluates the model's closed form once, through ``LevyModel.base_triple``
(``tilt_triple`` at m = 0), and the supremum is read off at the root
from the solve's own evaluation there.  A maximiser beyond float range,
or one where psi itself has left float range, gives I = psi* = +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ClassificationError, DomainError
from .models import LevyModel
from .numerics import find_root

__all__ = [
    "RateProfile",
    "BoundaryReport",
    "profile",
    "rate_I",
    "legendre_dual",
    "invert_L",
    "rate_curve",
]

_INF = math.inf


def _find_m0(model: LevyModel) -> tuple[float, float, float]:
    """(m0, psi'(m0), psi(m0)) with m0 = inf{theta : psi'(theta) > 0}.

    m0 is the root of psi' in (m_minus, 0) when lim psi'(m_minus) < 0, and
    m_minus, with the limits there, otherwise.  A root beyond float range
    also leaves m_minus, whose negative slope ``profile`` rejects.
    """
    psi_end, l_end, _ = model.end_limits(upper=False)
    if l_end < 0.0:
        found = _argmax(model, 0.0, model.mean)
        if found is not None:
            # One more Newton correction, free at the evaluated root,
            # takes m0 to the float nearest the root; psi(m0) bounds the
            # domain of L.
            root, psi_root, d1, d2 = found
            if d2 > 0.0 and d1 != 0.0:
                root -= d1 / d2
                psi_root = model.psi(root)
            return root, 0.0, psi_root
    return model.m_minus, l_end, psi_end


@dataclass(frozen=True)
class BoundaryReport:
    """Boundary behaviour of the rate function at one end of Delta.

    ``value_I`` and ``slope_I`` are I and I' at the end.  For case 4a only
    the magnitude of ``slope_I`` is meaningful (stored as +inf); the sign
    of the one-sided tangent is not asserted.  For case 4c ``slope_I`` is
    -inf, the limit of I'(x) = -psi(m*) as m* -> inf.  ``asymptote`` is
    the (slope, intercept) ``(-psi(m0), m0)`` of the rate function's
    linear asymptote, set in case 3a only; ``b`` is the boundary limit of
    cases 3b/4b, where I = b tau at the end.
    """

    at: str                      # "tau_zero" | "tau_plus"
    case_label: str              # "3a" | "3b" | "3c" | "4a" | "4b" | "4c"
    value_I: float
    slope_I: float
    asymptote: tuple[float, float] | None = None
    b: float | None = None


@dataclass(frozen=True)
class RateProfile:
    """Derived analytic summary of a model's clock large deviations.

    ``zero`` and ``plus`` report the boundary case at tau_zero and at
    tau_plus.  ``psi_m0`` and ``psi_at_mplus`` bound the domain of L.
    ``ldp_status`` is "full" when the full LDP is established (Delta =
    (0, inf), or a family whose path bounds control the complement) and
    "weak" otherwise.
    """

    m0: float
    psi_m0: float
    mean: float
    tau_plus: float
    tau_zero: float
    tau_e: float
    zero: BoundaryReport
    plus: BoundaryReport
    psi_at_mplus: float
    ldp_status: str


def profile(model: LevyModel) -> RateProfile:
    """Critical constants, speed interval, and boundary classification.

    Raises:
        AssumptionError: if psi'(0) <= 0 (drift condition violated).
        ClassificationError: if tau_zero matches none of its three cases
            (a root of psi' beyond float range).
    """
    mean = model.positive_mean()
    m0, l0, psi_m0 = _find_m0(model)
    psi_mplus, l_plus, gap_plus = model.end_limits(upper=True)

    tau_plus = 0.0 if math.isinf(l_plus) else 1.0 / l_plus
    tau_zero = _INF if l0 == 0.0 else 1.0 / l0

    if math.isfinite(m0) and l0 == 0.0:
        zero = BoundaryReport("tau_zero", "3a", value_I=_INF,
                              slope_I=-psi_m0, asymptote=(-psi_m0, m0))
    elif math.isinf(m0) and 0.0 < l0 < _INF:
        b = -model.end_limits(upper=False)[2]
        zero = BoundaryReport("tau_zero", "3b", value_I=b * tau_zero,
                              slope_I=_INF, b=b)
    elif math.isinf(m0) and l0 == 0.0 and -_INF < psi_m0 < 0.0:
        zero = BoundaryReport("tau_zero", "3c", value_I=_INF,
                              slope_I=-psi_m0)
    else:
        raise ClassificationError(
            f"tau_zero boundary matches no case: m0={m0!r}, "
            f"psi(m0)={psi_m0!r}, psi'(m0)={l0!r}")

    if math.isfinite(model.m_plus):     # a pole: psi(m_plus) = +inf
        plus = BoundaryReport("tau_plus", "4a", value_I=model.m_plus,
                              slope_I=_INF)
    elif math.isfinite(l_plus):
        plus = BoundaryReport("tau_plus", "4b", value_I=-gap_plus * tau_plus,
                              slope_I=-_INF, b=-gap_plus)
    else:
        plus = BoundaryReport("tau_plus", "4c", value_I=_INF, slope_I=-_INF)

    full = ((tau_plus == 0.0 and math.isinf(tau_zero))
            or model._base_form.full_ldp)
    return RateProfile(
        m0=m0, psi_m0=psi_m0, mean=mean,
        tau_plus=tau_plus, tau_zero=tau_zero, tau_e=1.0 / mean,
        zero=zero, plus=plus, psi_at_mplus=psi_mplus,
        ldp_status="full" if full else "weak")


def _argmax(model: LevyModel, slope: float, mean: float
            ) -> tuple[float, float, float, float] | None:
    """Maximiser m of the concave ``m slope - psi(m)``: psi'(m) = slope.

    ``mean`` is psi'(0), which tells on which side of 0 the root lies.
    Returns (m, psi(m), psi'(m), psi''(m)), all from the solve's own
    evaluation at m; None when no root lies short of the domain end and
    of float range.
    """
    end = model.m_plus if slope > mean else model.m_minus
    base, tilt, at_tilt = model.base_triple, model.tilt, model.tilt_triple
    seen: dict[float, tuple[float, float, float]] = {}

    # find_root evaluates only strictly inside the domain: no domain check
    def f(m: float) -> tuple[float, float]:
        t = seen[m] = at_tilt if m == 0.0 else base(tilt + m)
        return t[1] - slope, t[2]
    m = find_root(f, 0.0, end)
    if m is None:
        return None
    value, d1, d2 = seen[m]
    # psi as LevyModel.psi forms it
    return m, 0.0 if m == 0.0 else value - model.psi_offset, d1, d2


def _rate_point(model: LevyModel, x: float,
                prof: RateProfile) -> tuple[float, float]:
    """(I(x), I'(x)) for x strictly inside Delta; I'(x) = -psi(m*)."""
    if x == prof.tau_e:
        return 0.0, -0.0
    found = _argmax(model, 1.0 / x, prof.mean)
    if found is None:
        return _INF, -_INF
    m_star, psi_star = found[:2]
    if math.isinf(psi_star):        # the supremum is beyond float range
        return _INF, -_INF
    return max(m_star - x * psi_star, 0.0), -psi_star


def rate_I(model: LevyModel, x: float,
           prof: RateProfile | None = None) -> float:
    """Rate function I(x) = sup_{m in (m0, m_plus)} {m - x psi(m)}.

    Defined on the closed speed interval [tau_plus, tau_zero]; boundary
    values follow the 3a-4c classification (+inf indicates a divergent
    supremum, case 4c).  Exactly 0 at x = tau_e.

    Raises:
        DomainError: for x outside the closure of Delta (where I = +inf).
    """
    prof = prof if prof is not None else profile(model)
    if not (prof.tau_plus <= x <= prof.tau_zero):
        raise DomainError(
            f"x = {x!r} outside closure of Delta = [{prof.tau_plus!r}, "
            f"{prof.tau_zero!r}]; I(x) = +inf there")
    if x in (prof.tau_plus, prof.tau_zero):
        return (prof.plus if x == prof.tau_plus else prof.zero).value_I
    return _rate_point(model, x, prof)[0]


def legendre_dual(model: LevyModel, y: float) -> float:
    """Fenchel-Legendre dual psi*(y) = sup_{m} {m y - psi(m)}.

    The supremum runs over the full open domain (m_minus, m_plus); +inf
    is returned when it diverges, as it does at y = +-inf.

    Raises:
        DomainError: for a NaN y.
    """
    if y != y:
        raise DomainError(f"y = {y!r}: psi*(y) needs a number")
    for upper in (True, False):
        _, l_end, gap = model.end_limits(upper)
        if y > l_end if upper else y < l_end:
            return _INF
        # an affine end, or y = +-inf at an end where psi' is unbounded
        if y == l_end:
            return _INF if gap is None else -gap
    found = _argmax(model, y, model.mean)
    if found is None:
        return _INF
    m_star, psi_star = found[:2]
    return _INF if math.isinf(psi_star) else m_star * y - psi_star


def invert_L(model: LevyModel, theta: float,
             prof: RateProfile | None = None) -> float:
    """Limit log-Laplace transform L(theta) = -m where psi(m) = -theta.

    ``psi`` restricted to (m0, m_plus) is increasing, so the root is
    unique; L is increasing with L(0) = 0.

    Raises:
        DomainError: for theta outside (-psi(m_plus), -psi(m0)).
    """
    prof = prof if prof is not None else profile(model)
    theta_hi = -prof.psi_m0
    theta_lo = -prof.psi_at_mplus
    if not (theta_lo < theta < theta_hi):
        raise DomainError(
            f"theta = {theta!r} outside ({theta_lo!r}, {theta_hi!r})")
    if theta == 0.0:
        return 0.0
    target = -theta
    end = model.m_plus if target > 0.0 else prof.m0
    base, tilt, offset = model.base_triple, model.tilt, model.psi_offset

    # find_root evaluates only strictly inside the domain: no domain check
    def f(m: float) -> tuple[float, float]:
        if m == 0.0:                # known: psi(0) = 0, psi'(0) = mean
            return -target, prof.mean
        value, d1, _ = base(tilt + m)
        return value - offset - target, d1
    root = find_root(f, 0.0, end)
    if root is None:
        side = "below m_plus" if target > 0.0 else "above m0"
        raise DomainError(f"psi never reaches {target!r} {side}")
    return -root


def rate_curve(model: LevyModel, x_lo: float, x_hi: float, n: int,
               prof: RateProfile | None = None
               ) -> list[tuple[float, float, float]]:
    """Monotone grid of (x, I(x), I'(x)) rows on [x_lo, x_hi].

    The derivative comes from the envelope theorem, I'(x) = -psi(m*(x)),
    with the classification's one-sided values at the boundary points.

    Raises:
        DomainError: if the grid leaves the closure of Delta, has an
            infinite end, or n < 2.
    """
    prof = prof if prof is not None else profile(model)
    if n < 2:
        raise DomainError(f"rate_curve needs n >= 2, got {n!r}")
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise DomainError(f"grid [{x_lo!r}, {x_hi!r}] needs finite ends")
    if not (prof.tau_plus <= x_lo < x_hi <= prof.tau_zero):
        raise DomainError(
            f"grid [{x_lo!r}, {x_hi!r}] not inside closure of Delta = "
            f"[{prof.tau_plus!r}, {prof.tau_zero!r}]")
    ends = {prof.tau_plus: (prof.plus.value_I, prof.plus.slope_I),
            prof.tau_zero: (prof.zero.value_I, prof.zero.slope_I)}
    rows: list[tuple[float, float, float]] = []
    for i in range(n):
        # x_lo + (x_hi - x_lo) can round off x_hi, so the last row is x_hi
        x = x_hi if i == n - 1 else x_lo + (x_hi - x_lo) * i / (n - 1)
        row = ends[x] if x in ends else _rate_point(model, x, prof)
        rows.append((x, *row))
    return rows
