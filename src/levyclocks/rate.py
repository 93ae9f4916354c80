"""Large-deviation analytics for the clock of a Lamperti-transformed model.

Computes, for a catalog model with positive drift, the critical point
``m0 = inf{theta : psi'(theta) > 0}``, the speed interval
``Delta = (tau_plus, tau_zero)`` with ``tau_* = 1/psi'`` limits at the
domain ends (using ``1/psi'(+-inf) := lim m/psi(m)``, which equals the
monotone derivative limit), the rate function

    I(x) = sup_{m in (m0, m_plus)} { m - x psi(m) },

its Fenchel-Legendre partner ``psi*``, the inverse-exponent transform
``L(theta) = -m  <=>  theta = -psi(m)``, and the six-way boundary
classification (cases 3a/3b/3c at ``tau_zero``, 4a/4b/4c at ``tau_plus``)
with the associated asymptotes and ``b`` limits.

Every solve runs on an increasing function along geometric probes from 0
toward a domain end: the probes stop at the first sign change and Brent's
method finishes on that interval.  The maximiser of ``m - x psi(m)`` (and
of ``m y - psi(m)`` for ``psi*``) is the root of ``psi'(m) = 1/x`` (resp.
``= y``), so the supremum is read off at the root; when the probes run
out first, it is the limit of the objective along them.  Boundary ``b``
limits use Richardson extrapolation along the same kind of probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator

from .errors import AssumptionError, ClassificationError, DomainError
from .models import Family, LevyModel
from .numerics import Bracket, find_root

__all__ = [
    "Tau0Case",
    "TauPlusCase",
    "RateProfile",
    "BoundaryReport",
    "profile",
    "rate_I",
    "legendre_dual",
    "invert_L",
    "classify_boundaries",
    "rate_curve",
    "rate_curve_text",
]

_INF = math.inf

# Probe caps: 2^45 keeps every catalog exponent comfortably inside float
# range while pushing O(1/m) limit errors below 1e-13.
_MAX_PROBE_EXP = 45
_DIVERGED = 1e13
_CONV_RTOL = 1e-14
_ZERO_SNAP = 1e-13


class Tau0Case(str, Enum):
    C3A = "3a"
    C3B = "3b"
    C3C = "3c"


class TauPlusCase(str, Enum):
    C4A = "4a"
    C4B = "4b"
    C4C = "4c"


def _approach(anchor: float, endpoint: float) -> Iterator[float]:
    """Geometric probe sequence from near ``anchor`` toward ``endpoint``."""
    if math.isinf(endpoint):
        sign = 1.0 if endpoint > 0 else -1.0
        start = max(1.0, 2.0 * abs(anchor))
        k = 0
        while start * 2.0 ** k <= 2.0 ** _MAX_PROBE_EXP:
            yield anchor + sign * start * 2.0 ** k
            k += 1
    else:
        gap = endpoint - anchor
        for k in range(1, 53):
            m = endpoint - gap / 2.0 ** k
            if m == endpoint:
                return
            yield m


def _limit_along(values: Iterator[float]) -> float:
    """Limit of a monotone-tailed sequence along geometric probes.

    Returns the exactly stabilized float value when consecutive probes
    agree, +-inf on magnitude blow-up or when the probe increments keep
    growing (polynomial divergence, e.g. psi' ~ m^p), and the last probe
    otherwise (slow but genuine convergence).
    """
    vals: list[float] = []
    for v in values:
        if not math.isfinite(v) or abs(v) > _DIVERGED:
            return _INF if v > 0 else -_INF
        if vals and v == vals[-1]:
            return v
        vals.append(v)
    if not vals:
        return 0.0
    if len(vals) >= 3:
        d_last = vals[-1] - vals[-2]
        d_prev = vals[-2] - vals[-3]
        if abs(d_last) > 1.2 * abs(d_prev):
            return _INF if d_last > 0 else -_INF
    return vals[-1]


# Families whose exponent grows faster than linearly at an infinite domain
# end (2m^2, c m^alpha, c |m|^(1 + kappa)), so psi' is unbounded there.
_SUPERLINEAR = (Family.BROWNIAN_DRIFT, Family.STABLE_CONDITIONED,
                Family.CSBP_IMMIGRATION)


@lru_cache(maxsize=512)
def _deriv_limit(model: LevyModel, upper: bool) -> float:
    """lim of psi' at the upper (m_plus) or lower (m_minus) domain end.

    At an infinite end the catalog decides divergence: psi' tends to that
    end when psi grows faster than linearly.  Probes cannot tell, because
    psi' may grow like m^(alpha - 1) with alpha - 1 so small that the
    increments up to 2^45 look like those of a converging sequence.

    Every other end is probed.  psi is convex, so psi' rises along the
    probes toward m_plus and falls toward m_minus.  The walk stops at the
    first probe that turns back: the closed form has lost its digits
    (hypergeometric_stable with alpha = 2 near its Gamma poles), and its
    jumps would read as divergence.
    """
    end = model.m_plus if upper else model.m_minus
    if math.isinf(end) and model.family in _SUPERLINEAR:
        return end

    def monotone_prefix() -> Iterator[float]:
        prev = None
        for m in _approach(0.0, end):
            v = model.psi_derivs(m)[0]
            if prev is not None and (v < prev if upper else v > prev):
                return
            prev = v
            yield v

    return _limit_along(monotone_prefix())


@lru_cache(maxsize=512)
def _psi_limit(model: LevyModel, upper: bool) -> float:
    """lim of psi at the upper or lower domain end."""
    end = model.m_plus if upper else model.m_minus
    return _limit_along(model.psi(m) for m in _approach(0.0, end))


def _increasing_root(f: Callable[[float], float],
                     end: float) -> tuple[float | None, list[float]]:
    """Root of an increasing ``f`` that lies between 0 and ``end``.

    Probes ``_approach(0, end)`` until ``f`` changes sign, then solves on
    the last probe interval with Brent's method.  Returns (root, probes
    passed); the root is None when the probes run out first.
    """
    up = end > 0.0
    prev = 0.0
    probes: list[float] = []
    for m in _approach(0.0, end):
        v = f(m)
        if v == 0.0:
            return m, probes
        if (v > 0.0) == up:
            lo, hi = (prev, m) if up else (m, prev)
            return find_root(f, Bracket(lo, hi),
                             tol=1e-14 * max(1.0, abs(m))), probes
        probes.append(m)
        prev = m
    return None, probes


def _find_m0(model: LevyModel) -> tuple[float, float]:
    """(m0, psi'(m0)) with m0 = inf{theta : psi'(theta) > 0}.

    Returns the root of psi' when a sign change exists in (m_minus, 0),
    otherwise (m_minus, lim psi').  The derivative limit is snapped to 0
    when it is zero to within probe resolution.
    """
    root, _ = _increasing_root(lambda m: model.psi_derivs(m)[0],
                               model.m_minus)
    if root is not None:
        return root, 0.0
    limit = _deriv_limit(model, upper=False)
    if 0.0 <= limit <= _ZERO_SNAP:
        limit = 0.0
    return model.m_minus, limit


def _affine_gap_limit(model: LevyModel, slope: float, upper: bool) -> float:
    """lim psi(m) - m * slope toward an infinite domain end.

    Richardson extrapolation along m = +-2^k assuming an O(1/m) error
    term; returns -inf when the gap diverges (the b = +inf boundary case).
    """
    sign = 1.0 if upper else -1.0
    prev_v = None
    prev_e = None
    for k in range(8, 30):
        m = sign * 2.0 ** k
        v = model.psi(m) - m * slope
        if not math.isfinite(v) or abs(v) > _DIVERGED:
            return _INF if v > 0 else -_INF
        if prev_v is not None:
            extrap = 2.0 * v - prev_v
            if prev_e is not None and abs(extrap - prev_e) <= 1e-10 * max(1.0, abs(extrap)):
                return extrap
            prev_e = extrap
        prev_v = v
    return prev_e if prev_e is not None else prev_v


@dataclass(frozen=True)
class RateProfile:
    """Derived analytic summary of a model's clock large deviations.

    ``asymptote`` is the (slope, intercept) of the rate function's linear
    asymptote when ``class_tau0`` is 3a, i.e. ``(-psi(m0), m0)``.
    ``b_zero``/``b_plus`` are the boundary limits of cases 3b/4b.
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
    delta: tuple[float, float]
    class_tau0: Tau0Case
    class_tauplus: TauPlusCase
    asymptote: tuple[float, float] | None
    b_zero: float | None
    b_plus: float | None
    deriv_at_m0: float
    deriv_at_mplus: float
    psi_at_mplus: float
    ldp_status: str


def profile(model: LevyModel) -> RateProfile:
    """Critical constants, speed interval, and boundary classification.

    Raises:
        AssumptionError: if psi'(0) <= 0 (drift condition violated).
        ClassificationError: if a boundary matches none of the six cases.
    """
    mean = model.mean
    if not mean > 0.0:
        raise AssumptionError(
            f"drift condition violated: psi'(0) = {mean!r} <= 0 for "
            f"{model.describe()}")

    m0, l0 = _find_m0(model)
    psi_m0 = model.psi(m0) if math.isfinite(m0) else _psi_limit(model, upper=False)
    l_plus = _deriv_limit(model, upper=True)
    psi_mplus = _psi_limit(model, upper=True)

    tau_plus = 0.0 if math.isinf(l_plus) else 1.0 / l_plus
    tau_zero = _INF if l0 == 0.0 else 1.0 / l0
    tau_e = 1.0 / mean

    asymptote: tuple[float, float] | None = None
    b_zero: float | None = None
    b_plus: float | None = None

    if math.isfinite(m0) and l0 == 0.0:
        class_tau0 = Tau0Case.C3A
        asymptote = (-psi_m0, m0)
    elif math.isinf(m0) and 0.0 < l0 < _INF:
        class_tau0 = Tau0Case.C3B
        b_zero = -_affine_gap_limit(model, l0, upper=False)
    elif math.isinf(m0) and l0 == 0.0 and -_INF < psi_m0 < 0.0:
        class_tau0 = Tau0Case.C3C
    else:
        raise ClassificationError(
            f"tau_zero boundary matches no case: m0={m0!r}, "
            f"psi(m0)={psi_m0!r}, psi'(m0)={l0!r}")

    m_plus = model.m_plus
    if math.isfinite(m_plus) and math.isinf(psi_mplus):
        class_tauplus = TauPlusCase.C4A
    elif math.isinf(m_plus) and math.isfinite(l_plus):
        class_tauplus = TauPlusCase.C4B
        b_plus = -_affine_gap_limit(model, l_plus, upper=True)
    elif math.isinf(m_plus) and math.isinf(l_plus):
        class_tauplus = TauPlusCase.C4C
    else:
        raise ClassificationError(
            f"tau_plus boundary matches no case: m_plus={m_plus!r}, "
            f"psi(m_plus)={psi_mplus!r}, psi'(m_plus)={l_plus!r}")

    full = (tau_plus == 0.0 and math.isinf(tau_zero)) or model.family in (
        Family.CP_PLUS_DRIFT, Family.SAW_TOOTH)
    return RateProfile(
        m0=m0, psi_m0=psi_m0, mean=mean,
        tau_plus=tau_plus, tau_zero=tau_zero, tau_e=tau_e,
        delta=(tau_plus, tau_zero),
        class_tau0=class_tau0, class_tauplus=class_tauplus,
        asymptote=asymptote, b_zero=b_zero, b_plus=b_plus,
        deriv_at_m0=l0, deriv_at_mplus=l_plus, psi_at_mplus=psi_mplus,
        ldp_status="full" if full else "weak")


@dataclass(frozen=True)
class BoundaryReport:
    """Boundary behaviour of the rate function at one end of Delta.

    For case 4a only the magnitude of ``slope_I`` is meaningful (stored as
    +inf); the sign of the one-sided tangent is not asserted.  ``slope_I``
    is ``None`` for case 4c, where I is identically +inf at the boundary.
    """

    at: str                      # "tau_zero" | "tau_plus"
    case_label: str              # "3a" | "3b" | "3c" | "4a" | "4b" | "4c"
    value_I: float
    slope_I: float | None
    asymptote: tuple[float, float] | None = None


def classify_boundaries(model: LevyModel,
                        prof: RateProfile | None = None
                        ) -> tuple[BoundaryReport, BoundaryReport]:
    """(report at tau_zero, report at tau_plus) per the six-case taxonomy."""
    prof = prof if prof is not None else profile(model)

    if prof.class_tau0 is Tau0Case.C3A:
        zero = BoundaryReport("tau_zero", "3a", value_I=_INF,
                              slope_I=-prof.psi_m0, asymptote=prof.asymptote)
    elif prof.class_tau0 is Tau0Case.C3B:
        zero = BoundaryReport("tau_zero", "3b",
                              value_I=prof.b_zero * prof.tau_zero,
                              slope_I=_INF)
    else:
        zero = BoundaryReport("tau_zero", "3c", value_I=_INF,
                              slope_I=-prof.psi_m0)

    if prof.class_tauplus is TauPlusCase.C4A:
        plus = BoundaryReport("tau_plus", "4a", value_I=model.m_plus,
                              slope_I=_INF)
    elif prof.class_tauplus is TauPlusCase.C4B:
        plus = BoundaryReport("tau_plus", "4b",
                              value_I=prof.b_plus * prof.tau_plus,
                              slope_I=-_INF)
    else:
        plus = BoundaryReport("tau_plus", "4c", value_I=_INF, slope_I=None)
    return zero, plus


def _argmax(model: LevyModel, slope: float,
            mean: float) -> tuple[float | None, list[float]]:
    """Maximiser of the concave ``m slope - psi(m)``: psi'(m) = slope.

    ``mean`` is psi'(0), which tells on which side of 0 the root lies.
    """
    end = model.m_plus if slope > mean else model.m_minus
    return _increasing_root(lambda m: model.psi_derivs(m)[0] - slope, end)


def _rate_point(model: LevyModel, x: float,
                prof: RateProfile) -> tuple[float, float]:
    """(I(x), I'(x)) for x strictly inside Delta; I'(x) = -psi(m*)."""
    if x == prof.tau_e:
        return 0.0, -0.0
    m_star, probes = _argmax(model, 1.0 / x, prof.mean)
    if m_star is None:
        value = _limit_along(m - x * model.psi(m) for m in probes)
        return max(value, 0.0), -model.psi(probes[-1])
    psi_star = model.psi(m_star)
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
        zero, plus = classify_boundaries(model, prof)
        return (plus if x == prof.tau_plus else zero).value_I
    return _rate_point(model, x, prof)[0]


def legendre_dual(model: LevyModel, y: float) -> float:
    """Fenchel-Legendre dual psi*(y) = sup_{m} {m y - psi(m)}.

    The supremum runs over the full open domain (m_minus, m_plus); +inf
    is returned when it diverges.
    """
    for upper in (True, False):
        end = model.m_plus if upper else model.m_minus
        l_end = _deriv_limit(model, upper)
        beyond = y > l_end if upper else y < l_end
        if beyond or (y == l_end and math.isfinite(l_end)):
            if math.isfinite(end):
                return end * y - _psi_limit(model, upper)
            if beyond:
                return _INF
            return -_affine_gap_limit(model, l_end, upper)
    m_star, probes = _argmax(model, y, model.mean)
    if m_star is None:
        return _limit_along(m * y - model.psi(m) for m in probes)
    return m_star * y - model.psi(m_star)


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
    root, _ = _increasing_root(lambda m: model.psi(m) - target, end)
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
    zero, plus = classify_boundaries(model, prof)
    ends = {prof.tau_plus: (plus.value_I, -_INF if plus.slope_I is None
                            else plus.slope_I),
            prof.tau_zero: (zero.value_I, zero.slope_I)}
    rows: list[tuple[float, float, float]] = []
    for i in range(n):
        x = x_lo + (x_hi - x_lo) * i / (n - 1)
        row = ends[x] if x in ends else _rate_point(model, x, prof)
        rows.append((x, *row))
    return rows


def rate_curve_text(rows: list[tuple[float, float, float]]) -> str:
    """Serialize rate-curve rows as CSV with 17 significant digits."""
    out = ["x,I,Iprime"]
    for x, i_val, i_slope in rows:
        out.append(f"{x:.17g},{i_val:.17g},{i_slope:.17g}")
    return "\n".join(out) + "\n"
