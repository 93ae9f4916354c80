"""Catalog of Lévy process families as Laplace-exponent objects.

Each family carries a closed-form Laplace exponent ``psi`` with
``E exp(m xi_t) = exp(t psi(m))`` on an open domain ``(m_minus, m_plus)``
containing 0, and an exponential-tilt (Esscher) mechanism.  Each family
is declared once, as one function of its params: it checks the family's
constraints and returns a ``_Form`` holding the open base domain, the
closed form giving ``psi``, ``psi'`` and ``psi''`` together, the limits
at each end where the exponent is affine, the path law of a family with
an exact sampler and whether its path bounds give the full LDP.  A
degenerate case is decided there and nowhere else.  ``LevyModel`` applies
its tilt to the path law once; the sampler, the first-passage refusal
and ``moments.F_of_m`` read the tilted law, not the family's name.  ``LevyModel`` reads that one form, built
at construction; ``psi``, ``psi_derivs``, ``end_limits`` and ``mean``
read its closed form, ``LevyModel.base_triple``, and so do the rate
solvers, which take the value and both derivatives from one evaluation
per step.  Nothing is memoised across points or models.

Families and exponents (``m`` ranges over the open domain):

==============================  ===========================================
brownian_drift(nu)              2 m (m + nu)                    on (-inf, inf)
cp_plus_drift(d, beta, gamma)   m (d + beta / (gamma - m))      on (-inf, gamma)
        beta = 0:               d m                             on (-inf, inf)
cp_minus_drift(beta, gamma)     m (-1 + beta / (gamma - m))     on (-inf, gamma)
saw_tooth(beta, gamma)          m (gamma - beta + m)/(gamma+m)  on (-gamma, inf)
stable_conditioned(alpha, c)    c Gamma(m+alpha)/Gamma(m)       on (-alpha, inf)
csbp_immigration(kappa, delta, c)
        c (kappa - (kappa+1) delta - m) Gamma(kappa-m)/Gamma(-m)
                                                                on (-inf, kappa)
        kappa = 1:              c m (m + 2 delta - 1)           on (-inf, inf)
hypergeometric_stable(alpha, d)
        -2^alpha [G((alpha-m)/2)/G(-m/2)] [G((m+d)/2)/G((m+d-alpha)/2)]
                                                                on (-d, alpha)
        alpha = 2:              m (m + d - 2)                   on (-inf, inf)
==============================  ===========================================

At kappa = 1 and alpha = 2 the Gamma ratios cancel: both processes are
Brownian motion with drift (nu = 2 delta - 1 at speed c/2, and nu = d - 2
at speed 1/2), whose exponent is finite on the whole line.  The general
domains would leave an end at which psi stays finite, which fits none of
the boundary cases; on the whole line every finite end is a pole.

Values at removable singularities of the Gamma-ratio families (the zeros
of 1/Gamma inside the domain, e.g. m = 0) are obtained from reflection-
formula product forms which are smooth across those points, so no Taylor
patching or finite differencing is ever needed.  Derivatives are obtained
by analytic differentiation of the same product forms (digamma/trigamma
terms), never numerically.  Far out (Gamma arguments of 64 and more) a
ratio Gamma(z + h)/Gamma(z) comes from Stirling series in the shift h,
which keep full precision where differences of log Gamma cancel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple

from .errors import AssumptionError, ConstructionError, DomainError
from .numerics import _psi_pair, log_gamma

__all__ = [
    "Family",
    "LevyModel",
    "make_model",
    "brownian_drift",
    "cp_plus_drift",
    "cp_minus_drift",
    "saw_tooth",
    "stable_conditioned",
    "csbp_immigration",
    "hypergeometric_stable",
    "model_to_text",
    "model_from_text",
]

_PI = math.pi
_INF = math.inf
# Smallest positive normal float: below it a product has lost digits.
_TINY = sys.float_info.min


class Family(str, Enum):
    BROWNIAN_DRIFT = "brownian_drift"
    CP_PLUS_DRIFT = "cp_plus_drift"
    CP_MINUS_DRIFT = "cp_minus_drift"
    SAW_TOOTH = "saw_tooth"
    STABLE_CONDITIONED = "stable_conditioned"
    CSBP_IMMIGRATION = "csbp_immigration"
    HYPERGEOMETRIC_STABLE = "hypergeometric_stable"


class _Law(NamedTuple):
    """The law of a sampled family's paths: xi_t = 2 (B_t + drift t) when
    ``gaussian``, else xi_t = drift t plus jumps of ``sign`` Exp(``gamma``)
    at rate ``rate`` (none at rate 0)."""

    drift: float
    gaussian: bool = False
    rate: float = 0.0
    gamma: float = _INF
    sign: float = 1.0


class _Form(NamedTuple):
    """One family at its params.

    ``(lo, hi)`` is the open base domain and ``triple`` the closed form
    ``M -> (Psi(M), Psi'(M), Psi''(M))`` on it.  ``lower`` and ``upper``
    are (l, g) at an end where Psi is affine in the limit: the
    compound-Poisson ends, where Psi'(M) -> l, the drift, and
    Psi(M) - M l -> g = -beta, minus the jump rate.  They are None at
    every other end, where Psi' is unbounded: a finite end is a pole and
    every other infinite end is superlinear.  ``law`` is the untilted
    path law of a family with an exact sampler, None for the Gamma-ratio
    families.  ``full_ldp`` marks a family whose path bounds establish
    the full LDP of the clock off Delta = (0, inf).
    """

    lo: float
    hi: float
    triple: Callable[[float], tuple[float, float, float]]
    lower: tuple[float, float] | None = None
    upper: tuple[float, float] | None = None
    law: _Law | None = None
    full_ldp: bool = False


def _require(cond: bool, constraint: str) -> None:
    if not cond:
        raise ConstructionError(f"parameter constraint violated: {constraint}")


# --------------------------------------------------------------------------
# Closed-form psi, psi', psi'' and the helpers the families share.
# --------------------------------------------------------------------------

# Smallest power of two from which _stirling_shift is accurate to 1e-15
# relative.  The direct differences cancel as z grows, and z + h rounds
# away digits of h: by z ~ 2^44 they have lost every digit.
_STIRLING_FROM = 64.0


def _stirling_shift(z: float, h: float) -> tuple[float, float, float]:
    """Differences at z + h and z of log Gamma, digamma and trigamma.

    Each term of the Stirling series is differenced in closed form, so
    nothing cancels however small h is against z.
    """
    t = math.log1p(h / z)
    u, v = 1.0 / (z + h), 1.0 / z
    u2, v2 = u * u, v * v
    d0 = ((z - 0.5) * t + h * (math.log(z + h) - 1.0)
          + (u - v) / 12.0 - (u * u2 - v * v2) / 360.0
          + (u * u2 * u2 - v * v2 * v2) / 1260.0)
    d1 = (t + 0.5 * h * u * v - (u2 - v2) / 12.0
          + (u2 * u2 - v2 * v2) / 120.0
          - (u2 * u2 * u2 - v2 * v2 * v2) / 252.0)
    d2 = (-h * u * v * (1.0 + 0.5 * (u + v)) + (u * u2 - v * v2) / 6.0
          - (u * u2 * u2 - v * v2 * v2) / 30.0
          + (u * u2 ** 3 - v * v2 ** 3) / 42.0)
    return d0, d1, d2


def _signed_exp(e: float, sign: float, c: float) -> float:
    """c exp(e) with the sign of ``sign``, c > 0; +-inf past float range.
    Where exp(e) overflows it is exp(e + log c), finite if c exp(e) fits."""
    try:
        return c * math.copysign(math.exp(e), sign)
    except OverflowError:
        e += math.log(c)
    try:
        return math.copysign(math.exp(e), sign)
    except OverflowError:
        return math.copysign(math.inf, sign)


def _gamma_ratio(z: float, h: float, s: float,
                 c: float = 1.0) -> tuple[float, float, float]:
    """c (f, f', f'') for f(m) = Gamma(z(m) + h) / Gamma(z(m)), c > 0.

    ``z`` is the current argument value, ``s`` its constant slope in
    ``m`` and ``h`` a constant shift; requires ``z + h > 0``.  From
    ``z = 1/2`` up, log Gamma and (by one ``_psi_pair`` call each)
    digamma and trigamma are differenced at ``z + h`` and ``z``, and from
    ``_STIRLING_FROM`` up the differences come from ``_stirling_shift``.
    Below ``z = 1/2`` it switches to the reflected form 1/Gamma(z) =
    sin(pi z) Gamma(1 - z) / pi, smooth across the zeros of 1/Gamma at
    non-positive integer ``z``.  Where the ratio leaves float range
    (f = +inf) or f''/f underflows, f' and f'' (and c f) come from log f:
    finite and accurate where they fit.
    """
    a = z + h
    if z >= 0.5:
        if z >= _STIRLING_FROM:
            d0, d1, d2 = _stirling_shift(z, h)
        else:
            d0 = log_gamma(a) - log_gamma(z)
            (p1, p2), (q1, q2) = _psi_pair(a), _psi_pair(z)
            d1, d2 = p1 - q1, p2 - q2
        lr = s * d1
        curv = lr * lr + s * s * d2
        try:
            f = math.exp(d0)
        except OverflowError:
            f = math.inf
        if f < math.inf and (abs(curv) >= _TINY or z < _STIRLING_FROM):
            return c * f, c * (f * lr), c * (f * curv)
        # Far out along the Stirling branch (z > 1e153 with h <= 2), lr^2
        # and s^2 d2 underflow, and f overflows from h log z > 709 on, so c f,
        # f' and f'' come from logs: d1^2 + d2 is h (h - 1)/z^2 to far below
        # rounding.
        q = h * (h - 1.0)
        cf = _signed_exp(d0, 1.0, c)
        f1 = (c * (f * lr) if f < math.inf
              else _signed_exp(d0 + math.log(abs(lr)), lr, c))
        if q == 0.0:
            return cf, f1, 0.0
        return cf, f1, _signed_exp(d0 + math.log(s * s * abs(q))
                                   - 2.0 * math.log(z), q, c)
    G = log_gamma(a) + log_gamma(1.0 - z)
    (p1, p2), (q1, q2) = _psi_pair(a), _psi_pair(1.0 - z)
    G1, G2 = s * (p1 - q1), s * s * (p2 + q2)
    try:
        g = math.exp(G) / _PI
    except OverflowError:
        g = math.inf
    sn, cs = math.sin(_PI * z), math.cos(_PI * z)
    sd = _PI * s * cs
    sdd = -_PI * _PI * s * s * sn
    f = g * sn
    f1 = g * (G1 * sn + sd)
    f2 = g * ((G2 + G1 * G1) * sn + 2.0 * G1 * sd + sdd)
    return c * f, c * f1, c * f2


def _jump_ratios(beta: float, gamma: float, g: float):
    """(beta gamma / g^2, 2 beta gamma / g^3), the derivative terms of the
    exponential-jump families.  Where a power of g underflows to 0 the
    ratio is formed from beta/g and gamma/g instead."""
    g2, g3 = g * g, g * g * g
    if g3:
        return beta * gamma / g2, 2.0 * beta * gamma / g3
    r = beta / g * (gamma / g)
    return (beta * gamma / g2 if g2 else r), 2.0 * r / g


def _cp(d: float, beta: float, gamma: float):
    def triple(m: float):
        g = gamma - m
        r1, r2 = _jump_ratios(beta, gamma, g)
        return m * (d + beta / g), d + r1, r2
    return triple


# --------------------------------------------------------------------------
# The families.  Each checks its constraints, in order, and returns its
# _Form at the params; a degenerate case returns its own form.
# --------------------------------------------------------------------------

def _brownian(nu: float) -> _Form:
    _require(nu > 0, "nu > 0")
    return _Form(-_INF, _INF,
                 lambda m: (2.0 * m * (m + nu), 4.0 * m + 2.0 * nu, 4.0),
                 law=_Law(nu, gaussian=True))


def _cp_plus(d: float, beta: float, gamma: float) -> _Form:
    _require(d >= 0, "d >= 0")
    # beta = 0 is accepted as the degenerate pure-drift case.
    _require(beta >= 0, "beta >= 0")
    _require(gamma > 0, "gamma > 0")
    _require(d + beta > 0, "d + beta > 0 (drift to +inf)")
    end, law = (d, -beta), _Law(d, rate=beta, gamma=gamma)
    if beta == 0.0:         # pure drift: affine at both ends of the line
        return _Form(-_INF, _INF, lambda m: (d * m, d, 0.0), end, end,
                     law, full_ldp=True)
    return _Form(-_INF, gamma, _cp(d, beta, gamma), end, law=law,
                 full_ldp=True)


def _cp_minus(beta: float, gamma: float) -> _Form:
    _require(gamma > 0, "gamma > 0")
    _require(gamma < beta, "0 < gamma < beta")
    return _Form(-_INF, gamma, _cp(-1.0, beta, gamma), (-1.0, -beta),
                 law=_Law(-1.0, rate=beta, gamma=gamma))


def _saw_tooth(beta: float, gamma: float) -> _Form:
    _require(beta > 0, "beta > 0")
    _require(beta < gamma, "0 < beta < gamma")

    def triple(m: float):
        g = gamma + m
        r1, r2 = _jump_ratios(beta, gamma, g)
        return m * (gamma - beta + m) / g, 1.0 - r1, r2
    return _Form(-gamma, _INF, triple, upper=(1.0, -beta),
                 law=_Law(1.0, rate=beta, gamma=gamma, sign=-1.0),
                 full_ldp=True)


def _stable(alpha: float, c: float) -> _Form:
    _require(1.0 < alpha < 2.0, "alpha in (1, 2)")
    _require(c > 0, "c > 0")
    return _Form(-alpha, _INF, lambda m: _gamma_ratio(m, alpha, 1.0, c))


def _csbp(kappa: float, delta: float, c: float) -> _Form:
    _require(0.0 < kappa <= 1.0, "kappa in (0, 1]")
    _require(delta > kappa / (kappa + 1.0), "delta > kappa/(kappa+1)")
    _require(c > 0, "c > 0")
    if kappa == 1.0:
        q = 2.0 * delta - 1.0
        return _Form(-_INF, _INF, lambda m: (c * m * (m + q),
                                             c * (2.0 * m + q), 2.0 * c))
    lin = kappa - (kappa + 1.0) * delta

    def triple(m: float):
        P = lin - m         # linear factor, P' = -1
        f, f1, f2 = _gamma_ratio(-m, kappa, -1.0)
        return c * P * f, c * (-f + P * f1), c * (-2.0 * f1 + P * f2)
    return _Form(-_INF, kappa, triple)


def _hyper(alpha: float, d: float) -> _Form:
    _require(0.0 < alpha <= 2.0, "alpha in (0, 2]")
    _require(alpha < d, "alpha < d")
    if alpha == 2.0:
        return _Form(-_INF, _INF,
                     lambda m: (m * (m + d - 2.0), 2.0 * m + d - 2.0, 2.0))
    h, k = alpha / 2.0, -math.pow(2.0, alpha)

    def triple(m: float):
        # Gamma((alpha - m)/2) / Gamma(-m/2), 1/Gamma zero at m = 0, times
        # Gamma((m + d)/2) / Gamma((m + d - alpha)/2), zero at m = alpha - d.
        f1, f1d, f1dd = _gamma_ratio(-m / 2.0, h, -0.5)
        f2, f2d, f2dd = _gamma_ratio((m + d - alpha) / 2.0, h, 0.5)
        return (k * f1 * f2, k * (f1d * f2 + f1 * f2d),
                k * (f1dd * f2 + 2.0 * f1d * f2d + f1 * f2dd))
    return _Form(-d, alpha, triple)


_FAMILIES = {
    Family.BROWNIAN_DRIFT: (("nu",), _brownian),
    Family.CP_PLUS_DRIFT: (("d", "beta", "gamma"), _cp_plus),
    Family.CP_MINUS_DRIFT: (("beta", "gamma"), _cp_minus),
    Family.SAW_TOOTH: (("beta", "gamma"), _saw_tooth),
    Family.STABLE_CONDITIONED: (("alpha", "c"), _stable),
    Family.CSBP_IMMIGRATION: (("kappa", "delta", "c"), _csbp),
    Family.HYPERGEOMETRIC_STABLE: (("alpha", "d"), _hyper),
}

PARAM_NAMES: dict[Family, tuple[str, ...]] = {
    family: names for family, (names, _) in _FAMILIES.items()}


def _form(family: Family, p: tuple[float, ...]) -> _Form:
    """``family``'s form at params ``p``, or ConstructionError."""
    names, declare = _FAMILIES[family]
    if len(p) != len(names):
        raise ConstructionError(
            f"{family.value} takes parameters {names}, got {len(p)} values")
    if not all(math.isfinite(v) for v in p):
        raise ConstructionError(f"{family.value} parameters must be finite")
    return declare(*p)


@dataclass(frozen=True)
class LevyModel:
    """A Lévy family instance: exponent, open domain, and Esscher tilt.

    The stored ``tilt`` composes exponential changes of measure: the
    model's exponent is ``psi(theta) = Psi(tilt + theta) - Psi(tilt)``
    where ``Psi`` is the untilted family exponent, and the open domain is
    the family domain shifted by ``-tilt``.  ``psi(0) = 0`` holds exactly
    by construction.

    The family's form at the params is built once, at construction,
    which checks the constraints.  The domain, ``end_limits`` and every
    value read it; values come from its closed form, ``base_triple``,
    which ``psi`` and ``psi_derivs`` call after checking the domain.
    """

    family: Family
    params: tuple[float, ...]
    tilt: float = 0.0

    def __post_init__(self) -> None:
        lo, hi = self._base_form[:2]
        if not lo < self.tilt < hi:
            raise ConstructionError(
                f"tilt {self.tilt!r} outside base domain ({lo!r}, {hi!r})")

    # -- domain ------------------------------------------------------------

    # Cached in the instance __dict__, which the frozen dataclass leaves
    # out of ==, hash and replace.
    @cached_property
    def _base_form(self) -> _Form:
        return _form(self.family, self.params)

    @cached_property
    def _path_law(self) -> _Law | None:
        """The family's path law under the tilt t, None without a sampler.

        A tilt keeps each sampled family in its own class: the Brownian
        drift becomes ``nu + 2t``; a compound-Poisson family with jumps of
        sign ``sign`` and law Exp(gamma) becomes one with jump parameter
        ``g = gamma - sign t`` and rate ``beta gamma / g`` (0 without
        jumps).
        """
        law, t = self._base_form.law, self.tilt
        if law is None:
            return None
        if law.gaussian:
            return law._replace(drift=law.drift + 2.0 * t)
        g = law.gamma - law.sign * t
        rate = 0.0 if law.rate == 0.0 else law.rate * law.gamma / g
        return law._replace(rate=rate, gamma=g)

    @cached_property
    def m_minus(self) -> float:
        return self._base_form.lo - self.tilt

    @cached_property
    def m_plus(self) -> float:
        return self._base_form.hi - self.tilt

    def __getstate__(self) -> dict:
        # The form and base_triple hold a closure, which pickle cannot
        # store; they are built again on first use after loading.
        return {k: v for k, v in vars(self).items()
                if k not in ("_base_form", "base_triple")}

    def _check_domain(self, m: float) -> None:
        if not (math.isfinite(m) and self.m_minus < m < self.m_plus):
            raise DomainError(
                f"m = {m!r} outside open domain "
                f"({self.m_minus!r}, {self.m_plus!r}) of {self.describe()}")

    # -- exponent ----------------------------------------------------------

    @cached_property
    def base_triple(self):
        """``M -> (Psi(M), Psi'(M), Psi''(M))`` of the untilted family, for M
        in its open domain, unchecked: the closed form with the params
        bound, from the model's form.  psi(m) is Psi(tilt + m) -
        Psi(tilt), and its derivatives are Psi's at tilt + m."""
        return self._base_form.triple

    @cached_property
    def tilt_triple(self) -> tuple[float, float, float]:
        """base_triple at the tilt: (Psi(tilt), psi'(0), psi''(0))."""
        return self.base_triple(self.tilt)

    @cached_property
    def psi_offset(self) -> float:
        """What psi(m) subtracts from Psi(tilt + m): Psi(tilt), 0 untilted."""
        return self.tilt_triple[0] if self.tilt != 0.0 else 0.0

    def psi(self, m: float) -> float:
        """Laplace exponent at ``m`` in the open (tilted) domain."""
        self._check_domain(m)
        if m == 0.0:
            return 0.0
        return self.base_triple(self.tilt + m)[0] - self.psi_offset

    def psi_derivs(self, m: float) -> tuple[float, float]:
        """(psi'(m), psi''(m)) by analytic differentiation."""
        self._check_domain(m)
        _, d1, d2 = self.base_triple(self.tilt + m)
        return d1, d2

    def end_limits(self, upper: bool) -> tuple[float, float, float | None]:
        """(lim psi, lim psi', gap) toward m_plus (upper) or m_minus.

        At an end where psi' is unbounded, psi -> +inf, psi' -> +inf
        (upper) or -inf, and the gap is None.  At an affine end of the base
        exponent Psi, with Psi'(M) -> l and Psi(M) - M l -> g, the tilt
        leaves psi' -> l, and the gap lim psi(m) - m l is
        g + tilt l - Psi(tilt).
        """
        affine = self._base_form.upper if upper else self._base_form.lower
        if affine is None:
            return math.inf, math.inf if upper else -math.inf, None
        l, g = affine
        gap = g + self.tilt * l - self.tilt_triple[0]
        end = self.m_plus if upper else self.m_minus
        return gap if l == 0.0 else l * end, l, gap

    @property
    def mean(self) -> float:
        """E xi_1 = psi'(0)."""
        return self.tilt_triple[1]

    def positive_mean(self) -> float:
        """psi'(0), or AssumptionError unless it is > 0: the drift
        condition, under which A(inf) = inf and every clock is finite."""
        mean = self.mean
        if not mean > 0.0:
            raise AssumptionError(
                f"drift condition violated: psi'(0) = {mean!r} <= 0 for "
                f"{self.describe()}")
        return mean

    # -- change of measure ---------------------------------------------------

    def esscher(self, m: float) -> "LevyModel":
        """Exponentially tilted model with exponent psi(m + .) - psi(m)."""
        if m == 0.0:
            return self
        self._check_domain(m)
        return replace(self, tilt=self.tilt + m)

    # -- presentation --------------------------------------------------------

    def describe(self) -> str:
        parts = [f"family={self.family.value}"]
        parts += [f"{n}={v!r}" for n, v in
                  zip(PARAM_NAMES[self.family], self.params)]
        parts.append(f"tilt={self.tilt!r}")
        return " ".join(parts)


def make_model(family: Family | str, params: list[float] | tuple[float, ...],
               tilt: float = 0.0) -> LevyModel:
    """Construct a catalog model, validating the family's constraints."""
    fam = Family(family)
    return LevyModel(fam, tuple(float(v) for v in params), float(tilt))


def brownian_drift(nu: float) -> LevyModel:
    """xi_t = 2 B_t + 2 nu t (squared-Bessel clock family)."""
    return make_model(Family.BROWNIAN_DRIFT, (nu,))


def cp_plus_drift(d: float, beta: float, gamma: float) -> LevyModel:
    """xi_t = d t + compound Poisson(beta) with Exp(gamma) jumps."""
    return make_model(Family.CP_PLUS_DRIFT, (d, beta, gamma))


def cp_minus_drift(beta: float, gamma: float) -> LevyModel:
    """xi_t = -t + compound Poisson(beta) with Exp(gamma) jumps."""
    return make_model(Family.CP_MINUS_DRIFT, (beta, gamma))


def saw_tooth(beta: float, gamma: float) -> LevyModel:
    """xi_t = t - compound Poisson(beta) with Exp(gamma) jumps."""
    return make_model(Family.SAW_TOOTH, (beta, gamma))


def stable_conditioned(alpha: float, c: float = 1.0) -> LevyModel:
    """Spectrally negative stable process conditioned to stay positive."""
    return make_model(Family.STABLE_CONDITIONED, (alpha, c))


def csbp_immigration(kappa: float, delta: float, c: float = 1.0) -> LevyModel:
    """Continuous-state branching process with immigration."""
    return make_model(Family.CSBP_IMMIGRATION, (kappa, delta, c))


def hypergeometric_stable(alpha: float, d: float) -> LevyModel:
    """Modulus of a d-dimensional stable process (Cauchy when alpha=1)."""
    return make_model(Family.HYPERGEOMETRIC_STABLE, (alpha, d))


# --------------------------------------------------------------------------
# Serialization: key-value text, lossless float round trip via repr().
# --------------------------------------------------------------------------

def model_to_text(model: LevyModel) -> str:
    lines = [f"family: {model.family.value}"]
    for name, value in zip(PARAM_NAMES[model.family], model.params):
        lines.append(f"{name}: {value!r}")
    lines.append(f"tilt: {model.tilt!r}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> LevyModel:
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ConstructionError(f"malformed model line: {raw!r}")
        entries[key.strip()] = value.strip()
    if "family" not in entries:
        raise ConstructionError("model text missing 'family' key")
    try:
        fam = Family(entries.pop("family"))
    except ValueError as exc:
        raise ConstructionError(str(exc)) from None
    tilt = float(entries.pop("tilt", "0.0"))
    try:
        params = tuple(float(entries.pop(name)) for name in PARAM_NAMES[fam])
    except KeyError as exc:
        raise ConstructionError(f"missing parameter {exc} for "
                                f"{fam.value}") from None
    if entries:
        raise ConstructionError(f"unknown keys in model text: "
                                f"{sorted(entries)}")
    return LevyModel(fam, params, tilt)
