"""Moments of the perpetuity I = int_0^inf exp(-zeta_s) ds.

For a Lévy process ``zeta`` with exponent ``phi`` and positive drift
``phi'(0) > 0``:

* ``E I^s`` is finite for all s in [-1, 0], and for s > 0 exactly when
  ``phi(-s) < 0`` (with ``phi = +inf`` outside its domain counted as a
  failure); negative moments below -1 follow from the one-step recursion
  ``E I^{-r-1} = (phi(r)/r) E I^{-r}`` whenever ``phi(r) < inf``.
* The recursion closes without simulation because
  ``E I^{-1} = phi'(0)`` (entrance-law moment identity).  For a sampled
  family it closes in Gamma functions of the path law at every real r,
  and so does the finiteness constant ``F(m) = E^(m) I^{m-1}``: a tilt
  keeps the law in its family's class, and ``F_of_m`` reads the tilted
  law.  The Gamma-ratio families have no such product here.
* Monte Carlo estimates integrate a truncated path on
  ``[0, T] , T = max(20, 10/phi'(0))``; the missing tail is bounded by
  ``(2/phi'(0)) exp(-phi'(0) T / 2)`` via the a.s. linear growth
  ``zeta_u >= phi'(0) u / 2`` for large u, and the bound is reported, not
  hidden.  Truncation shrinks I, so negative-moment estimates carry a
  one-sided upward bias within that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .errors import CapabilityError, DomainError
from .models import _STIRLING_FROM, LevyModel, _signed_exp, _stirling_shift
from .numerics import log_gamma
from .rate import profile

if TYPE_CHECKING:
    import numpy as np

    from .paths import SimConfig

__all__ = [
    "Finiteness",
    "MomentRow",
    "MomentLedger",
    "MCMoment",
    "moment_finite",
    "moment_recursion",
    "F_of_m",
    "mc_exp_functional",
    "truncation_horizon",
    "tail_bound",
]

class Finiteness(Enum):
    """Tri-state answer of :func:`moment_finite`; truthy iff FINITE."""

    FINITE = "finite"
    INFINITE = "infinite"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        return self is Finiteness.FINITE


def moment_finite(model: LevyModel, s: float) -> Finiteness:
    """Finiteness of E I^s for the perpetuity of ``model``'s process.

    FINITE for s in [-1, 0]; for s > 0, FINITE iff phi(-s) < 0 (the
    sharp criterion; phi outside its domain counts as +inf, hence
    INFINITE).  For s < -1 the recursion settles it when every factor
    phi(r), r <= -s-1 is finite, i.e. -s-1 < m_plus; otherwise UNKNOWN.
    """
    model.positive_mean()
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    if -1.0 <= s <= 0.0:
        return Finiteness.FINITE
    if s > 0.0:
        if not model.m_minus < -s:
            return Finiteness.INFINITE
        return (Finiteness.FINITE if model.psi(-s) < 0.0
                else Finiteness.INFINITE)
    return (Finiteness.FINITE if -s - 1.0 < model.m_plus
            else Finiteness.UNKNOWN)


class MomentRow(NamedTuple):
    s: float
    value: float
    method: str                  # "exact" | "recursion"


@dataclass(frozen=True)
class MomentLedger:
    """Table of E I^s values with their provenance."""

    rows: tuple[MomentRow, ...]
    note: str = ""


def moment_recursion(model: LevyModel, r_max: int) -> MomentLedger:
    """Ledger of E I^{-r} for r = 1..r_max+1 via the one-step recursion.

    The recursion starts from the exact identity E I^{-1} = phi'(0) and
    truncates with a note as soon as a factor phi(r) is infinite (r at or
    beyond the domain end m_plus).
    """
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max!r}")
    value = float(model.positive_mean())
    rows = [MomentRow(s=-1.0, value=value, method="exact")]
    note = ""
    for r in range(1, r_max + 1):
        if not r < model.m_plus:
            note = (f"truncated: phi({r}) = inf (domain end m_plus = "
                    f"{model.m_plus!r})")
            break
        value *= model.psi(float(r)) / r
        rows.append(MomentRow(s=-(r + 1.0), value=value, method="recursion"))
    return MomentLedger(rows=tuple(rows), note=note)


def truncation_horizon(model: LevyModel) -> float:
    """Integration horizon for truncated perpetuity simulation."""
    return max(20.0, 10.0 / model.positive_mean())


def tail_bound(model: LevyModel, horizon: float) -> float:
    """Deterministic bound on the missing tail int_T^inf exp(-zeta).

    Uses zeta_u >= phi'(0) u / 2 beyond the horizon (holds off an
    exponentially small event for T at the default scale).
    """
    d1 = model.positive_mean()
    return (2.0 / d1) * math.exp(-0.5 * d1 * horizon)


def _truncated_perpetuities(model: LevyModel, cfg: SimConfig,
                            horizon: float) -> np.ndarray:
    from .paths import run_paths
    return run_paths(model, cfg, horizon, lambda block: block.totals(-1.0))


@dataclass(frozen=True)
class MCMoment:
    estimate: float
    stderr: float
    n_paths: int
    horizon: float
    tail_bound: float


def mc_exp_functional(model: LevyModel, s: float, cfg: SimConfig) -> MCMoment:
    """Monte Carlo estimate of E I^s from truncated paths.

    Refuses (DomainError) unless :func:`moment_finite` certifies the
    moment: an UNKNOWN or INFINITE moment cannot be estimated honestly.
    The reported ``tail_bound`` is the deterministic bound on the
    truncation bias of I itself (one-sided: negative moments are
    overestimated).
    """
    status = moment_finite(model, s)
    if status is not Finiteness.FINITE:
        raise DomainError(
            f"E I^{s!r} is {status.value} for {model.describe()}; "
            f"refusing a Monte Carlo estimate")
    from .estimators import _mean_se
    horizon = truncation_horizon(model)
    est, se = _mean_se(_truncated_perpetuities(model, cfg, horizon) ** s)
    return MCMoment(estimate=est, stderr=se, n_paths=cfg.n_paths,
                    horizon=horizon, tail_bound=tail_bound(model, horizon))


def _log_shift(z: float, h: float) -> float:
    """log Gamma(z + h) - log Gamma(z) for z, z + h > 0.  Where both
    arguments are large it comes from ``models._gamma_ratio``'s Stirling
    differences, which lose nothing however small h is against z."""
    if min(z, z + h) >= _STIRLING_FROM:
        return _stirling_shift(z, h)[0]
    return log_gamma(z + h) - log_gamma(z)


def _inverse_moment(law, r: float, tilt=None) -> float:
    """E I^{-r} for the perpetuity of paths of law ``law`` (a model's
    ``_path_law``), wherever it is finite.

    psi(r)/r is c times a ratio of factors a + s r, s = +-1, so the
    recursion g(r + 1) = (psi(r)/r) g(r), g(0) = 1, closes in Gamma
    functions: a factor a + r gives Gamma(a + r)/Gamma(a), and a - r gives
    Gamma(a + 1)/Gamma(a + 1 - r).  Hence 1/I ~ 2 Gamma(nu) (Brownian),
    1/I ~ Beta(gamma - beta, beta) (saw tooth), d I ~ Beta(gamma + 1,
    beta/d) or beta I ~ Gamma(gamma + 1) (cp_plus, d > 0 or d = 0), and
    I ~ Y/X with Y ~ Gamma(gamma + 1), X ~ Gamma(beta - gamma) independent
    (cp_minus): Dufresne 1990; Gjessing & Paulsen 1997.

    The jump laws pair the Gamma functions into ratios at a shift: the
    jump rate over the drift, or r itself against the cp_minus factor.
    ``tilt`` is (model, m): the model whose law the tilt m = 1 - r took
    to ``law``.  Where it is given, the argument g - sign r of the jump
    factor is read from the model's law as gamma - sign, in which m has
    cancelled, so that F(m) keeps its digits however large |m| is; and the
    cp_minus argument beta_m/|d| - g, which vanishes at m0, is formed from
    m exactly (see :func:`_vanishing_argument`).
    """
    if law.gaussian:            # psi(r)/r = 2 (nu + r)
        nu = law.drift
        return _signed_exp(r * math.log(2.0) + log_gamma(nu + r)
                           - log_gamma(nu), 1.0, 1.0)
    d, beta, g, sign = law.drift, law.rate, law.gamma, law.sign
    if beta == 0.0:             # a pure drift d: I = 1/d
        return _signed_exp(r * math.log(d), 1.0, 1.0)
    # psi(r)/r = d + sign beta / (g - sign r): the jump factor g - sign k
    # over k = 0 .. r - 1 ends at x = g - sign r
    x = g - sign * r if tilt is None else tilt[0]._path_law.gamma - sign
    if d > 0.0:
        # d (g - sign k + sign h)/(g - sign k), h = beta/d: the Gamma
        # ratios at shift h from g + b and from x + b
        h = beta / d
        b = 1.0 if sign > 0.0 else -h
        e = r * math.log(d) + _log_shift(g + b, h) - _log_shift(x + b, h)
    else:
        # sign = +1: (beta + d (g - k))/(g - k) gives Gamma(x + 1)/Gamma(g + 1)
        # at d = 0, times Gamma(a + r)/Gamma(a), a = beta/|d| - g, at d < 0
        e = (r * math.log(beta if d == 0.0 else -d) + log_gamma(x + 1.0)
             - log_gamma(g + 1.0))
        if d < 0.0:
            a = beta / -d - g if tilt is None else _vanishing_argument(*tilt)
            e += _log_shift(a, r)
    return _signed_exp(e, 1.0, 1.0)


def _vanishing_argument(model: LevyModel, m: float) -> float:
    """a = beta_m/|d| - g of a cp_minus model's law tilted by m, correctly
    rounded.

    With the model's tilt t, the total tilt t + m takes the family's
    (beta, gamma) to g = gamma - t - m and beta_m = beta gamma/g, so
    a = (beta gamma - |d| g^2)/(|d| g).  At d = -1 the numerator is
    (sqrt(beta gamma) - g)(sqrt(beta gamma) + g) = (m - m0)(sqrt(beta gamma)
    + g): formed in floating point it cancels near m0, where F(m) would
    lose digits like 1e-16/(m - m0).  In exact rational arithmetic on the
    doubles beta, gamma, d, t and m it cancels nothing.
    """
    from fractions import Fraction
    law = model._base_form.law
    d, beta, gamma, t = (Fraction(v) for v in (-law.drift, law.rate,
                                                law.gamma, model.tilt))
    g = gamma - t - Fraction(m)
    return float((beta * gamma - d * g * g) / (d * g))


def F_of_m(model: LevyModel, m: float) -> float:
    """The finite constant F(m) = E^(m) I^{m-1} for m in (m0, m_plus).

    Exact for every sampled family: under the m-tilted measure the path
    law stays in its family's class, and E I^{m-1} is that law's Gamma
    product at r = 1 - m.

    Raises:
        DomainError: for m outside (m0, m_plus), where finiteness is not
            guaranteed.
        CapabilityError: for the Gamma-ratio families, whose perpetuity
            law has no closed form here.
    """
    prof = profile(model)
    if not (prof.m0 < m < model.m_plus):
        raise DomainError(f"m = {m!r} outside (m0, m_plus) = "
                          f"({prof.m0!r}, {model.m_plus!r})")
    law = model.esscher(m)._path_law
    if law is None:
        raise CapabilityError(
            f"no closed-form perpetuity law for family "
            f"{model.family.value!r}")
    return _inverse_moment(law, 1.0 - m, (model, m))
