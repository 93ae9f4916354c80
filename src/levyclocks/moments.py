"""Moments of the perpetuity I = int_0^inf exp(-zeta_s) ds.

For a Lévy process ``zeta`` with exponent ``phi`` and positive drift
``phi'(0) > 0``:

* ``E I^s`` is finite for all s in [-1, 0], and for s > 0 exactly when
  ``phi(-s) < 0`` (with ``phi = +inf`` outside its domain counted as a
  failure); negative moments below -1 follow from the one-step recursion
  ``E I^{-r-1} = (phi(r)/r) E I^{-r}`` whenever ``phi(r) < inf``.
* The recursion closes without simulation because
  ``E I^{-1} = phi'(0)`` (entrance-law moment identity).
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

from .errors import DomainError
from .models import Family, LevyModel
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


def F_of_m(model: LevyModel, m: float,
           cfg: SimConfig) -> tuple[float, str, float | None]:
    """The finite constant F(m) = E^(m) I^{m-1} for m in (m0, m_plus).

    Returns (value, method, stderr).  Exact via the gamma law of the
    perpetuity for the Brownian family (under the m-tilted measure the
    drift is nu + 2m and 1/(2 I) is Gamma(nu + 2m) distributed);
    otherwise :func:`mc_exp_functional` of the m-tilted model at s = m - 1.

    Raises:
        DomainError: for m outside (m0, m_plus), where finiteness is not
            guaranteed.
    """
    prof = profile(model)
    if not (prof.m0 < m < model.m_plus):
        raise DomainError(f"m = {m!r} outside (m0, m_plus) = "
                          f"({prof.m0!r}, {model.m_plus!r})")
    tilted = model.esscher(m)
    if model.family is Family.BROWNIAN_DRIFT:
        nu_t = model.params[0] + 2.0 * tilted.tilt
        # E (2 Z)^{1-m} for Z ~ Gamma(nu_t): 2^{1-m} G(nu_t+1-m)/G(nu_t)
        value = math.exp((1.0 - m) * math.log(2.0)
                         + log_gamma(nu_t + 1.0 - m) - log_gamma(nu_t))
        return value, "exact", None
    mc = mc_exp_functional(tilted, m - 1.0, cfg)
    return mc.estimate, "monte-carlo", mc.stderr
