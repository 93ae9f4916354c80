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

import numpy as np

from .errors import AssumptionError, CapabilityError, DomainError
from .estimators import _mean_se
from .models import Family, LevyModel
from .numerics import log_gamma
from .paths import SimConfig, run_paths
from .rate import profile

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


def _drift(model: LevyModel) -> float:
    d1 = model.mean
    if not d1 > 0.0:
        raise AssumptionError(
            f"drift condition violated: phi'(0) = {d1!r} <= 0")
    return d1


def moment_finite(model: LevyModel, s: float) -> Finiteness:
    """Finiteness of E I^s for the perpetuity of ``model``'s process.

    FINITE for s in [-1, 0]; for s > 0, FINITE iff phi(-s) < 0 (the
    sharp criterion; phi outside its domain counts as +inf, hence
    INFINITE).  For s < -1 the recursion settles it when every factor
    phi(r), r <= -s-1 is finite, i.e. -s-1 < m_plus; otherwise UNKNOWN.
    """
    _drift(model)
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


@dataclass(frozen=True)
class MomentRow:
    s: float
    value: float
    method: str                  # "exact" | "recursion" | "monte-carlo"
    stderr: float | None
    finite: bool


@dataclass(frozen=True)
class MomentLedger:
    """Table of E I^s values with provenance and error bars."""

    model: str
    rows: tuple[MomentRow, ...]
    note: str = ""

    def to_text(self) -> str:
        lines = ["s,value,method,stderr,finite"]
        for r in self.rows:
            se = "" if r.stderr is None else f"{r.stderr:.17g}"
            lines.append(f"{r.s:.17g},{r.value:.17g},{r.method},{se},"
                         f"{str(r.finite).lower()}")
        body = "\n".join(lines) + "\n"
        return body if not self.note else body + f"# {self.note}\n"


def moment_recursion(model: LevyModel, r_max: int) -> MomentLedger:
    """Ledger of E I^{-r} for r = 1..r_max+1 via the one-step recursion.

    The recursion starts from the exact identity E I^{-1} = phi'(0) and
    truncates with a note as soon as a factor phi(r) is infinite (r at or
    beyond the domain end m_plus).
    """
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max!r}")
    value = float(_drift(model))
    rows = [MomentRow(s=-1.0, value=value, method="exact", stderr=None,
                      finite=True)]
    note = ""
    for r in range(1, r_max + 1):
        if not r < model.m_plus:
            note = (f"truncated: phi({r}) = inf (domain end m_plus = "
                    f"{model.m_plus!r})")
            break
        value *= model.psi(float(r)) / r
        rows.append(MomentRow(s=-(r + 1.0), value=value, method="recursion",
                              stderr=None, finite=True))
    return MomentLedger(model=model.describe(), rows=tuple(rows), note=note)


def truncation_horizon(model: LevyModel) -> float:
    """Integration horizon for truncated perpetuity simulation."""
    return max(20.0, 10.0 / _drift(model))


def tail_bound(model: LevyModel, horizon: float) -> float:
    """Deterministic bound on the missing tail int_T^inf exp(-zeta).

    Uses zeta_u >= phi'(0) u / 2 beyond the horizon (holds off an
    exponentially small event for T at the default scale).
    """
    d1 = _drift(model)
    return (2.0 / d1) * math.exp(-0.5 * d1 * horizon)


def _truncated_perpetuities(model: LevyModel, cfg: SimConfig,
                            horizon: float) -> np.ndarray:
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
    horizon = truncation_horizon(model)
    est, se = _mean_se(_truncated_perpetuities(model, cfg, horizon) ** s)
    return MCMoment(estimate=est, stderr=se, n_paths=cfg.n_paths,
                    horizon=horizon, tail_bound=tail_bound(model, horizon))


def F_of_m(model: LevyModel, m: float, cfg: SimConfig,
           method: str = "auto") -> tuple[float, str, float | None]:
    """The finite constant F(m) = E^(m) I^{m-1} for m in (m0, m_plus).

    Returns (value, method, stderr).  Exact via the gamma law of the
    perpetuity for the Brownian family (under the m-tilted measure the
    drift is nu + 2m and 1/(2 I) is Gamma(nu + 2m) distributed); Monte
    Carlo on the tilted path otherwise.  ``method`` forces one route
    ("exact" / "monte-carlo"); the default picks exact when available.

    Raises:
        DomainError: for m outside (m0, m_plus), where finiteness is not
            guaranteed.
    """
    if method not in ("auto", "exact", "monte-carlo"):
        raise DomainError(f"unknown method {method!r}")
    prof = profile(model)
    if not (prof.m0 < m < model.m_plus):
        raise DomainError(f"m = {m!r} outside (m0, m_plus) = "
                          f"({prof.m0!r}, {model.m_plus!r})")
    tilted = model.esscher(m)
    exact_available = model.family is Family.BROWNIAN_DRIFT
    if method == "exact" and not exact_available:
        raise CapabilityError("exact F(m) is available for the Brownian "
                              "family only")
    if exact_available and method != "monte-carlo":
        nu_t = model.params[0] + 2.0 * tilted.tilt
        # E (2 Z)^{1-m} for Z ~ Gamma(nu_t): 2^{1-m} G(nu_t+1-m)/G(nu_t)
        value = math.exp((1.0 - m) * math.log(2.0)
                         + log_gamma(nu_t + 1.0 - m) - log_gamma(nu_t))
        return value, "exact", None
    horizon = truncation_horizon(tilted)
    est, se = _mean_se(_truncated_perpetuities(tilted, cfg, horizon)
                       ** (m - 1.0))
    return est, "monte-carlo", se
