"""Monte Carlo estimators for the clock limit theorems.

Every estimator consumes a :class:`~levyclocks.paths.SimConfig`, draws its
paths through the counter-based per-path streams of
:mod:`levyclocks.paths`, and reduces with numpy's pairwise summation, so
results are reproducible and independent of evaluation order.  Reports
serialize to a line-oriented ``key: value`` header followed by a CSV row
block (see :meth:`EstimatorReport.to_text`).

All Lévy-path estimators run on :func:`~levyclocks.paths.run_paths`:
each path is drawn as one row from its own stream, the rows are reduced
in blocks, and only the rows that missed (a clock target above
A(horizon), or level 1 not crossed) are drawn again at a doubled horizon
(up to ``cfg.max_doublings`` times).  Clock ensembles take their first
Lévy-time horizon from :func:`~levyclocks.paths.horizon_policy`; the
prefix of a path is unchanged by an extension, so doubling is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import CapabilityError, DomainError, RescalingError
from .models import Family, LevyModel, hypergeometric_stable
from .paths import (
    CauchyModulus,
    SimConfig,
    horizon_policy,
    run_paths,
    simulate_cauchy_modulus,
)
from .rate import invert_L, profile, rate_I

__all__ = [
    "EstimateRow",
    "EstimatorReport",
    "CltResult",
    "LdpSlopeResult",
    "FirstPassageResult",
    "TiltedIdentityResult",
    "tau_ensemble",
    "estimate_lln",
    "estimate_clt",
    "estimate_ldp_slope",
    "estimate_logA_rate",
    "first_passage_check",
    "tilted_identity_check",
    "fundamental_relation_check",
    "ks_statistic",
    "normal_cdf",
]

_SQRT2 = math.sqrt(2.0)
_ERF = np.vectorize(math.erf)


def normal_cdf(x, sd: float) -> np.ndarray:
    """CDF of N(0, sd^2), vectorized via math.erf."""
    return 0.5 * (1.0 + _ERF(np.asarray(x, dtype=float) / (sd * _SQRT2)))


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance sup |F_n - F|."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    f = cdf(xs)
    grid = np.arange(n + 1) / n
    d_plus = float(np.max(grid[1:] - f))
    d_minus = float(np.max(f - grid[:-1]))
    return max(d_plus, d_minus)


# --------------------------------------------------------------------------
# Clock ensembles.
# --------------------------------------------------------------------------

def tau_ensemble(target: LevyModel | CauchyModulus, cfg: SimConfig,
                 clock_targets: Sequence[float],
                 path_offset: int = 0) -> np.ndarray:
    """(n_paths, len(clock_targets)) array of clock values.

    For a Lévy model this is tau(t) = inf{u : A(u) >= t}; for the Cauchy
    modulus it is T(t) with t an X-side time (no inversion, hence no
    horizon doubling).  ``path_offset`` shifts the path-id range so that
    disjoint ensembles can be drawn from one seed.
    """
    targets = np.asarray(clock_targets, dtype=float)
    if isinstance(target, CauchyModulus):
        out = np.empty((cfg.n_paths, len(targets)))
        run_cfg = replace(cfg, horizon=float(np.max(targets)))
        for i in range(cfg.n_paths):
            path = simulate_cauchy_modulus(target.d, run_cfg, path_offset + i)
            out[i] = path.clock_many(targets)
        return out

    mean = target.psi_derivs(0.0)[0]
    base_h = horizon_policy(mean, float(np.max(targets)))

    def taus(block):
        return block.clock(block.functional(cfg.alpha), cfg.alpha, targets)

    return run_paths(
        target, cfg, base_h, taus, path_offset,
        miss=lambda i, h: (f"path {path_offset + i} cannot reach clock "
                           f"target {float(np.max(targets))!r} within "
                           f"horizon {h!r} after {cfg.max_doublings} "
                           f"doublings"))


def _reference_mean(target: LevyModel | CauchyModulus, alpha: float) -> float:
    """psi'(0) of the driving Lévy process (hypergeometric for |Cauchy|)."""
    if isinstance(target, CauchyModulus):
        return hypergeometric_stable(1.0, float(target.d)).psi_derivs(0.0)[0]
    return alpha * target.psi_derivs(0.0)[0]


# --------------------------------------------------------------------------
# Report containers.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateRow:
    t: float
    estimate: float
    stderr: float
    reference: float


@dataclass(frozen=True)
class EstimatorReport:
    """Structured text record: estimator, model, cfg echo, per-t rows."""

    estimator: str
    model: str
    cfg: SimConfig
    rows: tuple[EstimateRow, ...]
    extra: tuple[tuple[str, str], ...] = ()

    def to_text(self) -> str:
        lines = [
            f"estimator: {self.estimator}",
            f"model: {self.model}",
            f"seed: {self.cfg.seed}",
            f"n_paths: {self.cfg.n_paths}",
            f"step: {self.cfg.step!r}",
            f"horizon: {self.cfg.horizon!r}",
            f"alpha: {self.cfg.alpha!r}",
            f"start: {self.cfg.start!r}",
        ]
        lines += [f"{k}: {v}" for k, v in self.extra]
        lines.append("t,estimate,stderr,reference")
        for r in self.rows:
            lines.append(f"{r.t:.17g},{r.estimate:.17g},{r.stderr:.17g},"
                         f"{r.reference:.17g}")
        return "\n".join(lines) + "\n"


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se


# --------------------------------------------------------------------------
# Estimators.
# --------------------------------------------------------------------------

def estimate_lln(target: LevyModel | CauchyModulus, cfg: SimConfig,
                 t_list: Sequence[float]) -> EstimatorReport:
    """Ensemble mean and stderr of tau(t)/log t with reference 1/psi'(0)."""
    ts = [float(t) for t in t_list]
    if any(t <= 1.0 for t in ts):
        raise DomainError("LLN targets must satisfy t > 1")
    taus = tau_ensemble(target, cfg, ts)
    ref = 1.0 / _reference_mean(target, cfg.alpha)
    rows = []
    for j, t in enumerate(ts):
        mean, se = _mean_se(taus[:, j] / math.log(t))
        rows.append(EstimateRow(t=t, estimate=mean, stderr=se, reference=ref))
    return EstimatorReport("lln", target.describe(), cfg, tuple(rows))


@dataclass(frozen=True)
class CltResult:
    """Distributional probe of the Gaussian-limit conjecture for the clock.

    ``ks_statistic`` is reported without a pass/fail threshold: the limit
    is conjectural, so the artifact only certifies that the standardized
    sample and the target variance are produced correctly.  The statistic
    is NaN for a degenerate (zero-variance) target.
    """

    t: float
    n_paths: int
    ks_statistic: float
    target_variance: float
    standardized: np.ndarray

    def report(self, target, cfg: SimConfig) -> EstimatorReport:
        return EstimatorReport(
            "clt", target.describe(), cfg,
            (EstimateRow(t=self.t, estimate=self.ks_statistic, stderr=0.0,
                         reference=0.0),),
            extra=(("target_variance", repr(self.target_variance)),))


def estimate_clt(model: LevyModel, cfg: SimConfig, t: float) -> CltResult:
    """Compare sqrt(log t)(tau/log t - 1/psi'(0)) with N(0, psi''/psi'^3)."""
    d1, d2 = model.psi_derivs(0.0)
    if not math.isfinite(d2):
        raise DomainError("CLT probe requires psi''(0) < inf")
    target_var = d2 / d1 ** 3
    taus = tau_ensemble(model, cfg, [t])[:, 0]
    lt = math.log(t)
    standardized = math.sqrt(lt) * (taus / lt - 1.0 / d1)
    if target_var <= 0.0:
        ks = math.nan
    else:
        sd = math.sqrt(target_var)
        ks = ks_statistic(standardized, lambda x: normal_cdf(x, sd))
    return CltResult(t=t, n_paths=cfg.n_paths, ks_statistic=ks,
                     target_variance=target_var, standardized=standardized)


@dataclass(frozen=True)
class LdpSlopeResult:
    """Least-squares slope of -log P(tau(t)/log t in [x-eps, x+eps]) vs log t.

    A loose consistency check against the analytic rate I(x):
    pre-asymptotic bias is expected at desk scale.  Targets with zero
    empirical hits are excluded from the fit and listed in ``excluded``.
    """

    x: float
    eps: float
    slope: float
    slope_stderr: float
    reference: float
    rows: tuple[tuple[float, float, int], ...]   # (t, p_hat, hits)
    excluded: tuple[float, ...]


def estimate_ldp_slope(target: LevyModel | CauchyModulus, cfg: SimConfig,
                       x: float, t_list: Sequence[float],
                       eps: float | None = None) -> LdpSlopeResult:
    """Empirical LDP slope for the window [x - eps, x + eps]."""
    ts = sorted(float(t) for t in t_list)
    if len(ts) < 3:
        raise DomainError("LDP slope fit needs at least 3 targets")
    if any(t <= 1.0 for t in ts):
        raise DomainError("LDP targets must satisfy t > 1")
    if isinstance(target, CauchyModulus):
        ref_model = hypergeometric_stable(1.0, float(target.d))
    else:
        ref_model = target
    prof = profile(ref_model)
    if not x > 0.0:
        raise DomainError(f"x must be > 0, got {x!r}")
    if x == prof.tau_e:
        raise DomainError("x = tau_e has I(x) = 0; pick x != tau_e")
    if eps is None:
        eps = 0.1 * abs(x - prof.tau_e)
    # Windows outside the closure of Delta are legal probes: they should
    # collect (near-)zero hits, and the analytic reference there is +inf.
    if prof.tau_plus <= x <= prof.tau_zero:
        reference = rate_I(ref_model, x, prof)
    else:
        reference = math.inf

    taus = tau_ensemble(target, cfg, ts)
    rows = []
    fit_u, fit_y = [], []
    excluded = []
    for j, t in enumerate(ts):
        scaled = taus[:, j] / math.log(t)
        hits = int(np.sum((scaled >= x - eps) & (scaled <= x + eps)))
        p_hat = hits / cfg.n_paths
        rows.append((t, p_hat, hits))
        if hits == 0:
            excluded.append(t)
        else:
            fit_u.append(math.log(t))
            fit_y.append(-math.log(p_hat))
    if len(fit_u) < 2:
        slope, se = math.nan, math.nan
    else:
        u = np.array(fit_u)
        y = np.array(fit_y)
        du = u - u.mean()
        slope = float(np.dot(du, y - y.mean()) / np.dot(du, du))
        resid = y - y.mean() - slope * du
        dof = len(u) - 2
        se = (math.sqrt(float(np.dot(resid, resid)) / dof
                        / float(np.dot(du, du))) if dof > 0 else math.nan)
    return LdpSlopeResult(x=x, eps=eps, slope=slope, slope_stderr=se,
                          reference=reference, rows=tuple(rows),
                          excluded=tuple(excluded))


def estimate_logA_rate(model: LevyModel, cfg: SimConfig,
                       t: float) -> EstimatorReport:
    """Ensemble mean of (1/t) log A(t); concentration point psi'(0)."""
    if not t > 0.0:
        raise DomainError(f"t must be > 0, got {t!r}")
    vals = run_paths(model, cfg, t,
                     lambda block: (block.log_totals(cfg.alpha) / t, True))
    mean, se = _mean_se(vals)
    ref = cfg.alpha * model.psi_derivs(0.0)[0]
    row = EstimateRow(t=t, estimate=mean, stderr=se, reference=ref)
    return EstimatorReport("logA", model.describe(), cfg, (row,))


# --------------------------------------------------------------------------
# First passage of the level 1 (spectrally negative families).
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstPassageResult:
    theta: float
    t: float
    lhs: float            # (1/log t) log E exp(theta tau(t))
    rhs: float            # log E exp(theta tau_hat(1))
    rhs_stderr: float     # stderr of rhs via the delta method
    analytic: float       # invert_L(theta)
    abs_diff: float


def first_passage_check(model: LevyModel, cfg: SimConfig,
                        theta: float) -> FirstPassageResult:
    """Compare the clock transform with the first-passage subordinator.

    ``cfg.horizon`` is read as the clock target t for the left-hand side;
    tau_hat(1) = inf{u : xi_u > 1} is read off the same path ensemble.
    Both sides are referenced against the analytic invert_L(theta).

    Raises:
        CapabilityError: unless the family is spectrally negative
            (brownian_drift or saw_tooth).
        DomainError: for theta > 0.
    """
    if model.family not in (Family.BROWNIAN_DRIFT, Family.SAW_TOOTH):
        raise CapabilityError("first-passage check requires a spectrally "
                              "negative family (brownian_drift, saw_tooth)")
    if theta > 0.0:
        raise DomainError(f"theta must be <= 0, got {theta!r}")
    t_clock = cfg.horizon
    analytic = invert_L(model, theta) if theta < 0.0 else 0.0
    if theta == 0.0:
        return FirstPassageResult(theta=0.0, t=t_clock, lhs=0.0, rhs=0.0,
                                  rhs_stderr=0.0, analytic=0.0, abs_diff=0.0)
    mean = model.psi_derivs(0.0)[0]
    base_h = max(horizon_policy(mean, t_clock), 8.0 / mean)

    def tau_and_hat(block):
        taus, reached = block.clock(block.functional(cfg.alpha), cfg.alpha,
                                    [t_clock])
        hats = block.first_passage(1.0, cfg.seed)
        return (np.column_stack((taus[:, 0], hats)),
                reached & ~np.isinf(hats))

    out = run_paths(
        model, cfg, base_h, tau_and_hat,
        miss=lambda i, h: (f"path {i} never crossed level 1 (or never "
                           f"reached the clock target) within horizon "
                           f"{h!r}"))
    taus, hats = out.T
    lhs = math.log(float(np.mean(np.exp(theta * taus)))) / math.log(t_clock)
    weights = np.exp(theta * hats)
    mu, se = _mean_se(weights)
    rhs = math.log(mu)
    rhs_se = se / mu
    return FirstPassageResult(theta=theta, t=t_clock, lhs=lhs, rhs=rhs,
                              rhs_stderr=rhs_se, analytic=analytic,
                              abs_diff=abs(lhs - rhs))


# --------------------------------------------------------------------------
# Tilted (change-of-measure) identity.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TiltedIdentityResult:
    m: float
    t: float
    a: float
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    z_score: float


def tilted_identity_check(model: LevyModel, m: float, t: float, a: float,
                          cfg: SimConfig) -> TiltedIdentityResult:
    """Monte Carlo check of the scaling/change-of-measure identity.

    The left side is E_a exp(-psi(m) T(t)) under the base model started at
    ``a``; after the scaling reduction the right side equals
    E exp(-m xi*) under the Esscher-tilted path law, with xi* the tilted
    path value at its clock time tau(t/a).  Both sides are estimated on
    disjoint path-id ranges of the same seed; the returned z-score uses
    pooled standard errors.

    Raises:
        RescalingError: if an exponential weight would overflow
            (reduce t).
    """
    if not (t > 0.0 and a > 0.0):
        raise DomainError("t and a must be > 0")
    if cfg.alpha != 1.0:
        raise DomainError("the tilted identity is stated for clocks of "
                          "index 1; cfg.alpha must be 1")
    prof = profile(model)
    if not (prof.m0 < m < model.m_plus):
        raise DomainError(f"m = {m!r} outside (m0, m_plus) = "
                          f"({prof.m0!r}, {model.m_plus!r})")
    if m == 0.0:
        return TiltedIdentityResult(m=0.0, t=t, a=a, lhs=1.0, lhs_stderr=0.0,
                                    rhs=1.0, rhs_stderr=0.0, z_score=0.0)
    psi_m = model.psi(m)
    target = t / a
    tilted = model.esscher(m)

    taus = tau_ensemble(model, cfg, [target])[:, 0]
    expo = -psi_m * taus
    if float(np.max(np.abs(expo))) > 700.0:
        raise RescalingError("exponential weight overflows; reduce t")
    lhs, lhs_se = _mean_se(np.exp(expo))

    mean_t = tilted.psi_derivs(0.0)[0]
    base_h = (horizon_policy(mean_t, target) if mean_t > 0.0
              else 4.0 * (1.0 + abs(math.log(max(target, 2.0)))))

    def value_at_clock(block):
        u_star, reached = block.clock(block.functional(1.0), 1.0, [target])
        return block.value_at(u_star)[:, 0], reached

    vals = run_paths(
        tilted, cfg, base_h, value_at_clock, path_offset=cfg.n_paths,
        miss=lambda i, h: f"tilted path {i} cannot reach clock target "
                          f"{target!r}")
    expo_r = -m * vals
    if float(np.max(np.abs(expo_r))) > 700.0:
        raise RescalingError("exponential weight overflows; reduce t")
    rhs, rhs_se = _mean_se(np.exp(expo_r))
    pooled = math.hypot(lhs_se, rhs_se)
    z = (lhs - rhs) / pooled if pooled > 0.0 else math.inf
    return TiltedIdentityResult(m=m, t=t, a=a, lhs=lhs, lhs_stderr=lhs_se,
                                rhs=rhs, rhs_stderr=rhs_se, z_score=z)


# --------------------------------------------------------------------------
# Fundamental relation of the Lamperti transform.
# --------------------------------------------------------------------------

def fundamental_relation_check(model: LevyModel, cfg: SimConfig) -> float:
    """Largest pathwise gap |T(t a^alpha) - tau(t)| of the Lamperti clock.

    Checked on paths 0 .. min(cfg.n_paths, 64) - 1 over the Lévy-time
    horizon 8, at 31 targets spread over (0, A(8)) on each path, with
    ``a = cfg.start`` and index ``cfg.alpha``.  T(t) = tau(t a^-alpha)
    exactly, so the gap only measures the round trip t -> t a^alpha a^-alpha
    in floating point.
    """
    a, alpha = cfg.start, cfg.alpha

    def gap(block):
        nodes = block.functional(alpha)
        total = block.totals(nodes)
        ts = np.linspace(total * 1e-3, total * 0.999, 31, axis=1)
        taus = block.clock(nodes, alpha, ts)[0]
        clock = block.clock(nodes, alpha, ts * a ** alpha * a ** -alpha)[0]
        return np.max(np.abs(clock - taus), axis=1), True

    run_cfg = replace(cfg, n_paths=min(cfg.n_paths, 64))
    return float(np.max(run_paths(model, run_cfg, 8.0, gap)))
