"""Monte Carlo estimators for the clock limit theorems.

Every estimator consumes a :class:`~levyclocks.paths.SimConfig`, draws its
paths through the counter-based per-path streams of
:mod:`levyclocks.paths`, and reduces with numpy's pairwise summation, so
results are reproducible and independent of evaluation order.

All Lévy-path estimators run on :func:`~levyclocks.paths.run_paths`:
each path is drawn as one row from its own stream and the rows are
reduced in blocks by reducers that return the rows' values only.  The
clock, first-passage and tilted estimators grow each row until all its
values are finite: the clock reads NaN at a target beyond A and a
crossing time is inf until level 1 is crossed.  Rows grow through the
doublings (up to ``cfg.max_doublings``) of the Lévy-time horizon of
:func:`~levyclocks.paths.horizon_policy`, Gaussian ones from half of it;
an extension leaves the path's prefix unchanged, so the result is that of
the same path drawn on the first doubled horizon that serves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapabilityError, DomainError, RescalingError
from .models import Family, LevyModel, hypergeometric_stable
from .paths import (
    CauchyModulus,
    SimConfig,
    _cauchy_clocks,
    horizon_policy,
    run_paths,
)
from .rate import invert_L, profile, rate_I

__all__ = [
    "EstimateRow",
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

    For a Lévy model this is tau(t) = inf{u : A(u) >= t}, from
    ``PathBlock.clock`` on the blocks of :func:`~levyclocks.paths.run_paths`;
    row ``i`` is the clock of the one-row block that
    :func:`~levyclocks.paths.sample_levy_path` gives for path
    ``path_offset + i`` at the horizon that served it.  For the Cauchy
    modulus it is T(t) with t an X-side time (no inversion, hence no
    horizon doubling) on one geometric grid, each path bit-identical to
    :func:`~levyclocks.paths.simulate_cauchy_modulus` of its path id.
    ``path_offset`` shifts the path-id range so that disjoint ensembles
    can be drawn from one seed.

    Raises:
        DomainError: for no targets, or a negative or non-finite one.
        AssumptionError: for a Lévy model with psi'(0) <= 0.
    """
    targets = np.asarray(clock_targets, dtype=float)
    if not (targets.size and np.isfinite(targets).all()):
        raise DomainError(f"clock targets must be finite and non-empty, "
                          f"got {targets.tolist()!r}")
    if isinstance(target, CauchyModulus):
        return _cauchy_clocks(target.d, cfg, targets, path_offset)

    base_h = horizon_policy(target.positive_mean(), float(np.max(targets)))

    return run_paths(
        target, cfg, base_h, lambda block: block.clock(cfg.alpha, targets),
        path_offset,
        miss=lambda i, h: (f"path {path_offset + i} cannot reach clock "
                           f"target {float(np.max(targets))!r} within "
                           f"horizon {h!r} after {cfg.max_doublings} "
                           f"doublings"))


def _levy_model(target: LevyModel | CauchyModulus) -> LevyModel:
    """The Lévy model driving ``target``: for |Cauchy| in R^d, the
    hypergeometric stable process with parameters (1, d)."""
    if isinstance(target, CauchyModulus):
        return hypergeometric_stable(1.0, float(target.d))
    return target


class EstimateRow(NamedTuple):
    """Estimate at target ``t`` with its standard error and reference."""

    t: float
    estimate: float
    stderr: float
    reference: float


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se


# --------------------------------------------------------------------------
# Estimators.
# --------------------------------------------------------------------------

def estimate_lln(target: LevyModel | CauchyModulus, cfg: SimConfig,
                 t_list: Sequence[float]) -> tuple[EstimateRow, ...]:
    """Ensemble mean and stderr of tau(t)/log t with reference 1/psi'(0),
    one row per target.  The Cauchy modulus runs at index 1 only, so its
    reference is 1/psi'(0) of the driving hypergeometric process."""
    ts = [float(t) for t in t_list]
    if any(t <= 1.0 for t in ts):
        raise DomainError("LLN targets must satisfy t > 1")
    taus = tau_ensemble(target, cfg, ts)
    ref = 1.0 / (cfg.alpha * _levy_model(target).mean)
    return tuple(EstimateRow(t, *_mean_se(taus[:, j] / math.log(t)), ref)
                 for j, t in enumerate(ts))


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


def estimate_clt(model: LevyModel, cfg: SimConfig, t: float) -> CltResult:
    """Compare sqrt(log t)(tau/log t - 1/psi'(0)) with N(0, psi''/psi'^3)."""
    if not t > 1.0:
        raise DomainError(f"CLT target must satisfy t > 1, got {t!r}")
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
    if len(set(ts)) < len(ts):
        raise DomainError(f"LDP targets must be distinct, got {ts!r}")
    if any(t <= 1.0 for t in ts):
        raise DomainError("LDP targets must satisfy t > 1")
    ref_model = _levy_model(target)
    prof = profile(ref_model)
    if not x > 0.0:
        raise DomainError(f"x must be > 0, got {x!r}")
    if x == prof.tau_e:
        raise DomainError("x = tau_e has I(x) = 0; pick x != tau_e")
    if eps is None:
        eps = 0.1 * abs(x - prof.tau_e)
    if not eps > 0.0:
        raise DomainError(f"eps must be > 0, got {eps!r}")
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
                       t: float) -> EstimateRow:
    """Ensemble mean of (1/t) log A(t); concentration point psi'(0),
    which must be > 0."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be finite and > 0, got {t!r}")
    ref = cfg.alpha * model.positive_mean()
    vals = run_paths(model, cfg, t,
                     lambda block: block.log_totals(cfg.alpha) / t)
    return EstimateRow(t, *_mean_se(vals), ref)


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


def first_passage_check(model: LevyModel, cfg: SimConfig, t: float,
                        theta: float | Sequence[float]
                        ) -> FirstPassageResult | tuple[FirstPassageResult,
                                                        ...]:
    """Compare the clock transform with the first-passage subordinator.

    ``t`` is the clock target of the left-hand side; tau_hat(1) =
    inf{u : xi_u > 1} is read off the same path ensemble.
    Both sides are referenced against the analytic invert_L(theta).
    Given a sequence of theta, one ensemble serves them all, and the
    results come in the same order.

    Raises:
        CapabilityError: unless the family is spectrally negative
            (brownian_drift or saw_tooth).
        DomainError: for theta > 0, or for t <= 1, where log t is not
            positive.
    """
    if model.family not in (Family.BROWNIAN_DRIFT, Family.SAW_TOOTH):
        raise CapabilityError("first-passage check requires a spectrally "
                              "negative family (brownian_drift, saw_tooth)")
    thetas = [float(th) for th in np.atleast_1d(theta)]
    for th in thetas:
        if th > 0.0:
            raise DomainError(f"theta must be <= 0, got {th!r}")
    if not 1.0 < t < math.inf:
        raise DomainError(f"first-passage clock target must satisfy t > 1 "
                          f"and be finite, got {t!r}")
    analytic = [invert_L(model, th) if th < 0.0 else 0.0 for th in thetas]
    taus = hats = None
    if any(th < 0.0 for th in thetas):
        mean = model.mean
        base_h = max(horizon_policy(mean, t), 8.0 / mean)

        def tau_and_hat(block):
            return np.column_stack((block.clock(cfg.alpha, [t]),
                                    block.first_passage(1.0)))

        taus, hats = run_paths(
            model, cfg, base_h, tau_and_hat,
            miss=lambda i, h: (f"path {i} never crossed level 1 (or never "
                               f"reached the clock target) within horizon "
                               f"{h!r}")).T
    results = tuple(_first_passage_result(th, t, ref, taus, hats)
                    for th, ref in zip(thetas, analytic))
    return results[0] if np.ndim(theta) == 0 else results


def _first_passage_result(theta: float, t_clock: float, analytic: float,
                          taus, hats) -> FirstPassageResult:
    """Both sides of the first-passage check at one theta, from the clock
    values ``taus`` and crossing times ``hats`` (unused at theta = 0)."""
    if theta == 0.0:
        return FirstPassageResult(theta=0.0, t=t_clock, lhs=0.0, rhs=0.0,
                                  rhs_stderr=0.0, analytic=0.0, abs_diff=0.0)
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
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    z_score: float


def tilted_identity_check(model: LevyModel, m: float, t: float,
                          cfg: SimConfig) -> TiltedIdentityResult:
    """Monte Carlo check of the scaling/change-of-measure identity.

    The left side is E_a exp(-psi(m) T(t)) under the base model started at
    ``a = cfg.start``; after the scaling reduction the right side equals
    E exp(-m xi*) under the Esscher-tilted path law, with xi* the tilted
    path value at its clock time tau(t/a).  Both sides are estimated on
    disjoint path-id ranges of the same seed; the returned z-score uses
    pooled standard errors.

    Raises:
        RescalingError: if an exponential weight would overflow
            (reduce t).
    """
    if not t > 0.0:
        raise DomainError(f"t must be > 0, got {t!r}")
    if cfg.alpha != 1.0:
        raise DomainError("the tilted identity is stated for clocks of "
                          "index 1; cfg.alpha must be 1")
    prof = profile(model)
    if not (prof.m0 < m < model.m_plus):
        raise DomainError(f"m = {m!r} outside (m0, m_plus) = "
                          f"({prof.m0!r}, {model.m_plus!r})")
    if m == 0.0:
        return TiltedIdentityResult(m=0.0, t=t, lhs=1.0, lhs_stderr=0.0,
                                    rhs=1.0, rhs_stderr=0.0, z_score=0.0)
    psi_m = model.psi(m)
    target = t / cfg.start
    tilted = model.esscher(m)

    taus = tau_ensemble(model, cfg, [target])[:, 0]
    expo = -psi_m * taus
    if float(np.max(np.abs(expo))) > 700.0:
        raise RescalingError("exponential weight overflows; reduce t")
    lhs, lhs_se = _mean_se(np.exp(expo))

    base_h = horizon_policy(tilted.mean, target)

    def value_at_clock(block):
        return block.value_at(block.clock(1.0, [target]))[:, 0]

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
    return TiltedIdentityResult(m=m, t=t, lhs=lhs, lhs_stderr=lhs_se,
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
        total = block.totals(alpha)
        ts = np.linspace(total * 1e-3, total * 0.999, 31, axis=1)
        taus = block.clock(alpha, ts)
        clock = block.clock(alpha, ts * a ** alpha * a ** -alpha)
        return np.max(np.abs(clock - taus), axis=1)

    run_cfg = replace(cfg, n_paths=min(cfg.n_paths, 64))
    return float(np.max(run_paths(model, run_cfg, 8.0, gap)))
