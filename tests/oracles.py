"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's own code paths: series summation
for the digamma, direct closed-form rate functions, a derivative-free
golden-section supremum, the (m+1)tan(pi m/2) exponent of the 3d Cauchy
modulus, nonparametric two-sample distance tests, and one-path-at-a-time
Monte Carlo loops.  Slow-but-simple is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from levyclocks import (
    EvaluationError,
    HorizonExceededError,
    RescalingError,
    path_rng,
)
from levyclocks.paths import _effective_dynamics, horizon_policy

EULER_GAMMA = 0.5772156649015328606065


def digamma_series(x: float, terms: int = 10_000_000) -> float:
    """Psi(x) = -gamma + sum_{k>=1} (1/k - 1/(k+x-1)), truncated.

    The tail beyond N sums (x-1)/(k(k+x-1)) and is corrected by its
    integral approximation (x-1)/(N + (x-1)/2 ...) ~ (x-1)/N.
    """
    k = np.arange(1, terms + 1, dtype=float)
    s = float(np.sum(1.0 / k - 1.0 / (k + x - 1.0)))
    tail = (x - 1.0) / (terms + 0.5 * x)
    return -EULER_GAMMA + s + tail


def digamma_sign_scan(alpha: float, lo: float = -1.0, hi: float = 0.0,
                      n: int = 10_000) -> tuple[float, float]:
    """Bracket of the root of Psi(g + alpha) - Psi(g) on (lo, hi): the
    grid cell of an n-point grid where the series oracle changes sign,
    found by bisection over the grid indices."""
    f = lambda g: digamma_series(g + alpha, 200_000) - digamma_series(g, 200_000)
    xs = np.linspace(lo + 1e-6, hi - 1e-6, n)
    i, j = 0, n - 1
    positive = f(float(xs[i])) > 0.0
    assert positive != (f(float(xs[j])) > 0.0), "no sign change found"
    while j - i > 1:
        k = (i + j) // 2
        if (f(float(xs[k])) > 0.0) == positive:
            i = k
        else:
            j = k
    return float(xs[j] - (xs[1] - xs[0])), float(xs[j])


def _finite(f, x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise EvaluationError(f"objective returned non-finite value {v!r} "
                              f"at x = {x!r}")
    return v


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Bracket:
    """Finite interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"bracket endpoints must be finite, got "
                             f"[{self.lo!r}, {self.hi!r}]")
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got "
                             f"[{self.lo!r}, {self.hi!r}]")


@dataclass(frozen=True)
class MaxResult:
    """Result of a golden-section maximization.

    ``boundary`` is ``None`` for an interior maximum, or ``"lo"`` /
    ``"hi"`` when the supremum is approached at a (shrunk-inward)
    endpoint, in which case ``value`` approximates the boundary limit.
    """

    argmax: float
    value: float
    boundary: str | None = None


def maximize_concave(f, bracket: Bracket, tol: float = 1e-10,
                     max_iter: int = 400) -> MaxResult:
    """Golden-section maximization over an open finite interval.

    Assumes ``f`` is strictly concave (a strictly unimodal function works
    identically) and finite on the interior; the endpoints themselves are
    never evaluated.  The bracketing interval is shrunk to width ``tol``;
    the achievable argmax accuracy is additionally floored at
    ``sqrt(eps |f| / |f''|)`` (value-comparison noise), as for any method
    using function values only.  The maximum value itself is second-order
    accurate in that distance.

    Raises:
        EvaluationError: if ``f`` is non-finite at an interior probe.
    """
    a, b = bracket.lo, bracket.hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = _finite(f, x1), _finite(f, x2)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = _finite(f, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = _finite(f, x2)
    if f1 >= f2:
        argmax, value = x1, f1
    else:
        argmax, value = x2, f2
    boundary = None
    if argmax - bracket.lo <= 2.0 * tol:
        boundary = "lo"
    elif bracket.hi - argmax <= 2.0 * tol:
        boundary = "hi"
    return MaxResult(argmax=argmax, value=value, boundary=boundary)


_U_EPS = 1e-13      # shrink-inward margin on the compactified coordinate
_U_TOL = 1e-12      # golden-section width in the compactified coordinate


def _compactify(lo: float, hi: float) -> Callable[[float], float]:
    """Increasing map of (0, 1) onto (lo, hi), tan-rescaled at infinities."""
    if math.isfinite(lo) and math.isfinite(hi):
        return lambda u: lo + (hi - lo) * u
    if math.isfinite(lo):
        s = 1.0 + abs(lo)
        return lambda u: lo + s * math.tan(0.5 * math.pi * u)
    if math.isfinite(hi):
        s = 1.0 + abs(hi)
        return lambda u: hi - s * math.tan(0.5 * math.pi * (1.0 - u))
    return lambda u: math.tan(math.pi * (u - 0.5))


def concave_sup(obj: Callable[[float], float], lo: float,
                hi: float) -> tuple[float, float, str | None]:
    """(sup value, argmax m, boundary flag) of a concave objective on
    (lo, hi), by golden-section search on a compactified coordinate."""
    to_m = _compactify(lo, hi)
    res = maximize_concave(lambda u: obj(to_m(u)),
                           Bracket(_U_EPS, 1.0 - _U_EPS), tol=_U_TOL)
    return res.value, to_m(res.argmax), res.boundary


def petit_exponent(m: float) -> float:
    """(m+1) tan(pi m / 2) with the continuous value at m = -1."""
    u = m + 1.0
    if abs(u) < 0.5:
        if u == 0.0:
            return -2.0 / math.pi
        return -u * math.cos(math.pi * u / 2.0) / math.sin(math.pi * u / 2.0)
    return (m + 1.0) * math.tan(math.pi * m / 2.0)


def rate_brownian(nu: float, x: float) -> float:
    return (1.0 - 2.0 * nu * x) ** 2 / (8.0 * x)


def rate_cp_plus(d: float, beta: float, gamma: float, x: float) -> float:
    return (math.sqrt(gamma * (1.0 - d * x)) - math.sqrt(beta * x)) ** 2


def rate_cp_minus(beta: float, gamma: float, x: float) -> float:
    return (math.sqrt(gamma * (1.0 + x)) - math.sqrt(beta * x)) ** 2


def rate_saw_tooth(beta: float, gamma: float, x: float) -> float:
    return (math.sqrt(gamma * (x - 1.0)) - math.sqrt(beta * x)) ** 2


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def ks_two_sample_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic critical value of the two-sample KS statistic."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


# --------------------------------------------------------------------------
# Per-path Monte Carlo: the reference for the blocked path engine.
#
# One path at a time, each with its own horizon-doubling retry, written
# with 1-D arrays only: sampling, the exponential functional A, its
# inversion tau, first passage and the estimator loops.  The engine in
# levyclocks.paths must reproduce every value here bit for bit.
# --------------------------------------------------------------------------

LINEAR = "linear-drift"
AUX_STREAM = 1 << 62


class RefPath(NamedTuple):
    times: np.ndarray
    xi: np.ndarray
    kind: str
    drift: float


def ref_path(model, seed: int, path_id: int, horizon: float,
             step: float) -> RefPath:
    dyn = _effective_dynamics(model)
    rng = path_rng(seed, path_id)
    if dyn[0] == "brownian":
        nu = dyn[1]
        n = max(1, math.ceil(horizon / step))
        times = step * np.arange(n + 1)
        incr = 2.0 * nu * step + 2.0 * math.sqrt(step) * rng.standard_normal(n)
        xi = np.concatenate(([0.0], np.cumsum(incr)))
        return RefPath(times, xi, "gaussian-increment", 0.0)
    _, drift, beta, gamma, sign = dyn
    arrivals, sizes, total = [], [], 0.0
    while beta > 0.0 and total < horizon:
        gaps = rng.exponential(scale=1.0 / beta, size=128)
        mags = rng.exponential(scale=1.0 / gamma, size=128)
        arrivals.append(total + np.cumsum(gaps))
        sizes.append(mags)
        total = float(arrivals[-1][-1])
    t_all = np.concatenate(arrivals) if arrivals else np.empty(0)
    s_all = np.concatenate(sizes) if sizes else np.empty(0)
    keep = t_all < horizon
    times = np.concatenate(([0.0], t_all[keep], [horizon]))
    jumps = np.concatenate(([0.0], sign * s_all[keep], [0.0]))
    return RefPath(times, drift * times + np.cumsum(jumps), LINEAR, drift)


def _expm1_ratio(z):
    small = np.abs(z) < 1e-12
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


def ref_nodes(p: RefPath, alpha: float) -> np.ndarray:
    dt = np.diff(p.times)
    if p.kind == LINEAR:
        w = np.exp(alpha * p.xi[:-1]) * dt * _expm1_ratio(alpha * p.drift * dt)
    else:
        with np.errstate(over="ignore"):    # A past double range is inf
            e = np.exp(alpha * p.xi)
        w = 0.5 * dt * (e[:-1] + e[1:])
    return np.concatenate(([0.0], np.cumsum(w)))


def ref_functional_at(p: RefPath, alpha: float, u) -> np.ndarray:
    """A at arbitrary times ``u`` in [0, horizon]: the node values plus the
    exact integral over the partial linear segment, or the linear
    interpolant of the trapezoid nodes on a Gaussian path."""
    u = np.asarray(u, dtype=float)
    nodes = ref_nodes(p, alpha)
    t = p.times
    idx = np.clip(np.searchsorted(t, u, side="right") - 1, 0, len(t) - 2)
    du = np.clip(u, t[0], t[-1]) - t[idx]
    if p.kind == LINEAR:
        rate = alpha * p.drift
        seg = np.exp(alpha * p.xi[idx]) * du * _expm1_ratio(rate * du)
    else:
        seg = (nodes[idx + 1] - nodes[idx]) * du / (t[idx + 1] - t[idx])
    return nodes[idx] + seg


def ref_log_total(p: RefPath, alpha: float) -> float:
    dt = np.diff(p.times)
    if p.kind == LINEAR:
        logw = alpha * p.xi[:-1] + np.log(dt * _expm1_ratio(alpha * p.drift
                                                            * dt))
    else:
        z = alpha * p.xi
        logw = np.log(0.5 * dt) + np.logaddexp(z[:-1], z[1:])
    peak = float(np.max(logw))
    return peak + math.log(float(np.sum(np.exp(logw - peak))))


def ref_clock(p: RefPath, nodes: np.ndarray, alpha: float, targets):
    """tau at the targets, or None when one exceeds A(horizon)."""
    t = np.asarray(targets, dtype=float)
    if not math.isfinite(float(nodes[-1])):
        raise RescalingError("A(horizon) overflowed")
    if np.any(t > nodes[-1]):
        return None
    idx = np.clip(np.searchsorted(nodes, t, side="left") - 1, 0,
                  len(nodes) - 2)
    rem = t - nodes[idx]
    if p.kind == LINEAR:
        rate = alpha * p.drift
        scaled = rem * np.exp(-alpha * p.xi[idx])
        du = scaled if rate == 0.0 else np.log1p(rate * scaled) / rate
    else:
        w = nodes[idx + 1] - nodes[idx]
        du = (p.times[idx + 1] - p.times[idx]) * rem / w
    return p.times[idx] + du


def ref_value_at(p: RefPath, u: float) -> float:
    u = np.asarray(u, dtype=float)
    if p.kind != LINEAR:
        return float(np.interp(u, p.times, p.xi))
    idx = np.clip(np.searchsorted(p.times, u, side="right") - 1, 0,
                  len(p.times) - 2)
    at_end = u >= p.times[-1]
    idx = np.where(at_end, len(p.times) - 1, idx)
    return float(p.xi[idx] + p.drift * (u - p.times[idx]) * ~at_end)


def ref_first_passage(p: RefPath, level: float, rng) -> float:
    xi, times = p.xi, p.times
    if p.kind == LINEAR:
        reach = (level - xi[:-1]) / p.drift
        hit = np.flatnonzero((xi[:-1] < level) & (reach <= np.diff(times)))
        return math.inf if len(hit) == 0 else float(times[hit[0]]
                                                    + reach[hit[0]])
    h = times[1] - times[0]
    x0, x1 = xi[:-1], xi[1:]
    below = (x0 < level) & (x1 < level)
    prob = np.where(below, np.exp(-np.maximum(level - x0, 0.0)
                                  * np.maximum(level - x1, 0.0) / (2.0 * h)),
                    1.0)
    crossed = np.flatnonzero((x1 >= level) | (rng.random(len(prob)) < prob))
    if len(crossed) == 0:
        return math.inf
    i = crossed[0]
    if x1[i] >= level:
        frac = (level - x0[i]) / (x1[i] - x0[i]) if x1[i] > x0[i] else 1.0
        return float(times[i] + frac * h)
    return float(times[i] + 0.5 * h)


def ref_mean_se(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), se


def ref_tau_ensemble(model, cfg, targets, path_offset: int = 0):
    """(taus, doublings per path) of tau_ensemble, one path at a time."""
    targets = np.asarray(targets, dtype=float)
    base_h = horizon_policy(model.psi_derivs(0.0)[0], float(np.max(targets)))
    out = np.empty((cfg.n_paths, len(targets)))
    doublings = np.zeros(cfg.n_paths, dtype=int)
    for i in range(cfg.n_paths):
        h = base_h
        for k in range(cfg.max_doublings + 1):
            p = ref_path(model, cfg.seed, path_offset + i, h, cfg.step)
            taus = ref_clock(p, ref_nodes(p, cfg.alpha), cfg.alpha, targets)
            if taus is not None:
                out[i], doublings[i] = taus, k
                break
            h *= 2.0
        else:
            raise HorizonExceededError(
                f"path {path_offset + i} cannot reach clock target "
                f"{float(np.max(targets))!r} within horizon {h / 2.0!r} "
                f"after {cfg.max_doublings} doublings")
    return out, doublings


def ref_first_passage_check(model, cfg, theta: float):
    """(lhs, rhs, rhs_stderr) of first_passage_check for theta < 0."""
    t_clock = cfg.horizon
    mean = model.psi_derivs(0.0)[0]
    base_h = max(horizon_policy(mean, t_clock), 8.0 / mean)
    taus = np.empty(cfg.n_paths)
    hats = np.empty(cfg.n_paths)
    for i in range(cfg.n_paths):
        h = base_h
        for _ in range(cfg.max_doublings + 1):
            p = ref_path(model, cfg.seed, i, h, cfg.step)
            hat = ref_first_passage(p, 1.0, path_rng(cfg.seed, AUX_STREAM + i))
            tau = ref_clock(p, ref_nodes(p, cfg.alpha), cfg.alpha, [t_clock])
            if tau is None or math.isinf(hat):
                h *= 2.0
                continue
            taus[i], hats[i] = tau[0], hat
            break
        else:
            raise HorizonExceededError(f"path {i} missed")
    lhs = math.log(float(np.mean(np.exp(theta * taus)))) / math.log(t_clock)
    mu, se = ref_mean_se(np.exp(theta * hats))
    return lhs, math.log(mu), se / mu


def ref_first_passage_times(model, cfg, level: float,
                            base_h: float) -> np.ndarray:
    """First passage of ``level`` by paths 0 .. n_paths - 1, each drawn
    again at a doubled horizon until it crosses."""
    hats = np.empty(cfg.n_paths)
    for i in range(cfg.n_paths):
        h = base_h
        for _ in range(cfg.max_doublings + 1):
            p = ref_path(model, cfg.seed, i, h, cfg.step)
            hats[i] = ref_first_passage(p, level,
                                        path_rng(cfg.seed, AUX_STREAM + i))
            if not math.isinf(hats[i]):
                break
            h *= 2.0
        else:
            raise HorizonExceededError(f"path {i} missed")
    return hats


def ref_tilted_identity_check(model, m: float, t: float, a: float, cfg):
    """(lhs, lhs_stderr, rhs, rhs_stderr) of tilted_identity_check."""
    target = t / a
    taus = ref_tau_ensemble(model, cfg, [target])[0][:, 0]
    lhs, lhs_se = ref_mean_se(np.exp(-model.psi(m) * taus))
    tilted = model.esscher(m)
    base_h = horizon_policy(tilted.psi_derivs(0.0)[0], target)
    vals = np.empty(cfg.n_paths)
    for i in range(cfg.n_paths):
        h = base_h
        for _ in range(cfg.max_doublings + 1):
            p = ref_path(tilted, cfg.seed, cfg.n_paths + i, h, cfg.step)
            u_star = ref_clock(p, ref_nodes(p, 1.0), 1.0, [target])
            if u_star is not None:
                vals[i] = ref_value_at(p, float(u_star[0]))
                break
            h *= 2.0
        else:
            raise HorizonExceededError(f"tilted path {i} missed")
    rhs, rhs_se = ref_mean_se(np.exp(-m * vals))
    return lhs, lhs_se, rhs, rhs_se


def ref_log_totals(model, cfg, horizon: float) -> np.ndarray:
    """log A(horizon) of paths 0 .. n_paths - 1."""
    return np.array([ref_log_total(ref_path(model, cfg.seed, i, horizon,
                                            cfg.step), cfg.alpha)
                     for i in range(cfg.n_paths)])


def ref_perpetuities(model, cfg, horizon: float) -> np.ndarray:
    """A(horizon) at alpha = -1 of paths 0 .. n_paths - 1."""
    return np.array([ref_nodes(ref_path(model, cfg.seed, i, horizon,
                                        cfg.step), -1.0)[-1]
                     for i in range(cfg.n_paths)])


def ref_fundamental_relation(model, cfg) -> float:
    a, alpha = cfg.start, cfg.alpha
    worst = 0.0
    for pid in range(min(cfg.n_paths, 64)):
        p = ref_path(model, cfg.seed, pid, 8.0, cfg.step)
        nodes = ref_nodes(p, alpha)
        total = float(nodes[-1])
        ts = np.linspace(total * 1e-3, total * 0.999, 31)
        taus = ref_clock(p, nodes, alpha, ts)
        back = ref_clock(p, nodes, alpha, (ts * a ** alpha) * a ** -alpha)
        worst = max(worst, float(np.max(np.abs(back - taus))))
    return worst


# The Cauchy modulus one path at a time, as it was sampled before the
# ensemble sampler: one generator per path and the (n, d) layout.
# --------------------------------------------------------------------------

class RefCauchyPath(NamedTuple):
    times: np.ndarray
    radius: np.ndarray
    positions: np.ndarray
    clock_nodes: np.ndarray


def ref_cauchy_path(d: int, cfg, path_id: int) -> RefCauchyPath:
    a = cfg.start
    h = cfg.step
    first = a * h
    if cfg.horizon <= first:
        times = np.array([0.0, cfg.horizon])
    else:
        n_geo = math.ceil(math.log(cfg.horizon / first) / math.log1p(h))
        times = np.concatenate(([0.0], first * (1.0 + h) ** np.arange(n_geo + 1)))
    dt = np.diff(times)
    n_seg = len(dt)

    rng = path_rng(cfg.seed, path_id)
    draws = rng.standard_normal((n_seg, d + 1))
    subordinator = (dt / draws[:, 0]) ** 2
    steps = np.sqrt(subordinator)[:, None] * draws[:, 1:]
    positions = np.empty((n_seg + 1, d))
    positions[0] = 0.0
    positions[0, 0] = a
    np.cumsum(steps, axis=0, out=positions[1:])
    positions[1:] += positions[0]
    radius = np.sqrt(np.sum(positions * positions, axis=1))

    inv = 1.0 / radius
    t_nodes = np.concatenate(([0.0],
                              np.cumsum(0.5 * dt * (inv[:-1] + inv[1:]))))
    return RefCauchyPath(times, radius, positions, t_nodes)


def ref_cauchy_tau_ensemble(d: int, cfg, targets,
                            path_offset: int = 0) -> np.ndarray:
    """tau_ensemble of the Cauchy modulus, one path at a time."""
    targets = np.asarray(targets, dtype=float)
    run_cfg = replace(cfg, horizon=float(np.max(targets)))
    out = np.empty((cfg.n_paths, len(targets)))
    for i in range(cfg.n_paths):
        p = ref_cauchy_path(d, run_cfg, path_offset + i)
        assert not np.any(targets < 0.0)
        assert not np.any(targets > p.times[-1])
        out[i] = np.interp(targets, p.times, p.clock_nodes)
    return out
