"""Path-level simulation: Lévy paths, exponential functionals, and clocks.

Grid families and their sampling schemes:

* ``brownian_drift`` — exact Gaussian increments on a uniform grid
  (mean ``2 nu h``, variance ``4 h`` per step of size ``h``).
* ``cp_plus_drift`` / ``cp_minus_drift`` / ``saw_tooth`` — event-exact
  compound-Poisson paths: exponential inter-jump times of rate ``beta``,
  exponential jump magnitudes of rate ``gamma`` (signed per family),
  linear drift between jumps.  No grid error at all.

The exponential functional ``A(t) = int_0^t exp(alpha xi_s) ds`` is exact
on linear-drift segments and trapezoidal on Gaussian segments; its inverse
``tau`` (the Lévy-side clock) is inverted exactly per segment, so that
``A(tau(t)) = t`` to machine precision.  The Lamperti construction maps a
path to the positive self-similar process ``X_t = a exp(xi_{tau(t a^-alpha)})``
whose clock satisfies ``tau(t) = T(t a^alpha)`` identically on the grid.

Per-path randomness is a counter-based split: path ``i`` of a run seeded
with ``s`` draws from ``Philox(key=(s, i))``, so paths are reproducible
independently of generation order, and re-simulating with a longer horizon
extends a path without changing its prefix.

The modulus of a d-dimensional Cauchy process (a positive self-similar
process of index 1) is simulated directly by Brownian subordination on a
geometric time grid; see :func:`simulate_cauchy_modulus`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CapabilityError,
    DomainError,
    HorizonExceededError,
    RescalingError,
)
from .models import Family, LevyModel

__all__ = [
    "SimConfig",
    "PathGrid",
    "ExpFunctional",
    "PssmpPath",
    "CauchyModulus",
    "CauchyModulusPath",
    "path_rng",
    "sample_levy_path",
    "exp_functional",
    "log_exp_functional_total",
    "clock_tau",
    "clock_tau_many",
    "lamperti_pssmp",
    "simulate_cauchy_modulus",
    "horizon_policy",
]

LINEAR = "linear-drift"
GAUSSIAN = "gaussian-increment"

_MASK64 = (1 << 64) - 1
_JUMP_CHUNK = 128


@dataclass(frozen=True)
class SimConfig:
    """Deterministic simulation plan.

    ``horizon`` is the path length in Lévy time for path-level routines,
    and the target clock time for estimators that derive their own
    Lévy-time horizon.  ``start`` is the pssMp start point used by the
    Lamperti side and the Cauchy modulus.
    """

    seed: int
    n_paths: int = 1000
    step: float = 0.01
    horizon: float = 10.0
    alpha: float = 1.0
    start: float = 1.0
    max_doublings: int = 8

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if not self.step > 0.0:
            raise DomainError(f"step must be > 0, got {self.step!r}")
        if not self.horizon > 0.0:
            raise DomainError(f"horizon must be > 0, got {self.horizon!r}")
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha!r}")
        if not self.start > 0.0:
            raise DomainError(f"start must be > 0, got {self.start!r}")
        if self.max_doublings < 0:
            raise DomainError("max_doublings must be >= 0")


@dataclass(frozen=True)
class CauchyModulus:
    """Marker for the Cauchy-modulus target of the path estimators."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise DomainError(f"Cauchy modulus requires dimension d >= 2, "
                              f"got {self.d!r}")

    def describe(self) -> str:
        return f"cauchy_modulus d={self.d}"


def path_rng(seed: int, path_id: int) -> np.random.Generator:
    """Counter-based per-path stream: Philox keyed by (seed, path_id)."""
    key = np.array([seed & _MASK64, path_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PathGrid:
    """One sampled Lévy path.

    ``xi[i]`` is the post-jump value at ``times[i]``; on ``linear-drift``
    paths ``jumps[i]`` is the jump applied at node ``i`` (0 at node 0), so
    ``xi[i+1] = xi[i] + drift * dt_i + jumps[i+1]``.  Gaussian paths carry
    ``jumps = None``.
    """

    times: np.ndarray
    xi: np.ndarray
    kind: str
    drift: float = 0.0
    jumps: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.times[0] != 0.0 or self.xi[0] != 0.0:
            raise DomainError("paths must start at (t, xi) = (0, 0)")
        if np.any(np.diff(self.times) <= 0.0):
            raise DomainError("path times must be strictly increasing")
        if not np.all(np.isfinite(self.xi)):
            raise DomainError("path values must be finite")
        if self.kind not in (LINEAR, GAUSSIAN):
            raise DomainError(f"unknown segment kind {self.kind!r}")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def value_at(self, u) -> np.ndarray:
        """xi at arbitrary times: exact on linear segments, linear
        interpolation between Gaussian nodes (cadlag at jump nodes)."""
        u = np.asarray(u, dtype=float)
        if self.kind == GAUSSIAN:
            return np.interp(u, self.times, self.xi)
        idx = np.clip(np.searchsorted(self.times, u, side="right") - 1,
                      0, len(self.times) - 2)
        at_end = u >= self.times[-1]
        idx = np.where(at_end, len(self.times) - 1, idx)
        base = self.times[idx]
        return self.xi[idx] + self.drift * (u - base) * ~at_end


def _effective_dynamics(model: LevyModel):
    """Resolve an Esscher tilt into concrete simulation parameters.

    Tilting by ``t`` keeps each grid family in its own class: the Brownian
    drift becomes ``nu + 2t``; a compound-Poisson family with positive
    (negative) Exp(gamma) jumps becomes one with rate
    ``beta gamma / (gamma -+ t)`` and jump parameter ``gamma -+ t``.
    """
    t = model.tilt
    fam = model.family
    if fam is Family.BROWNIAN_DRIFT:
        return ("brownian", model.params[0] + 2.0 * t)
    if fam is Family.CP_PLUS_DRIFT:
        d, beta, gamma = model.params
        g_eff = gamma - t
        b_eff = 0.0 if beta == 0.0 else beta * gamma / g_eff
        return ("cp", d, b_eff, g_eff, +1.0)
    if fam is Family.CP_MINUS_DRIFT:
        beta, gamma = model.params
        g_eff = gamma - t
        return ("cp", -1.0, beta * gamma / g_eff, g_eff, +1.0)
    if fam is Family.SAW_TOOTH:
        beta, gamma = model.params
        g_eff = gamma + t
        return ("cp", 1.0, beta * gamma / g_eff, g_eff, -1.0)
    raise CapabilityError(
        f"no exact path sampler for family {fam.value!r}; the Cauchy "
        f"modulus is available through simulate_cauchy_modulus")


def sample_levy_path(model: LevyModel, cfg: SimConfig,
                     path_id: int) -> PathGrid:
    """Sample one Lévy path on [0, horizon].

    Deterministic in (seed, path_id); enlarging ``horizon`` extends the
    same path.  Raises :class:`CapabilityError` for non-grid families.
    """
    dyn = _effective_dynamics(model)
    rng = path_rng(cfg.seed, path_id)
    if dyn[0] == "brownian":
        nu = dyn[1]
        h = cfg.step
        n = max(1, math.ceil(cfg.horizon / h))
        times = h * np.arange(n + 1)
        incr = 2.0 * nu * h + 2.0 * math.sqrt(h) * rng.standard_normal(n)
        xi = np.concatenate(([0.0], np.cumsum(incr)))
        return PathGrid(times=times, xi=xi, kind=GAUSSIAN)

    _, drift, beta, gamma, sign = dyn
    arrivals: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    total = 0.0
    while beta > 0.0 and total < cfg.horizon:
        gaps = rng.exponential(scale=1.0 / beta, size=_JUMP_CHUNK)
        mags = rng.exponential(scale=1.0 / gamma, size=_JUMP_CHUNK)
        arrivals.append(total + np.cumsum(gaps))
        sizes.append(mags)
        total = float(arrivals[-1][-1])
    if arrivals:
        t_all = np.concatenate(arrivals)
        s_all = np.concatenate(sizes)
        keep = t_all < cfg.horizon
        t_all, s_all = t_all[keep], s_all[keep]
    else:
        t_all = np.empty(0)
        s_all = np.empty(0)
    times = np.concatenate(([0.0], t_all, [cfg.horizon]))
    jumps = np.concatenate(([0.0], sign * s_all, [0.0]))
    xi = drift * times + np.cumsum(jumps)
    return PathGrid(times=times, xi=xi, kind=LINEAR, drift=drift,
                    jumps=jumps)


# --------------------------------------------------------------------------
# Exponential functional A and clock tau.
# --------------------------------------------------------------------------

def _expm1_ratio(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z with the continuous value 1 + z/2 near z = 0."""
    small = np.abs(z) < 1e-12
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


@dataclass(frozen=True)
class ExpFunctional:
    """A(t) = int_0^t exp(alpha xi_s) ds as a piecewise function.

    Exact on linear-drift segments; on Gaussian segments the node values
    come from the trapezoid rule and interior values from linear
    interpolation (the inversion in :func:`clock_tau` uses the same
    interpolant, so the inverse pair is consistent to machine precision).
    """

    path: PathGrid
    alpha: float
    nodes: np.ndarray = field(repr=False)

    @property
    def total(self) -> float:
        return float(self.nodes[-1])

    def value(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        t, xi = self.path.times, self.path.xi
        idx = np.clip(np.searchsorted(t, u, side="right") - 1, 0, len(t) - 2)
        du = np.clip(u, t[0], t[-1]) - t[idx]
        if self.path.kind == LINEAR:
            rate = self.alpha * self.path.drift
            seg = np.exp(self.alpha * xi[idx]) * du * _expm1_ratio(rate * du)
        else:
            frac = du / (t[idx + 1] - t[idx])
            seg = (self.nodes[idx + 1] - self.nodes[idx]) * frac
        return self.nodes[idx] + seg


def exp_functional(path: PathGrid, alpha: float) -> ExpFunctional:
    """Exponential functional of a path; strictly increasing in t."""
    dt = np.diff(path.times)
    if path.kind == LINEAR:
        rate = alpha * path.drift
        w = np.exp(alpha * path.xi[:-1]) * dt * _expm1_ratio(rate * dt)
    else:
        e = np.exp(alpha * path.xi)
        w = 0.5 * dt * (e[:-1] + e[1:])
    nodes = np.concatenate(([0.0], np.cumsum(w)))
    return ExpFunctional(path=path, alpha=alpha, nodes=nodes)


def log_exp_functional_total(path: PathGrid, alpha: float) -> float:
    """log A(horizon), computed in log space (overflow-safe)."""
    dt = np.diff(path.times)
    if path.kind == LINEAR:
        rate = alpha * path.drift
        logw = alpha * path.xi[:-1] + np.log(dt * _expm1_ratio(rate * dt))
    else:
        z = alpha * path.xi
        logw = np.log(0.5 * dt) + np.logaddexp(z[:-1], z[1:])
    peak = float(np.max(logw))
    return peak + math.log(float(np.sum(np.exp(logw - peak))))


def clock_tau_many(ef: ExpFunctional, targets: Sequence[float]) -> np.ndarray:
    """tau(t) = inf{u : A(u) >= t} for an array of targets.

    Raises:
        DomainError: for negative targets.
        HorizonExceededError: when some target exceeds A(horizon); the
            caller should enlarge the path horizon.
    """
    t = np.asarray(targets, dtype=float)
    if np.any(t < 0.0):
        raise DomainError("clock targets must be >= 0")
    cap = ef.total
    if not math.isfinite(cap):
        raise RescalingError(
            "exponential functional overflowed double precision; reduce "
            "the clock target or use the log-domain estimators")
    if np.any(t > cap):
        worst = float(np.max(t))
        raise HorizonExceededError(
            f"clock target {worst!r} exceeds A(horizon) = {cap!r}",
            target=worst, capacity=cap)
    nodes, times, xi = ef.nodes, ef.path.times, ef.path.xi
    idx = np.clip(np.searchsorted(nodes, t, side="left") - 1, 0,
                  len(nodes) - 2)
    rem = t - nodes[idx]
    if ef.path.kind == LINEAR:
        rate = ef.alpha * ef.path.drift
        scaled = rem * np.exp(-ef.alpha * xi[idx])
        if rate == 0.0:
            du = scaled
        else:
            du = np.log1p(rate * scaled) / rate
    else:
        w = nodes[idx + 1] - nodes[idx]
        du = (times[idx + 1] - times[idx]) * rem / w
    return times[idx] + du


def clock_tau(ef: ExpFunctional, t: float) -> float:
    """Scalar version of :func:`clock_tau_many`."""
    return float(clock_tau_many(ef, np.array([t]))[0])


# --------------------------------------------------------------------------
# Lamperti transform.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PssmpPath:
    """A positive self-similar path X and its clock T.

    ``times``/``values`` sample X at the images ``a^alpha A(u_i)`` of the
    Lévy grid; ``clock(t) = T(t) = int_0^t X_s^-alpha ds`` is evaluated
    through the exact change of variables ``T(t) = tau(t a^-alpha)``, so
    the fundamental relation ``tau(t) = T(t a^alpha)`` holds identically.
    """

    a: float
    alpha: float
    times: np.ndarray
    values: np.ndarray
    functional: ExpFunctional

    def clock_many(self, targets: Sequence[float]) -> np.ndarray:
        t = np.asarray(targets, dtype=float)
        return clock_tau_many(self.functional, t * self.a ** -self.alpha)

    def clock(self, t: float) -> float:
        return float(self.clock_many(np.array([t]))[0])


def lamperti_pssmp(path: PathGrid, a: float, alpha: float) -> PssmpPath:
    """Lamperti image of a Lévy path, started at ``a > 0``."""
    if not a > 0.0:
        raise DomainError(f"start point must be > 0, got {a!r}")
    ef = exp_functional(path, alpha)
    scale = a ** alpha
    return PssmpPath(a=a, alpha=alpha, times=scale * ef.nodes,
                     values=a * np.exp(path.xi), functional=ef)


# --------------------------------------------------------------------------
# Cauchy modulus (positive self-similar of index 1, no Lévy-side grid).
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyModulusPath:
    """Modulus path of a d-dimensional Cauchy process with its clock.

    ``clock`` is the trapezoid integral of 1/R on the geometric grid,
    linearly interpolated between nodes.
    """

    d: int
    a: float
    times: np.ndarray
    radius: np.ndarray
    positions: np.ndarray = field(repr=False)
    clock_nodes: np.ndarray = field(repr=False)

    def clock_many(self, targets: Sequence[float]) -> np.ndarray:
        t = np.asarray(targets, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("clock targets must be >= 0")
        cap = float(self.times[-1])
        if np.any(t > cap):
            worst = float(np.max(t))
            raise HorizonExceededError(
                f"time {worst!r} beyond simulated horizon {cap!r}",
                target=worst, capacity=cap)
        return np.interp(t, self.times, self.clock_nodes)

    def clock(self, t: float) -> float:
        return float(self.clock_many(np.array([t]))[0])


def simulate_cauchy_modulus(d: int, cfg: SimConfig,
                            path_id: int) -> CauchyModulusPath:
    """Simulate |Cauchy| in R^d from (a, 0, ..., 0) on a geometric grid.

    Each increment over a step of length ``dt`` is sampled exactly by
    Brownian subordination: a Gaussian vector scaled by the square root of
    a stable-1/2 subordinator increment ``S = dt^2 / N^2`` (N standard
    normal), whose Laplace transform is ``exp(-dt sqrt(2 lambda))``.  The
    grid is geometric with log-spacing ``cfg.step``, matching the
    self-similarity of the process; step refinement is the accuracy
    control for the trapezoid clock.

    Raises:
        DomainError: for d < 2 (the modulus is self-similar only in
            dimension > 1) or cfg.alpha != 1.
    """
    if d < 2:
        raise DomainError(f"Cauchy modulus requires d >= 2, got {d!r}")
    if cfg.alpha != 1.0:
        raise DomainError("the Cauchy modulus is a pssMp of index 1; "
                          "cfg.alpha must be 1")
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
    return CauchyModulusPath(d=d, a=a, times=times, radius=radius,
                             positions=positions, clock_nodes=t_nodes)


def horizon_policy(mean: float, t_max: float) -> float:
    """Default Lévy-time horizon for clock targets up to ``t_max``.

    Sized from tau(t) ~= log(t)/psi'(0) with a factor-2 margin; the
    estimators double it (up to ``max_doublings``) on horizon misses.
    """
    if t_max <= 1.0:
        return 4.0
    return max(4.0, 2.0 * math.log(t_max) / mean)
