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

Ensembles run on :func:`run_paths`: paths are drawn per row as above,
gathered into a :class:`PathBlock` of padded rows, and reduced there (A,
log A, tau, first passage, path values) by operations that act on each
row alone, so every row is bit-identical to the same path computed on
its own.  Only the rows that missed their target are drawn again, at a
doubled horizon; this is the one horizon-doubling loop of the package.

The modulus of a d-dimensional Cauchy process (a positive self-similar
process of index 1) is simulated directly by Brownian subordination on a
geometric time grid; see :func:`simulate_cauchy_modulus`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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
    "PathBlock",
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
    "run_paths",
]

LINEAR = "linear-drift"
GAUSSIAN = "gaussian-increment"

_MASK64 = (1 << 64) - 1
_JUMP_CHUNK = 128
# Padded elements (rows x nodes) per block of paths: enough rows to spread
# numpy's per-call cost over many short jump paths, few enough that the
# temporaries of a block stay in the low hundreds of kilobytes.
_BLOCK_BUDGET = 1 << 14
# Stream family of auxiliary draws (bridge-crossing uniforms), disjoint
# from every path-id range a run can use.
_AUX_STREAM = 1 << 62


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
        return self._block().value_at(u.reshape(1, -1))[0].reshape(u.shape)

    def _block(self) -> PathBlock:
        return PathBlock(times=self.times[None], xi=self.xi[None],
                         size=np.array([len(self.times)]), kind=self.kind,
                         drift=self.drift)


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


def _draw_jumps(rng: np.random.Generator, beta: float, gamma: float,
                horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """(arrival times, magnitudes) of the jumps of one path before
    ``horizon``.

    Draws ``_JUMP_CHUNK`` exponential gaps, then as many exponential
    magnitudes, per chunk until the arrivals pass the horizon.  A longer
    horizon only appends draws, so it extends the same path.
    """
    arrivals: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    total = 0.0
    while beta > 0.0 and total < horizon:
        gaps = rng.exponential(scale=1.0 / beta, size=_JUMP_CHUNK)
        mags = rng.exponential(scale=1.0 / gamma, size=_JUMP_CHUNK)
        arrivals.append(total + np.cumsum(gaps))
        sizes.append(mags)
        total = float(arrivals[-1][-1])
    if not arrivals:
        return np.empty(0), np.empty(0)
    t_all = np.concatenate(arrivals)
    keep = t_all < horizon
    return t_all[keep], np.concatenate(sizes)[keep]


def _path_streams(seed: int,
                  ids: np.ndarray) -> Iterator[np.random.Generator]:
    """``path_rng(seed, i)`` for each ``i`` in ``ids``, in turn.

    One Philox generator is re-keyed per path (counter and buffer reset),
    which gives the same streams without the cost of building a generator
    per path.  Each stream must be used up before the next is taken.
    """
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    for pid in ids.tolist():
        state["state"]["key"] = np.array([seed & _MASK64, pid & _MASK64],
                                         dtype=np.uint64)
        bitgen.state = state
        yield rng


def _sample_block(dyn, seed: int, ids: np.ndarray, horizon: float,
                  step: float) -> PathBlock:
    """Paths ``ids`` of a run on [0, horizon], path ``i`` drawn from
    ``path_rng(seed, i)``: ``ceil(horizon / step)`` standard normals for a
    Gaussian path, the draws of :func:`_draw_jumps` for a jump path."""
    if dyn[0] == "brownian":
        nu = dyn[1]
        n = max(1, math.ceil(horizon / step))
        xi = np.zeros((len(ids), n + 1))
        incr = xi[:, 1:]
        for row, rng in zip(incr, _path_streams(seed, ids)):
            rng.standard_normal(out=row)
        incr *= 2.0 * math.sqrt(step)
        incr += 2.0 * nu * step
        np.cumsum(incr, axis=1, out=incr)
        times = step * np.arange(n + 1)[None]
        return PathBlock(times=times, xi=xi, size=np.full(len(ids), n + 1),
                         kind=GAUSSIAN, ids=ids)
    _, drift, beta, gamma, sign = dyn
    draws = [_draw_jumps(rng, beta, gamma, horizon)
             for rng in _path_streams(seed, ids)]
    size = np.array([len(arrivals) + 2 for arrivals, _ in draws])
    times = np.full((len(ids), int(size.max())), float(horizon))
    times[:, 0] = 0.0
    jumps = np.zeros(times.shape)
    for row, (arrivals, mags) in enumerate(draws):
        times[row, 1:len(arrivals) + 1] = arrivals
        jumps[row, 1:len(arrivals) + 1] = sign * mags
    xi = np.cumsum(jumps, axis=1)
    xi += drift * times
    return PathBlock(times=times, xi=xi, size=size, kind=LINEAR, drift=drift,
                     ids=ids, jumps=jumps)


def sample_levy_path(model: LevyModel, cfg: SimConfig,
                     path_id: int) -> PathGrid:
    """Sample one Lévy path on [0, horizon].

    Deterministic in (seed, path_id); enlarging ``horizon`` extends the
    same path.  Raises :class:`CapabilityError` for non-grid families.
    """
    block = _sample_block(_effective_dynamics(model), cfg.seed,
                          np.array([path_id]), cfg.horizon, cfg.step)
    n = int(block.size[0])
    jumps = None if block.jumps is None else block.jumps[0, :n]
    return PathGrid(times=block.times[0, :n].copy(), xi=block.xi[0, :n],
                    kind=block.kind, drift=block.drift, jumps=jumps)


# --------------------------------------------------------------------------
# Exponential functional A and clock tau.
# --------------------------------------------------------------------------

def _expm1_ratio(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z with the continuous value 1 + z/2 near z = 0."""
    small = np.abs(z) < 1e-12
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


def _log_segment(dt: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log(dt expm1(z)/z), the log integral of exp over a linear segment.

    Where expm1(z) overflows (z above ~709.78) it is evaluated in log space
    as z + log1p(-exp(-z)) + log(dt/z); elsewhere as the direct product.
    """
    with np.errstate(over="ignore"):
        out = np.log(dt * _expm1_ratio(z))
    big = ~np.isfinite(out)
    if big.any():
        zb = z[big]
        out[big] = zb + np.log1p(-np.exp(-zb)) + np.log(dt[big] / zb)
    return out


def _search_rows(a: np.ndarray, size: np.ndarray, v: np.ndarray,
                 side: str = "left") -> np.ndarray:
    """``np.searchsorted`` of each row of ``v`` in the first ``size[i]``
    entries of row ``i`` of ``a``."""
    return np.array([np.searchsorted(row[:n], vals, side=side)
                     for row, n, vals in zip(a, size.tolist(), v)])


@dataclass(frozen=True)
class PathBlock:
    """Sampled Lévy paths as the padded rows of 2-D arrays.

    Row ``r`` holds ``size[r]`` nodes of one path, with the layout of
    :class:`PathGrid`; the rows of a block share kind, drift and horizon.
    Jump paths are padded to the longest row by repeating the horizon
    (zero-length segments, no jumps); Gaussian rows need no padding and
    share one time grid, stored as the single row of ``times``.  ``ids``
    are the path ids the rows were drawn from.

    Every array operation here is elementwise or a running sum along a
    row, and every sum or search that depends on the row length runs on
    the row's own nodes only, so each row's results are bit-identical to
    those of the same path computed alone.
    """

    times: np.ndarray
    xi: np.ndarray
    size: np.ndarray
    kind: str
    drift: float = 0.0
    ids: np.ndarray | None = None
    jumps: np.ndarray | None = None

    def _times_at(self, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self.times[0 if len(self.times) == 1 else rows, idx]

    def functional(self, alpha: float) -> np.ndarray:
        """Node values of A = int exp(alpha xi) per row: exact on
        linear-drift segments, trapezoidal on Gaussian ones."""
        dt = self.times[:, 1:] - self.times[:, :-1]
        if self.kind == LINEAR:
            w = np.exp(alpha * self.xi[:, :-1])
            w *= dt
            w *= _expm1_ratio(alpha * self.drift * dt)
        else:
            e = np.exp(alpha * self.xi)
            w = e[:, :-1] + e[:, 1:]
            w *= 0.5 * dt
        nodes = np.zeros(self.xi.shape)
        np.cumsum(w, axis=1, out=nodes[:, 1:])
        return nodes

    def totals(self, nodes: np.ndarray) -> np.ndarray:
        """A(horizon) per row."""
        return nodes[np.arange(len(nodes)), self.size - 1]

    def log_totals(self, alpha: float) -> np.ndarray:
        """log A(horizon) per row, computed in log space (overflow-safe)."""
        dt = self.times[:, 1:] - self.times[:, :-1]
        if self.kind == LINEAR:
            seg = np.arange(dt.shape[1]) < (self.size - 1)[:, None]
            logw = np.full(dt.shape, -np.inf)
            d = dt[seg]
            logw[seg] = (alpha * self.xi[:, :-1][seg]
                         + _log_segment(d, alpha * self.drift * d))
        else:
            z = alpha * self.xi
            logw = np.log(0.5 * dt) + np.logaddexp(z[:, :-1], z[:, 1:])
        peak = np.max(logw, axis=1)
        scaled = np.exp(logw - peak[:, None])
        return np.array([p + math.log(float(np.sum(row[:n - 1])))
                         for p, row, n in zip(peak.tolist(), scaled,
                                              self.size.tolist())])

    def clock(self, nodes: np.ndarray, alpha: float,
              targets) -> tuple[np.ndarray, np.ndarray]:
        """tau(t) = inf{u : A(u) >= t} per row, and the rows it exists on.

        ``targets`` holds one set of clock targets for all rows, or one row
        of targets per path.  Returns ``(taus, reached)``: ``reached[r]`` is
        false where some target exceeds A(horizon), and that row of
        ``taus`` is NaN.  The inversion is exact per segment, so that
        ``A(tau(t)) = t`` to machine precision.

        Raises:
            DomainError: for negative targets.
            RescalingError: when A(horizon) overflowed on some row.
        """
        t = np.asarray(targets, dtype=float)
        if t.ndim == 1:
            t = np.repeat(t[None], len(nodes), axis=0)
        if (t < 0.0).any():
            raise DomainError("clock targets must be >= 0")
        cap = self.totals(nodes)
        if not np.isfinite(cap).all():
            raise RescalingError(
                "exponential functional overflowed double precision; reduce "
                "the clock target or use the log-domain estimators")
        reached = ~(t > cap[:, None]).any(axis=1)
        idx = np.minimum(np.maximum(_search_rows(nodes, self.size, t) - 1, 0),
                         (self.size - 2)[:, None])
        # invert on the rows that reached every target only
        r = np.flatnonzero(reached)
        rows, idx, t = r[:, None], idx[r], t[r]
        base = self._times_at(rows, idx)
        rem = t - nodes[rows, idx]
        if self.kind == LINEAR:
            rate = alpha * self.drift
            scaled = rem * np.exp(-alpha * self.xi[rows, idx])
            du = scaled if rate == 0.0 else np.log1p(rate * scaled) / rate
        else:
            w = nodes[rows, idx + 1] - nodes[rows, idx]
            du = (self._times_at(rows, idx + 1) - base) * rem / w
        taus = np.full(reached.shape + t.shape[1:], np.nan)
        taus[r] = base + du
        return taus, reached

    def value_at(self, u: np.ndarray) -> np.ndarray:
        """xi at times ``u`` (one row of times per path): exact on linear
        segments, linear interpolation between Gaussian nodes (cadlag at
        jump nodes)."""
        if self.kind == GAUSSIAN:
            grid = self.times[0]
            return np.array([np.interp(ur, grid, xr)
                             for ur, xr in zip(u, self.xi)])
        rows = np.arange(len(u))[:, None]
        last = (self.size - 1)[:, None]
        idx = np.clip(_search_rows(self.times, self.size, u, "right") - 1,
                      0, last - 1)
        at_end = u >= self.times[rows, last]
        idx = np.where(at_end, last, idx)
        base = self.times[rows, idx]
        return self.xi[rows, idx] + self.drift * (u - base) * ~at_end

    def first_passage(self, level: float, seed: int) -> np.ndarray:
        """First time each row's path exceeds ``level`` (inf if never).

        Exact on linear-drift rows (drift up, jumps down).  On Gaussian
        rows a step whose endpoints x0, x1 stay below ``b = level`` is
        crossed by the bridge of xi = 2B + drift (variance 4 per unit time)
        with probability exp(-(b - x0)(b - x1) / (2 h)), decided by one
        uniform per step from the path's auxiliary stream
        ``path_rng(seed, _AUX_STREAM + id)``; a crossing inside a step is
        assigned to its midpoint (O(step) bias).
        """
        x0, x1 = self.xi[:, :-1], self.xi[:, 1:]
        rows = np.arange(len(x0))
        if self.kind == LINEAR:
            # a padded segment has zero length and reach > 0: no crossing
            reach = (level - x0) / self.drift
            crossed = (x0 < level) & (reach <= np.diff(self.times, axis=1))
            first = np.argmax(crossed, axis=1)
            hat = self.times[rows, first] + reach[rows, first]
        else:
            grid = self.times[0]
            h = grid[1] - grid[0]
            below = (x0 < level) & (x1 < level)
            p = np.where(below,
                         np.exp(-np.maximum(level - x0, 0.0)
                                * np.maximum(level - x1, 0.0) / (2.0 * h)),
                         1.0)
            u = np.empty(p.shape)
            aux = _path_streams(seed, _AUX_STREAM + self.ids)
            for row, rng in zip(u, aux):
                rng.random(out=row)
            crossed = (x1 >= level) | (u < p)
            first = np.argmax(crossed, axis=1)
            a, b = x0[rows, first], x1[rows, first]
            up = b >= level
            frac = np.ones(len(rows))
            rising = up & (b > a)
            frac[rising] = (level - a[rising]) / (b[rising] - a[rising])
            hat = np.where(up, grid[first] + frac * h, grid[first] + 0.5 * h)
        return np.where(np.any(crossed, axis=1), hat, np.inf)


def run_paths(model: LevyModel, cfg: SimConfig, horizon: float,
              reduce: Callable[[PathBlock], tuple[np.ndarray, object]],
              path_offset: int = 0,
              miss: Callable[[int, float], str] | None = None) -> np.ndarray:
    """Per-path results of ``reduce`` on paths ``path_offset + i``,
    ``i < cfg.n_paths``, sampled in blocks of rows.

    ``reduce(block)`` returns the block's per-row values (a leading row
    axis) and a mask, or ``True``, of the rows it served.  The other rows
    fell short of their target on [0, h]: they alone are drawn again at
    2h, which extends the same paths, up to ``cfg.max_doublings`` times.
    Row ``i`` of the result holds path ``path_offset + i``.  ``miss`` is
    needed only when ``reduce`` can leave rows unserved.

    Raises:
        HorizonExceededError: with message ``miss(i, h)`` for the first
            row ``i`` still unserved at the last horizon ``h``.
    """
    dyn = _effective_dynamics(model)
    pending = np.arange(cfg.n_paths)
    out = None
    h = horizon
    for _ in range(cfg.max_doublings + 1):
        if dyn[0] == "brownian":
            width = math.ceil(h / cfg.step) + 1
        else:
            # rows are padded to the most jumps in the block: the Poisson
            # mean plus four standard deviations
            events = dyn[2] * h
            width = math.ceil(events + 4.0 * math.sqrt(events)) + 2
        per_block = max(1, _BLOCK_BUDGET // width)
        missed = []
        for lo in range(0, len(pending), per_block):
            rows = pending[lo:lo + per_block]
            block = _sample_block(dyn, cfg.seed, path_offset + rows, h,
                                  cfg.step)
            values, served = reduce(block)
            if served is True:
                served = np.ones(len(rows), dtype=bool)
            if out is None:
                out = np.empty((cfg.n_paths,) + values.shape[1:])
            out[rows[served]] = values[served]
            missed.append(rows[~served])
        pending = np.concatenate(missed)
        if not len(pending):
            return out
        h *= 2.0
    raise HorizonExceededError(miss(int(pending[0]), h / 2.0))


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
    return ExpFunctional(path=path, alpha=alpha,
                         nodes=path._block().functional(alpha)[0])


def log_exp_functional_total(path: PathGrid, alpha: float) -> float:
    """log A(horizon), computed in log space (overflow-safe)."""
    return float(path._block().log_totals(alpha)[0])


def clock_tau_many(ef: ExpFunctional, targets: Sequence[float]) -> np.ndarray:
    """tau(t) = inf{u : A(u) >= t} for an array of targets.

    Raises:
        DomainError: for negative targets.
        HorizonExceededError: when some target exceeds A(horizon); the
            caller should enlarge the path horizon.
    """
    t = np.asarray(targets, dtype=float)
    taus, reached = ef.path._block().clock(ef.nodes[None], ef.alpha,
                                          t.reshape(1, -1))
    if not reached[0]:
        worst = float(np.max(t))
        raise HorizonExceededError(
            f"clock target {worst!r} exceeds A(horizon) = {ef.total!r}",
            target=worst, capacity=ef.total)
    return taus[0].reshape(t.shape)


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

    Sized from tau(t) ~= log(t)/psi'(0) with a factor-2 margin;
    :func:`run_paths` doubles it (up to ``max_doublings``) for the paths
    that miss.
    """
    if t_max <= 1.0:
        return 4.0
    return max(4.0, 2.0 * math.log(t_max) / mean)
