"""Path-level simulation: Lévy paths, exponential functionals, and clocks.

Grid families and their sampling schemes:

* ``brownian_drift`` — exact Gaussian increments on a uniform grid
  (mean ``2 nu h``, variance ``4 h`` per step of size ``h``).
* ``cp_plus_drift`` / ``cp_minus_drift`` / ``saw_tooth`` — event-exact
  compound-Poisson paths: exponential inter-jump times of rate ``beta``,
  exponential jump magnitudes of rate ``gamma`` (signed per family),
  linear drift between jumps.  No grid error at all.

Sampled paths are the rows of a :class:`PathBlock`, and every path
quantity is a method of it: the exponential functional
``A(t) = int_0^t exp(alpha xi_s) ds`` (exact on linear-drift segments,
trapezoidal on Gaussian ones), log A(horizon) in log space, the clock
``tau = A^-1`` (inverted exactly per segment, so that ``A(tau(t)) = t``
to machine precision), first passage and path values.  A single path,
:func:`sample_levy_path`, is a one-row block.  The Lamperti image of a
path started at ``a`` is ``X = a exp(xi)`` at the times ``a^alpha A``;
its clock is ``T(t) = tau(t a^-alpha)``, so the fundamental relation
``tau(t) = T(t a^alpha)`` holds identically on the grid.

Per-path randomness is a counter-based split: path ``i`` of a run seeded
with ``s`` draws from ``Philox(key=(s, i))``, so paths are reproducible
independently of generation order, and re-simulating with a longer horizon
extends a path without changing its prefix.  An ensemble builds one Philox
generator for its draws and re-keys it for each path, which gives the same
streams.

Ensembles run on :func:`run_paths`: paths are drawn per row as above,
gathered into a block of padded rows, and reduced there by operations
that act on each row alone, so every row is bit-identical to the same
path sampled on its own.  Only the rows that missed their target are
drawn again, at a doubled horizon; this is the one horizon-doubling loop
of the package.

The modulus of a d-dimensional Cauchy process (a positive self-similar
process of index 1) is simulated directly by Brownian subordination on a
geometric time grid; see :func:`simulate_cauchy_modulus`.  Its ensembles
share one grid and one re-keyed generator, and each path runs its scaling
and running sums on coordinate-major rows, bit-identical to the path
simulated alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

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
    "PathBlock",
    "CauchyModulus",
    "CauchyModulusPath",
    "path_rng",
    "sample_levy_path",
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
        for name in ("step", "horizon", "alpha", "start"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be finite and > 0, "
                                  f"got {value!r}")
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


def _philox() -> np.random.Generator:
    """A Philox generator for :func:`_path_streams` to re-key."""
    return np.random.Generator(np.random.Philox(key=0))


def _path_streams(rng: np.random.Generator, seed: int,
                  ids: np.ndarray) -> Iterator[np.random.Generator]:
    """The :func:`path_rng` stream of ``(seed, i)`` for each ``i`` in
    ``ids``, in turn.

    ``rng`` (from :func:`_philox`) is re-keyed per path, with its counter
    and buffer reset to those of a new generator.  This gives the same
    streams without the cost of building a generator per path, so one
    generator serves a whole ensemble.  Each stream must be used up before
    the next is taken.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    state["state"]["counter"][:] = 0
    state.update(buffer_pos=len(state["buffer"]), has_uint32=0, uinteger=0)
    for pid in ids.tolist():
        state["state"]["key"] = np.array([seed & _MASK64, pid & _MASK64],
                                         dtype=np.uint64)
        bitgen.state = state
        yield rng


def _sample_block(dyn, rng: np.random.Generator, seed: int, ids: np.ndarray,
                  horizon: float, step: float) -> PathBlock:
    """Paths ``ids`` of a run on [0, horizon], path ``i`` drawn from the
    stream of ``(seed, i)`` (``rng`` re-keyed): ``ceil(horizon / step)``
    standard normals for a Gaussian path, the draws of :func:`_draw_jumps`
    for a jump path."""
    if dyn[0] == "brownian":
        nu = dyn[1]
        n = max(1, math.ceil(horizon / step))
        xi = np.zeros((len(ids), n + 1))
        incr = xi[:, 1:]
        for row, stream in zip(incr, _path_streams(rng, seed, ids)):
            stream.standard_normal(out=row)
        incr *= 2.0 * math.sqrt(step)
        incr += 2.0 * nu * step
        np.cumsum(incr, axis=1, out=incr)
        times = step * np.arange(n + 1)[None]
        return PathBlock(times=times, xi=xi, size=np.full(len(ids), n + 1),
                         kind=GAUSSIAN, ids=ids)
    _, drift, beta, gamma, sign = dyn
    draws = [_draw_jumps(stream, beta, gamma, horizon)
             for stream in _path_streams(rng, seed, ids)]
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
                     path_id: int) -> PathBlock:
    """Sample one Lévy path on [0, horizon] as a one-row block.

    A single row has no padding: ``times[0]``, ``xi[0]`` and, on a jump
    path, ``jumps[0]`` are the whole path.  Deterministic in (seed,
    path_id); enlarging ``horizon`` extends the same path.  Raises
    :class:`CapabilityError` for non-grid families.
    """
    return _sample_block(_effective_dynamics(model), _philox(), cfg.seed,
                         np.array([path_id]), cfg.horizon, cfg.step)


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

    Row ``r`` holds ``size[r]`` nodes of one path, which starts at
    (t, xi) = (0, 0): ``xi[r, i]`` is the post-jump value at time
    ``times[r, i]``.  On ``linear-drift`` rows ``jumps[r, i]`` is the jump
    applied at node ``i`` (0 at node 0), so that
    ``xi[r, i+1] = xi[r, i] + drift * dt_i + jumps[r, i+1]``; Gaussian
    blocks carry ``jumps = None``.  The rows share kind, drift and horizon.
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
            aux = _path_streams(_philox(), seed, _AUX_STREAM + self.ids)
            for row, stream in zip(u, aux):
                stream.random(out=row)
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
    rng = _philox()
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
            block = _sample_block(dyn, rng, cfg.seed, path_offset + rows, h,
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


# --------------------------------------------------------------------------
# Cauchy modulus (positive self-similar of index 1, no Lévy-side grid).
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyModulusPath:
    """Modulus path of a d-dimensional Cauchy process with its clock.

    ``clock_nodes`` is the trapezoid integral of 1/R at the nodes of the
    geometric grid; the clock is linear between them.
    """

    d: int
    a: float
    times: np.ndarray
    radius: np.ndarray
    positions: np.ndarray = field(repr=False)
    clock_nodes: np.ndarray = field(repr=False)


def _cauchy_grid(d: int, cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(times, dt) of the geometric grid of :func:`simulate_cauchy_modulus`
    on [0, cfg.horizon]."""
    if d < 2:
        raise DomainError(f"Cauchy modulus requires d >= 2, got {d!r}")
    if cfg.alpha != 1.0:
        raise DomainError("the Cauchy modulus is a pssMp of index 1; "
                          "cfg.alpha must be 1")
    h = cfg.step
    first = cfg.start * h
    if cfg.horizon <= first:
        times = np.array([0.0, cfg.horizon])
    else:
        n_geo = math.ceil(math.log(cfg.horizon / first) / math.log1p(h))
        times = np.concatenate(([0.0], first * (1.0 + h) ** np.arange(n_geo + 1)))
    return times, np.diff(times)


def _cauchy_sampler(d: int, start: float, dt: np.ndarray):
    """A function of a generator that draws one Cauchy-modulus path from
    (start, 0, ..., 0) on the grid steps ``dt`` and returns (positions,
    radius, clock nodes); ``positions`` has one row of d coordinates per
    node.

    A path draws ``(len(dt), d + 1)`` standard normals: per step, the N
    of the subordinator increment, then the d Gaussian coordinates.  One
    copy to coordinate-major order puts each of them on a contiguous row,
    where every step runs in the order of the per-node formula.

    The arrays are allocated once, here, and each call overwrites the
    previous path's, so the paths of an ensemble allocate nothing.
    Per-path temporaries of a long grid (hundreds of kB) can be handed
    back to the OS by malloc after each path and page-faulted in again by
    the next, depending on the heap's layout.
    """
    n = len(dt)
    draws = np.empty((n, d + 1))
    coords = np.empty((d + 1, n))
    walk = np.zeros((d, n + 1))
    walk[0, 0] = start
    squares = np.empty(walk.shape)
    node_major = np.empty((n + 1, d)) if d >= 8 else None
    radius = np.empty(n + 1)
    inv = np.empty(n + 1)
    half_dt = 0.5 * dt
    w = np.empty(n)
    clock_nodes = np.zeros(n + 1)

    def sample(rng: np.random.Generator):
        rng.standard_normal(out=draws)
        np.copyto(coords, draws.T)
        scale = coords[0]                   # N -> sqrt(S), S = (dt / N)^2
        np.divide(dt, scale, out=scale)
        np.square(scale, out=scale)
        np.sqrt(scale, out=scale)
        steps = coords[1:]
        steps *= scale
        np.cumsum(steps, axis=1, out=walk[:, 1:])
        walk[0, 1:] += start
        # r^2 in the order np.sum takes over the d terms of a node stored
        # contiguously: left to right below 8 terms, which adding the rows
        # in place repeats without the copy to that layout and the slow
        # short-row reduction; pairwise from 8 terms on, which only that
        # layout repeats
        np.multiply(walk, walk, out=squares)
        if d < 8:
            r2 = squares[0]
            for sq in squares[1:]:
                r2 += sq
        else:
            np.copyto(node_major, squares.T)
            r2 = np.sum(node_major, axis=1, out=radius)
        np.sqrt(r2, out=radius)
        np.divide(1.0, radius, out=inv)
        np.add(inv[:-1], inv[1:], out=w)
        np.multiply(w, half_dt, out=w)
        np.cumsum(w, out=clock_nodes[1:])
        return walk.T, radius, clock_nodes

    return sample


def _cauchy_clocks(d: int, cfg: SimConfig, targets: np.ndarray,
                   path_offset: int) -> np.ndarray:
    """(n_paths, len(targets)) clock values T(t) of Cauchy-modulus paths
    ``path_offset + i`` on [0, cfg.horizon]: one grid, and one generator
    re-keyed for each path."""
    times, dt = _cauchy_grid(d, cfg)
    if np.any(targets < 0.0):
        raise DomainError("clock targets must be >= 0")
    cap = float(times[-1])
    if np.any(targets > cap):
        worst = float(np.max(targets))
        raise HorizonExceededError(
            f"time {worst!r} beyond simulated horizon {cap!r}",
            target=worst, capacity=cap)
    ids = path_offset + np.arange(cfg.n_paths)
    sample = _cauchy_sampler(d, cfg.start, dt)
    out = np.empty((cfg.n_paths, len(targets)))
    for row, stream in zip(out, _path_streams(_philox(), cfg.seed, ids)):
        row[:] = np.interp(targets, times, sample(stream)[2])
    return out


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
    times, dt = _cauchy_grid(d, cfg)
    stream = next(_path_streams(_philox(), cfg.seed, np.array([path_id])))
    positions, radius, nodes = _cauchy_sampler(d, cfg.start, dt)(stream)
    return CauchyModulusPath(d=d, a=cfg.start, times=times, radius=radius,
                             positions=positions, clock_nodes=nodes)


def horizon_policy(mean: float, t_max: float) -> float:
    """Default Lévy-time horizon for clock targets up to ``t_max``.

    Sized from tau(t) ~= log(t)/psi'(0) with a factor-2 margin;
    :func:`run_paths` doubles it (up to ``max_doublings``) for the paths
    that miss.
    """
    if t_max <= 1.0:
        return 4.0
    return max(4.0, 2.0 * math.log(t_max) / mean)
