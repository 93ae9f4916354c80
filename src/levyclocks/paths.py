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
path sampled on its own.  A run whose rows can miss their target grows
each row until it is served: Gaussian rows gain steps in geometric
pieces, each drawn from the stream, ξ and A the row carries from the
last one; jump rows gain 128-event chunks.  No row is drawn past the
horizon ``h0 2^k`` at which the same path sampled alone would first
serve it, so the results are those of doubling the horizon and drawing
again; this is the one horizon ladder of the package.

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
# Horizons per doubling at which a growing run reduces its rows: a row
# grows by 2^(1/3) between reductions.
_PER_DOUBLING = 3
# Rows a growing run has pending at once.  A pending Gaussian row keeps its
# generator state (about 1 kB) from one reduction to the next, so a run
# grows its rows in waves of this many, one wave after another.
_WAVE = 1 << 12


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
                until: float) -> tuple[np.ndarray, np.ndarray]:
    """(arrival times, magnitudes) of a path's jumps, every one drawn.

    Draws ``_JUMP_CHUNK`` exponential gaps, then as many exponential
    magnitudes, per chunk until the arrivals pass ``until``.  A longer
    horizon only appends draws, so it extends the same path.
    """
    arrivals: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    total = 0.0
    while beta > 0.0 and total < until:
        gaps = rng.exponential(scale=1.0 / beta, size=_JUMP_CHUNK)
        sizes.append(rng.exponential(scale=1.0 / gamma, size=_JUMP_CHUNK))
        arrivals.append(total + np.cumsum(gaps))
        total = float(arrivals[-1][-1])
    if not arrivals:
        return np.empty(0), np.empty(0)
    if len(arrivals) == 1:
        return arrivals[0], sizes[0]
    return np.concatenate(arrivals), np.concatenate(sizes)


def _philox() -> np.random.Generator:
    """A Philox generator for :func:`_path_streams` to re-key."""
    return np.random.Generator(np.random.Philox(key=0))


def _path_streams(rng: np.random.Generator, seed: int, ids: np.ndarray,
                  saved: list | None = None) -> Iterator[np.random.Generator]:
    """The :func:`path_rng` stream of ``(seed, i)`` for each ``i`` in
    ``ids``, in turn: from its start, or from the state ``saved`` holds
    for it (``None`` for the start).

    ``rng`` (from :func:`_philox`) is re-keyed per path, with its counter
    and buffer reset to those of a new generator.  This gives the same
    streams without the cost of building a generator per path, so one
    generator serves a whole ensemble.  Each stream must be used up, or
    its state saved, before the next is taken.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    state["state"]["counter"][:] = 0
    state.update(buffer_pos=len(state["buffer"]), has_uint32=0, uinteger=0)
    for row, pid in enumerate(ids.tolist()):
        if saved is not None and saved[row] is not None:
            bitgen.state = saved[row]
        else:
            state["state"]["key"] = np.array([seed & _MASK64, pid & _MASK64],
                                             dtype=np.uint64)
            bitgen.state = state
        yield rng


class _Work:
    """The generator and the scratch arrays that the blocks of one run
    share.

    :meth:`array` hands out C-contiguous views of flat arrays kept per
    key, grown only when a larger shape is asked for.  Arrays of a
    block's size (hundreds of kB) allocated afresh per block can be handed
    back to the OS by malloc and page-faulted in again by the next block,
    depending on the heap's layout; reused, they cost the same in every
    block.  A block's arrays are overwritten by the next block of its run.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._flat: dict[object, np.ndarray] = {}

    def array(self, key, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or len(flat) < size:
            flat = self._flat[key] = np.empty(size)
        return flat[:size].reshape(shape)


def sample_levy_path(model: LevyModel, cfg: SimConfig,
                     path_id: int) -> PathBlock:
    """Sample one Lévy path on [0, horizon] as a one-row block.

    A single row has no padding: ``times[0]``, ``xi[0]`` and, on a jump
    path, ``jumps[0]`` are the whole path.  Deterministic in (seed,
    path_id); enlarging ``horizon`` extends the same path.  Raises
    :class:`CapabilityError` for non-grid families.
    """
    rows = _row_sampler(_effective_dynamics(model), cfg, path_id, 1,
                        _Work(_philox()), grow=False)
    return next(rows.blocks(np.array([0]), cfg.horizon, cfg.horizon))[1]


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
    return np.array([row[:n].searchsorted(vals, side=side)
                     for row, n, vals in zip(a, size.tolist(), v)])


@dataclass
class _Carry:
    """What the rows of a block bring from their earlier blocks in a run
    that grows them: A of index ``alpha`` at each row's first node, and
    each row's auxiliary stream for :meth:`PathBlock.first_passage`
    (``None`` before its first draw, then its saved state, or ``False``
    once the row has crossed)."""

    alpha: float
    a0: np.ndarray
    aux: list


@dataclass(frozen=True)
class PathBlock:
    """Sampled Lévy paths as the padded rows of 2-D arrays.

    Row ``r`` holds ``size[r]`` nodes of one path, which starts at
    (t, xi) = (0, 0): ``xi[r, i]`` is the post-jump value at time
    ``times[r, i]``.  On ``linear-drift`` rows ``jumps[r, i]`` is the jump
    applied at node ``i`` (0 at node 0), so that
    ``xi[r, i+1] = xi[r, i] + drift * dt_i + jumps[r, i+1]``; Gaussian
    blocks carry ``jumps = None``.  The rows share kind and drift.  Jump
    paths are padded to the longest row by repeating the row's horizon
    (zero-length segments, no jumps); Gaussian rows need no padding and
    share one time grid of spacing ``step``, stored as the single row of
    ``times``.  ``ids`` are the path ids the rows were drawn from, with
    the generator of ``work``.

    A Gaussian block of a run that grows its rows (see :func:`run_paths`)
    may continue them: it then starts at each row's last node so far,
    whose A and auxiliary stream ``carry`` holds, and its values are those
    of the rows' nodes it holds.

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
    step: float | None = None
    work: _Work | None = field(default=None, repr=False)
    carry: _Carry | None = field(default=None, repr=False)
    _nodes: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def _array(self, key, shape: tuple[int, ...]) -> np.ndarray:
        return (np.empty(shape) if self.work is None
                else self.work.array(key, shape))

    def _times_at(self, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self.times[0 if len(self.times) == 1 else rows, idx]

    def functional(self, alpha: float) -> np.ndarray:
        """Node values of A = int exp(alpha xi) per row: exact on
        linear-drift segments, trapezoidal on Gaussian ones."""
        nodes = self._nodes.get(alpha)
        if nodes is not None:
            return nodes
        if self.carry is not None and alpha != self.carry.alpha:
            raise DomainError(f"these rows carry A of index "
                              f"{self.carry.alpha!r}, not {alpha!r}")
        dt = self.times[:, 1:] - self.times[:, :-1]
        w = self._array("w", (len(self.xi), self.xi.shape[1] - 1))
        if self.kind == LINEAR:
            np.multiply(self.xi[:, :-1], alpha, out=w)
            np.exp(w, out=w)
            w *= dt
            w *= _expm1_ratio(alpha * self.drift * dt)
        else:
            e = self._array("exp", self.xi.shape)
            np.multiply(self.xi, alpha, out=e)
            np.exp(e, out=e)
            np.add(e[:, :-1], e[:, 1:], out=w)
            w *= 0.5 * dt
        nodes = self._array(("nodes", alpha), self.xi.shape)
        if self.carry is None:
            nodes[:, 0] = 0.0
            np.cumsum(w, axis=1, out=nodes[:, 1:])
        else:
            # the running sum goes on from A at the first node, as it does
            # along the whole row
            nodes[:, 0] = self.carry.a0
            nodes[:, 1:] = w
            np.cumsum(nodes, axis=1, out=nodes)
        self._nodes[alpha] = nodes
        return nodes

    def totals(self, nodes: np.ndarray) -> np.ndarray:
        """A(horizon) per row."""
        return nodes[np.arange(len(nodes)), self.size - 1]

    def log_totals(self, alpha: float) -> np.ndarray:
        """log A(horizon) per row, computed in log space (overflow-safe)."""
        dt = self.times[:, 1:] - self.times[:, :-1]
        logw = self._array("logw", (len(self.xi), dt.shape[1]))
        if self.kind == LINEAR:
            seg = np.arange(dt.shape[1]) < (self.size - 1)[:, None]
            logw.fill(-np.inf)
            d = dt[seg]
            logw[seg] = (alpha * self.xi[:, :-1][seg]
                         + _log_segment(d, alpha * self.drift * d))
        else:
            z = self._array("exp", self.xi.shape)
            np.multiply(self.xi, alpha, out=z)
            np.logaddexp(z[:, :-1], z[:, 1:], out=logw)
            logw += np.log(0.5 * dt)
        peak = np.max(logw, axis=1)
        logw -= peak[:, None]
        scaled = np.exp(logw, out=logw)
        return np.array([p + math.log(float(np.sum(row[:n - 1])))
                         for p, row, n in zip(peak.tolist(), scaled,
                                              self.size.tolist())])

    def clock(self, nodes: np.ndarray, alpha: float, targets,
              partial: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """tau(t) = inf{u : A(u) >= t} per row, and the rows it exists on.

        ``targets`` holds one set of clock targets for all rows, or one row
        of targets per path.  Returns ``(taus, reached)``: ``reached[r]``
        is false where some target exceeds A(horizon), and that row of
        ``taus`` is NaN; with ``partial``, only the targets beyond
        A(horizon) read NaN (and, on a block that continues its rows, those
        below A at their first node, which an earlier block found).  The
        inversion is exact per segment, so that ``A(tau(t)) = t`` to
        machine precision.

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
        found = (t <= cap[:, None]) & (t >= nodes[:, :1])
        idx = np.minimum(np.maximum(_search_rows(nodes, self.size, t) - 1, 0),
                         (self.size - 2)[:, None])
        # invert where the target is found only
        rows, cols = np.nonzero(found)
        idx, t = idx[rows, cols], t[rows, cols]
        base = self._times_at(rows, idx)
        rem = t - nodes[rows, idx]
        if self.kind == LINEAR:
            rate = alpha * self.drift
            scaled = rem * np.exp(-alpha * self.xi[rows, idx])
            du = scaled if rate == 0.0 else np.log1p(rate * scaled) / rate
        else:
            w = nodes[rows, idx + 1] - nodes[rows, idx]
            du = (self._times_at(rows, idx + 1) - base) * rem / w
        taus = np.full(found.shape, np.nan)
        taus[rows, cols] = base + du
        reached = found.all(axis=1)
        if not partial:
            taus[~reached] = np.nan
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
        ``path_rng(seed, _AUX_STREAM + id)``, drawn with the block's
        generator up to the row's first step that ends at or above
        ``level``; a crossing inside a step is assigned to its midpoint
        (O(step) bias).  On a block that continues its rows, the uniforms
        go on from where the row's earlier blocks left its stream, and a
        row that crossed in one of them reads NaN.
        """
        x0, x1 = self.xi[:, :-1], self.xi[:, 1:]
        rows = np.arange(len(x0))
        if self.kind == LINEAR:
            # a padded segment has zero length and reach > 0: no crossing
            reach = (level - x0) / self.drift
            crossed = (x0 < level) & (reach <= np.diff(self.times, axis=1))
            first = np.argmax(crossed, axis=1)
            hat = self.times[rows, first] + reach[rows, first]
            return np.where(np.any(crossed, axis=1), hat, np.inf)
        grid = self.times[0]
        h = grid[1] - grid[0] if self.step is None else self.step
        aux = [None] * len(rows) if self.carry is None else self.carry.aux
        live = np.array([a is not False for a in aux])
        sure = x1 >= level
        # uniforms per row: up to its first sure crossing, none once crossed
        need = np.where(sure.any(axis=1), np.argmax(sure, axis=1),
                        sure.shape[1]) * live
        cols = min(int(need.max()) + 1, sure.shape[1])
        a, b = x0[:, :cols], x1[:, :cols]
        p = np.where((a < level) & (b < level),
                     np.exp(-np.maximum(level - a, 0.0)
                            * np.maximum(level - b, 0.0) / (2.0 * h)),
                     1.0)
        u = np.ones(p.shape)        # 1 is never below p: no draw there
        rng = _philox() if self.work is None else self.work.rng
        live_rows = np.flatnonzero(live)
        streams = _path_streams(rng, seed, _AUX_STREAM + self.ids[live_rows],
                                [aux[r] for r in live_rows])
        for r, stream in zip(live_rows.tolist(), streams):
            n = need[r]
            stream.random(out=u[r, :n])
            if self.carry is not None:
                # a row that has not crossed keeps its stream for the next
                # block
                still = n == sure.shape[1] and not (u[r, :n] < p[r, :n]).any()
                aux[r] = stream.bit_generator.state if still else False
        crossed = sure[:, :cols] | (u < p)
        first = np.argmax(crossed, axis=1)
        a, b = a[rows, first], b[rows, first]
        up = b >= level
        frac = np.ones(len(rows))
        rising = up & (b > a)
        frac[rising] = (level - a[rising]) / (b[rising] - a[rising])
        hat = np.where(up, grid[first] + frac * h, grid[first] + 0.5 * h)
        hat = np.where(np.any(crossed, axis=1), hat, np.inf)
        return np.where(live, hat, np.nan)


def _schedule(h0: float, doublings: int) -> list[tuple[float, float]]:
    """(horizon, rung) of each reduction of a growing run.

    The horizons are h0 2^(j/3 - 1), ``_PER_DOUBLING`` per doubling, from
    h0/2, near the centre of the clock's law, up to the last rung
    h0 2^doublings; the rung of each is the horizon h0 2^k of the ladder
    at or above it, and every rung is one of the horizons.
    """
    k = _PER_DOUBLING
    return [(h0 * 2.0 ** ((j - k) / k), h0 * 2.0 ** max(0, -((k - j) // k)))
            for j in range(k * (doublings + 1) + 1)]


class _GaussianRows:
    """The Gaussian rows of a run, drawn in pieces.

    A row's first piece starts at node 0; each later one starts at the
    row's last node, with the ξ, the A (of index ``cfg.alpha``), the
    generator state and the auxiliary stream the row carries from the
    piece before, and appends the steps up to the next horizon.  Normals
    drawn in pieces equal one draw, and ξ and A are running sums continued
    from the carried node, so each node is the one the whole row has.
    """

    def __init__(self, dyn, cfg: SimConfig, offset: int, n_rows: int,
                 work: _Work, grow: bool) -> None:
        self.nu, self.cfg, self.offset, self.work = dyn[1], cfg, offset, work
        self.grow = grow
        self.n = 0                  # steps drawn on every pending row
        self.xi = np.zeros(n_rows)
        self.a = np.zeros(n_rows)
        # generator state and auxiliary stream of each pending row
        self.carried: dict[int, tuple] = {}

    def blocks(self, rows: np.ndarray, horizon: float, rung: float):
        n = max(1, math.ceil(horizon / self.cfg.step))
        if n == self.n:
            return
        per_block = max(1, _BLOCK_BUDGET // (n - self.n + 1))
        for lo in range(0, len(rows), per_block):
            sub = rows[lo:lo + per_block]
            yield sub, self._piece(sub, n)
        self.n = n

    def _piece(self, rows: np.ndarray, n: int) -> PathBlock:
        step, n0 = self.cfg.step, self.n
        ids = self.offset + rows
        xi = self.work.array("xi", (len(rows), n - n0 + 1))
        incr = xi[:, 1:]
        saved = [self.carried[r][0] for r in rows.tolist()] if n0 else None
        streams = _path_streams(self.work.rng, self.cfg.seed, ids, saved)
        self.states = []            # of this piece's rows, for keep()
        for row, stream in zip(incr, streams):
            stream.standard_normal(out=row)
            if self.grow:
                self.states.append(stream.bit_generator.state)
        incr *= 2.0 * math.sqrt(step)
        incr += 2.0 * self.nu * step
        xi[:, 0] = self.xi[rows] if n0 else 0.0
        np.cumsum(xi, axis=1, out=xi)
        carry = None
        if self.grow:
            a0 = self.a[rows] if n0 else np.zeros(len(rows))
            aux = ([self.carried[r][1] for r in rows.tolist()] if n0
                   else [None] * len(rows))
            carry = _Carry(self.cfg.alpha, a0, aux)
        return PathBlock(times=step * np.arange(n0, n + 1)[None], xi=xi,
                         size=np.full(len(rows), n - n0 + 1), kind=GAUSSIAN,
                         ids=ids, step=step, work=self.work, carry=carry)

    def keep(self, rows: np.ndarray, block: PathBlock,
             left: np.ndarray) -> None:
        """Carry the last node of the block's rows (the run's ``rows``)
        where ``left`` to their next piece, and drop what the others
        carried."""
        if not self.grow:
            return
        for r, state, aux, pending in zip(rows.tolist(), self.states,
                                          block.carry.aux, left.tolist()):
            if pending:
                self.carried[r] = state, aux
            else:
                self.carried.pop(r, None)
        if left.any():
            self.xi[rows[left]] = block.xi[left, -1]
            self.a[rows[left]] = block.functional(self.cfg.alpha)[left, -1]


class _JumpRows:
    """The compound-Poisson rows of a run.

    A row is drawn in chunks of ``_JUMP_CHUNK`` events until they pass the
    horizon, and reduced on everything they cover up to the rung,
    [0, min(last arrival, rung)].  A pending row is reduced again once
    that interval grows, on its chunks drawn again from the start of its
    stream, and more where the horizon has passed them.  A jump row holds
    tens of events: drawing them again costs about what moving its stream
    past them to append a chunk would, and keeping them for every row of a
    block would cost more memory than the block.
    """

    def __init__(self, dyn, cfg: SimConfig, offset: int, n_rows: int,
                 work: _Work, grow: bool) -> None:
        _, self.drift, self.beta, self.gamma, self.sign = dyn
        self.cfg, self.offset, self.work = cfg, offset, work
        self.reach = np.zeros(n_rows)           # last arrival drawn
        self.end = np.zeros(n_rows)             # horizon of the last block

    def blocks(self, rows: np.ndarray, horizon: float, rung: float):
        # rows are padded to the most jumps in the block: the Poisson mean
        # plus four standard deviations
        events = self.beta * rung
        width = math.ceil(events + 4.0 * math.sqrt(events)) + 2
        per_block = max(1, _BLOCK_BUDGET // width)
        for lo in range(0, len(rows), per_block):
            sub = rows[lo:lo + per_block]
            reach = self.reach[sub]
            sub = sub[(reach < horizon)
                      | (np.minimum(reach, rung) > self.end[sub])]
            if len(sub):
                yield sub, self._block(sub, horizon, rung)

    def _block(self, rows: np.ndarray, horizon: float,
               rung: float) -> PathBlock:
        """Rows ``rows`` drawn past ``horizon`` (and past what they drew
        before), each on [0, min(last arrival, rung)]."""
        draws = []
        until = np.maximum(self.reach[rows], horizon).tolist()
        streams = _path_streams(self.work.rng, self.cfg.seed,
                                self.offset + rows)
        for u, stream in zip(until, streams):
            arrivals, sizes = _draw_jumps(stream, self.beta, self.gamma, u)
            reach = arrivals[-1] if len(arrivals) else math.inf
            m = int(arrivals.searchsorted(min(reach, rung)))
            draws.append((reach, arrivals[:m].copy(), sizes[:m].copy()))
        self.reach[rows] = [reach for reach, _, _ in draws]
        end = np.minimum(self.reach[rows], rung)
        self.end[rows] = end
        size = np.array([len(arrivals) for _, arrivals, _ in draws]) + 2
        shape = (len(rows), int(size.max()))
        times = self.work.array("times", shape)
        times[:] = end[:, None]
        times[:, 0] = 0.0
        jumps = self.work.array("jumps", shape)
        jumps.fill(0.0)
        for t_row, j_row, (_, arrivals, mags) in zip(times, jumps, draws):
            m = len(arrivals)
            t_row[1:m + 1] = arrivals
            j_row[1:m + 1] = self.sign * mags
        xi = np.cumsum(jumps, axis=1, out=self.work.array("xi", shape))
        xi += self.drift * times
        return PathBlock(times=times, xi=xi, size=size, kind=LINEAR,
                         drift=self.drift, ids=self.offset + rows,
                         jumps=jumps, work=self.work)

    def keep(self, rows: np.ndarray, block: PathBlock,
             left: np.ndarray) -> None:
        """Nothing: a jump row carries only how far it was drawn."""


def _row_sampler(dyn, cfg: SimConfig, offset: int, n_rows: int, work: _Work,
                 grow: bool):
    """The sampler of rows ``0 .. n_rows - 1``, paths ``offset + row``."""
    kind = _GaussianRows if dyn[0] == "brownian" else _JumpRows
    return kind(dyn, cfg, offset, n_rows, work, grow)


def run_paths(model: LevyModel, cfg: SimConfig, horizon: float,
              reduce: Callable[[PathBlock], tuple[np.ndarray, object]],
              path_offset: int = 0,
              miss: Callable[[int, float], str] | None = None) -> np.ndarray:
    """Per-path results of ``reduce`` on paths ``path_offset + i``,
    ``i < cfg.n_paths``, sampled in blocks of rows.

    ``reduce(block)`` returns the block's per-row values (a leading row
    axis) and a mask of the values it found, or ``True`` for all of them.
    Without ``miss`` every row is drawn on [0, horizon] and must be served
    there.

    With ``miss`` a row can fall short of its target: the run then grows
    it until ``reduce`` has found all its values.  Rows start at
    ``horizon / 2`` and grow by 2^(1/3) per reduction through every rung
    ``horizon * 2^k`` of the ladder, ``k <= cfg.max_doublings``.  Gaussian
    rows are reduced on their new piece only (see :class:`PathBlock`), so
    ``reduce`` must find each value where the path first determines it,
    and mark found nothing it cannot compute from the block; a value once
    found is kept.  Jump rows are reduced on the whole path again.  A row
    is served on the shortest prefix that serves it, so its values are
    those of the same path drawn on the rung that first serves it, and no
    row is drawn past that rung.

    Row ``i`` of the result holds path ``path_offset + i``.  A growing run
    takes its rows in waves of ``_WAVE``, each grown until it is served
    before the next is drawn.

    Raises:
        HorizonExceededError: with message ``miss(i, h)`` for the first
            row ``i`` still unserved at the last rung ``h``.
    """
    grow = miss is not None
    dyn, work = _effective_dynamics(model), _Work(_philox())
    schedule = (_schedule(horizon, cfg.max_doublings) if grow
                else [(horizon, horizon)])
    out = done = None
    wave = _WAVE if grow else cfg.n_paths
    for lo in range(0, cfg.n_paths, wave):
        n_rows = min(wave, cfg.n_paths - lo)
        rows_of = _row_sampler(dyn, cfg, path_offset + lo, n_rows, work, grow)
        pending = np.arange(n_rows)
        unserved = np.ones(n_rows, dtype=bool)
        for h, rung in schedule:
            for rows, block in rows_of.blocks(pending, h, rung):
                values, found = reduce(block)
                if out is None:
                    out = np.empty((cfg.n_paths,) + values.shape[1:])
                    done = np.zeros(out.shape, dtype=bool)
                if found is True:
                    found = np.ones(values.shape, dtype=bool)
                elif np.shape(found) != values.shape:
                    raise ValueError("reduce must mark the values it found")
                at = lo + rows
                take = found & ~done[at]
                part = out[at]
                part[take] = values[take]
                out[at] = part
                done[at] |= found
                whole = done[at].reshape(len(rows), -1).all(axis=1)
                unserved[rows[whole]] = False
                rows_of.keep(rows, block, ~whole)
            pending = np.flatnonzero(unserved)
            if not len(pending):
                break
        else:
            if miss is None:
                raise ValueError("reduce left rows unserved on a fixed "
                                 "horizon")
            raise HorizonExceededError(miss(lo + int(pending[0]),
                                            schedule[-1][1]))
    return out


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

    Twice the centre log(t_max)/psi'(0) of the clock's law, and at least
    4: the first rung of the ladder of :func:`run_paths`, which starts each
    row at half of it and grows the rows that miss, up to ``max_doublings``
    doublings of it.
    """
    if t_max <= 1.0:
        return 4.0
    return max(4.0, 2.0 * math.log(t_max) / mean)
