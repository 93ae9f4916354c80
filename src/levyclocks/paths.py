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
to machine precision), xi at the clock, read on the segment of that
inversion, and first passage.  A single path, :func:`sample_levy_path`,
is a one-row block.  The Lamperti image of a path started at ``a`` is
``X = a exp(xi)`` at the times ``a^alpha A``; its clock is
``T(t) = tau(t a^-alpha)``, so the fundamental relation
``tau(t) = T(t a^alpha)`` holds identically on the grid.

Per-path randomness is a counter-based split: path ``i`` of a run seeded
with ``s`` draws from ``Philox(key=(s, i))``, so paths are reproducible
independently of generation order, and re-simulating with a longer horizon
extends a path without changing its prefix.  An ensemble builds one Philox
generator for its draws and re-keys it for each path, which gives the same
streams.  Philox is counter-based, so a stream is addressed by its key and
a position alone: the raw draws it has given so far.

Ensembles run on :func:`run_paths`: paths are drawn per row as above,
gathered into a block of padded rows, and reduced there by operations
that act on each row alone, so every row is bit-identical to the same
path sampled on its own.  A reducer returns the rows' values and nothing
else.  A run whose rows can miss their target serves a value once it is
finite, keeps it from the first block where it is (or from an earlier
run of the same paths that it is given), and grows each row until all
its values are served: Gaussian rows gain steps in geometric pieces,
each drawn from the stream position, ξ and A the row carries from the
last one; jump rows carry nothing between reductions, and are
drawn again from their key at each rung ``h0 2^k``, every row of a block
to as many events, straight into the block's arrays.  No row is
drawn past the rung at which the same path sampled alone would first
serve it, so the results are those of doubling the horizon and drawing
again; this is the one horizon ladder of the package.

The modulus of a d-dimensional Cauchy process (a positive self-similar
process of index 1) is simulated directly by Brownian subordination on a
geometric time grid; see :func:`simulate_cauchy_modulus`.  Single paths
and ensembles come from one loop, :func:`_cauchy_paths`: one grid that
covers the horizon and one re-keyed generator per run, and each path runs
its scaling and running sums on coordinate-major rows.
"""

from __future__ import annotations

import math
import numbers
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
    "sample_levy_path",
    "simulate_cauchy_modulus",
    "horizon_policy",
    "run_paths",
]

LINEAR = "linear-drift"
GAUSSIAN = "gaussian-increment"

_MASK64 = (1 << 64) - 1
_JUMP_CHUNK = 128
# Padded elements (rows x nodes) per block of jump paths: enough rows to
# spread numpy's per-call cost over many short paths, few enough that the
# temporaries of a block stay in the low hundreds of kilobytes.  A block of
# Gaussian rows holds four budgets of nodes: it keeps only three arrays of
# its size (xi, the exp scratch and A), and with a thousand or more nodes
# per row one budget held a few rows, too few to spread the fixed cost of
# a block's numpy calls.
_BLOCK_BUDGET = 1 << 14
# Stream family of auxiliary draws (bridge-crossing uniforms), disjoint
# from every path-id range a run can use.
_AUX_STREAM = 1 << 62
# Horizons per doubling at which a growing run reduces its Gaussian rows:
# a row grows by 2^(1/3) between reductions.
_PER_DOUBLING = 3
# Raw draws per Philox counter block: the size of the generator's buffer.
_PHILOX_BLOCK = 4


@dataclass(frozen=True)
class SimConfig:
    """Deterministic simulation plan.

    ``horizon`` is the length in Lévy time of a single path
    (``sample_levy_path``, ``simulate_cauchy_modulus``); the estimators
    derive their own horizons from their targets.  ``start`` is the pssMp
    start point used by the Lamperti side and the Cauchy modulus.
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
        # the last rung h0 2^max_doublings needs 2^max_doublings < 2^1024,
        # the end of double range
        if not 0 <= self.max_doublings < 1024:
            raise DomainError(f"max_doublings must be in 0 .. 1023, "
                              f"got {self.max_doublings!r}")


@dataclass(frozen=True)
class CauchyModulus:
    """Marker for the Cauchy-modulus target of the path estimators."""

    d: int

    def __post_init__(self) -> None:
        if not (isinstance(self.d, numbers.Integral) and self.d >= 2):
            raise DomainError(f"Cauchy modulus requires an integer dimension "
                              f"d >= 2, got {self.d!r}")

    def describe(self) -> str:
        return f"cauchy_modulus d={self.d}"


def _philox() -> np.random.Generator:
    """A Philox generator for :meth:`_Work.streams` to re-key."""
    return np.random.Generator(np.random.Philox(key=0))


class _Work:
    """The seed, the generator and the scratch arrays that the blocks of
    one run share.

    :meth:`streams` gives the paths' streams from the one generator, which
    it re-keys from a state dict built here, once per run: its key and
    counter are Python lists, and the seed is the key's first word.
    :meth:`array` hands out C-contiguous views of flat arrays kept per
    key, grown only when a larger shape is asked for.  Arrays of a
    block's size (hundreds of kB) allocated afresh per block can be handed
    back to the OS by malloc and page-faulted in again by the next block,
    depending on the heap's layout; reused, they cost the same in every
    block.  A block's arrays are overwritten by the next block of its run.
    """

    def __init__(self, seed: int) -> None:
        self.rng = _philox()
        self._key = [seed & _MASK64, 0]
        self._counter = [0] * 4
        # an empty buffer: the next raw draw is the first of the block
        # after the counter's
        self._state = {"bit_generator": "Philox",
                       "state": {"key": self._key, "counter": self._counter},
                       "buffer": [0] * _PHILOX_BLOCK,
                       "buffer_pos": _PHILOX_BLOCK,
                       "has_uint32": 0, "uinteger": 0}
        self._flat: dict[object, np.ndarray] = {}

    def streams(self, ids: np.ndarray, at: np.ndarray | None = None
                ) -> Iterator[np.random.Generator]:
        """The stream of ``Philox(key=(seed, i))`` for each ``i`` in
        ``ids``, in turn: from its start, or from raw draw ``at[row]``.

        Philox is counter-based, so a stream is its key and a counter.
        Per path this writes the id into the preset key and the ``at // 4``
        whole Philox blocks (four raw draws each) before the position into
        the counter, assigns the preset state, and takes the ``at % 4``
        raw draws left.  The state setter reads Python ints element by
        element in less than half the time it takes on the numpy arrays
        that ``bit_generator.state`` returns, and nothing is read back
        from the generator.  This gives the streams of
        ``Philox(key=(seed, i))`` without building a generator per path,
        so one generator serves a whole run.  Each stream must be used up,
        or its :meth:`position` read, before the next is taken.
        """
        bitgen, state = self.rng.bit_generator, self._state
        at = np.zeros(len(ids), dtype=np.int64) if at is None else at
        blocks, skips = np.divmod(at, _PHILOX_BLOCK)
        for pid, block, skip in zip(ids.tolist(), blocks.tolist(),
                                    skips.tolist()):
            self._key[1] = pid & _MASK64
            self._counter[0] = block
            bitgen.state = state
            if skip:
                bitgen.random_raw(skip)
            yield self.rng

    def position(self) -> int:
        """Raw draws the current stream has given: those of the Philox
        blocks before its buffered one, and those taken from the buffer."""
        state = self.rng.bit_generator.state
        return (_PHILOX_BLOCK * (int(state["state"]["counter"][0]) - 1)
                + state["buffer_pos"])

    def array(self, key, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or len(flat) < size:
            flat = self._flat[key] = np.empty(size)
        return flat[:size].reshape(shape)


def sample_levy_path(model: LevyModel, cfg: SimConfig,
                     path_id: int) -> PathBlock:
    """Sample one Lévy path on [0, horizon] as a one-row block.

    A single row has no padding: ``times[0]`` and ``xi[0]`` are the whole
    path.  Deterministic in (seed, path_id); enlarging ``horizon`` extends
    the same path.  Raises :class:`CapabilityError` for non-grid families.
    """
    rows = _row_sampler(model, cfg, path_id, 1, _Work(cfg.seed), grow=False)
    return next(rows.blocks(np.array([0]), cfg.horizon))[1]


# --------------------------------------------------------------------------
# Exponential functional A and clock tau.
# --------------------------------------------------------------------------

def _expm1_ratio(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z with the continuous value 1 + z/2 near z = 0."""
    small = np.abs(z) < 1e-12
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


@np.errstate(over="ignore", divide="ignore")
def _log_segment(dt: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log(dt expm1(z)/z), the log integral of exp over a linear segment.

    Where expm1(z) overflows (z above ~709.78) it is evaluated in log space
    as z + log1p(-exp(-z)) + log(dt/z); elsewhere as the direct product,
    which is -inf on a zero-length segment.
    """
    out = np.log(dt * _expm1_ratio(z))
    big = out == np.inf
    if big.any():
        zb = z[big]
        out[big] = zb + np.log1p(-np.exp(-zb)) + np.log(dt[big] / zb)
    return out


def _search_rows(a: np.ndarray, size: np.ndarray, v: np.ndarray,
                 padded: bool = True) -> np.ndarray:
    """``np.searchsorted`` of each row of ``v`` in the first ``size[i]``
    entries of row ``i`` of ``a``, whose rows are non-decreasing.

    Padded rows (jump blocks: many short rows) are searched block-wide,
    by one comparison of every target with every node in place of a
    ``searchsorted`` call per row: the first node at or above the target
    is the count of nodes below it on a non-decreasing row, and is clipped
    to the row's size, so a row's padding never counts.  A NaN target
    compares false with every node and so counts them all, as
    ``searchsorted`` places NaN last.  A jump block holds about
    ``_BLOCK_BUDGET`` nodes, so the comparison takes that many booleans
    per target.  Gaussian rows are few and long, and are searched row by
    row, where a binary search costs less than comparing every node.
    """
    if not padded:
        return np.array([row[:n].searchsorted(vals)
                         for row, n, vals in zip(a, size.tolist(), v)])
    above = a[:, None, :] >= v[:, :, None]
    first = np.argmax(above, axis=2)
    first[(first == 0) & ~above[..., 0]] = a.shape[1]   # no node above
    return np.minimum(first, size[:, None])


@dataclass
class _Carry:
    """What the rows of a block bring from their earlier blocks in a run
    that grows them: the index ``n0`` of the block's first step, A of
    index ``alpha`` at each row's first node, and whether each row has
    crossed the level of :meth:`PathBlock.first_passage`, which sets it."""

    alpha: float
    a0: np.ndarray
    n0: int
    crossed: np.ndarray


@dataclass(frozen=True)
class PathBlock:
    """Sampled Lévy paths as the padded rows of 2-D arrays.

    Row ``r`` holds ``size[r]`` nodes of one path, which starts at
    (t, xi) = (0, 0): ``xi[r, i]`` is the post-jump value at time
    ``times[r, i]``; on ``linear-drift`` rows xi has slope ``drift``
    between nodes and jumps at the inner ones.  The rows share kind and
    drift.  Jump paths are padded to the longest row by repeating the
    row's horizon (zero-length segments, no jumps); Gaussian rows need no
    padding and share one time grid of spacing ``step``, stored as the
    single row of ``times``.  ``ids`` are the path ids the rows were drawn
    from, with the seed and generator of ``work``; every block the engine
    samples has ``work`` and ``step``.  The methods take only an index
    ``alpha``, targets or a level: A is computed once per index
    (:meth:`functional`), and :meth:`totals` and :meth:`clock` read it;
    :meth:`clock_value` reads xi at the clock on the segments that the
    clock's inversion found.  The arrays of a Gaussian block are xi, a
    scratch for exp(alpha xi) and A of each index, all of them ``work``'s,
    which the run's next block overwrites.

    A Gaussian block of a run that grows its rows (see :func:`run_paths`)
    may continue them: it then starts at step ``carry.n0``, each row's last
    node so far, whose A ``carry`` holds, and its values are those of the
    rows' nodes it holds.

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

    def _scaled_xi(self, alpha: float) -> np.ndarray:
        """alpha xi, in the exp scratch; xi itself at alpha = 1, since
        xi * 1.0 is xi."""
        if alpha == 1.0:
            return self.xi
        return np.multiply(self.xi, alpha,
                           out=self._array("exp", self.xi.shape))

    @np.errstate(over="ignore", invalid="ignore")
    def functional(self, alpha: float) -> np.ndarray:
        """Node values of A = int exp(alpha xi) per row: exact on
        linear-drift segments, trapezoidal on Gaussian ones.

        The segment weights are written straight into the nodes after the
        first, which holds 0 or the carried A, and one running sum over
        the row turns them into A; a Gaussian block needs one scratch
        array, for exp(alpha xi), beside xi and A.  An A past double range
        is inf, as a plain value: the row's later nodes are inf, and its
        padding, inf times zero-length segments, NaN.  :meth:`clock` reads
        a row only up to the first node at or above its target, so it
        inverts every finite target below the overflow all the same.
        """
        nodes = self._nodes.get(alpha)
        if nodes is not None:
            return nodes
        if self.carry is not None and alpha != self.carry.alpha:
            raise DomainError(f"these rows carry A of index "
                              f"{self.carry.alpha!r}, not {alpha!r}")
        dt = self.times[:, 1:] - self.times[:, :-1]
        nodes = self._array(("nodes", alpha), self.xi.shape)
        w = nodes[:, 1:]
        if self.kind == LINEAR:
            z = alpha * self.drift * dt
            np.multiply(self.xi[:, :-1], alpha, out=w)
            np.exp(w, out=w)
            w *= dt
            w *= _expm1_ratio(z)
            # a real segment's weight that came out inf or NaN (a factor past
            # double range, or 0 * inf) is formed again in log space: it may
            # be finite, and a finite weight keeps its bits
            lost = ~np.isfinite(w) & (dt > 0.0)
            if lost.any():
                w[lost] = np.exp(alpha * self.xi[:, :-1][lost]
                                 + _log_segment(dt[lost], z[lost]))
        else:
            e = np.exp(self._scaled_xi(alpha),
                       out=self._array("exp", self.xi.shape))
            np.add(e[:, :-1], e[:, 1:], out=w)
            w *= 0.5 * dt
        # the running sum starts from A at the first node, as it does
        # along the whole row
        nodes[:, 0] = 0.0 if self.carry is None else self.carry.a0
        np.cumsum(nodes, axis=1, out=nodes)
        self._nodes[alpha] = nodes
        return nodes

    def totals(self, alpha: float) -> np.ndarray:
        """A(horizon) per row."""
        return self.functional(alpha)[np.arange(len(self.xi)), self.size - 1]

    def log_totals(self, alpha: float) -> np.ndarray:
        """log A(horizon) per row, computed in log space (overflow-safe).

        The log segment weights are computed on the whole block: a padded
        segment has zero length, so its log weight is -inf and its scaled
        weight 0.  A padded row is still summed on its own segments only,
        so that the pairwise sum is that of the path alone.
        """
        dt = self.times[:, 1:] - self.times[:, :-1]
        logw = self._array("logw", (len(self.xi), dt.shape[1]))
        if self.kind == LINEAR:
            np.multiply(self.xi[:, :-1], alpha, out=logw)
            logw += _log_segment(dt, alpha * self.drift * dt)
        else:
            # each node pair goes to logaddexp as (max, min): its loop
            # branches on the sign of x - y, which is then predictable,
            # and fl(x - y) = -fl(y - x), so the sum is the same bits
            z = self._scaled_xi(alpha)
            low = self._array("low", logw.shape)
            np.maximum(z[:, :-1], z[:, 1:], out=logw)
            np.minimum(z[:, :-1], z[:, 1:], out=low)
            np.logaddexp(logw, low, out=logw)
            logw += np.log(0.5 * dt)
        peak = np.max(logw, axis=1)
        logw -= peak[:, None]
        scaled = np.exp(logw, out=logw)
        if self.kind == LINEAR:
            sums = [float(np.sum(row[:n - 1]))
                    for row, n in zip(scaled, self.size.tolist())]
        else:
            sums = np.sum(scaled, axis=1).tolist()
        return np.array([p + math.log(s) for p, s in zip(peak.tolist(), sums)])

    def clock(self, alpha: float, targets) -> np.ndarray:
        """tau(t) = inf{u : A(u) >= t} per row, at each target.

        ``targets`` holds one set of clock targets for all rows, or one row
        of targets per path.  The result is NaN at exactly the targets the
        row cannot reach: those beyond A(horizon), inf on every row, also
        where A(horizon) overflowed to inf (and, on a block that
        continues its rows, those below A at their first node, which an
        earlier block found).  The inversion is exact per segment, so that
        ``A(tau(t)) = t`` to machine precision, and reads the path only up
        to the segment where A passes the target: tau(t) is the same at
        every horizon that reaches t, also where A(horizon) overflowed to
        inf.  A Gaussian step whose weight overflowed puts tau at its
        start, less than ``step`` below the trapezoid's exact answer.

        Raises:
            DomainError: for negative targets.
        """
        return self._invert(alpha, targets)[0]

    def clock_value(self, alpha: float, targets
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(tau, xi at tau) per row, at each target, from one inversion.

        tau is that of :meth:`clock`, inverted on a segment [t_k, t_k+1]:
        it lies on that segment, at its end where the target is A there.
        xi is xi_k + slope (tau - t_k) on the segment that holds tau, the
        slope being the drift on linear-drift rows and (xi_k+1 - xi_k) /
        (t_k+1 - t_k) on Gaussian ones, so xi is right-continuous: a tau
        at a jump node reads the post-jump value.
        At a row's last node xi is the value there, and it is NaN exactly
        where tau is.  tau never passes the segment's end, also where A's
        rounding hides whole segments (their exp(alpha xi) dt below an ulp
        of A).
        """
        taus, idx = self._invert(alpha, targets)
        rows, last = np.arange(len(taus))[:, None], (self.size - 1)[:, None]
        k = np.minimum(idx + (taus >= self._times_at(rows, idx + 1)), last - 1)
        base, xi_k = self._times_at(rows, k), self.xi[rows, k]
        slope = self.drift if self.kind == LINEAR else np.divide(
            self.xi[rows, k + 1] - xi_k, self._times_at(rows, k + 1) - base)
        return taus, np.where(taus >= self._times_at(rows, last),
                              self.xi[rows, last],
                              xi_k + slope * (taus - base))

    def _invert(self, alpha: float, targets):
        """tau of :meth:`clock`, and the index of the segment it was
        inverted on, per target (clipped to the row's segments where the
        target is not found).

        A finite target at or below an overflowed A(horizon) is found: the
        search stops at the first node at or above it, which is finite or
        the first inf node, and the padding's NaN after an overflowed jump
        row compares below every target.  Past the first inf node nothing
        is read.  tau is clamped to its segment's end, which the remainder
        t - A_k can pass where A's rounding hides segments, and is that end
        where the target equals A there, whatever the remainder rounds to.
        """
        t = np.asarray(targets, dtype=float)
        if t.ndim == 1:
            t = np.repeat(t[None], len(self.xi), axis=0)
        if (t < 0.0).any():
            raise DomainError("clock targets must be >= 0")
        nodes = self.functional(alpha)
        cap = self.totals(alpha)
        # an infinite target is never reached, though it equals an
        # overflowed A
        found = (t <= cap[:, None]) & (t >= nodes[:, :1]) & (t < np.inf)
        below = _search_rows(nodes, self.size, t, padded=self.kind == LINEAR)
        idx = np.minimum(np.maximum(below - 1, 0), (self.size - 2)[:, None])
        # invert where the target is found only
        rows, cols = np.nonzero(found)
        seg, t = idx[rows, cols], t[rows, cols]
        base, end = self._times_at(rows, seg), self._times_at(rows, seg + 1)
        rem = t - nodes[rows, seg]
        if self.kind == LINEAR:
            rate = alpha * self.drift
            # a remainder past the segment's exact weight puts the log's
            # argument at or below -1: du is then inf or NaN, and fmin
            # gives the segment's end, as it does to any tau past it
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                scaled = rem * np.exp(-alpha * self.xi[rows, seg])
                du = scaled if rate == 0.0 else np.log1p(rate * scaled) / rate
                # rem exp(-alpha xi) can overflow though tau lies inside the
                # segment: there du = log(1 + rate e^s)/rate (e^s at rate 0)
                # is formed from s = log rem - alpha xi
                big = ~np.isfinite(scaled)
                if big.any():
                    s = np.log(rem[big]) - alpha * self.xi[rows[big], seg[big]]
                    du[big] = (np.exp(s) if rate == 0.0 else
                               np.logaddexp(0.0, s + math.log(rate)) / rate
                               if rate > 0.0 else
                               np.log1p(-np.exp(s + math.log(-rate))) / rate)
        else:
            w = nodes[rows, seg + 1] - nodes[rows, seg]
            du = (end - base) * rem / w
        taus = np.full(found.shape, np.nan)
        taus[rows, cols] = np.where(t == nodes[rows, seg + 1], end,
                                    np.fmin(base + du, end))
        return taus, idx

    def first_passage(self, level: float) -> np.ndarray:
        """First time each row's path exceeds ``level`` (inf if never).

        Exact on linear-drift rows (drift up, jumps down).  On Gaussian
        rows a step from x0 to x1 is crossed by the bridge of
        xi = 2B + drift (variance 4 per unit time) with probability
        exp(-(b - x0)+ (b - x1)+ / (2 h)), ``b = level``, which is exactly
        1 where an end is at or above b.  A step is decided by one uniform:
        that of step j is raw draw j of the path's auxiliary stream, the
        stream of ``Philox(key=(seed, _AUX_STREAM + id))``.  A row draws its
        uniforms up to its first step that ends at or above ``level``, and
        none on a block that continues it once it has crossed.  A crossing
        inside a step is assigned to its midpoint (O(step) bias).
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
        grid, h, carry = self.times[0], self.step, self.carry
        live = True if carry is None else ~carry.crossed
        sure = x1 >= level
        # uniforms per row: up to its first sure crossing, none once crossed
        need = np.where(sure.any(axis=1), np.argmax(sure, axis=1),
                        sure.shape[1]) * live
        cols = min(int(need.max()) + 1, sure.shape[1])
        a, b = x0[:, :cols], x1[:, :cols]
        p = np.exp(-np.maximum(level - a, 0.0) * np.maximum(level - b, 0.0)
                   / (2.0 * h))
        u = np.ones(p.shape)        # 1 is never below p: no draw there
        drawn = np.flatnonzero(need)
        # a uniform is one raw draw: the block's first step is draw n0
        n0 = 0 if carry is None else carry.n0
        streams = self.work.streams(_AUX_STREAM + self.ids[drawn],
                                    np.full(len(drawn), n0))
        for r, stream in zip(drawn.tolist(), streams):
            stream.random(out=u[r, :need[r]])
        crossed = sure[:, :cols] | (u < p)
        if carry is not None:
            carry.crossed |= crossed.any(axis=1)
        first = np.argmax(crossed, axis=1)
        a, b = a[rows, first], b[rows, first]
        up = b >= level
        frac = np.ones(len(rows))
        rising = up & (b > a)
        frac[rising] = (level - a[rising]) / (b[rising] - a[rising])
        hat = np.where(up, grid[first] + frac * h, grid[first] + 0.5 * h)
        return np.where(np.any(crossed, axis=1), hat, np.inf)


class _GaussianRows:
    """The Gaussian rows of a run, drawn in pieces.

    A row's first piece starts at node 0; each later one starts at the
    row's last node, with the ξ, the A (of index ``cfg.alpha``), the
    position in its normal stream and the first-passage flag the row
    carries from the piece before, and appends the steps up to the next
    horizon.  The ziggurat sampler takes a varying number of raw draws per
    normal, so the position is read after each piece.  Normals drawn in
    pieces equal one draw, and ξ and A are running sums continued from the
    carried node, so each node is the one the whole row has.  The sampler
    keeps this carry: it stores each row's last node once the run has
    reduced the row's block.
    """

    def __init__(self, nu: float, cfg: SimConfig, offset: int, n_rows: int,
                 work: _Work, grow: bool) -> None:
        self.nu, self.cfg, self.offset, self.work = nu, cfg, offset, work
        self.grow = grow
        self.n = 0                  # steps drawn on every pending row
        self.xi = np.zeros(n_rows)
        self.a = np.zeros(n_rows)
        self.pos = np.zeros(n_rows, dtype=np.int64)
        self.crossed = np.zeros(n_rows, dtype=bool)

    @staticmethod
    def horizons(h0: float, doublings: int) -> list[float]:
        """The horizons of a growing run's reductions: h0 2^(j/3 - 1),
        ``_PER_DOUBLING`` per doubling, from h0/2 (the centre of the
        clock's law, where the floor of :func:`horizon_policy` does not set
        h0) up to the last rung h0 2^doublings; every rung h0 2^k of the
        ladder is one of them."""
        k = _PER_DOUBLING
        return [h0 * 2.0 ** ((j - k) / k)
                for j in range(k * (doublings + 1) + 1)]

    def blocks(self, rows: np.ndarray, horizon: float):
        # past 2^53 steps the step indices are no longer exact doubles
        if horizon / self.cfg.step > 2.0 ** 53:
            raise DomainError(f"over 2^53 Gaussian steps of {self.cfg.step!r}")
        n = max(1, math.ceil(horizon / self.cfg.step))
        if n == self.n:
            return
        per_block = max(1, 4 * _BLOCK_BUDGET // (n - self.n + 1))
        for lo in range(0, len(rows), per_block):
            sub = rows[lo:lo + per_block]
            block = self._piece(sub, n)
            yield sub, block
            if self.grow:
                self.xi[sub] = block.xi[:, -1]
                self.a[sub] = block.functional(self.cfg.alpha)[:, -1]
                self.crossed[sub] = block.carry.crossed
        self.n = n

    def _piece(self, rows: np.ndarray, n: int) -> PathBlock:
        step, n0 = self.cfg.step, self.n
        ids = self.offset + rows
        xi = self.work.array("xi", (len(rows), n - n0 + 1))
        incr = xi[:, 1:]
        streams = self.work.streams(ids, self.pos[rows])
        for r, row, stream in zip(rows.tolist(), incr, streams):
            stream.standard_normal(out=row)
            if self.grow:
                self.pos[r] = self.work.position()
        incr *= 2.0 * math.sqrt(step)
        incr += 2.0 * self.nu * step
        xi[:, 0] = self.xi[rows]
        np.cumsum(xi, axis=1, out=xi)
        carry = (_Carry(self.cfg.alpha, self.a[rows], n0, self.crossed[rows])
                 if self.grow else None)
        return PathBlock(times=step * np.arange(n0, n + 1)[None], xi=xi,
                         size=np.full(len(rows), n - n0 + 1), kind=GAUSSIAN,
                         ids=ids, step=step, work=self.work, carry=carry)


class _JumpRows:
    """The compound-Poisson rows of a run.

    A row's stream holds its events in chunks of ``_JUMP_CHUNK``, each its
    gaps and then its magnitudes.  On [0, horizon] a row is drawn to a
    bound on its events, the Poisson mean plus four standard deviations:
    the gaps of the chunks that hold them and their magnitudes, a prefix
    of the stream.  A row with more events than the bound is drawn again
    with twice the bound.  It is event-exact, so a growing run reduces it
    at the rungs h0 2^k of the ladder only, drawn again from the start of
    its stream each time: a jump row carries nothing between reductions.
    It holds tens of events: drawing them again costs about what moving
    its stream past them to append a chunk would, and keeping them for
    every row of a block would cost more memory than the block.  The rows
    of a block draw to the same bound, in one call per row, and the rest
    is array operations on the whole block.
    """

    def __init__(self, drift: float, beta: float, gamma: float, sign: float,
                 offset: int, work: _Work) -> None:
        self.drift, self.beta = drift, beta
        self.offset, self.work = offset, work
        # mean gap and signed mean magnitude; a rate of 0 draws no jumps
        self.gap_mean, self.jump_mean = ((1.0 / beta, sign / gamma)
                                         if beta > 0.0 else (math.inf, 0.0))

    @staticmethod
    def horizons(h0: float, doublings: int) -> list[float]:
        """The rungs h0 2^k of the ladder, k = 0 .. doublings."""
        return [h0 * 2.0 ** k for k in range(doublings + 1)]

    def blocks(self, rows: np.ndarray, horizon: float):
        events = self.beta * horizon
        # past a mean of 2^53 events the counts are no longer exact doubles
        if events > 2.0 ** 53:
            raise DomainError(f"over 2^53 Poisson events by {horizon!r}")
        # the Poisson mean plus four standard deviations of the events
        # before the horizon, and the chunks that hold them
        bound = math.ceil(events + 4.0 * math.sqrt(events))
        chunks = -(-bound // _JUMP_CHUNK)
        # a block's rows are set by the width they are drawn to
        per_block = max(1, _BLOCK_BUDGET // (chunks * _JUMP_CHUNK + 2))
        for lo in range(0, len(rows), per_block):
            yield from self._blocks(rows[lo:lo + per_block], horizon, bound)

    def _blocks(self, rows: np.ndarray, horizon: float, bound: int):
        """Rows ``rows`` drawn to ``bound`` events each: the block of those
        whose arrival at event ``bound`` passes ``horizon``, on
        [0, horizon], and then the others, drawn again with twice the
        bound.

        A row draws the first ``chunks * _JUMP_CHUNK + bound`` values of
        its stream, in one call: the gaps of the chunks that hold its
        first ``bound`` events, and their magnitudes, the last chunk's
        magnitudes ending at event ``bound``.
        """
        chunks = -(-bound // _JUMP_CHUNK)
        draws = self.work.array("draws", (len(rows), chunks, 2, _JUMP_CHUNK))
        drawn = chunks * _JUMP_CHUNK + bound
        for row, stream in zip(draws.reshape(len(rows), -1),
                               self.work.streams(self.offset + rows)):
            stream.standard_exponential(out=row[:drawn])
        # arrivals are summed up to event ``bound``, the first past the
        # bound, or up to the last of the chunks where the bound fills them
        summed = min(bound + 1, chunks * _JUMP_CHUNK)
        gaps = draws[:, :, 0]
        for j, lo in enumerate(range(0, summed, _JUMP_CHUNK)):
            chunk = gaps[:, j, :summed - lo]
            chunk *= self.gap_mean
            np.cumsum(chunk, axis=1, out=chunk)
            # a chunk's arrivals go on from the last arrival of the one
            # before
            if j:
                chunk += gaps[:, j - 1, -1:]
        arrivals = gaps.reshape(len(rows), -1)[:, :summed]
        sizes = draws[:, :, 1].reshape(len(rows), -1)
        reach = arrivals[:, -1] if chunks else np.full(len(rows), math.inf)
        short = reach < horizon
        again = rows[short]
        if short.any():
            rows, arrivals, sizes = (a[~short]
                                     for a in (rows, arrivals, sizes))
        # a row's last summed arrival passes the horizon, so the events
        # before it have their magnitudes drawn
        keep = arrivals < horizon
        size = np.count_nonzero(keep, axis=1) + 2
        width = int(size.max(initial=2)) - 2    # events of the longest row
        keep, shape = keep[:, :width], (len(rows), width + 2)
        times = self.work.array("times", shape)
        times.fill(horizon)
        times[:, 0] = 0.0
        np.copyto(times[:, 1:-1], arrivals[:, :width], where=keep)
        xi = self.work.array("xi", shape)
        xi.fill(0.0)
        np.multiply(sizes[:, :width], self.jump_mean, out=xi[:, 1:-1],
                    where=keep)
        np.cumsum(xi, axis=1, out=xi)
        xi += self.drift * times
        if len(rows):
            yield rows, PathBlock(times=times, xi=xi, size=size, kind=LINEAR,
                                  drift=self.drift, ids=self.offset + rows,
                                  work=self.work)
        if short.any():
            yield from self._blocks(again, horizon, 2 * bound)


def _row_sampler(model: LevyModel, cfg: SimConfig, offset: int, n_rows: int,
                 work: _Work, grow: bool):
    """The sampler of rows ``0 .. n_rows - 1``, paths ``offset + row``,
    built from the model's parameters and Esscher tilt ``t``.

    A tilt keeps each grid family in its own class: the Brownian drift
    becomes ``nu + 2t``; a compound-Poisson family with jumps of sign
    ``sign`` and law Exp(gamma) becomes one with jump parameter
    ``g = gamma - sign t`` and rate ``beta gamma / g`` (0 without jumps).
    """
    t, fam, p = model.tilt, model.family, model.params
    if fam is Family.BROWNIAN_DRIFT:
        return _GaussianRows(p[0] + 2.0 * t, cfg, offset, n_rows, work, grow)
    if fam is Family.CP_PLUS_DRIFT:
        (drift, beta, gamma), sign = p, 1.0
    elif fam is Family.CP_MINUS_DRIFT:
        (beta, gamma), drift, sign = p, -1.0, 1.0
    elif fam is Family.SAW_TOOTH:
        (beta, gamma), drift, sign = p, 1.0, -1.0
    else:
        raise CapabilityError(
            f"no exact path sampler for family {fam.value!r}; the Cauchy "
            f"modulus is available through simulate_cauchy_modulus")
    g = gamma - sign * t
    rate = 0.0 if beta == 0.0 else beta * gamma / g
    return _JumpRows(drift, rate, g, sign, offset, work)


def run_paths(model: LevyModel, cfg: SimConfig, horizon: float,
              reduce: Callable[[PathBlock], np.ndarray],
              path_offset: int = 0,
              miss: Callable[[int, float], str] | None = None,
              served: np.ndarray | None = None) -> np.ndarray:
    """Per-path results of ``reduce`` on paths ``path_offset + i``,
    ``i < cfg.n_paths``, sampled in blocks of rows.

    ``reduce(block)`` returns only the block's per-row values (a leading
    row axis).  Without ``miss`` every row is drawn on [0, horizon] and
    its values are taken as they are, NaN and inf included.

    With ``miss`` a value is served once it is finite, and is kept from
    the first block where it is; the run grows each row until all its
    values are served, up the ladder of rungs ``horizon * 2^k``,
    ``k <= cfg.max_doublings``.  Each row sampler lists the horizons it
    is reduced at.  Gaussian rows start at ``horizon / 2`` and grow by
    2^(1/3) per reduction; they are reduced on their new piece only (see
    :class:`PathBlock`), so ``reduce`` must give each value where the path
    first determines it, and NaN (or inf) wherever it cannot compute it
    from the block.  Jump rows are reduced at the rungs only, each time on
    the whole path drawn again.  A row is served on the shortest prefix
    that serves it, so its values are those of the same path drawn on the
    rung that first serves it, and no row is drawn past that rung.
    With ``miss``, ``served`` may hold the values of rows
    ``0 .. len(served) - 1`` that an earlier run of the same paths and
    reducer computed, NaN (or inf) where it could not: the run keeps those
    that are finite, as from its first block, and draws no row that they
    serve whole.

    Row ``i`` of the result holds path ``path_offset + i``.  The Gaussian
    sampler keeps what a pending row carries from one reduction to the
    next: its stream position, ξ, A and whether it has crossed the
    first-passage level.  A jump row carries nothing between reductions.

    Raises:
        HorizonExceededError: with message ``miss(i, h)`` for the first
            row ``i`` still unserved at the last rung ``h``.
    """
    grow = miss is not None
    rows_of = _row_sampler(model, cfg, path_offset, cfg.n_paths,
                           _Work(cfg.seed), grow)
    schedule = (rows_of.horizons(horizon, cfg.max_doublings) if grow
                else [horizon])
    pending = np.arange(cfg.n_paths)
    # a fixed-horizon run serves every row on its one horizon
    unserved = np.full(cfg.n_paths, grow)
    out = None
    if served is not None:
        out = np.full((cfg.n_paths,) + served.shape[1:], np.nan)
        out[:len(served)] = served
        finite = np.isfinite(served).reshape(len(served), -1)
        unserved[:len(served)] = ~finite.all(axis=1)
        pending = np.flatnonzero(unserved)
    for h in schedule:
        for rows, block in rows_of.blocks(pending, h):
            values = reduce(block)
            if out is None:
                out = np.full((cfg.n_paths,) + values.shape[1:], np.nan)
            if grow:
                # a value is kept from the first block where it is finite
                kept = out[rows]
                values = np.where(np.isfinite(kept), kept, values)
                finite = np.isfinite(values).reshape(len(rows), -1)
                unserved[rows] = ~finite.all(axis=1)
            out[rows] = values
        pending = np.flatnonzero(unserved)
        if not len(pending):
            break
    else:
        raise HorizonExceededError(miss(int(pending[0]), schedule[-1]))
    return out


# --------------------------------------------------------------------------
# Cauchy modulus (positive self-similar of index 1, no Lévy-side grid).
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyModulusPath:
    """Modulus path of a d-dimensional Cauchy process with its clock.

    ``clock_nodes`` is the trapezoid integral of 1/R at the nodes of the
    geometric grid; the clock is linear between them.  The start point is
    ``positions[0, 0]``.
    """

    d: int
    times: np.ndarray
    radius: np.ndarray
    positions: np.ndarray = field(repr=False)
    clock_nodes: np.ndarray = field(repr=False)


def _cauchy_grid(cfg: SimConfig, horizon: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(times, dt) of the geometric grid of :func:`simulate_cauchy_modulus`:
    0 and the nodes ``cfg.start * step * (1 + step)^k``, the last of them at
    or past ``horizon`` however the log-count rounds."""
    if cfg.alpha != 1.0:
        raise DomainError("the Cauchy modulus is a pssMp of index 1; "
                          "cfg.alpha must be 1")
    h = cfg.step
    first = cfg.start * h
    if horizon <= first:
        times = np.array([0.0, horizon])
    elif 1.0 + h == 1.0:        # a grid that never grows
        raise DomainError(f"step {h!r}: 1 + step rounds to 1")
    else:
        n_geo = math.ceil(math.log(horizon / first) / math.log1p(h))
        nodes = first * (1.0 + h) ** np.arange(n_geo + 2)
        if nodes[n_geo] >= horizon:
            nodes = nodes[:-1]
        times = np.concatenate(([0.0], nodes))
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

    @np.errstate(over="ignore", invalid="ignore")
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
        # T(t) needs R at every node up to t, and an r^2 past double range
        # is not R
        if not np.isfinite(radius).all():
            raise RescalingError("Cauchy modulus radius past double range")
        np.divide(1.0, radius, out=inv)
        np.add(inv[:-1], inv[1:], out=w)
        np.multiply(w, half_dt, out=w)
        np.cumsum(w, out=clock_nodes[1:])
        return walk.T, radius, clock_nodes

    return sample


def _cauchy_paths(d: int, cfg: SimConfig, horizon: float, ids: np.ndarray):
    """The grid times on [0, horizon], and an iterator over the (positions,
    radius, clock nodes) of Cauchy-modulus paths ``ids`` on them, drawn by
    one sampler from one generator: each overwrites the one before."""
    times, dt = _cauchy_grid(cfg, horizon)
    sample = _cauchy_sampler(d, cfg.start, dt)
    return times, map(sample, _Work(cfg.seed).streams(ids))


def _cauchy_clocks(d: int, cfg: SimConfig, targets: np.ndarray,
                   path_offset: int) -> np.ndarray:
    """(n_paths, len(targets)) clock values T(t) of Cauchy-modulus paths
    ``path_offset + i`` on the grid that covers the largest target."""
    times, paths = _cauchy_paths(d, cfg, float(np.max(targets)),
                                 path_offset + np.arange(cfg.n_paths))
    out = np.empty((cfg.n_paths, len(targets)))
    for row, (_, _, nodes) in zip(out, paths):
        row[:] = np.interp(targets, times, nodes)
    return out


def simulate_cauchy_modulus(d: int, cfg: SimConfig,
                            path_id: int) -> CauchyModulusPath:
    """Simulate |Cauchy| in R^d from (cfg.start, 0, ..., 0) on a geometric
    grid.

    Each increment over a step of length ``dt`` is sampled exactly by
    Brownian subordination: a Gaussian vector scaled by the square root of
    a stable-1/2 subordinator increment ``S = dt^2 / N^2`` (N standard
    normal), whose Laplace transform is ``exp(-dt sqrt(2 lambda))``.  The
    grid is geometric with log-spacing ``cfg.step``, matching the
    self-similarity of the process; step refinement is the accuracy
    control for the trapezoid clock.  The loop of the clock ensembles,
    :func:`_cauchy_paths`, draws the path on [0, cfg.horizon].

    Raises:
        DomainError: for d other than an integer >= 2 (the modulus is
            self-similar only in dimension > 1) or cfg.alpha != 1.
        RescalingError: where the path's squared radius leaves double
            range on [0, cfg.horizon].
    """
    CauchyModulus(d)                    # checks the dimension
    times, paths = _cauchy_paths(d, cfg, cfg.horizon, np.array([path_id]))
    positions, radius, nodes = next(paths)
    return CauchyModulusPath(d=d, times=times, radius=radius,
                             positions=positions, clock_nodes=nodes)


def horizon_policy(mean: float, t_max: float) -> float:
    """Default Lévy-time horizon for clock targets up to ``t_max``.

    Twice the centre log(t_max)/psi'(0) of the clock's law, and at least
    4: the first rung of the ladder of :func:`run_paths`, which starts each
    Gaussian row at half of it and grows the rows that miss, up to
    ``max_doublings`` doublings of it.
    """
    if t_max <= 1.0:
        return 4.0
    return max(4.0, 2.0 * math.log(t_max) / mean)
