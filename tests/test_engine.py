"""The blocked path engines against the one-path-at-a-time reference.

Every estimator that samples Lévy paths runs on ``paths.run_paths``, which
grows each row until it is served; the loops in ``oracles`` compute the
same quantities one path at a time with 1-D arrays, drawing each path
again at a doubled horizon until it is served.  The Cauchy modulus runs
on coordinate-major rows from one re-keyed generator; its oracle builds a
generator per path and works in the (nodes, d) layout.  Each pair must
agree bit for bit, whatever the block size.

A reducer returns its values only.  A growing run serves a value once it
is finite and keeps it from the first block where it is, or from an
earlier run of the same paths that it is given; a fixed-horizon run takes
the values as they are.  The contract tests check both, and
that ``PathBlock.clock`` reads NaN at exactly the targets a row cannot
reach.
"""

import collections
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from levyclocks import (
    AssumptionError,
    CapabilityError,
    CauchyModulus,
    DomainError,
    HorizonExceededError,
    RescalingError,
    SimConfig,
    brownian_drift,
    cp_minus_drift,
    cp_plus_drift,
    estimate_logA_rate,
    first_passage_check,
    mc_exp_functional,
    sample_levy_path,
    saw_tooth,
    horizon_policy,
    simulate_cauchy_modulus,
    tau_ensemble,
    tilted_identity_check,
)
from levyclocks import estimators, paths
from levyclocks.estimators import fundamental_relation_check
from levyclocks.moments import truncation_horizon

# (name, model, step): the four grid families, a jump family without
# jumps (a single linear segment per path), and each of them Esscher-tilted,
# so that every branch of the engine's tilt map meets the oracle's.  Tilted
# by its jump parameter, cp_plus without jumps has jump parameter 0.
MODELS = [
    ("brownian", brownian_drift(1.0), 0.05),
    ("cp_plus", cp_plus_drift(1.0, 2.0, 1.0), 0.01),
    ("cp_minus", cp_minus_drift(2.0, 1.0), 0.01),
    ("saw_tooth", saw_tooth(1.0, 3.0), 0.01),
    ("tilted_saw_tooth", saw_tooth(1.0, 3.0).esscher(0.5), 0.01),
    ("cp_plus_beta0", cp_plus_drift(1.0, 0.0, 1.0), 0.01),
    ("tilted_brownian", brownian_drift(1.0).esscher(-0.3), 0.05),
    ("tilted_cp_plus", cp_plus_drift(1.0, 2.0, 1.0).esscher(0.5), 0.01),
    ("tilted_cp_minus", cp_minus_drift(2.0, 1.0).esscher(0.3), 0.01),
    ("tilted_cp_plus_beta0", cp_plus_drift(1.0, 0.0, 1.0).esscher(1.0),
     0.01),
]
TARGETS = [math.e ** 2, 50.0, math.e ** 6]
IDS = [name for name, _, _ in MODELS]
JUMPS = [entry for entry in MODELS
         if oracles.ref_law(entry[1]).kind == oracles.LINEAR]


@pytest.fixture
def short_horizon(monkeypatch):
    """A first horizon of 0.25 for every clock ensemble: most paths then
    need several doublings."""
    policy = lambda mean, t_max: 0.25  # noqa: E731
    monkeypatch.setattr(estimators, "horizon_policy", policy)
    monkeypatch.setattr(oracles, "horizon_policy", policy)


def _four_rows(model, horizon: float, step: float) -> int:
    """The ``_BLOCK_BUDGET`` that makes blocks of four rows on [0, horizon].

    ``run_paths`` sizes its blocks by the row width: the nodes of a
    Gaussian row, whose block holds four budgets of nodes, or the events a
    jump row draws (the chunks of the Poisson mean plus four standard
    deviations) and its two ends, whose block holds one budget."""
    law = oracles.ref_law(model)
    if law.kind == oracles.GAUSSIAN:
        return math.ceil(horizon / step) + 1
    events = law.rate * horizon
    chunk = paths._JUMP_CHUNK
    return 4 * (math.ceil((events + 4.0 * math.sqrt(events)) / chunk) * chunk
                + 2)


@pytest.mark.parametrize("name,model,step", MODELS, ids=IDS)
def test_single_path_functions(name, model, step):
    # a single path is a one-row block, with no padding
    cfg = SimConfig(seed=3, n_paths=1, step=step, horizon=9.0)
    for pid in (0, 5):
        path = sample_levy_path(model, cfg, pid)
        ref = oracles.ref_path(model, cfg.seed, pid, cfg.horizon, step)
        assert path.xi.shape == (1, len(ref.xi))
        assert np.array_equal(path.times[0], ref.times)
        assert np.array_equal(path.xi[0], ref.xi)
        for alpha in (1.0, -1.0, 0.5):
            nodes = path.functional(alpha)
            ref_nodes = oracles.ref_nodes(ref, alpha)
            assert np.array_equal(nodes[0], ref_nodes)
            assert path.log_totals(alpha)[0] == oracles.ref_log_total(ref,
                                                                      alpha)
            ts = np.linspace(0.0, path.totals(alpha)[0], 17)
            taus = path.clock(alpha, ts)
            assert not np.isnan(taus).any()
            assert np.array_equal(taus[0], oracles.ref_clock(ref, ref_nodes,
                                                             alpha, ts))
        # xi at the clock, at A's nodes (post-jump where tau is at a jump
        # node), between them and at A(horizon)
        ref_nodes = oracles.ref_nodes(ref, 1.0)
        ts = np.concatenate((ref_nodes, np.linspace(0.0, ref_nodes[-1], 17)))
        taus, values = path.clock_value(1.0, ts)
        assert np.array_equal(taus, path.clock(1.0, ts))
        assert np.array_equal(values[0], [oracles.ref_value_at(ref, u)
                                          for u in taus[0]])


def test_log_weights_in_max_min_order():
    # log_totals hands logaddexp each Gaussian node pair as (max, min),
    # which gives np.logaddexp(a, b) bit for bit: on random pairs of either
    # order, on equal pairs and on every pair of special values
    rng = np.random.default_rng(4)
    a, b = rng.normal(0.0, 30.0, (2, 100_000))
    special = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1.0,
                        -1.0, 709.0, -745.0, 5e-324, 1e308])
    x, y = np.meshgrid(special, special)
    a, b = np.concatenate((a, x.ravel(), b)), np.concatenate((b, y.ravel(), b))
    with np.errstate(invalid="ignore"):
        want = np.logaddexp(a, b)
        got = np.logaddexp(np.maximum(a, b), np.minimum(a, b))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # and on a Gaussian block whose rows hold ties and signed zeros
    step = 0.5
    xi = np.array([[0.0, -0.0, 0.0, 1.5, 1.5, -2.0, -2.0, 0.25],
                   [-0.0, 3.0, -1.0, -1.0, -0.0, -0.0, 7.0, 7.0]])
    times = step * np.arange(xi.shape[1])
    block = paths.PathBlock(times=times[None], xi=xi,
                            size=np.full(2, xi.shape[1]), kind=paths.GAUSSIAN,
                            step=step)
    for alpha in (1.0, -1.5):
        assert block.log_totals(alpha).tolist() == [
            oracles.ref_log_total(oracles.RefPath(times, row, oracles.GAUSSIAN,
                                                  0.0), alpha)
            for row in xi]


@pytest.mark.parametrize("grow", [False, True], ids=["fresh", "continued"])
def test_gaussian_values_on_whole_blocks(grow):
    # the rows of a Gaussian block share one grid: xi at the clock is
    # np.interp's on each row, bit for bit, at A's nodes, between them, at
    # A's last node, above it and at NaN, on a fresh block and on the
    # continued piece of a growing run
    model, rng = brownian_drift(1.0), np.random.default_rng(7)
    cfg = SimConfig(seed=4, n_paths=12, step=0.05)
    rows = paths._row_sampler(model, cfg, 0, cfg.n_paths,
                              paths._Work(cfg.seed), grow)
    pending = np.arange(cfg.n_paths)
    for piece, horizon in enumerate((1.0, 2.0)[:1 + grow]):
        for _, block in rows.blocks(pending, horizon):
            grid, xi = block.times[0], block.xi
            nodes = block.functional(1.0)
            assert len(xi) == cfg.n_paths and (grid[0] > 0.0) == piece
            first, cap = nodes[:, :1], nodes[:, -1:]
            t = np.column_stack([
                np.take_along_axis(
                    nodes, rng.integers(0, len(grid), (len(xi), 3)), axis=1),
                first + rng.random((len(xi), 3)) * (cap - first),
                cap, 1.5 * cap, np.full((len(xi), 1), np.nan)])
            taus, values = block.clock_value(1.0, t)
            assert np.isnan(taus[:, -2:]).all()
            assert not np.isnan(taus[:, :-2]).any()
            want = [np.interp(tr, grid, xr) for tr, xr in zip(taus, xi)]
            assert np.array_equal(values, want, equal_nan=True)


@pytest.mark.parametrize("name,model,step", MODELS, ids=IDS)
def test_tau_ensemble(name, model, step):
    cfg = SimConfig(seed=17, n_paths=40, step=step)
    got = tau_ensemble(model, cfg, TARGETS, path_offset=7)
    want, _ = oracles.ref_tau_ensemble(model, cfg, TARGETS, path_offset=7)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("budget", [1, 300, paths._BLOCK_BUDGET])
@pytest.mark.parametrize("name,model,step", MODELS[:4] + MODELS[5:],
                         ids=IDS[:4] + IDS[5:])
def test_tau_ensemble_doublings(short_horizon, monkeypatch, budget, name,
                                model, step):
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    cfg = SimConfig(seed=4, n_paths=25, step=step)
    got = tau_ensemble(model, cfg, TARGETS, path_offset=3)
    want, doublings = oracles.ref_tau_ensemble(model, cfg, TARGETS,
                                               path_offset=3)
    assert np.max(doublings) >= 2
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name,model,step", MODELS[:4], ids=IDS[:4])
def test_max_doublings_zero_raises(short_horizon, name, model, step):
    cfg = SimConfig(seed=4, n_paths=10, step=step, max_doublings=0)
    with pytest.raises(HorizonExceededError) as got:
        tau_ensemble(model, cfg, TARGETS, path_offset=3)
    with pytest.raises(HorizonExceededError) as want:
        oracles.ref_tau_ensemble(model, cfg, TARGETS, path_offset=3)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name,model,step", MODELS[:4], ids=IDS[:4])
def test_max_doublings_two_raises(short_horizon, name, model, step):
    # the last rung is 4 x 0.25: every path misses it
    cfg = SimConfig(seed=4, n_paths=10, step=step, max_doublings=2)
    with pytest.raises(HorizonExceededError) as got:
        tau_ensemble(model, cfg, TARGETS, path_offset=3)
    with pytest.raises(HorizonExceededError) as want:
        oracles.ref_tau_ensemble(model, cfg, TARGETS, path_offset=3)
    assert str(got.value) == str(want.value)


def test_streams_from_a_position():
    # Philox is counter-based: a stream goes on from the count of raw draws
    # it has given, wherever in a four-draw counter block that falls
    seed, pid = 9, 5
    ends = set()
    for k in (0, 1, 2, 3, 1001):
        work = paths._Work(seed)
        next(work.streams(np.array([pid]))).standard_normal(k)
        pos = work.position()
        ends.add(pos % 4)
        want = oracles.path_rng(seed, pid)
        want.standard_normal(k)
        got = next(paths._Work(seed).streams(np.array([pid]),
                                             at=np.array([pos])))
        assert np.array_equal(got.standard_normal(300),
                              want.standard_normal(300))
    assert ends == {0, 1, 2, 3}
    # a uniform is one raw draw: the uniform of step j is raw draw j
    aux = paths._AUX_STREAM + pid
    for j in (0, 1, 2, 3, 5, 4097):
        got = next(paths._Work(seed).streams(np.array([aux]),
                                             at=np.array([j])))
        want = oracles.path_rng(seed, aux).random(j + 50)[j:]
        assert np.array_equal(got.random(50), want)


@pytest.mark.parametrize("seed", [-1, (1 << 63) + 5])
def test_streams_from_a_preset_state(seed):
    # each re-key from the run's preset state gives the oracle's stream,
    # for the ends of the key range and for auxiliary streams, at every
    # place in a four-draw counter block
    top = (1 << 64) - 1
    ids = [0, top, paths._AUX_STREAM, paths._AUX_STREAM + 5]
    work = paths._Work(seed)
    for at in range(9):
        streams = work.streams(np.array(ids, dtype=np.uint64),
                               at=np.full(len(ids), at))
        for pid, stream in zip(ids, streams):
            want = oracles.path_rng(seed, pid)
            raw = want.bit_generator.random_raw(at + 9)[at:]
            assert np.array_equal(stream.bit_generator.random_raw(9), raw)
            # a 32-bit draw takes half a raw draw: three leave a half
            # buffered, which the next re-key drops
            assert np.array_equal(stream.random(3, dtype=np.float32),
                                  want.random(3, dtype=np.float32))


def test_preset_state_per_run():
    # two runs' streams taken in turn: each run keeps its own seed
    first, second = paths._Work(3), paths._Work(4)
    ids = np.arange(6)
    for pid, a, b in zip(ids.tolist(), first.streams(ids),
                         second.streams(ids + 9, at=np.full(6, 5))):
        assert np.array_equal(a.standard_normal(7),
                              oracles.path_rng(3, pid).standard_normal(7))
        assert np.array_equal(b.random(7),
                              oracles.path_rng(4, pid + 9).random(12)[5:])


# jump rows that need many 128-event chunks: a high jump rate and a clock
# target a slow drift reaches only after about 5 and 10 chunks
MANY_CHUNKS = [
    ("cp_minus", cp_minus_drift(100.0, 50.0)),
    ("saw_tooth", saw_tooth(60.0, 90.0)),
]


@pytest.mark.parametrize("budget", [1, 1 << 14])
@pytest.mark.parametrize("model", [m for _, m in MANY_CHUNKS],
                         ids=[n for n, _ in MANY_CHUNKS])
def test_jump_rows_over_many_chunks(short_horizon, monkeypatch, budget,
                                    model):
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    cfg = SimConfig(seed=6, n_paths=12, step=0.01)
    got = tau_ensemble(model, cfg, TARGETS)
    want, doublings = oracles.ref_tau_ensemble(model, cfg, TARGETS)
    assert np.max(doublings) >= 4
    assert np.array_equal(got, want)


def test_jump_rows_drawn_at_the_rungs_only(short_horizon, monkeypatch):
    # a jump row carries nothing between reductions: it is drawn again at
    # each rung h0 2^k up to the one that serves it, and at no other
    # horizon, as often as the oracle draws it
    draws = collections.Counter()

    class CountingWork(paths._Work):
        def streams(self, ids, at=None):
            for pid, stream in zip(ids.tolist(), super().streams(ids, at)):
                draws[pid] += 1
                yield stream

    monkeypatch.setattr(paths, "_Work", CountingWork)
    model, targets = saw_tooth(60.0, 90.0), (1.5, 4.0, 20.0)
    cfg = SimConfig(seed=6, n_paths=200)
    got = tau_ensemble(model, cfg, targets)
    want, doublings = oracles.ref_tau_ensemble(model, cfg, targets)
    assert np.array_equal(got, want)
    assert np.max(doublings) >= 2
    assert draws == {i: k + 1 for i, k in enumerate(doublings.tolist())}


# cp_plus (1, 2, 1) on [0, 43.5]: 87 events on average, so a row draws
# the gaps of one chunk and the magnitudes of its first 125 events
# (87 + 4 sqrt(87), rounded up).  Path 19251 of seed 6 has all 128
# arrivals of its first chunk before 43.5, so it is drawn again to 250
# events, in two chunks.
# Found by drawing the first 128 exponentials of each path 0 .. 399 999 of
# seed 6 and taking the first whose sum, twice the last arrival, is below
# 87; ten paths of the 400 000 are.
SHORT_ROW = (cp_plus_drift(1.0, 2.0, 1.0), 6, 19251, 43.5)


@pytest.mark.parametrize("budget", [1, 300, 1 << 14])
def test_jump_row_short_of_its_chunks(monkeypatch, budget):
    model, seed, pid, horizon = SHORT_ROW
    events = 2.0 * horizon
    assert events + 4.0 * math.sqrt(events) < paths._JUMP_CHUNK
    gaps = oracles.path_rng(seed, pid).exponential(0.5, paths._JUMP_CHUNK)
    assert np.cumsum(gaps)[-1] < horizon
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    cfg = SimConfig(seed=seed, n_paths=5, horizon=horizon)
    # the short row among served ones, on a fixed horizon and alone
    got = paths.run_paths(model, cfg, horizon,
                          lambda block: block.log_totals(1.0),
                          path_offset=pid - 2)
    want = [oracles.ref_log_total(oracles.ref_path(model, seed, i, horizon,
                                                   cfg.step), 1.0)
            for i in range(pid - 2, pid + 3)]
    assert np.array_equal(got, want)
    path = sample_levy_path(model, cfg, pid)
    ref = oracles.ref_path(model, seed, pid, horizon, cfg.step)
    assert len(ref.times) == paths._JUMP_CHUNK + 2
    assert np.array_equal(path.times[0], ref.times)
    assert np.array_equal(path.xi[0], ref.xi)


@pytest.mark.parametrize("budget", [1, 300, 1 << 14])
@pytest.mark.parametrize("model,step,n_paths", [
    (brownian_drift(1.0), 0.01, 30),
    (saw_tooth(1.0, 3.0), 0.01, 60),
], ids=["brownian", "saw_tooth"])
def test_first_passage_check_extended(short_horizon, monkeypatch, budget,
                                      model, step, n_paths):
    # one ensemble for two theta
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    cfg = SimConfig(seed=7, n_paths=n_paths, step=step, horizon=50.0)
    for fp, theta in zip(first_passage_check(model, cfg, cfg.horizon,
                                             (-0.5, -1.0)),
                         (-0.5, -1.0)):
        assert fp.theta == theta
        assert (fp.lhs, fp.rhs, fp.rhs_stderr) == \
            oracles.ref_first_passage_check(model, cfg, theta)


@pytest.mark.parametrize("budget", [1, 300, 1 << 14])
@pytest.mark.parametrize("model,m,step,n_paths", [
    (brownian_drift(1.0), 1.0, 0.01, 30),
    (saw_tooth(1.0, 3.0), 0.5, 0.01, 60),
], ids=["brownian", "saw_tooth"])
def test_tilted_identity_check_extended(short_horizon, monkeypatch, budget,
                                        model, m, step, n_paths):
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    cfg = SimConfig(seed=13, n_paths=n_paths, step=step)
    r = tilted_identity_check(model, m, 20.0, cfg)
    assert (r.lhs, r.lhs_stderr, r.rhs, r.rhs_stderr) == \
        oracles.ref_tilted_identity_check(model, m, 20.0, 1.0, cfg)


@pytest.mark.parametrize("budget", [1, 1 << 14])
def test_first_passage_times_extended(monkeypatch, budget):
    # every row's crossing time, on rows grown in pieces: the uniforms of
    # a row that has not crossed go on in its next piece
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    model, level = brownian_drift(0.2), 3.0
    cfg = SimConfig(seed=2, n_paths=40, step=0.01)

    got = paths.run_paths(model, cfg, 1.0,
                          lambda block: block.first_passage(level),
                          miss=lambda i, h: f"path {i} missed")
    want = oracles.ref_first_passage_times(model, cfg, level, 1.0)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("budget", [1, 1 << 14])
def test_growing_run_keeps_first_finite_value(monkeypatch, budget):
    # value k is the end time of the first piece whose last xi passes
    # levels[k]: a row stays pending until it passes the higher level,
    # and a later piece that ends above the lower one gives value 0 a
    # different finite value, which the run must not take
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    model, levels = brownian_drift(0.5), np.array([0.5, 3.0])
    cfg = SimConfig(seed=5, n_paths=30, step=0.01)

    def ends(block):
        return np.where(block.xi[:, -1:] > levels, block.times[0, -1],
                        np.nan)

    got = paths.run_paths(model, cfg, 1.0, ends,
                          miss=lambda i, h: f"path {i} missed")
    schedule = paths._GaussianRows.horizons(1.0, cfg.max_doublings)
    want = np.full((cfg.n_paths, 2), np.nan)
    later = 0
    for i, row in enumerate(want):
        p = oracles.ref_path(model, cfg.seed, i, schedule[-1], cfg.step)
        drawn = 0
        for h in schedule:
            n = max(1, math.ceil(h / cfg.step))
            if n == drawn:
                continue
            drawn = n
            passed = p.xi[n] > levels
            later += bool(passed[0] and math.isfinite(row[0]))
            row[np.isnan(row) & passed] = p.times[n]
            if np.isfinite(row).all():
                break
    assert later > 0
    assert np.array_equal(got, want)


@pytest.mark.parametrize("model,targets,step", [
    (brownian_drift(1.0), [5.0, 1e6], 0.05),
    (saw_tooth(1.0, 3.0), [5.0, 100.0], 0.05),
], ids=["brownian", "saw_tooth"])
def test_served_rows_are_not_drawn_again(monkeypatch, model, targets, step):
    # the values a fixed-horizon run of paths 0-15 gives are kept where
    # they are finite, and the rows they serve whole are not drawn: no
    # stream of theirs, normal, exponential or auxiliary, is taken
    cfg = SimConfig(seed=4, n_paths=40, step=step)

    def reduce(block):
        return np.column_stack((block.clock(1.0, targets),
                                block.first_passage(1.0)))

    def miss(i, h):
        return f"path {i} missed"

    want = paths.run_paths(model, cfg, 8.0, reduce, miss=miss)
    served = paths.run_paths(model, replace(cfg, n_paths=16), 8.0, reduce)
    whole = np.isfinite(served).all(axis=1)
    assert 0 < whole.sum() < 16
    drawn = collections.Counter()
    streams = paths._Work.streams

    def counting(self, ids, at=None):
        drawn.update(i % paths._AUX_STREAM for i in ids.tolist())
        return streams(self, ids, at)

    monkeypatch.setattr(paths._Work, "streams", counting)
    got = paths.run_paths(model, cfg, 8.0, reduce, miss=miss, served=served)
    assert np.array_equal(got, want)
    assert set(drawn) == set(range(cfg.n_paths)) - set(np.flatnonzero(whole))


@pytest.mark.parametrize("target", [
    brownian_drift(1.0), saw_tooth(1.0, 3.0), CauchyModulus(3),
], ids=["brownian", "saw_tooth", "cauchy"])
def test_negative_target_draws_nothing(monkeypatch, target):
    # the targets are refused before the first block: no stream is keyed
    keyed = []
    streams = paths._Work.streams

    def counting(self, ids, at=None):
        keyed.extend(ids.tolist())
        return streams(self, ids, at)

    monkeypatch.setattr(paths._Work, "streams", counting)
    with pytest.raises(DomainError, match="clock targets must be >= 0"):
        tau_ensemble(target, SimConfig(seed=1, n_paths=4), [5.0, -1.0])
    assert keyed == []


@pytest.mark.parametrize("name,model,step", [MODELS[0], MODELS[3]],
                         ids=["brownian", "saw_tooth"])
def test_tau_ensemble_reads_no_xi(monkeypatch, name, model, step):
    # without a tilt the run reads tau alone, not xi at tau
    def refuse(self, alpha, targets):
        raise AssertionError("clock_value on an untilted clock run")

    monkeypatch.setattr(paths.PathBlock, "clock_value", refuse)
    cfg = SimConfig(seed=2, n_paths=20, step=step)
    assert np.isfinite(tau_ensemble(model, cfg, TARGETS)).all()


@pytest.mark.parametrize("name,model,step", [MODELS[0], MODELS[3]],
                         ids=["brownian", "saw_tooth"])
def test_clock_sample_at_m_zero_reads_xi(name, model, step):
    # a tilt of 0 is a tilt like any other: the run gives tau and xi at
    # tau, path by path those of the oracle
    cfg = SimConfig(seed=4, n_paths=30, step=step)
    got = estimators._clock_sample(model, cfg, [20.0], 30, m=0.0)
    want = oracles.ref_clock_values(model, cfg, 20.0, 30)
    assert np.array_equal(got, np.column_stack(want))


IDENTITY_RUNS = [
    # (model, cfg, m, t, t_fp, thetas): past 64 paths, a start other than
    # 1, m = 0, theta = 0 alone, a family without first passage, index 2,
    # and t/a above t_fp, which then sets the shared run's first rung
    (brownian_drift(1.0), SimConfig(seed=5, n_paths=100, step=0.02), 1.0,
     2.0, 30.0, [-0.5, -1.0]),
    (brownian_drift(1.0), SimConfig(seed=6, n_paths=30, step=0.02,
                                    start=1.7), -0.25, 8.0, 5.0, [-1.0]),
    (saw_tooth(1.0, 3.0), SimConfig(seed=8, n_paths=90), 0.5, 2.0, 30.0,
     [-1.0]),
    (saw_tooth(1.0, 3.0), SimConfig(seed=8, n_paths=20), 0.0, 2.0, 30.0,
     [-1.0]),
    (saw_tooth(1.0, 3.0), SimConfig(seed=8, n_paths=20), 0.5, 2.0, 30.0,
     [0.0]),
    (cp_plus_drift(1.0, 2.0, 1.0), SimConfig(seed=8, n_paths=70), 0.5, 2.0,
     30.0, [-1.0]),
    (brownian_drift(1.0), SimConfig(seed=3, n_paths=20, alpha=2.0), 1.0,
     2.0, 30.0, [-1.0]),
    (saw_tooth(1.0, 3.0), SimConfig(seed=11, n_paths=50), 0.5, 1000.0, 5.0,
     [-0.5, -1.0]),
]


@pytest.mark.parametrize("model,cfg,m,t,t_fp,thetas", IDENTITY_RUNS)
def test_identity_checks_one_draw(model, cfg, m, t, t_fp, thetas):
    # one draw of the base paths gives the results of the three checks
    # run one by one
    got = estimators.identity_checks(model, cfg, m, t, t_fp, thetas)
    assert got.fundamental == fundamental_relation_check(model, cfg)
    if cfg.alpha != 1.0:
        assert got[1:] == (None, None)
        return
    assert got.tilted == tilted_identity_check(model, m, t, cfg)
    try:
        want = first_passage_check(model, cfg, t_fp, thetas)
    except CapabilityError:
        want = None
    assert got.first_passage == want


def test_identity_checks_refuse_in_turn():
    # a refused t_fp comes before a tilted side that misses on its own
    # rungs: every refusal comes before any draw, with the text of the
    # check that makes it
    model = brownian_drift(1.0)
    cfg = SimConfig(seed=1, n_paths=200, step=0.05, max_doublings=1)
    with pytest.raises(HorizonExceededError, match="tilted path 265 "):
        tilted_identity_check(model, -0.45, 1000.0, cfg)
    with pytest.raises(DomainError) as alone:
        first_passage_check(model, cfg, 0.5, [-1.0])
    for m, t, doublings in [(-0.45, 1000.0, 1), (1.0, 2.0, 8)]:
        with pytest.raises(DomainError) as got:
            estimators.identity_checks(
                model, replace(cfg, max_doublings=doublings), m, t, 0.5,
                [-1.0])
        assert str(got.value) == str(alone.value) == (
            "first-passage clock target must satisfy t > 1 and be finite, "
            "got 0.5")


@pytest.mark.parametrize("m,t,start,t_fp,thetas,check", [
    (1.0, 0.0, 1.0, 30.0, [-1.0], "tilted"),
    (-0.6, 2.0, 1.0, 30.0, [-1.0], "tilted"),
    (1.0, 1e300, 1e-300, 30.0, [-1.0], "tilted"),
    (0.0, 1e300, 1e-300, 30.0, [-1.0], "tilted"),
    (1.0, 2.0, 1.0, 30.0, [-1.0, 0.5], "first_passage"),
    (1.0, 2.0, 1.0, 1.0, [-1.0], "first_passage"),
], ids=["t_0", "m_below_m0", "t_over_a_inf", "m_0_t_over_a_inf",
        "theta_positive", "t_fp_1"])
def test_identity_checks_refusal_draws_nothing(monkeypatch, m, t, start,
                                               t_fp, thetas, check):
    # each refusal comes before any stream is keyed, with the text of the
    # check that makes it, which keys none either
    model = brownian_drift(1.0)
    cfg = SimConfig(seed=1, n_paths=4, step=0.05, start=start)
    keyed = []
    streams = paths._Work.streams

    def counting(self, ids, at=None):
        keyed.extend(ids.tolist())
        return streams(self, ids, at)

    monkeypatch.setattr(paths._Work, "streams", counting)
    with pytest.raises(DomainError) as got:
        estimators.identity_checks(model, cfg, m, t, t_fp, thetas)
    with pytest.raises(DomainError) as alone:
        if check == "tilted":
            tilted_identity_check(model, m, t, cfg)
        else:
            first_passage_check(model, cfg, t_fp, thetas)
    assert str(got.value) == str(alone.value)
    assert keyed == []


def test_identity_checks_report_the_shared_runs_miss():
    # the shared run of t/a = 2 and t_fp = 1e6 misses on its one rung,
    # 2 log(1e6)/psi'(0), and says so in its own words: the first passage,
    # the check that needs t_fp, misses there on its own too
    model, m, t, t_fp, thetas = brownian_drift(1.0), 1.0, 2.0, 1e6, [-1.0]
    cfg = SimConfig(seed=3, n_paths=400, step=0.05, max_doublings=0)
    with pytest.raises(HorizonExceededError) as got:
        estimators.identity_checks(model, cfg, m, t, t_fp, thetas)
    with pytest.raises(HorizonExceededError) as alone:
        first_passage_check(model, cfg, t_fp, thetas)
    assert str(got.value) == str(alone.value) == (
        "path 17 never crossed level 1 (or never reached the clock target) "
        "within horizon 13.815510557964274 after 0 doublings")


@pytest.mark.parametrize("name,model,step", [MODELS[0], MODELS[3]],
                         ids=["brownian", "saw_tooth"])
def test_fixed_horizon_takes_values_as_they_are(name, model, step):
    cfg = SimConfig(seed=10, n_paths=40, step=step)

    def signs(end):
        return np.column_stack((end, np.where(end > 0.0, np.inf, np.nan),
                                np.full(len(end), -np.inf)))

    # padded jump nodes repeat the horizon: xi[:, -1] is xi(horizon)
    got = paths.run_paths(model, cfg, 2.0,
                          lambda block: signs(block.xi[:, -1]))
    want = signs(np.array([oracles.ref_path(model, cfg.seed, i, 2.0,
                                            step).xi[-1]
                           for i in range(cfg.n_paths)]))
    assert np.isnan(got).any() and np.isposinf(got).any()
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("name,model,step", [MODELS[0], MODELS[3]],
                         ids=["brownian", "saw_tooth"])
def test_clock_nan_at_unreached_targets(name, model, step):
    cfg = SimConfig(seed=11, n_paths=30, step=step)
    targets = [0.5, 2.0, 8.0, 30.0]

    taus = paths.run_paths(model, cfg, 2.0,
                           lambda block: block.clock(1.0, targets))
    for i, row in enumerate(taus):
        p = oracles.ref_path(model, cfg.seed, i, 2.0, step)
        nodes = oracles.ref_nodes(p, 1.0)
        want = [oracles.ref_clock(p, nodes, 1.0, [t])[0]
                if t <= nodes[-1] else math.nan for t in targets]
        assert np.array_equal(row, want, equal_nan=True)
    # rows with targets on both sides of A(horizon)
    assert (np.isnan(taus).any(axis=1) & np.isfinite(taus).any(axis=1)).any()


def _edge_targets(a: np.ndarray, size: np.ndarray, rng) -> np.ndarray:
    """Per row: three of its nodes (ties), 0, its last node (the cap), a
    value above the cap, NaN and a uniform value below the cap."""
    out = np.empty((len(a), 8))
    for row, n, targets in zip(a, size.tolist(), out):
        cap = row[n - 1]
        targets[:3] = row[rng.integers(n, size=3)]
        targets[3:] = 0.0, cap, 1.5 * cap, math.nan, rng.uniform(0.0, cap)
    return out


@pytest.mark.parametrize("name,model,step", JUMPS,
                         ids=[name for name, _, _ in JUMPS])
def test_search_on_padded_blocks(name, model, step):
    # jump rows of many lengths in one padded block, searched block-wide:
    # the indices of searchsorted on each row's own nodes, and the clock
    # and xi at it bit for bit those of each path alone
    cfg = SimConfig(seed=21, n_paths=40, step=step)
    horizon, rng = 3.0, np.random.default_rng(5)

    def reduce(block):
        refs = [oracles.ref_path(model, cfg.seed, int(i), horizon, step)
                for i in block.ids]
        nodes = block.functional(1.0)
        for a in (nodes, block.times):
            v = _edge_targets(a, block.size, rng)
            junk = a.copy()     # padding never counts, whatever it holds
            junk[np.arange(a.shape[1]) >= block.size[:, None]] = -np.inf
            want = [row[:n].searchsorted(vals)
                    for row, n, vals in zip(a, block.size.tolist(), v)]
            assert np.array_equal(paths._search_rows(a, block.size, v), want)
            assert np.array_equal(paths._search_rows(junk, block.size, v),
                                  want)
        t = _edge_targets(nodes, block.size, rng)
        taus = block.clock(1.0, t)
        same, values = block.clock_value(1.0, t)
        assert np.array_equal(same, taus, equal_nan=True)
        for p, ts, tau, vals in zip(refs, t, taus, values):
            ref_nodes = oracles.ref_nodes(p, 1.0)
            want = [oracles.ref_clock(p, ref_nodes, 1.0, [x])[0]
                    if x <= ref_nodes[-1] else math.nan for x in ts]
            assert np.array_equal(tau, want, equal_nan=True)
            want = [oracles.ref_value_at(p, x) for x in tau]
            assert np.array_equal(vals, want, equal_nan=True)
        # above the cap and at NaN
        assert np.isnan(values[:, 5:7]).all()
        # index -1 and targets one ulp above each node: where A's rounding
        # hides segments, tau is still a number between the nodes whose A
        # brackets the target, as in the oracle
        nodes = block.functional(-1.0)
        t = np.nextafter(nodes, np.inf)
        taus = block.clock(-1.0, t)
        hit = paths._search_rows(nodes, block.size, t)
        for p, ts, tau, j, times, cap in zip(refs, t, taus, hit, block.times,
                                             block.totals(-1.0)):
            ts, tau, j = ts[ts <= cap], tau[ts <= cap], j[ts <= cap]
            assert (times[j - 1] <= tau).all() and (tau <= times[j]).all()
            assert np.array_equal(
                tau, oracles.ref_clock(p, oracles.ref_nodes(p, -1.0), -1.0,
                                       ts))
        return block.size

    lengths = np.unique(paths.run_paths(model, cfg, horizon, reduce))
    # rows of many lengths, but on the family without jumps
    if oracles.ref_law(model).rate == 0.0:
        assert len(lengths) == 1
    else:
        assert len(lengths) > 3


@pytest.mark.parametrize("name,model,step", MODELS[:4], ids=IDS[:4])
def test_clock_at_inner_nodes(name, model, step):
    # a target equal to A at an inner node is reached at that node:
    # tau(t) = inf{u : A(u) >= t} is the node's time, and xi at tau the
    # node's (post-jump) value
    cfg = SimConfig(seed=0, n_paths=100, step=step)

    def reduce(block):
        nodes = block.functional(1.0)
        times = np.broadcast_to(block.times, nodes.shape)[:, 1:-1]
        inner = (np.arange(1, nodes.shape[1] - 1)
                 < (block.size - 1)[:, None])
        # A increases strictly there, so each node is the first at its A
        assert (np.diff(nodes, axis=1)[:, :-1][inner] > 0.0).all()
        taus, values = block.clock_value(1.0, nodes[:, 1:-1])
        assert np.array_equal(taus[inner], times[inner])
        assert np.array_equal(values[inner], block.xi[:, 1:-1][inner])
        return inner.sum(axis=1)

    assert paths.run_paths(model, cfg, 20.0, reduce).sum() > 0


class CountingGenerator(np.random.Generator):
    """Counts the standard normals and the uniforms drawn through it, and
    the standard exponentials per path id."""

    drawn = uniforms = 0
    exponentials: collections.Counter = collections.Counter()

    def standard_exponential(self, *args, **kwargs):
        out = super().standard_exponential(*args, **kwargs)
        path_id = int(self.bit_generator.state["state"]["key"][1])
        CountingGenerator.exponentials[path_id] += np.size(out)
        return out

    def standard_normal(self, *args, **kwargs):
        out = super().standard_normal(*args, **kwargs)
        CountingGenerator.drawn += np.size(out)
        return out

    def random(self, *args, **kwargs):
        out = super().random(*args, **kwargs)
        CountingGenerator.uniforms += np.size(out)
        return out


@pytest.fixture
def counting(monkeypatch):
    monkeypatch.setattr(paths, "_philox", lambda: CountingGenerator(
        np.random.Philox(key=0)))
    CountingGenerator.drawn = CountingGenerator.uniforms = 0
    CountingGenerator.exponentials = collections.Counter()


def test_draws_about_what_rows_need(counting):
    # each row is drawn to within a factor 2^(1/3) of its serving point
    # (and to at least half the first horizon)
    step = 0.005
    cfg = SimConfig(seed=12, n_paths=200, step=step)
    taus = tau_ensemble(brownian_drift(1.0), cfg, [math.e ** 8, math.e ** 14])
    needed = np.sum(np.floor(taus[:, -1] / step) + 1)
    assert CountingGenerator.drawn <= 1.3 * needed


@pytest.mark.parametrize("model,horizon,offset", [
    (SHORT_ROW[0], SHORT_ROW[3], SHORT_ROW[2] - 100),
    (cp_minus_drift(100.0, 50.0), 4.0, 0),
], ids=["one_chunk", "four_chunks"])
def test_jump_draws_about_what_rows_need(counting, model, horizon, offset):
    # a row draws the gaps of the chunks that hold its first `bound`
    # events (the Poisson mean plus four standard deviations, rounded up)
    # and those events' magnitudes; a row whose arrival at event `bound`
    # is still before the horizon is drawn again with twice the bound
    _, _, beta, gamma, _ = oracles.ref_law(model)
    cfg = SimConfig(seed=SHORT_ROW[1], n_paths=200, horizon=horizon)
    got = paths.run_paths(model, cfg, horizon,
                          lambda block: block.totals(1.0), path_offset=offset)
    ids = range(offset, offset + cfg.n_paths)
    want = [oracles.ref_nodes(oracles.ref_path(model, cfg.seed, i, horizon,
                                               cfg.step), 1.0)[-1]
            for i in ids]
    assert np.array_equal(got, want)
    events = beta * horizon
    first = math.ceil(events + 4.0 * math.sqrt(events))
    chunk = paths._JUMP_CHUNK
    for pid in ids:
        bound, drawn = first, 0
        while True:
            chunks = -(-bound // chunk)
            drawn += chunks * chunk + bound
            stream, arrivals, total = oracles.path_rng(cfg.seed, pid), [], 0.0
            for _ in range(chunks):
                arrivals.append(total + np.cumsum(
                    stream.exponential(1.0 / beta, chunk)))
                stream.exponential(1.0 / gamma, chunk)
                total = arrivals[-1][-1]
            if np.concatenate(arrivals)[min(bound, chunks * chunk - 1)] \
                    >= horizon:
                break
            bound *= 2
        assert CountingGenerator.exponentials[pid] == drawn, pid
    assert len(CountingGenerator.exponentials) == cfg.n_paths


# saw tooth (1, 3) on [0, 1]: one event on average, so a row draws the
# gaps of one chunk and the magnitudes of its first 5 events (1 + 4 sqrt(1)).
# Paths 96 and 3042 of seed 3 hold 6 events, so they are drawn again with a
# bound of 10.
PAST_BOUND = (saw_tooth(1.0, 3.0), 3, (96, 3042), 1.0)


@pytest.mark.parametrize("budget", [1, 300, 1 << 14])
def test_jump_row_past_its_bound(counting, monkeypatch, budget):
    model, seed, pids, horizon = PAST_BOUND
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    cfg = SimConfig(seed=seed, n_paths=10, horizon=horizon)
    for pid in pids:
        ref = oracles.ref_path(model, seed, pid, horizon, cfg.step)
        assert len(ref.times) - 2 > 5
        got = paths.run_paths(model, cfg, horizon,
                              lambda block: block.log_totals(1.0),
                              path_offset=pid - 6)
        want = [oracles.ref_log_total(oracles.ref_path(model, seed, i,
                                                       horizon, cfg.step), 1.0)
                for i in range(pid - 6, pid + 4)]
        assert np.array_equal(got, want)
        path = sample_levy_path(model, cfg, pid)
        assert np.array_equal(path.times[0], ref.times)
        assert np.array_equal(path.xi[0], ref.xi)
    # 128 gaps and 5 magnitudes per row, and 128 and 10 more for each long
    # row, which is sampled twice: in the run and alone
    drawn = CountingGenerator.exponentials
    assert drawn[90] == drawn[3040] == 133
    assert drawn[96] == drawn[3042] == 2 * (133 + 138)


def test_single_jump_path_draws_its_bound(counting):
    # cp_plus (1, 2, 1) on [0, 50]: a bound of 100 + 4 sqrt(100) = 140
    # events, in two chunks: 256 gaps and 140 magnitudes, of which path 0
    # reads 105 events
    path = sample_levy_path(cp_plus_drift(1.0, 2.0, 1.0),
                            SimConfig(seed=1, horizon=50.0), 0)
    assert path.xi.shape == (1, 107)
    assert CountingGenerator.exponentials == {0: 396}


def test_uniforms_up_to_the_first_sure_crossing(counting):
    # bridge-crossing uniforms are drawn only for the steps before a row's
    # path first ends a step at or above level 1
    model, step = brownian_drift(1.0), 0.01
    cfg = SimConfig(seed=3, n_paths=100, step=step)
    first_passage_check(model, cfg, 50.0, -1.0)
    sure = [np.argmax(oracles.ref_path(model, cfg.seed, i, 20.0, step).xi
                      >= 1.0) - 1 for i in range(cfg.n_paths)]
    assert 0 < CountingGenerator.uniforms <= sum(sure)


def test_gaussian_clock_unmoved_by_overflow():
    # drift 240 per unit time: A overflows past xi ~ 709.8, at time ~ 3.
    # The clock reads a row only up to its target, so tau is bit for bit
    # the same at every horizon that reaches the target, those where
    # A(horizon) = inf included, and an overflow refuses nothing.  No
    # horizon reaches the target inf, where A is finite or not
    model = brownian_drift(120.0)
    cfg = SimConfig(seed=1, n_paths=4, step=0.01)
    for target, tau, horizons in [(10.0, 0.02901994529445555, (2, 3, 4, 8)),
                                  (1e300, 2.8900937624669045, (3, 4, 8))]:
        got = tau_ensemble(model, cfg, [target])
        assert got[0, 0] == tau
        assert np.array_equal(
            got, oracles.ref_tau_ensemble(model, cfg, [target])[0])
        for h in horizons:
            block = sample_levy_path(model, replace(cfg, horizon=h), 0)
            assert block.clock(1.0, [target])[0, 0] == tau, h
            assert np.isnan(block.clock(1.0, [np.inf])[0, 0]), h
    assert not np.isfinite(block.totals(1.0)).any()
    # with step 1 the trapezoid weight of the step from time 2 is inf, and
    # every tau(1e250), inverted on it, is that step's start
    cfg = SimConfig(seed=1, n_paths=4, step=1.0)
    assert np.array_equal(tau_ensemble(model, cfg, [1e250]),
                          np.full((4, 1), 2.0))


@pytest.mark.parametrize("n_paths", [3, 100])
def test_jump_clock_unmoved_by_overflow_whatever_the_other_rows(n_paths):
    # xi rises at about 190 per unit time, so A overflows near time 3.7,
    # before the first rung, 4, which every row is drawn to; the target is
    # reached at once.  Each row's tau is that of the oracle, whatever the
    # block holds besides it: an A past double range is inf, the padding
    # after it NaN, and neither is read on the way to the target.  Rows
    # 0-2 read the same tau on one-row blocks of every horizon, and NaN at
    # the target inf, before A overflows and after.
    model = cp_plus_drift(150.0, 40.0, 1.0)
    cfg = SimConfig(seed=1, n_paths=n_paths)
    taus = [0.027918612844430146, 0.034182479858904977, 0.029503703871555476]
    got = tau_ensemble(model, cfg, [10.0])
    assert got[:3, 0].tolist() == taus
    with np.errstate(over="ignore"):
        want = oracles.ref_tau_ensemble(model, cfg, [10.0])[0]
    assert np.array_equal(got, want)
    for h in (0.05, 0.5, 2.0, 4.0, 20.0):
        for i, tau in enumerate(taus):
            block = sample_levy_path(model, replace(cfg, horizon=h), i)
            assert block.clock(1.0, [10.0])[0, 0] == tau, (h, i)
            assert np.isnan(block.clock(1.0, [np.inf])[0, 0]), (h, i)
    assert block.totals(1.0)[0] == np.inf


@pytest.mark.parametrize("alpha,seed,path,tau", [
    (1.0, 7, 16, 1.9050881545350582),
    (2.0, 0, 25, 1.2604585436555167),
], ids=["alpha_1", "alpha_2"])
def test_weight_past_both_ends_of_range(alpha, seed, path, tau):
    # jumps of mean size 96 take xi below -745/alpha, and the next segment
    # has alpha drift dt above 709.78: exp(alpha xi) is 0 there and
    # expm1(z)/z inf.  The weight, formed in log space, is not their
    # product NaN, so A(horizon) is finite and the row is served on the
    # first rung, as the oracle serves it
    model = saw_tooth(0.0104, 0.01042)
    cfg = SimConfig(seed=seed, n_paths=50, alpha=alpha)
    got = tau_ensemble(model, cfg, [5.72])
    with np.errstate(over="ignore", invalid="ignore"):
        want, doublings = oracles.ref_tau_ensemble(model, cfg, [5.72])
    assert got[path, 0] == tau
    assert doublings[path] == 0
    assert np.array_equal(got, want)


# jumps of mean size 333 take xi to -680 .. -923 before A reaches t
DEEP_JUMPS = (saw_tooth(0.002, 0.003), 1.9216758284884567e46)


@pytest.mark.parametrize("path", [53, 72, 78, 87, 90, 144])
def test_deep_jump_clock_against_mpmath(path):
    # an intermediate passes double range though the result is finite: a
    # weight's factor expm1(z)/z on paths 53 and 144, the clock's remainder
    # rem exp(-xi_k) on paths 53, 72, 78, 87 and 90.  Taken as inf, either
    # puts tau at its segment's end
    model, t = DEEP_JUMPS
    cfg = SimConfig(seed=0, n_paths=1)
    got = tau_ensemble(model, cfg, [t], path_offset=path)[0, 0]
    h, want = horizon_policy(model.positive_mean(), t), None
    while want is None:
        want = oracles.mp_clock(oracles.ref_path(model, 0, path, h, cfg.step),
                                1.0, t)
        h *= 2.0
    assert got == pytest.approx(want, rel=1e-12)


def test_deep_jump_clocks_match_the_oracle():
    model, t = DEEP_JUMPS
    cfg = SimConfig(seed=0, n_paths=145)
    got = tau_ensemble(model, cfg, [t])
    assert np.array_equal(got, oracles.ref_tau_ensemble(model, cfg, [t])[0])


def test_weight_past_range_in_one_factor():
    # exp(-100) 720 expm1(720)/720 = e^620 is finite, though its last
    # factor overflows: node 2 holds it, and a target above it is not
    # reached, with no overflow on the way
    block = paths.PathBlock(times=np.array([[0.0, 1.0, 721.0]]),
                            xi=np.array([[0.0, -100.0, 620.0]]),
                            size=np.array([3]), kind=paths.LINEAR, drift=1.0)
    nodes = block.functional(1.0)
    assert np.isfinite(nodes[0, 2])
    assert nodes[0, 2] == pytest.approx(math.exp(block.log_totals(1.0)[0]),
                                        rel=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(block.clock(1.0, [1e280])[0, 0])


def test_jump_scratch_memory(monkeypatch):
    # a block's rows are set by the width its rows are drawn to, so the
    # drawn chunks and everything else a run keeps fit in a few blocks,
    # in at most four arrays
    works = []

    class KeptWork(paths._Work):
        def __init__(self, seed):
            super().__init__(seed)
            works.append(self)

    monkeypatch.setattr(paths, "_Work", KeptWork)
    tau_ensemble(cp_plus_drift(1.0, 2.0, 1.0),
                 SimConfig(seed=1, n_paths=1000), [math.e ** 8])
    paths.run_paths(saw_tooth(1.0, 3.0), SimConfig(seed=1, n_paths=1500),
                    20.0, lambda block: block.totals(-1.0))
    assert len(works) == 2
    for work in works:
        assert len(work._flat) <= 4
        doubles = sum(flat.size for flat in work._flat.values())
        assert doubles <= 4 * paths._BLOCK_BUDGET


def test_gaussian_scratch_memory(monkeypatch):
    # a Gaussian block of four budgets of nodes keeps at most three arrays
    # of its size: xi, the exp scratch and A, or xi and the weights of log A
    # with the minima of their node pairs
    works = []

    class KeptWork(paths._Work):
        def __init__(self, seed):
            super().__init__(seed)
            works.append(self)

    monkeypatch.setattr(paths, "_Work", KeptWork)
    model = brownian_drift(1.0)
    cfg = SimConfig(seed=1, n_paths=600, step=0.01)
    tau_ensemble(model, cfg, [math.e ** 8])
    estimate_logA_rate(model, cfg, 40.0)
    first_passage_check(model, cfg, 50.0, -0.5)
    assert len(works) == 3
    for work in works:
        assert len(work._flat) <= 3
        for flat in work._flat.values():
            assert flat.size <= 4 * paths._BLOCK_BUDGET


@pytest.mark.parametrize("n_paths", [1, 3, 5])
@pytest.mark.parametrize("name,model,step", [MODELS[0], MODELS[3]],
                         ids=["brownian", "saw_tooth"])
def test_block_edges(monkeypatch, n_paths, name, model, step):
    # four rows per block: ensembles of 1, one row short of a block and
    # one row past it
    cfg = SimConfig(seed=8, n_paths=n_paths, step=step)
    horizon = 10.0
    monkeypatch.setattr(paths, "_BLOCK_BUDGET",
                        _four_rows(model, horizon, step))
    row = estimate_logA_rate(model, cfg, horizon)
    want = oracles.ref_mean_se(oracles.ref_log_totals(model, cfg, horizon)
                               / horizon)
    assert (row.estimate, row.stderr) == want
    base_h = paths.horizon_policy(model.psi_derivs(0.0)[0], max(TARGETS))
    monkeypatch.setattr(paths, "_BLOCK_BUDGET",
                        _four_rows(model, base_h, step))
    assert np.array_equal(tau_ensemble(model, cfg, TARGETS),
                          oracles.ref_tau_ensemble(model, cfg, TARGETS)[0])


@pytest.mark.parametrize("model,step,n_paths", [
    (brownian_drift(1.0), 0.01, 60),
    (saw_tooth(1.0, 3.0), 0.01, 300),
], ids=["brownian", "saw_tooth"])
def test_first_passage_check(model, step, n_paths):
    cfg = SimConfig(seed=7, n_paths=n_paths, step=step, horizon=50.0)
    fp = first_passage_check(model, cfg, cfg.horizon, -0.5)
    assert (fp.lhs, fp.rhs, fp.rhs_stderr) == \
        oracles.ref_first_passage_check(model, cfg, -0.5)


@pytest.mark.parametrize("model,step", [
    (brownian_drift(1.0), 0.05),
    (saw_tooth(1.0, 3.0), 0.01),
], ids=["brownian", "saw_tooth"])
def test_first_passage_miss_text(model, step):
    # on its one rung, the run names the first path it leaves unserved and
    # the rung, as the oracle does
    cfg = SimConfig(seed=7, n_paths=300, step=step, horizon=50.0,
                    max_doublings=0)
    with pytest.raises(HorizonExceededError) as want:
        oracles.ref_first_passage_check(model, cfg, -0.5)
    with pytest.raises(HorizonExceededError) as got:
        first_passage_check(model, cfg, cfg.horizon, -0.5)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("model,m,step,n_paths", [
    (brownian_drift(1.0), 1.0, 0.01, 60),
    (saw_tooth(1.0, 3.0), 0.5, 0.01, 300),
], ids=["brownian", "saw_tooth"])
def test_tilted_identity_check(model, m, step, n_paths):
    cfg = SimConfig(seed=13, n_paths=n_paths, step=step)
    for t in (2.0, 1e-300):
        r = tilted_identity_check(model, m, t, cfg)
        assert (r.lhs, r.lhs_stderr, r.rhs, r.rhs_stderr) == \
            oracles.ref_tilted_identity_check(model, m, t, 1.0, cfg)
    # at t = 1e-300 both sides are exactly 1 with no spread: they agree
    assert (r.lhs, r.rhs, r.z_score) == (1.0, 1.0, 0.0)


@pytest.mark.parametrize("model,step", [
    (brownian_drift(1.0), 0.02),
    (saw_tooth(1.0, 3.0), 0.01),
    (cp_plus_drift(1.0, 2.0, 1.0), 0.01),
], ids=["brownian", "saw_tooth", "cp_plus"])
def test_mc_exp_functional(model, step):
    cfg = SimConfig(seed=21, n_paths=120, step=step)
    mc = mc_exp_functional(model, -1.0, cfg)
    values = oracles.ref_perpetuities(model, cfg, truncation_horizon(model))
    assert (mc.estimate, mc.stderr) == oracles.ref_mean_se(values ** -1.0)


@pytest.mark.parametrize("name,model,step", MODELS, ids=IDS)
def test_estimate_logA_rate(name, model, step):
    cfg = SimConfig(seed=5, n_paths=50, step=step)
    row = estimate_logA_rate(model, cfg, 12.0)
    want = oracles.ref_log_totals(model, cfg, 12.0)
    assert (row.estimate, row.stderr) == oracles.ref_mean_se(want / 12.0)
    # long padded jump rows: every per-path value, not only the mean
    got = paths.run_paths(model, cfg, 100.0,
                          lambda block: block.log_totals(1.0))
    assert np.array_equal(got, oracles.ref_log_totals(model, cfg, 100.0))


@pytest.mark.parametrize("a,alpha", [(1.0, 1.0), (1.7, 1.0), (0.6, 2.0)])
@pytest.mark.parametrize("model,step", [
    (brownian_drift(1.0), 0.01),
    (saw_tooth(1.0, 3.0), 0.01),
], ids=["brownian", "saw_tooth"])
def test_fundamental_relation_check(model, step, a, alpha):
    cfg = SimConfig(seed=9, n_paths=80, step=step, alpha=alpha, start=a)
    assert (fundamental_relation_check(model, cfg)
            == oracles.ref_fundamental_relation(model, cfg))


@pytest.mark.parametrize("a,alpha,message", [
    (1e200, 2.0, "rescaling the clock targets"),          # a^alpha
    (1.0, 200.0, "exponential functional overflowed"),    # A(8)
    (1e305, 1.0, "rescaling the clock targets"),          # t a^alpha
], ids=["start_power", "functional", "scaled_targets"])
def test_fundamental_relation_overflow(a, alpha, message):
    cfg = SimConfig(seed=2, n_paths=8, alpha=alpha, start=a)
    with pytest.raises(RescalingError, match=message):
        fundamental_relation_check(brownian_drift(1.0), cfg)


# (start, step, targets): a long geometric grid, and a largest target
# at most start * step, where the grid has two nodes.  d = 9 covers the
# pairwise order np.sum takes from 8 terms on.
CAUCHY_RUNS = [
    (1.0, 0.05, [0.0, 3.0, 50.0, 400.0]),
    (2.5, 0.05, [0.0, 3.0, 50.0, 400.0]),
    (1.0, 0.05, [0.0, 0.01, 0.05]),
    (2.5, 0.05, [0.1, 0.125]),
]


@pytest.mark.parametrize("start,step,targets", CAUCHY_RUNS)
@pytest.mark.parametrize("d", [2, 3, 5, 9])
def test_cauchy_tau_ensemble(d, start, step, targets):
    cfg = SimConfig(seed=19, n_paths=8, step=step, start=start)
    got = tau_ensemble(CauchyModulus(d), cfg, targets, path_offset=7)
    want = oracles.ref_cauchy_tau_ensemble(d, cfg, targets, path_offset=7)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("horizon", [400.0, 0.05])
@pytest.mark.parametrize("d", [2, 3, 5, 9])
def test_simulate_cauchy_modulus(d, horizon):
    cfg = SimConfig(seed=19, n_paths=1, step=0.05, start=2.5,
                    horizon=horizon)
    for pid in (0, 7):
        got = simulate_cauchy_modulus(d, cfg, pid)
        want = oracles.ref_cauchy_path(d, cfg, pid)
        for name in ("times", "positions", "radius", "clock_nodes"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_cauchy_errors():
    for d in (3.7, 3.0, math.nan, 1):
        with pytest.raises(DomainError, match="integer dimension d >= 2"):
            CauchyModulus(d)
    with pytest.raises(DomainError, match="clock targets must be >= 0"):
        tau_ensemble(CauchyModulus(3), SimConfig(seed=1, n_paths=2),
                     [-1.0, 5.0])
    with pytest.raises(DomainError, match="cfg.alpha must be 1"):
        tau_ensemble(CauchyModulus(3),
                     SimConfig(seed=1, n_paths=2, alpha=2.0), [5.0])


@pytest.fixture
def philox_count(monkeypatch):
    """Counts the Philox bit generators built from here on."""
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return built


def test_one_philox_per_ensemble(short_horizon, monkeypatch, philox_count):
    # one row per block, with doublings: still one generator per ensemble
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", 1)
    tau_ensemble(brownian_drift(1.0), SimConfig(seed=4, n_paths=6, step=0.05),
                 TARGETS)
    assert len(philox_count) == 1
    philox_count.clear()
    tau_ensemble(CauchyModulus(3), SimConfig(seed=4, n_paths=6, step=0.05),
                 [0.0, 50.0])
    assert len(philox_count) == 1


def test_drift_condition_checked_before_any_path(philox_count):
    # psi'(0) = -2: A(inf) < inf, so tau(t) = inf past it; the estimators
    # refuse the model before they build a generator
    model = brownian_drift(1.0).esscher(-1.0)
    cfg = SimConfig(seed=1, n_paths=4, step=0.05)
    with pytest.raises(AssumptionError, match="drift condition violated"):
        tau_ensemble(model, cfg, [100.0])
    with pytest.raises(AssumptionError, match="drift condition violated"):
        estimate_logA_rate(model, cfg, 10.0)
    assert not philox_count


def test_cauchy_grid_covers_its_horizon():
    # at this target the log-count alone leaves the last node one ulp below
    cfg = SimConfig(seed=1, n_paths=2, step=0.01, start=1.0)
    taus = tau_ensemble(CauchyModulus(3), cfg, [0.01093685272684361])
    assert np.isfinite(taus).all()
    # horizons at and next to the grid's nodes, where the rounding of the
    # log-count falls
    for start, step in ((1.0, 0.01), (2.5, 0.05), (0.3, 0.5)):
        cfg = SimConfig(seed=1, step=step, start=start)
        first = start * step
        for k in range(1, 400):
            node = first * (1.0 + step) ** k
            for horizon in (node, np.nextafter(node, math.inf),
                            np.nextafter(node, 0.0),
                            first * math.exp(k * math.log1p(step))):
                assert paths._cauchy_grid(cfg, horizon)[0][-1] >= horizon


def test_tilted_identity_starts_at_cfg_start():
    # the check reads a from cfg.start: t = 4 from a = 2 is t = 2 from 1
    model = brownian_drift(1.0)
    one = tilted_identity_check(model, 1.0, 2.0,
                                SimConfig(seed=3, n_paths=40, step=0.05))
    two = tilted_identity_check(model, 1.0, 4.0,
                                SimConfig(seed=3, n_paths=40, step=0.05,
                                          start=2.0))
    fields = ("lhs", "lhs_stderr", "rhs", "rhs_stderr", "z_score")
    assert ([getattr(two, f) for f in fields]
            == [getattr(one, f) for f in fields])
