"""The blocked path engines against the one-path-at-a-time reference.

Every estimator that samples Lévy paths runs on ``paths.run_paths``, which
grows each row until it is served; the loops in ``oracles`` compute the
same quantities one path at a time with 1-D arrays, drawing each path
again at a doubled horizon until it is served.  The Cauchy modulus runs
on coordinate-major rows from one re-keyed generator; its oracle builds a
generator per path and works in the (nodes, d) layout.  Each pair must
agree bit for bit, whatever the block size.
"""

import math

import numpy as np
import pytest

import oracles
from levyclocks import (
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
    simulate_cauchy_modulus,
    tau_ensemble,
    tilted_identity_check,
)
from levyclocks import estimators, paths
from levyclocks.estimators import fundamental_relation_check
from levyclocks.moments import truncation_horizon

# (name, model, step): the four grid families, an Esscher-tilted model and
# a jump family without jumps (a single linear segment per path).
MODELS = [
    ("brownian", brownian_drift(1.0), 0.05),
    ("cp_plus", cp_plus_drift(1.0, 2.0, 1.0), 0.01),
    ("cp_minus", cp_minus_drift(2.0, 1.0), 0.01),
    ("saw_tooth", saw_tooth(1.0, 3.0), 0.01),
    ("tilted_saw_tooth", saw_tooth(1.0, 3.0).esscher(0.5), 0.01),
    ("cp_plus_beta0", cp_plus_drift(1.0, 0.0, 1.0), 0.01),
]
TARGETS = [math.e ** 2, 50.0, math.e ** 6]
IDS = [name for name, _, _ in MODELS]


@pytest.fixture
def short_horizon(monkeypatch):
    """A first horizon of 0.25 for every clock ensemble: most paths then
    need several doublings."""
    policy = lambda mean, t_max: 0.25  # noqa: E731
    monkeypatch.setattr(estimators, "horizon_policy", policy)
    monkeypatch.setattr(oracles, "horizon_policy", policy)


def _width(model, horizon: float, step: float) -> int:
    """Padded row width ``run_paths`` sizes its blocks by."""
    dyn = paths._effective_dynamics(model)
    if dyn[0] == "brownian":
        return math.ceil(horizon / step) + 1
    events = dyn[2] * horizon
    return math.ceil(events + 4.0 * math.sqrt(events)) + 2


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
            ts = np.linspace(0.0, path.totals(nodes)[0], 17)
            taus, reached = path.clock(nodes, alpha, ts)
            assert reached[0]
            assert np.array_equal(taus[0], oracles.ref_clock(ref, ref_nodes,
                                                             alpha, ts))
        mid = float(ref.times[len(ref.times) // 2])
        for u in (0.0, 0.3, mid, 8.99, 9.0):
            assert (path.value_at(np.array([[u]]))[0, 0]
                    == oracles.ref_value_at(ref, u))


@pytest.mark.parametrize("name,model,step", MODELS, ids=IDS)
def test_tau_ensemble(name, model, step):
    cfg = SimConfig(seed=17, n_paths=40, step=step)
    got = tau_ensemble(model, cfg, TARGETS, path_offset=7)
    want, _ = oracles.ref_tau_ensemble(model, cfg, TARGETS, path_offset=7)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("budget", [1, 300, 1 << 14])
@pytest.mark.parametrize("name,model,step", MODELS[:4], ids=IDS[:4])
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
def test_waves(short_horizon, monkeypatch, name, model, step):
    # a growing run takes its rows in waves: seven rows at a time here
    monkeypatch.setattr(paths, "_WAVE", 7)
    cfg = SimConfig(seed=4, n_paths=25, step=step)
    want = oracles.ref_tau_ensemble(model, cfg, TARGETS, path_offset=3)[0]
    assert np.array_equal(tau_ensemble(model, cfg, TARGETS, path_offset=3),
                          want)
    cfg = SimConfig(seed=4, n_paths=25, step=step, max_doublings=1)
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
    for fp, theta in zip(first_passage_check(model, cfg, (-0.5, -1.0)),
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
    r = tilted_identity_check(model, m, 20.0, 1.0, cfg)
    assert (r.lhs, r.lhs_stderr, r.rhs, r.rhs_stderr) == \
        oracles.ref_tilted_identity_check(model, m, 20.0, 1.0, cfg)


@pytest.mark.parametrize("budget", [1, 1 << 14])
def test_first_passage_times_extended(monkeypatch, budget):
    # every row's crossing time, on rows grown in pieces: the uniforms of
    # a row that has not crossed go on in its next piece
    monkeypatch.setattr(paths, "_BLOCK_BUDGET", budget)
    model, level = brownian_drift(0.2), 3.0
    cfg = SimConfig(seed=2, n_paths=40, step=0.01)

    def hats(block):
        hat = block.first_passage(level, cfg.seed)
        return hat, np.isfinite(hat)

    got = paths.run_paths(model, cfg, 1.0, hats,
                          miss=lambda i, h: f"path {i} missed")
    want = oracles.ref_first_passage_times(model, cfg, level, 1.0)
    assert np.array_equal(got, want)


class CountingGenerator(np.random.Generator):
    """Counts the standard normals and the uniforms drawn through it."""

    drawn = uniforms = 0

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


def test_draws_about_what_rows_need(counting):
    # each row is drawn to within a factor 2^(1/3) of its serving point
    # (and to at least half the first horizon)
    step = 0.005
    cfg = SimConfig(seed=12, n_paths=200, step=step)
    taus = tau_ensemble(brownian_drift(1.0), cfg, [math.e ** 8, math.e ** 14])
    needed = np.sum(np.floor(taus[:, -1] / step) + 1)
    assert CountingGenerator.drawn <= 1.3 * needed


def test_uniforms_up_to_the_first_sure_crossing(counting):
    # bridge-crossing uniforms are drawn only for the steps before a row's
    # path first ends a step at or above level 1
    model, step = brownian_drift(1.0), 0.01
    cfg = SimConfig(seed=3, n_paths=100, step=step, horizon=50.0)
    first_passage_check(model, cfg, -1.0)
    sure = [np.argmax(oracles.ref_path(model, cfg.seed, i, 20.0, step).xi
                      >= 1.0) - 1 for i in range(cfg.n_paths)]
    assert 0 < CountingGenerator.uniforms <= sum(sure)


def test_rescaling_error_per_row():
    # drift 240 per unit time: A overflows past xi ~ 709.8, at time ~ 3
    model = brownian_drift(120.0)
    # the target is reached at once; the first horizon, 4, overflows, so
    # drawing every row to it raised for the whole block, while each row
    # now stops at the first horizon that serves it (2)
    cfg = SimConfig(seed=1, n_paths=4, step=0.01)
    with pytest.raises(RescalingError):
        oracles.ref_tau_ensemble(model, cfg, [10.0])
    got = tau_ensemble(model, cfg, [10.0])
    for i in range(4):
        p = oracles.ref_path(model, cfg.seed, i, 2.0, cfg.step)
        want = oracles.ref_clock(p, oracles.ref_nodes(p, 1.0), 1.0, [10.0])
        assert np.array_equal(got[i], want)
    # a row whose A overflows before it reaches the target still raises
    cfg = SimConfig(seed=1, n_paths=4, step=1.0)
    with np.errstate(over="ignore"), pytest.raises(RescalingError):
        tau_ensemble(model, cfg, [1e250])


@pytest.mark.parametrize("n_paths", [1, 3, 5])
@pytest.mark.parametrize("name,model,step", [MODELS[0], MODELS[3]],
                         ids=["brownian", "saw_tooth"])
def test_block_edges(monkeypatch, n_paths, name, model, step):
    # four rows per block: ensembles of 1, one row short of a block and
    # one row past it
    cfg = SimConfig(seed=8, n_paths=n_paths, step=step)
    horizon = 10.0
    monkeypatch.setattr(paths, "_BLOCK_BUDGET",
                        4 * _width(model, horizon, step))
    row = estimate_logA_rate(model, cfg, horizon).rows[0]
    want = oracles.ref_mean_se(oracles.ref_log_totals(model, cfg, horizon)
                               / horizon)
    assert (row.estimate, row.stderr) == want
    base_h = paths.horizon_policy(model.psi_derivs(0.0)[0], max(TARGETS))
    monkeypatch.setattr(paths, "_BLOCK_BUDGET",
                        4 * _width(model, base_h, step))
    assert np.array_equal(tau_ensemble(model, cfg, TARGETS),
                          oracles.ref_tau_ensemble(model, cfg, TARGETS)[0])


@pytest.mark.parametrize("model,step,n_paths", [
    (brownian_drift(1.0), 0.01, 60),
    (saw_tooth(1.0, 3.0), 0.01, 300),
], ids=["brownian", "saw_tooth"])
def test_first_passage_check(model, step, n_paths):
    cfg = SimConfig(seed=7, n_paths=n_paths, step=step, horizon=50.0)
    fp = first_passage_check(model, cfg, -0.5)
    assert (fp.lhs, fp.rhs, fp.rhs_stderr) == \
        oracles.ref_first_passage_check(model, cfg, -0.5)


@pytest.mark.parametrize("model,m,step,n_paths", [
    (brownian_drift(1.0), 1.0, 0.01, 60),
    (saw_tooth(1.0, 3.0), 0.5, 0.01, 300),
], ids=["brownian", "saw_tooth"])
def test_tilted_identity_check(model, m, step, n_paths):
    cfg = SimConfig(seed=13, n_paths=n_paths, step=step)
    r = tilted_identity_check(model, m, 2.0, 1.0, cfg)
    assert (r.lhs, r.lhs_stderr, r.rhs, r.rhs_stderr) == \
        oracles.ref_tilted_identity_check(model, m, 2.0, 1.0, cfg)


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
    row = estimate_logA_rate(model, cfg, 12.0).rows[0]
    want = oracles.ref_log_totals(model, cfg, 12.0)
    assert (row.estimate, row.stderr) == oracles.ref_mean_se(want / 12.0)
    # long padded jump rows: every per-path value, not only the mean
    got = paths.run_paths(model, cfg, 100.0,
                          lambda block: (block.log_totals(1.0), True))
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
