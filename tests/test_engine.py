"""The blocked path engine against the one-path-at-a-time reference.

Every estimator that samples Lévy paths runs on ``paths.run_paths``; the
loops in ``oracles`` compute the same quantities one path at a time with
1-D arrays and their own horizon-doubling retry.  The two must agree bit
for bit, whatever the block size.
"""

import math

import numpy as np
import pytest

import oracles
from levyclocks import (
    HorizonExceededError,
    SimConfig,
    brownian_drift,
    clock_tau_many,
    cp_minus_drift,
    cp_plus_drift,
    estimate_logA_rate,
    exp_functional,
    first_passage_check,
    log_exp_functional_total,
    mc_exp_functional,
    sample_levy_path,
    saw_tooth,
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
    cfg = SimConfig(seed=3, n_paths=1, step=step, horizon=9.0)
    for pid in (0, 5):
        path = sample_levy_path(model, cfg, pid)
        ref = oracles.ref_path(model, cfg.seed, pid, cfg.horizon, step)
        assert np.array_equal(path.times, ref.times)
        assert np.array_equal(path.xi, ref.xi)
        for alpha in (1.0, -1.0, 0.5):
            ef = exp_functional(path, alpha)
            nodes = oracles.ref_nodes(ref, alpha)
            assert np.array_equal(ef.nodes, nodes)
            assert (log_exp_functional_total(path, alpha)
                    == oracles.ref_log_total(ref, alpha))
            ts = np.linspace(0.0, ef.total, 17)
            assert np.array_equal(clock_tau_many(ef, ts),
                                  oracles.ref_clock(ref, nodes, alpha, ts))
        for u in (0.0, 0.3, float(path.times[len(path.times) // 2]), 8.99,
                  9.0):
            assert float(path.value_at(u)) == oracles.ref_value_at(ref, u)


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
