"""Path sampling, exponential functionals, clocks, Lamperti, Cauchy modulus.

A single path is a one-row :class:`PathBlock`; A at off-node times comes
from the forward reference ``oracles.ref_functional_at``.
"""

import math

import numpy as np
import pytest

from levyclocks import (
    CapabilityError,
    CauchyModulus,
    DomainError,
    SimConfig,
    brownian_drift,
    cp_plus_drift,
    sample_levy_path,
    saw_tooth,
    simulate_cauchy_modulus,
    stable_conditioned,
    tau_ensemble,
)
from levyclocks.paths import PathBlock, run_paths
from oracles import (
    RefPath,
    ks_two_sample,
    ks_two_sample_critical,
    path_rng,
    ref_functional_at,
)


def drift_path(slope: float, horizon: float = 10.0) -> PathBlock:
    return PathBlock(times=np.array([[0.0, horizon]]),
                     xi=np.array([[0.0, slope * horizon]]),
                     size=np.array([2]), kind="linear-drift", drift=slope)


def functional_at(path: PathBlock, alpha: float, u) -> np.ndarray:
    """A at times ``u`` on the one-row block ``path``."""
    ref = RefPath(path.times[0], path.xi[0], path.kind, path.drift)
    return ref_functional_at(ref, alpha, u)


def clock(path: PathBlock, alpha: float, targets):
    """tau at ``targets`` on the one-row block ``path``; every target must
    lie within A(horizon)."""
    taus = path.clock(alpha, np.atleast_1d(targets))
    assert not np.isnan(taus).any()
    return taus[0]


def total(path: PathBlock, alpha: float) -> float:
    return float(path.totals(alpha)[0])


class TestExpFunctional:
    def test_zero_path(self):
        path = drift_path(0.0)
        for t in (0.3, 1.0, 7.5):
            assert functional_at(path, 1.0, t) == pytest.approx(t, abs=1e-15)
            assert clock(path, 1.0, t)[0] == pytest.approx(t, abs=1e-15)

    def test_unit_drift(self):
        path = drift_path(1.0)
        assert functional_at(path, 1.0, 3.0) == pytest.approx(
            math.exp(3.0) - 1.0, rel=1e-15, abs=0.0)
        assert clock(path, 1.0, 5.0)[0] == \
            pytest.approx(math.log(6.0), rel=1e-15, abs=0.0)

    def test_negative_alpha(self):
        assert total(drift_path(1.0), -1.0) == pytest.approx(
            1.0 - math.exp(-10.0), rel=1e-14, abs=0.0)

    def test_log_total_matches(self):
        cfg = SimConfig(seed=2, n_paths=1, step=0.01, horizon=6.0)
        for model in (brownian_drift(1.0), saw_tooth(1.0, 3.0)):
            path = sample_levy_path(model, cfg, 0)
            lt = path.log_totals(1.0)[0]
            assert lt == pytest.approx(
                math.log(total(path, 1.0)), rel=1e-12, abs=0.0)

    def test_log_total_long_linear_segment(self):
        # one segment with alpha drift dt = 1000: expm1 overflows there,
        # the log-space value is exact
        cfg = SimConfig(seed=1, n_paths=1, horizon=1000.0)
        path = sample_levy_path(cp_plus_drift(1.0, 0.0, 1.0), cfg, 0)
        assert path.times.shape == (1, 2)
        assert path.log_totals(1.0)[0] == pytest.approx(
            1000.0 + math.log1p(-math.exp(-1000.0)), rel=1e-15)

    def test_inverse_pair_exact_segments(self):
        cfg = SimConfig(seed=5, n_paths=1, step=0.01, horizon=25.0)
        path = sample_levy_path(saw_tooth(1.0, 3.0), cfg, 3)
        ts = np.linspace(1e-3, path.totals(1.0)[0] * 0.9999, 400)
        taus = clock(path, 1.0, ts)
        assert np.all(np.diff(taus) >= 0.0)
        err = np.abs(functional_at(path, 1.0, taus) - ts) / np.maximum(1.0, ts)
        assert float(np.max(err)) <= 1e-12

    def test_inverse_pair_trapezoid(self):
        cfg = SimConfig(seed=5, n_paths=1, step=0.01, horizon=8.0)
        path = sample_levy_path(brownian_drift(1.0), cfg, 1)
        ts = np.linspace(1e-3, path.totals(1.0)[0] * 0.9999, 200)
        taus = clock(path, 1.0, ts)
        err = np.abs(functional_at(path, 1.0, taus) - ts) / np.maximum(1.0, ts)
        assert float(np.max(err)) <= 1e-12

    def test_horizon_error(self):
        # a target above A(horizon) = 2 reads NaN, the target below it is
        # inverted; ensembles turn the NaN into a doubling, then
        # HorizonExceededError
        path = drift_path(0.0, horizon=2.0)
        taus = path.clock(1.0, [1.0, 5.0])
        assert taus[0, 0] == 1.0
        assert np.isnan(taus[0, 1])
        assert path.totals(1.0)[0] == pytest.approx(2.0)
        with pytest.raises(DomainError):
            path.clock(1.0, [-1.0])


class TestSampling:
    def test_deterministic(self):
        cfg = SimConfig(seed=11, n_paths=1, step=0.02, horizon=9.0)
        for model in (brownian_drift(1.0), saw_tooth(1.0, 3.0)):
            a = sample_levy_path(model, cfg, 4)
            b = sample_levy_path(model, cfg, 4)
            assert np.array_equal(a.xi, b.xi)
            c = sample_levy_path(model, cfg, 5)
            assert not np.array_equal(a.xi, c.xi)

    def test_horizon_extension_preserves_prefix(self):
        cfg1 = SimConfig(seed=11, n_paths=1, step=0.02, horizon=9.0)
        cfg2 = SimConfig(seed=11, n_paths=1, step=0.02, horizon=18.0)
        for model in (brownian_drift(1.0), saw_tooth(1.0, 3.0)):
            a = sample_levy_path(model, cfg1, 4).xi[0]
            b = sample_levy_path(model, cfg2, 4).xi[0]
            keep = min(len(a) - 1, len(b) - 1)   # last node is horizon
            assert np.array_equal(a[:keep], b[:keep])

    def test_degenerate_drift_only(self):
        cfg = SimConfig(seed=1, n_paths=1, step=0.01, horizon=5.0)
        path = sample_levy_path(cp_plus_drift(1.0, 0.0, 1.0), cfg, 0)
        assert np.array_equal(path.times, np.array([[0.0, 5.0]]))
        assert np.array_equal(path.xi, np.array([[0.0, 5.0]]))
        assert clock(path, 1.0, 3.0)[0] == \
            pytest.approx(math.log1p(3.0), rel=1e-15, abs=0.0)

    def test_brownian_mean(self):
        # E xi_10 = 2 nu 10 = 20; sd of the mean = sqrt(40)/100
        cfg = SimConfig(seed=3, n_paths=10_000, step=0.01, horizon=10.0)
        ends = run_paths(brownian_drift(1.0), cfg, cfg.horizon,
                         lambda block: block.xi[:, -1])
        z999 = 3.2905
        assert abs(ends.mean() - 20.0) <= z999 * math.sqrt(40.0) / 100.0

    def test_sawtooth_jump_rate(self):
        # Poisson(beta T) jump count
        beta, horizon, n = 1.0, 20.0, 2000
        cfg = SimConfig(seed=8, n_paths=n, step=0.01, horizon=horizon)
        counts = run_paths(saw_tooth(beta, 3.0), cfg, horizon,
                           lambda block: block.size - 2)
        se = math.sqrt(beta * horizon / n)
        assert abs(counts.mean() - beta * horizon) <= 3.0 * se

    def test_unsupported_family(self):
        cfg = SimConfig(seed=1, n_paths=1)
        with pytest.raises(CapabilityError, match="simulate_cauchy_modulus"):
            sample_levy_path(stable_conditioned(1.5, 1.0), cfg, 0)

    def test_clock_value_cadlag(self):
        # A at the first jump node reads the post-jump value, A just below
        # it the pre-jump one
        cfg = SimConfig(seed=9, n_paths=1, step=0.01, horizon=20.0)
        path = sample_levy_path(saw_tooth(1.0, 3.0), cfg, 0)
        times, xi = path.times[0], path.xi[0]
        assert len(times) > 3
        at_jump = float(path.functional(1.0)[0, 1])
        taus, values = path.clock_value(1.0, [at_jump, at_jump - 1e-9])
        assert taus[0, 0] == float(times[1])
        assert values[0, 0] == float(xi[1])
        expect = xi[0] + path.drift * taus[0, 1]
        assert values[0, 1] == pytest.approx(expect, abs=1e-8)
        assert abs(values[0, 1] - xi[1]) > 1e-3

    def test_refinement_first_order(self):
        # coarsened copies of one fine Brownian path: clock differences
        # shrink at first order in the step
        cfg = SimConfig(seed=21, n_paths=60, step=0.002, horizon=6.0)

        def diffs(fine):
            t_mid = fine.totals(1.0)[:, None] * 0.5
            finest = fine.clock(1.0, t_mid)
            assert not np.isnan(finest).any()
            out = []
            for factor in (1, 2, 4):
                sub = slice(None, None, 4 // factor)
                times = fine.times[:, sub]
                coarse = PathBlock(times=times, xi=fine.xi[:, sub],
                                   size=np.full(len(fine.xi), times.shape[1]),
                                   kind="gaussian-increment")
                taus = coarse.clock(1.0, t_mid)
                assert not np.isnan(taus).any()
                out.append(taus[:, 0] - finest[:, 0])
            return np.column_stack(out)

        per_path = run_paths(brownian_drift(1.0), cfg, cfg.horizon, diffs)
        rms = [float(np.sqrt(np.mean(np.square(col)))) for col in per_path.T]
        assert rms[1] < rms[0]
        assert rms[2] < rms[1]


class TestLamperti:
    # The Lamperti image of a path started at a: X = a exp(xi) at the
    # times a^alpha A, with clock T(t) = tau(t a^-alpha).
    def test_constant_path(self):
        path, a = drift_path(0.0), 2.0
        assert np.all(a * np.exp(path.xi) == 2.0)
        assert clock(path, 1.0, 4.0 * a ** -1.0)[0] == \
            pytest.approx(2.0, abs=1e-15)

    def test_fundamental_relation(self):
        cfg = SimConfig(seed=13, n_paths=1, step=0.01, horizon=12.0)
        for model in (brownian_drift(1.0), saw_tooth(1.0, 3.0)):
            for pid in range(8):
                path = sample_levy_path(model, cfg, pid)
                for a, alpha in ((1.0, 1.0), (1.7, 1.0), (0.6, 2.0)):
                    cap = path.totals(alpha)[0]
                    ts = np.linspace(cap * 1e-3, cap * 0.999, 50)
                    taus = clock(path, alpha, ts)
                    big_t = clock(path, alpha,
                                  (ts * a ** alpha) * a ** -alpha)
                    gap = np.abs(big_t - taus)
                    assert float(np.max(gap / np.maximum(1.0, taus))) <= 1e-12

    def test_scaling_property(self):
        # law of T(. b^-alpha) started at a == law of T(.) started at b a
        n, b, a, t = 4000, 2.0, 1.0, 40.0
        # no doubling: every path must reach its target within horizon 25
        cfg = SimConfig(seed=77, n_paths=n, step=0.01, horizon=25.0,
                        max_doublings=0)
        model = saw_tooth(1.0, 3.0)

        def clock_at(x_time, start, offset):
            def reduce(block):
                return block.clock(1.0, [x_time * start ** -1.0])[:, 0]
            return run_paths(model, cfg, cfg.horizon, reduce, offset,
                             miss=lambda i, h: f"path {offset + i} missed")

        one = clock_at(t / b, a, 0)
        two = clock_at(t, b * a, n)
        d = ks_two_sample(one, two)
        assert d <= ks_two_sample_critical(n, n, alpha=0.01)


class TestCauchyModulus:
    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            simulate_cauchy_modulus(1, SimConfig(seed=1, n_paths=1), 0)

    def test_index_guard(self):
        with pytest.raises(DomainError):
            simulate_cauchy_modulus(
                3, SimConfig(seed=1, n_paths=1, alpha=2.0), 0)

    def test_deterministic(self):
        cfg = SimConfig(seed=4, n_paths=1, step=0.02, horizon=50.0)
        a = simulate_cauchy_modulus(3, cfg, 2)
        b = simulate_cauchy_modulus(3, cfg, 2)
        assert np.array_equal(a.radius, b.radius)

    def test_increment_symmetry(self):
        # isotropy: each coordinate increment has median 0 (sign test)
        cfg = SimConfig(seed=42, n_paths=1, step=0.5, horizon=1.0)
        signs = []
        for i in range(2000):
            p = simulate_cauchy_modulus(2, cfg, i)
            signs.append(p.positions[1, 1] > p.positions[0, 1])
        k = sum(signs)
        # binomial(2000, 1/2): 4 sigma window
        assert abs(k - 1000) <= 4.0 * math.sqrt(2000 * 0.25)

    def test_subordinator_laplace_transform(self):
        # S = dt^2/N^2 must satisfy E exp(-lam S) = exp(-dt sqrt(2 lam))
        rng = path_rng(123, 0)
        dt, lam = 0.7, 1.3
        s = (dt / rng.standard_normal(200_000)) ** 2
        est = np.exp(-lam * s)
        target = math.exp(-dt * math.sqrt(2.0 * lam))
        se = est.std(ddof=1) / math.sqrt(len(est))
        assert abs(est.mean() - target) <= 4.0 * se

    def test_radial_scale(self):
        # t / R_t -> 1/|standard Cauchy_3|; E = 2/pi
        t, n = 200.0, 8000
        cfg = SimConfig(seed=9, n_paths=1, step=0.05, horizon=t)
        vals = np.empty(n)
        for i in range(n):
            p = simulate_cauchy_modulus(3, cfg, i)
            vals[i] = p.times[-1] / p.radius[-1]
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 2.0 / math.pi) <= 4.0 * se

    def test_self_similarity_ks(self):
        # law of b X_{t/b} from a == law of X_t from b a; the geometric
        # grids of the two configs are exactly b-scaled copies, so the
        # terminal nodes compare like with like
        n, b, t = 3000, 2.0, 30.0
        one = np.empty(n)
        two = np.empty(n)
        cfg1 = SimConfig(seed=31, n_paths=1, step=0.02, horizon=t / b, start=1.0)
        cfg2 = SimConfig(seed=31, n_paths=1, step=0.02, horizon=t, start=b)
        for i in range(n):
            p1 = simulate_cauchy_modulus(3, cfg1, i)
            one[i] = b * p1.radius[-1]
            p2 = simulate_cauchy_modulus(3, cfg2, n + i)
            two[i] = p2.radius[-1]
            assert p2.times[-1] == pytest.approx(
                b * p1.times[-1], rel=1e-12, abs=0.0)
        d = ks_two_sample(one, two)
        assert d <= ks_two_sample_critical(n, n, alpha=0.01)

    def test_clock_lln_small(self):
        # T(t)/log t near 2/pi at t = e^8 (loose window: the ensemble mean
        # carries an O(1/log t) centering constant ~ +0.7/8)
        t, n = math.exp(8.0), 300
        cfg = SimConfig(seed=6, n_paths=n, step=0.01, horizon=t)
        vals = tau_ensemble(CauchyModulus(3), cfg, [t])[:, 0] / 8.0
        assert abs(vals.mean() - 2.0 / math.pi) <= 0.2
