"""Statistical estimators: LLN, CLT probe, LDP slopes, identity checks.

Stochastic assertions run at smoke scale with fixed seeds; windows are
sized so that a correct implementation fails with probability ~1e-4
while factor-level bugs (wrong drift, wrong clock normalization) are
caught.  The heavyweight spec-scale runs live in test_acceptance.py.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import oracles
from levyclocks import (
    CapabilityError,
    CauchyModulus,
    DomainError,
    RescalingError,
    SimConfig,
    brownian_drift,
    cp_minus_drift,
    cp_plus_drift,
    estimate_clt,
    estimate_ldp_slope,
    estimate_lln,
    estimate_logA_rate,
    first_passage_check,
    invert_L,
    normal_cdf,
    saw_tooth,
    tau_ensemble,
    tilted_identity_check,
)
from levyclocks.cli import run


class TestTauEnsemble:
    def test_deterministic_reproducible(self):
        cfg = SimConfig(seed=5, n_paths=32, step=0.01)
        a = tau_ensemble(saw_tooth(1, 3), cfg, [50.0, 500.0])
        b = tau_ensemble(saw_tooth(1, 3), cfg, [50.0, 500.0])
        assert np.array_equal(a, b)
        assert np.all(np.diff(a, axis=1) > 0.0)   # monotone in t per path

    def test_pathwise_bounds(self):
        # cp_plus: tau(t) <= log(1 + d t)/d;  saw tooth: tau(t) >= log t
        cfg = SimConfig(seed=7, n_paths=2000, step=0.01)
        ts = [10.0, 1000.0]
        taus = tau_ensemble(cp_plus_drift(1.0, 2.0, 1.0), cfg, ts)
        for j, t in enumerate(ts):
            assert np.all(taus[:, j] <= math.log1p(t) * (1.0 + 1e-12))
        taus = tau_ensemble(saw_tooth(1.0, 3.0), cfg, ts)
        for j, t in enumerate(ts):
            assert np.all(taus[:, j] >= math.log(t) * (1.0 - 1e-12))

    def test_offset_gives_fresh_paths(self):
        cfg = SimConfig(seed=5, n_paths=8, step=0.01)
        a = tau_ensemble(saw_tooth(1, 3), cfg, [50.0])
        b = tau_ensemble(saw_tooth(1, 3), cfg, [50.0], path_offset=8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("targets", [[], [math.inf], [50.0, math.nan]])
    @pytest.mark.parametrize("target", [saw_tooth(1, 3), CauchyModulus(3)],
                             ids=["saw_tooth", "cauchy"])
    def test_targets_validation(self, target, targets):
        cfg = SimConfig(seed=1, n_paths=2, step=0.05)
        with pytest.raises(DomainError, match="clock targets"):
            tau_ensemble(target, cfg, targets)

    @pytest.mark.parametrize("field", ["step", "horizon", "alpha", "start"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_config_validation(self, field, value):
        with pytest.raises(DomainError, match=field):
            SimConfig(seed=1, **{field: value})


class TestBrownianExact:
    """tau(t) of brownian_drift(nu) against its exact law at finite t."""

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("t", [1.5, 2.0, 8.0, math.e ** 4])
    def test_mean_is_the_integral(self, nu, t):
        # E tau(t) = (1/2) int_0^1 v^(nu - 1) E1((1 - v)/(2t)) dv
        with mp.workdps(30):
            quad = mp.quad(lambda v: v ** (nu - 1) * mp.e1((1 - v) / (2 * t)),
                           [0, 1]) / 2
            assert float(oracles.besq_mean(nu, t)) == pytest.approx(
                float(quad), rel=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.5])
    def test_mean_is_the_laplace_slope(self, nu):
        # E tau(t) = -d/dlambda E exp(-lambda tau(t)) at lambda = psi(m) = 0,
        # and dpsi/dm = 2 nu there
        with mp.workdps(30):
            slope = mp.diff(lambda m: oracles.besq_laplace(nu, m, 2.0), 0)
            assert float(-slope / (2 * nu)) == pytest.approx(
                float(oracles.besq_mean(nu, 2.0)), rel=1e-12)
        assert float(oracles.besq_laplace(nu, 0.0, 2.0)) == 1.0

    def test_clock_ensemble(self):
        # the tau_ensemble mean at each t, and the plain mean of
        # exp(-psi(m) tau(t)) at t = 1.5 and 2, each within 3 standard
        # errors of its exact value at step 0.01.  At t = 8 the m = -0.25
        # mean reads -2.8 to -3.2 standard errors on some seeds and steps
        model, ts = brownian_drift(1.0), [1.5, 2.0, 8.0]
        taus = tau_ensemble(model, SimConfig(seed=1, n_paths=20000,
                                             step=0.01), ts)
        for j, t in enumerate(ts):
            mean, se = oracles.ref_mean_se(taus[:, j])
            exact = float(oracles.besq_mean(1.0, t))
            assert abs(mean - exact) <= 3.0 * se, t
            for m in (1.0, 0.5, -0.25) if t < 8.0 else ():
                mean, se = oracles.ref_mean_se(np.exp(-model.psi(m)
                                                      * taus[:, j]))
                exact = float(oracles.besq_laplace(1.0, m, t))
                assert abs(mean - exact) <= 3.0 * se, (t, m)


class TestLln:
    def test_deterministic_exact(self):
        # beta = 0: tau(t) = log(1+t) exactly
        model = cp_plus_drift(1.0, 0.0, 1.0)
        cfg = SimConfig(seed=1, n_paths=4, step=0.01)
        t = math.e ** 6
        (row,) = estimate_lln(model, cfg, [t])
        assert row.estimate == pytest.approx(math.log1p(t) / math.log(t),
                                             rel=1e-14)
        assert row.stderr == 0.0
        assert row.reference == 1.0

    def test_reference_values(self):
        cfg = SimConfig(seed=1, n_paths=2, step=0.01)
        (row,) = estimate_lln(saw_tooth(1.0, 3.0), cfg, [10.0])
        assert row.reference == pytest.approx(1.5, rel=1e-12)
        (row,) = estimate_lln(CauchyModulus(3), cfg, [10.0])
        assert row.reference == pytest.approx(2.0 / math.pi, rel=1e-10)

    def test_differenced_slope_is_unbiased(self):
        # E[tau(t2) - tau(t1)] = (log t2 - log t1)/psi'(0): the O(1)
        # centering constants cancel, unlike the raw mean of tau/log t
        cases = [
            (brownian_drift(1.0), 0.5, 0.005),
            (cp_plus_drift(1.0, 2.0, 1.0), 1.0 / 3.0, 0.01),
            (saw_tooth(1.0, 3.0), 1.5, 0.01),
            (cp_minus_drift(2.0, 1.0), 1.0, 0.01),
        ]
        for model, ref, h in cases:
            cfg = SimConfig(seed=101, n_paths=1200, step=h)
            taus = tau_ensemble(model, cfg, [math.e ** 8, math.e ** 12])
            diff = (taus[:, 1] - taus[:, 0]) / 4.0
            se = diff.std(ddof=1) / math.sqrt(len(diff))
            assert abs(diff.mean() - ref) <= 4.0 * se

    def test_mean_with_centering_allowance(self):
        # raw mean of tau/log t carries an O(1/log t) constant; allow it
        t = math.e ** 10
        cfg = SimConfig(seed=55, n_paths=600, step=0.01)
        (row,) = estimate_lln(saw_tooth(1.0, 3.0), cfg, [t])
        assert abs(row.estimate - row.reference) <= 0.12

    def test_t_validation(self):
        cfg = SimConfig(seed=1, n_paths=2)
        with pytest.raises(DomainError):
            estimate_lln(saw_tooth(1, 3), cfg, [0.5])

    def test_report_text(self, capsys):
        assert run(["lln", "--family", "sawtooth", "--beta", "1",
                    "--gamma", "3", "--t", "20", "--t", "50", "--paths", "16",
                    "--step", "0.01", "--seed", "9"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "estimator: lln"
        assert lines[1].startswith("model: family=saw_tooth")
        assert "seed: 9" in lines
        assert lines[-3] == "t,estimate,stderr,reference"
        assert len(lines[-1].split(",")) == 4


class TestClt:
    def test_target_variance(self):
        cfg = SimConfig(seed=3, n_paths=400, step=0.01)
        res = estimate_clt(brownian_drift(1.0), cfg, math.e ** 8)
        assert res.target_variance == pytest.approx(0.5, rel=1e-14)
        assert 0.0 < res.ks_statistic < 0.5
        assert len(res.standardized) == 400

    def test_sawtooth_target(self):
        model = saw_tooth(1.0, 3.0)
        d1, d2 = model.psi_derivs(0.0)
        cfg = SimConfig(seed=3, n_paths=50, step=0.01)
        res = estimate_clt(model, cfg, math.e ** 6)
        assert res.target_variance == pytest.approx(d2 / d1 ** 3, rel=1e-14)

    def test_degenerate_variance(self):
        model = cp_plus_drift(1.0, 0.0, 1.0)   # deterministic path
        cfg = SimConfig(seed=3, n_paths=12, step=0.01)
        res = estimate_clt(model, cfg, math.e ** 6)
        assert res.target_variance == 0.0
        assert math.isnan(res.ks_statistic)
        assert float(np.max(np.abs(res.standardized))) <= 0.2

    @pytest.mark.parametrize("t", [1.0, 0.5, math.nan])
    def test_t_validation(self, t):
        cfg = SimConfig(seed=1, n_paths=10)
        with pytest.raises(DomainError, match="t > 1"):
            estimate_clt(brownian_drift(1.0), cfg, t)

    def test_normal_cdf(self):
        assert normal_cdf(0.0, 2.0) == pytest.approx(0.5)
        assert normal_cdf(2.0, 1.0) == pytest.approx(0.97724986805, abs=1e-9)


class TestLdpSlope:
    def test_zero_rate_at_tau_e_rejected(self):
        cfg = SimConfig(seed=1, n_paths=8)
        with pytest.raises(DomainError):
            estimate_ldp_slope(brownian_drift(1.0), cfg, 0.5,
                               [10.0, 100.0, 1000.0])

    def test_near_tau_e_slope_small(self):
        # a fat window straddling the minimum: the slope should be near 0
        cfg = SimConfig(seed=12, n_paths=4000, step=0.01)
        r = estimate_ldp_slope(brownian_drift(1.0), cfg, 0.52,
                               [math.e ** 6, math.e ** 8, math.e ** 10],
                               eps=0.1)
        assert abs(r.slope) <= 0.06

    def test_sawtooth_below_support_all_zero(self):
        # pathwise tau(t) >= log t: a window strictly below 1 never fires
        cfg = SimConfig(seed=2, n_paths=300, step=0.01)
        r = estimate_ldp_slope(saw_tooth(1.0, 3.0), cfg, 0.97,
                               [math.e ** 6, math.e ** 8, math.e ** 10],
                               eps=0.02)
        assert all(h == 0 for _, _, h in r.rows)
        assert len(r.excluded) == 3
        assert math.isnan(r.slope)
        assert math.isinf(r.reference)

    def test_reference_is_rate_function(self):
        cfg = SimConfig(seed=2, n_paths=64, step=0.01)
        r = estimate_ldp_slope(brownian_drift(1.0), cfg, 1.0,
                               [math.e ** 6, math.e ** 8, math.e ** 10])
        assert r.reference == pytest.approx(0.125, abs=1e-10)
        assert r.eps == pytest.approx(0.05)

    def test_needs_three_targets(self):
        # three distinct ones: a repeated target leaves no spread in log t
        # to fit a slope on
        cfg = SimConfig(seed=1, n_paths=8)
        for ts in ([10.0, 100.0], [100.0, 100.0, 100.0]):
            with pytest.raises(DomainError):
                estimate_ldp_slope(brownian_drift(1.0), cfg, 1.0, ts)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_eps_validation(self, eps):
        cfg = SimConfig(seed=1, n_paths=8)
        with pytest.raises(DomainError, match="eps"):
            estimate_ldp_slope(brownian_drift(1.0), cfg, 1.0,
                               [10.0, 100.0, 1000.0], eps=eps)


class TestLogA:
    def test_deterministic(self):
        model = cp_plus_drift(1.0, 0.0, 1.0)    # xi_s = s
        cfg = SimConfig(seed=4, n_paths=4, step=0.01)
        row = estimate_logA_rate(model, cfg, 30.0)
        assert row.estimate == pytest.approx(
            math.log(math.exp(30.0) - 1.0) / 30.0, rel=1e-12)
        assert row.reference == 1.0

    def test_long_linear_segment(self):
        # xi_s = s on one segment of length 1000: finite, not NaN
        cfg = SimConfig(seed=1, n_paths=4, step=0.01)
        row = estimate_logA_rate(cp_plus_drift(1.0, 0.0, 1.0), cfg, 1000.0)
        assert row.estimate == pytest.approx(1.0, rel=1e-15)
        assert row.stderr == 0.0

    def test_brownian(self):
        cfg = SimConfig(seed=3, n_paths=400, step=0.01)
        row = estimate_logA_rate(brownian_drift(1.0), cfg, 50.0)
        assert row.reference == 2.0
        assert abs(row.estimate - 2.0) <= 4.0 * row.stderr

    @pytest.mark.parametrize("t", [0.0, math.inf, math.nan])
    def test_t_validation(self, t):
        cfg = SimConfig(seed=1, n_paths=2)
        with pytest.raises(DomainError):
            estimate_logA_rate(brownian_drift(1.0), cfg, t)

    def test_sawtooth_differenced(self):
        # (log A(t2) - log A(t1))/(t2 - t1) is free of the O(1) constant
        cfg = SimConfig(seed=3, n_paths=500, step=0.01)
        r1 = estimate_logA_rate(saw_tooth(1.0, 3.0), cfg, 25.0)
        r2 = estimate_logA_rate(saw_tooth(1.0, 3.0), cfg, 50.0)
        diff = (r2.estimate * 50.0 - r1.estimate * 25.0) / 25.0
        se = math.hypot(r1.stderr * 25.0, r2.stderr * 50.0) / 25.0
        assert abs(diff - 2.0 / 3.0) <= 4.0 * se


class TestFirstPassage:
    def test_theta_zero(self):
        cfg = SimConfig(seed=2, n_paths=16)
        fp = first_passage_check(brownian_drift(1.0), cfg, 50.0, 0.0)
        assert (fp.lhs, fp.rhs, fp.abs_diff) == (0.0, 0.0, 0.0)

    def test_positive_theta_rejected(self):
        cfg = SimConfig(seed=2, n_paths=16)
        with pytest.raises(DomainError):
            first_passage_check(brownian_drift(1.0), cfg, 50.0, 0.3)

    @pytest.mark.parametrize("t", [1.0, 0.5, math.inf, math.nan])
    def test_t_validation(self, t):
        cfg = SimConfig(seed=2, n_paths=16)
        with pytest.raises(DomainError, match="t > 1"):
            first_passage_check(brownian_drift(1.0), cfg, t, -0.5)

    def test_family_guard(self):
        cfg = SimConfig(seed=2, n_paths=16)
        with pytest.raises(CapabilityError):
            first_passage_check(cp_plus_drift(1, 2, 1), cfg, 50.0, -0.5)

    def test_sawtooth_exact_crossing_matches_L(self):
        model = saw_tooth(1.0, 3.0)
        cfg = SimConfig(seed=7, n_paths=4000, step=0.01)
        fp = first_passage_check(model, cfg, 50.0, -0.5)
        assert fp.analytic == pytest.approx(invert_L(model, -0.5), rel=1e-12)
        assert abs(fp.rhs - fp.analytic) <= 4.0 * fp.rhs_stderr

    def test_brownian_bridge_crossing_matches_L(self):
        cfg = SimConfig(seed=7, n_paths=4000, step=5e-4)
        fp = first_passage_check(brownian_drift(1.0), cfg, 50.0, -1.0)
        assert abs(fp.rhs - fp.analytic) <= 4.0 * fp.rhs_stderr + 2e-3

    def test_lhs_converges_loosely(self):
        # (1/log t) log E exp(theta tau(t)) approaches L(theta) at rate
        # O(1/log t): only a loose check is meaningful at desk scale
        model = saw_tooth(1.0, 3.0)
        cfg = SimConfig(seed=11, n_paths=2000, step=0.01)
        fp = first_passage_check(model, cfg, 2000.0, -0.5)
        assert abs(fp.lhs - fp.analytic) <= 0.1


class TestTiltedIdentity:
    def test_m_zero_trivial(self):
        cfg = SimConfig(seed=2, n_paths=8)
        r = tilted_identity_check(brownian_drift(1.0), 0.0, 2.0, cfg)
        assert (r.lhs, r.rhs, r.z_score) == (1.0, 1.0, 0.0)

    def test_brownian(self):
        cfg = SimConfig(seed=13, n_paths=20000, step=0.002)
        r = tilted_identity_check(brownian_drift(1.0), 1.0, 2.0, cfg)
        assert abs(r.z_score) <= 4.0

    def test_sawtooth(self):
        cfg = SimConfig(seed=13, n_paths=20000, step=0.01)
        r = tilted_identity_check(saw_tooth(1.0, 3.0), 0.5, 2.0, cfg)
        assert abs(r.z_score) <= 4.0

    def test_m_domain(self):
        cfg = SimConfig(seed=2, n_paths=8)
        with pytest.raises(DomainError):
            tilted_identity_check(brownian_drift(1.0), -0.7, 2.0, cfg)

    def test_index_other_than_one(self):
        cfg = SimConfig(seed=2, n_paths=8, alpha=2.0)
        with pytest.raises(DomainError, match="stated for clocks of index 1"):
            tilted_identity_check(brownian_drift(1.0), 0.5, 2.0, cfg)

    def test_weight_overflow(self):
        cfg = SimConfig(seed=2, n_paths=8)
        with pytest.raises(RescalingError,
                           match="exponential weight overflows"):
            tilted_identity_check(brownian_drift(1.0), 10.0, 1e30, cfg)
