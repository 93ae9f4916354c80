"""Perpetuity moments: finiteness region, recursion, F(m), Monte Carlo."""

import math

import mpmath as mp
import numpy as np
import pytest

import oracles

from levyclocks import (
    AssumptionError,
    CapabilityError,
    DomainError,
    Finiteness,
    F_of_m,
    SimConfig,
    brownian_drift,
    cp_minus_drift,
    cp_plus_drift,
    csbp_immigration,
    hypergeometric_stable,
    log_gamma,
    mc_exp_functional,
    moment_finite,
    moment_recursion,
    profile,
    saw_tooth,
    stable_conditioned,
)
from levyclocks import moments
from levyclocks.cli import run


# The four sampled families, cp_plus at d = 0 and at beta = 0 included.
SAMPLED = [brownian_drift(1.0), saw_tooth(1.0, 3.0), saw_tooth(0.5, 0.7),
           cp_plus_drift(1.0, 2.0, 1.0), cp_plus_drift(0.3, 1.5, 2.0),
           cp_plus_drift(0.0, 2.0, 1.5), cp_plus_drift(1.0, 0.0, 1.0),
           cp_minus_drift(3.0, 2.5), cp_minus_drift(3.0, 1.5)]


def quad_moment(model, s: float) -> float:
    """E I^s for ``model``'s perpetuity, by mpmath quadrature of the law of
    I at the oracle's path law: 1/I ~ 2 Gamma(nu) (Brownian), 1/I ~
    Beta(gamma - beta, beta) (saw tooth, drift 1), d I ~ Beta(gamma + 1,
    beta/d) or beta I ~ Gamma(gamma + 1) (cp_plus, d > 0 or d = 0), and
    I ~ BetaPrime(gamma + 1, beta - gamma) (cp_minus, drift -1).  So
    E I^s = scale^power E X^power for X of law Gamma(a), Beta(a, b) or
    BetaPrime(a, b)."""
    law = oracles.ref_law(model)
    d, beta, gamma = (mp.mpf(v) for v in law[1:4])
    with mp.workdps(30):
        if law.kind == oracles.GAUSSIAN:
            scale, power, a, b, kind = mp.mpf(2), -s, d, None, "gamma"
        elif law.sign < 0.0:
            scale, power, a, b, kind = 1, -s, gamma - beta, beta, "beta"
        elif d > 0.0:
            scale, power, a, b, kind = 1 / d, s, gamma + 1, beta / d, "beta"
        elif d == 0.0:
            scale, power, a, b, kind = 1 / beta, s, gamma + 1, None, "gamma"
        else:
            scale, power, a, b, kind = 1, s, gamma + 1, beta - gamma, "prime"
        k = power + a           # x^power times the density: x^(k-1) h(x)
        if kind == "gamma":
            value = (_quad0(k, lambda x: mp.exp(-x), 1)
                     + mp.quad(lambda x: x ** (k - 1) * mp.exp(-x),
                               [1, mp.inf])) / mp.gamma(a)
        elif kind == "prime":   # the half above 1 in y = 1/x
            value = (_quad0(k, lambda x: (1 + x) ** (-a - b), 1)
                     + _quad0(a + b - k, lambda y: (1 + y) ** (-a - b), 1)
                     ) / mp.beta(a, b)
        else:                   # the half next to 1 in y = 1 - x
            value = (_quad0(k, lambda x: (1 - x) ** (b - 1), 0.5)
                     + _quad0(b, lambda y: (1 - y) ** (k - 1), 0.5)
                     ) / mp.beta(a, b)
        return float(scale ** power * value)


def exact_F(model, m: float):
    """F(m) of a saw_tooth, cp_plus (d > 0) or cp_minus model at tilt t,
    from its law tilted by m, the family's at t + m, at the exact t and m
    in 60 digits: 1/I ~ Beta(g - b, b), d I ~ Beta(g + 1, b/d), or
    I ~ Y/X with Y ~ Gamma(g + 1) and X ~ Gamma(b - g), with jump
    parameter g and rate b after the tilt, as E I^{-r} at r = 1 - m."""
    lg = mp.loggamma
    with mp.workdps(60):
        family, params = model.family.value, [mp.mpf(v) for v in model.params]
        m, t = mp.mpf(m), mp.mpf(model.tilt)
        r = 1 - m
        if family == "saw_tooth":
            beta, gamma = params
            g = gamma + t + m
            b = beta * gamma / g
            e = lg(g - b + r) - lg(g - b) + lg(g) - lg(g + r)
        elif family == "cp_plus_drift":
            d, beta, gamma = params
            g = gamma - t - m
            h = beta * gamma / g / d
            e = (r * mp.log(d) + lg(g + 1 + h) - lg(g + 1 - r + h)
                 + lg(g + 1 - r) - lg(g + 1))
        else:
            beta, gamma = params
            g = gamma - t - m
            a = beta * gamma / g - g
            e = lg(a + r) - lg(a) + lg(g + 1 - r) - lg(g + 1)
        return mp.exp(e)


def _quad0(k, h, c):
    """int_0^c x^(k-1) h(x) dx for k > 0, in u = x^k, where the integrand
    h(u^(1/k))/k is smooth at 0."""
    return mp.quad(lambda u: h(u ** (1 / k)), [0, mp.mpf(c) ** k]) / k


def gamma_law_inverse_moment(nu: float, r: float) -> float:
    """E I^{-r} for I = 1/(2 Z_nu): 2^r Gamma(nu+r)/Gamma(nu)."""
    return math.exp(r * math.log(2.0) + log_gamma(nu + r) - log_gamma(nu))


class TestFiniteness:
    def test_interval_minus_one_zero(self):
        for model in (brownian_drift(1.0), saw_tooth(1, 3),
                      cp_plus_drift(1, 2, 1)):
            for s in (-1.0, -0.5, 0.0):
                assert moment_finite(model, s) is Finiteness.FINITE
                assert bool(moment_finite(model, s))

    def test_positive_side_brownian(self):
        m = brownian_drift(1.0)
        # phi(-s) = 2s(s... at s=1: phi(-1) = 0, not < 0
        assert moment_finite(m, 1.0) is Finiteness.INFINITE
        assert moment_finite(m, 0.5) is Finiteness.FINITE
        assert moment_finite(m, 3.0) is Finiteness.INFINITE

    def test_positive_side_outside_domain(self):
        st = saw_tooth(1.0, 3.0)     # m_minus = -3; phi < 0 on (-2, 0)
        assert moment_finite(st, 1.5) is Finiteness.FINITE
        assert moment_finite(st, 2.0) is Finiteness.INFINITE
        assert moment_finite(st, 3.5) is Finiteness.INFINITE

    def test_deep_negative_recursion(self):
        assert moment_finite(brownian_drift(1.0), -3.0) is Finiteness.FINITE
        # cp_minus m_plus = gamma = 1: factors phi(r) blow at r >= 1
        assert moment_finite(cp_minus_drift(2.0, 1.0), -3.0) is \
            Finiteness.UNKNOWN

    def test_monotone_in_s(self):
        model = saw_tooth(1.0, 3.0)
        finite_until = None
        for s in np.linspace(0.05, 4.0, 80):
            ok = bool(moment_finite(model, float(s)))
            if not ok and finite_until is None:
                finite_until = s
            if finite_until is not None:
                assert not ok

    def test_drift_violation(self):
        bad = saw_tooth(1.0, 3.0).esscher(-2.5)
        with pytest.raises(AssumptionError):
            moment_finite(bad, -0.5)


class TestRecursion:
    def test_brownian_ratios(self):
        ledger = moment_recursion(brownian_drift(1.0), r_max=6)
        vals = [row.value for row in ledger.rows]
        for r in range(1, 6):
            assert vals[r] / vals[r - 1] == pytest.approx(2.0 * (r + 1.0),
                                                          rel=1e-14, abs=0.0)

    def test_brownian_matches_gamma_law(self):
        # hypergeometric (2, d) is Brownian with nu = d - 2 at speed 1/2, and
        # csbp (1, delta, c) is Brownian with nu = 2 delta - 1 at speed c/2:
        # psi = speed * 2m(m + nu), so E I^-r = speed^r E_nu I^-r.
        cases = [(brownian_drift(1.0), 1.0, 1.0),
                 (brownian_drift(2.5), 2.5, 1.0),
                 (hypergeometric_stable(2.0, 3.5), 1.5, 0.5),
                 (csbp_immigration(1.0, 0.75, 3.0), 0.5, 1.5)]
        for model, nu, speed in cases:
            ledger = moment_recursion(model, r_max=10)
            assert len(ledger.rows) == 11
            for row in ledger.rows:
                r = -row.s
                ref = speed ** r * gamma_law_inverse_moment(nu, r)
                assert row.value == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert ledger.rows[0].method == "exact"
            assert all(r.method == "recursion" for r in ledger.rows[1:])

    def test_truncation_at_domain_end(self):
        # gamma = 2.5: phi(r) finite for r in {1, 2} only -> rows for
        # s = -1, -2, -3 and a truncation note at r = ceil(gamma) - 1 = 2
        ledger = moment_recursion(cp_minus_drift(3.0, 2.5), r_max=8)
        assert [row.s for row in ledger.rows] == [-1.0, -2.0, -3.0]
        assert "truncated" in ledger.note

    def test_serialization(self, capsys):
        assert run(["moments", "--family", "brownian", "--nu", "1",
                    "--r-max", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "s,value,method,stderr,finite"
        assert lines[1].startswith("-1,2,exact,,true")


class TestFOfM:
    def test_exact_values(self):
        assert F_of_m(brownian_drift(1.0), 1.0) == pytest.approx(
            1.0, rel=1e-14, abs=0.0)
        assert F_of_m(brownian_drift(1.0), 2.0) == pytest.approx(
            0.125, rel=1e-12, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            F_of_m(brownian_drift(1.0), -0.6)   # below m0 = -1/2

    def test_mc_vs_exact_brownian(self):
        cfg = SimConfig(seed=33, n_paths=4000, step=0.005)
        exact = F_of_m(brownian_drift(1.0), 0.5)
        mc = mc_exp_functional(brownian_drift(1.0).esscher(0.5), -0.5, cfg)
        assert abs(mc.estimate - exact) <= 3.0 * mc.stderr + 1e-3

    def test_exact_for_cp_family(self):
        # F(1) = E^{(1)} I^0 = 1 for every family
        assert F_of_m(saw_tooth(1.0, 3.0), 1.0) == 1.0
        # and F(0) = E I^{-1} = psi'(0)
        for model in SAMPLED:
            assert F_of_m(model, 0.0) == pytest.approx(
                model.mean, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("model", [stable_conditioned(1.5, 1.0),
                                       csbp_immigration(0.5, 1.0, 1.0),
                                       hypergeometric_stable(1.0, 3.0)],
                             ids=lambda m: m.family.value)
    def test_gamma_ratio_families_refused(self, model):
        with pytest.raises(DomainError):
            F_of_m(model, model.m_plus)
        with pytest.raises(CapabilityError, match="no closed-form"):
            F_of_m(model, 0.25)

    @pytest.mark.parametrize("model", SAMPLED, ids=lambda m: m.describe())
    def test_gamma_product_matches_recursion(self, model):
        # E I^{-r} at r = 1 .. 5 under tilts spread over the domain
        lo, hi = max(model.m_minus, -4.0), min(model.m_plus, 4.0)
        for frac in (0.0, 0.15, 0.4, 0.6, 0.85):
            tilted = model.esscher(lo + frac * (hi - lo)) if frac else model
            if tilted.mean <= 0.0:
                continue
            for row in moment_recursion(tilted, 4).rows:
                exact = moments._inverse_moment(tilted._path_law, -row.s)
                assert exact == pytest.approx(row.value, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("model,ms", [
        (brownian_drift(1.0), (-0.2, 0.3, 1.7)),
        (brownian_drift(0.7).esscher(0.4), (-0.35, 0.45, 2.5)),
        (saw_tooth(1.0, 3.0), (-0.7, 0.5, 2.3)),
        (saw_tooth(0.5, 0.7).esscher(0.2), (-0.3, 0.6, 1.4)),
        (cp_plus_drift(1.0, 2.0, 1.0), (-1.5, 0.4, 0.9)),
        (cp_plus_drift(0.3, 1.5, 2.0).esscher(-0.5), (-0.8, 0.2, 2.1)),
        (cp_plus_drift(0.0, 2.0, 1.5), (-0.6, 0.3, 1.2)),
        (cp_minus_drift(3.0, 2.5), (-0.15, 0.3, 1.2)),
        (cp_minus_drift(3.0, 1.5).esscher(0.25), (-0.4, 0.35, 0.8)),
    ], ids=lambda v: v.describe() if hasattr(v, "describe") else "")
    def test_quadrature_of_the_law(self, model, ms):
        # F(m) = E^{(m)} I^{m-1} against the density of I under the tilted
        # law, at non-integer s = m - 1
        for m in ms:
            value = F_of_m(model, m)
            assert value == pytest.approx(
                quad_moment(model.esscher(m), m - 1.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model,ms", [
        (saw_tooth(1.0, 3.0), (1e3, 1e6, 1e8, 1e10, 1e17)),
        (cp_plus_drift(1.0, 2.0, 1.0), (-1e3, -1e6, -1e8, -1e10, -1e17)),
        (cp_minus_drift(3.0, 2.5), ()),
        (cp_minus_drift(2.0, 1.0), ()),
    ], ids=lambda v: v.describe() if hasattr(v, "describe") else "")
    def test_digits_at_large_m_and_near_the_ends(self, model, ms):
        # the Gamma product at the exact m, in 60 digits: m cancels from
        # the small arguments before rounding, so F keeps its digits where
        # the tilted law's arguments are huge
        m0, m_plus = profile(model).m0, model.m_plus
        if not ms:      # two m near each end of (m0, m_plus)
            ms = (m0 + 0.01 * (m_plus - m0), m0 + 0.1 * (m_plus - m0),
                  m_plus - 1e-3, m_plus - 1e-9)
        for m in ms:
            assert F_of_m(model, m) == pytest.approx(
                float(exact_F(model, m)), rel=1e-13, abs=0.0), m

    @pytest.mark.parametrize("model", [
        cp_minus_drift(3.0, 2.5), cp_minus_drift(2.0, 1.0),
        cp_minus_drift(3.0, 1.5).esscher(0.25)], ids=lambda v: v.describe())
    def test_digits_near_m0(self, model):
        # the Gamma argument beta_m/|d| - g vanishes at m0: formed from m
        # without cancelling, F keeps its digits however close m is
        m0, m_plus = profile(model).m0, model.m_plus
        for f in (1e-4, 1e-6, 1e-8):
            m = m0 + f * (m_plus - m0)
            assert F_of_m(model, m) == pytest.approx(
                float(exact_F(model, m)), rel=1e-12, abs=0.0), f


class TestMonteCarloMoments:
    def test_deterministic_path(self):
        # zeta_s = s: I = 1 exactly (up to the reported tail bound)
        model = cp_plus_drift(1.0, 0.0, 1.0)
        cfg = SimConfig(seed=2, n_paths=8)
        for s in (-1.0, -2.0, 0.5):
            mc = mc_exp_functional(model, s, cfg)
            assert mc.estimate == pytest.approx(1.0, abs=3.0 * mc.tail_bound
                                                + 1e-12)
            assert mc.stderr == pytest.approx(0.0, abs=1e-15)

    def test_brownian_inverse_moments(self):
        cfg = SimConfig(seed=17, n_paths=4000, step=0.005)
        mc1 = mc_exp_functional(brownian_drift(1.0), -1.0, cfg)
        assert abs(mc1.estimate - 2.0) <= 3.0 * mc1.stderr + mc1.tail_bound
        mc2 = mc_exp_functional(brownian_drift(1.0), -2.0, cfg)
        assert abs(mc2.estimate - 8.0) <= 3.0 * mc2.stderr + mc2.tail_bound

    def test_refusal(self):
        cfg = SimConfig(seed=1, n_paths=8)
        with pytest.raises(DomainError, match="infinite"):
            mc_exp_functional(brownian_drift(1.0), 2.0, cfg)
        with pytest.raises(DomainError, match="unknown"):
            mc_exp_functional(cp_minus_drift(2.0, 1.0), -3.0, cfg)
        # A finite moment, but the family has no path sampler.
        with pytest.raises(CapabilityError):
            mc_exp_functional(stable_conditioned(1.5, 1.0), -1.0, cfg)

    def test_recursion_consistency_across_families(self):
        # mc(-1) * phi(1)/1 == mc(-2) within pooled errors
        cfg = SimConfig(seed=29, n_paths=3000, step=0.005)
        for model in (brownian_drift(1.0), cp_plus_drift(1.0, 2.0, 3.0),
                      cp_minus_drift(3.0, 1.5), saw_tooth(1.0, 3.0)):
            mc1 = mc_exp_functional(model, -1.0, cfg)
            mc2 = mc_exp_functional(model, -2.0, cfg)
            phi1 = model.psi(1.0)
            lhs = mc1.estimate * phi1
            pooled = math.hypot(mc1.stderr * phi1, mc2.stderr)
            assert abs(lhs - mc2.estimate) <= 3.5 * pooled + 1e-6

    def test_tail_bound_magnitude(self):
        mc = mc_exp_functional(brownian_drift(1.0), -1.0,
                               SimConfig(seed=3, n_paths=16))
        assert mc.horizon == 20.0
        assert mc.tail_bound == pytest.approx(
            math.exp(-20.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model,ss,cdf", [
        # 1/I ~ Beta(2, 1) and I ~ Beta(2, 2): the CDFs of I
        (saw_tooth(1.0, 3.0), (0.5, -0.5, -1.7),
         lambda i: 1.0 - np.clip(1.0 / i, 0.0, 1.0) ** 2),
        (cp_plus_drift(1.0, 2.0, 1.0), (0.5, -0.3, -0.8),
         lambda i: (lambda x: x * x * (3.0 - 2.0 * x))(np.clip(i, 0.0, 1.0))),
        (cp_minus_drift(3.0, 1.5), (0.5, -0.3, -0.6), None),
    ], ids=lambda v: v.describe() if hasattr(v, "describe") else "")
    def test_jump_sampler_has_the_law_of_I(self, model, ss, cdf):
        # At T = 150 the missing tail of I has mean e^{T psi(-1)} E I (the
        # Gamma product at s = 1), below 1e-6 of an SE of every I^s.  At
        # each s, twice the variance is finite too.
        from levyclocks.estimators import _mean_se, ks_statistic
        from levyclocks.paths import run_paths
        n, horizon = 4000, 150.0
        law = model._path_law
        i = run_paths(model, SimConfig(seed=11, n_paths=n), horizon,
                      lambda block: block.totals(-1.0))
        tail = math.exp(horizon * model.psi(-1.0)) * moments._inverse_moment(
            law, -1.0)
        for s in ss:
            assert moment_finite(model, 2.0 * s) is Finiteness.FINITE
            est, se = _mean_se(i ** s)
            assert tail < 1e-6 * se
            exact = moments._inverse_moment(law, -s)
            assert abs(est - exact) <= 3.0 * se
        if cdf is not None:     # the 1 % critical value
            assert ks_statistic(i, cdf) <= 1.63 / math.sqrt(n)

    @pytest.mark.xfail(strict=True, reason="truncation_horizon's T = max(20, "
                       "10/psi'(0)) = 50 cuts I short where psi'(0) = 0.2: "
                       "z = +3.46 against the exact moment")
    def test_default_horizon_bias_cp_minus(self):
        model = cp_minus_drift(3.0, 2.5)
        # E I^{-1/2} = Gamma(1/2 + beta - gamma) Gamma(gamma + 1/2)
        #              / (Gamma(beta - gamma) Gamma(gamma + 1)) = 0.3395305
        exact = math.gamma(3.0) / (math.gamma(0.5) * math.gamma(3.5))
        mc = mc_exp_functional(model, -0.5, SimConfig(seed=11, n_paths=20000))
        assert abs(mc.estimate - exact) <= 3.0 * mc.stderr
