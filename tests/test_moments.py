"""Perpetuity moments: finiteness region, recursion, F(m), Monte Carlo."""

import math

import numpy as np
import pytest

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
    saw_tooth,
    stable_conditioned,
)
from levyclocks.cli import run


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
                                                          rel=1e-14)

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
                assert row.value == pytest.approx(ref, rel=1e-12)
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
        cfg = SimConfig(seed=1, n_paths=10)
        v, method, se = F_of_m(brownian_drift(1.0), 1.0, cfg)
        assert (v, method, se) == (pytest.approx(1.0, rel=1e-14), "exact", None)
        v, _, _ = F_of_m(brownian_drift(1.0), 2.0, cfg)
        assert v == pytest.approx(0.125, rel=1e-12)

    def test_domain(self):
        cfg = SimConfig(seed=1, n_paths=10)
        with pytest.raises(DomainError):
            F_of_m(brownian_drift(1.0), -0.6, cfg)   # below m0 = -1/2

    def test_mc_vs_exact_brownian(self):
        cfg = SimConfig(seed=33, n_paths=4000, step=0.005)
        exact, _, _ = F_of_m(brownian_drift(1.0), 0.5, cfg)
        mc = mc_exp_functional(brownian_drift(1.0).esscher(0.5), -0.5, cfg)
        assert abs(mc.estimate - exact) <= 3.0 * mc.stderr + 1e-3

    def test_mc_for_cp_family(self):
        cfg = SimConfig(seed=5, n_paths=2000)
        est, method, se = F_of_m(saw_tooth(1.0, 3.0), 1.0, cfg)
        # F(1) = E^{(1)} I^0 = 1 for every family
        assert method == "monte-carlo"
        assert est == pytest.approx(1.0, abs=1e-12)


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
        assert mc.tail_bound == pytest.approx(math.exp(-20.0), rel=1e-12)
