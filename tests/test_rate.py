"""Rate engine: profiles, rate function, duality, inversion, boundaries."""

import math

import numpy as np
import pytest

from levyclocks import (
    AssumptionError,
    DomainError,
    LevyClocksError,
    brownian_drift,
    cp_minus_drift,
    cp_plus_drift,
    csbp_immigration,
    hypergeometric_stable,
    invert_L,
    legendre_dual,
    log_gamma,
    profile,
    rate_I,
    rate_curve,
    saw_tooth,
    stable_conditioned,
)
from levyclocks.cli import run
from levyclocks.models import LevyModel
from oracles import (
    concave_sup,
    rate_brownian,
    rate_cp_minus,
    rate_cp_plus,
    rate_saw_tooth,
)

MODELS = [
    brownian_drift(1.0),
    cp_plus_drift(1.0, 2.0, 1.0),
    cp_minus_drift(2.0, 1.0),
    saw_tooth(1.0, 3.0),
    stable_conditioned(1.5, 1.0),
    csbp_immigration(0.5, 0.6, 1.0),
    hypergeometric_stable(1.0, 3.0),
]


def delta_grid(prof, n, frac_lo=0.05, frac_hi=0.95, cap=8.0):
    hi_edge = prof.tau_zero if math.isfinite(prof.tau_zero) else cap * prof.tau_e
    lo = prof.tau_plus + frac_lo * (hi_edge - prof.tau_plus)
    hi = prof.tau_plus + frac_hi * (hi_edge - prof.tau_plus)
    return np.linspace(lo, hi, n)


class TestProfile:
    def test_sawtooth(self):
        p = profile(saw_tooth(1.0, 3.0))
        assert p.m0 == pytest.approx(-3.0 + math.sqrt(3.0), abs=1e-10)
        assert p.psi_m0 == pytest.approx(-(math.sqrt(3) - 1.0) ** 2, abs=1e-10)
        assert p.tau_plus == pytest.approx(1.0, abs=1e-12)
        assert math.isinf(p.tau_zero)
        assert p.tau_e == pytest.approx(1.5, rel=1e-12)

    def test_hypergeometric_cauchy(self):
        p = profile(hypergeometric_stable(1, 3))
        assert p.m0 == pytest.approx(-1.0, abs=1e-10)
        assert p.psi_m0 == pytest.approx(-2.0 / math.pi, abs=1e-10)
        assert p.tau_plus == 0.0
        assert math.isinf(p.tau_zero)

    def test_cp_plus(self):
        p = profile(cp_plus_drift(1.0, 2.0, 1.0))
        assert p.tau_plus == 0.0
        assert p.tau_zero == pytest.approx(1.0, abs=1e-12)
        assert p.tau_e == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_brownian_critical_point(self):
        # psi(m0) = -nu^2/2 (the consistent value; asymptote slope nu^2/2
        # and the transform domain theta < nu^2/2 both pin it down)
        p = profile(brownian_drift(1.0))
        assert p.m0 == pytest.approx(-0.5, abs=1e-12)
        assert p.psi_m0 == pytest.approx(-0.5, abs=1e-12)
        assert p.tau_e == pytest.approx(0.5, rel=1e-14)

    def test_ordering_invariant(self):
        for model in MODELS:
            p = profile(model)
            assert p.tau_plus < p.tau_e < p.tau_zero
            assert p.tau_e == pytest.approx(1.0 / p.mean, rel=1e-14)

    def test_drift_violation(self):
        bad = saw_tooth(1.0, 3.0).esscher(-2.5)   # below m0
        with pytest.raises(AssumptionError):
            profile(bad)

    def test_stable_digamma_criticality(self):
        from levyclocks import digamma
        for alpha in (1.2, 1.5, 1.9):
            p = profile(stable_conditioned(alpha, 1.0))
            assert -1.0 < p.m0 < 0.0
            assert abs(digamma(p.m0 + alpha) - digamma(p.m0)) <= 1e-9
            assert p.tau_e == pytest.approx(
                1.0 / math.exp(log_gamma(alpha)), rel=1e-10)

    def test_hypergeometric_critical_closed_form(self):
        for alpha, d in ((1.0, 3.0), (1.3, 3.7), (0.8, 2.5)):
            p = profile(hypergeometric_stable(alpha, d))
            assert p.m0 == pytest.approx((alpha - d) / 2.0, abs=1e-9)
            ref = -2.0 ** alpha * math.exp(
                2.0 * (log_gamma((d + alpha) / 4.0)
                       - log_gamma((d - alpha) / 4.0)))
            assert p.psi_m0 == pytest.approx(ref, abs=1e-9)

    def test_cp_plus_scaling_law(self):
        # psi_{d,beta,gamma}(m) = d psi_{1,beta/d,gamma}(m): the profile
        # scales as tau -> tau/d.
        p1 = profile(cp_plus_drift(1.0, 1.25, 1.0))
        p2 = profile(cp_plus_drift(2.5, 2.5 * 1.25, 1.0))
        assert p2.tau_zero == pytest.approx(p1.tau_zero / 2.5, rel=1e-10)
        assert p2.tau_e == pytest.approx(p1.tau_e / 2.5, rel=1e-10)

    @pytest.mark.xfail(strict=True, reason=(
        "models._gamma_ratio's reflected regime (z < 1/2) forms a = z + h, "
        "which rounds to z when the shift h = kappa is far below z = -m "
        "<< 1: psi'(-1e-26) reads -1.0 against 99.0, and profile returns "
        "m0 = -6.75e-34, where psi'(m0) reads -0.9999999999999937"))
    def test_csbp_critical_point_at_a_tiny_kappa(self):
        # psi(m) = (lin - m) Gamma(kappa - m)/Gamma(-m) ~ m (1 + m)/(kappa - m)
        # near 0 at delta = c = 1, so psi'(m0) = 0 at
        # m0 = kappa - sqrt(kappa^2 + kappa) = -1.0e-25; bisection on psi'
        # in mpmath at 150 digits gives the same root
        p = profile(csbp_immigration(1e-50, 1.0, 1.0))
        assert p.m0 == pytest.approx(-1.0e-25, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("model", [
        brownian_drift(1.0), cp_plus_drift(1.0, 2.0, 1.0),
        cp_minus_drift(3.0, 2.5), saw_tooth(1.0, 3.0),
        stable_conditioned(1.5, 1.0), csbp_immigration(0.5, 1.0, 1.0),
        hypergeometric_stable(1.0, 3.0),
        # the degenerate cases each family decides on its own
        cp_plus_drift(1.0, 0.0, 1.0), csbp_immigration(1.0, 1.0, 1.0),
        hypergeometric_stable(2.0, 3.0)], ids=lambda m: m.describe())
    def test_ldp_status(self, model):
        # full wherever Delta = (0, inf); cp_plus (tau_zero finite) and saw
        # tooth (tau_plus > 0) are full by their path bounds
        p = profile(model)
        shape_full = p.tau_plus == 0.0 and math.isinf(p.tau_zero)
        assert shape_full == (model.family.value not in ("cp_plus_drift",
                                                         "saw_tooth"))
        assert p.ldp_status == "full"


class TestClassification:
    def test_labels(self):
        expected = {
            "brownian_drift": ("3a", "4c"),
            "cp_plus_drift": ("3b", "4a"),
            "cp_minus_drift": ("3a", "4a"),
            "saw_tooth": ("3a", "4b"),
            "stable_conditioned": ("3a", "4c"),
            "csbp_immigration": ("3a", "4a"),
            "hypergeometric_stable": ("3a", "4a"),
        }
        cases = [(model, expected[model.family.value]) for model in MODELS]
        # psi' of the stable family grows like m^(alpha - 1): slowly when
        # alpha is near 1, and past the digits of the Gamma ratio at large m.
        cases += [(stable_conditioned(1.6519329863798742, 3.6843607293640126),
                   ("3a", "4c")),
                  (stable_conditioned(1.02, 1.0), ("3a", "4c"))]
        # kappa = 1 and alpha = 2 are Brownian motion with drift: psi is a
        # polynomial on the whole line.
        cases += [(csbp_immigration(1.0, 0.7, 1.0), ("3a", "4c")),
                  (hypergeometric_stable(2.0, 3.0), ("3a", "4c"))]
        for model, labels in cases:
            p = profile(model)
            assert (p.zero.case_label, p.plus.case_label) == labels

    def test_asymptotes(self):
        nu = 1.0
        p = profile(brownian_drift(nu))
        assert p.zero.asymptote[0] == pytest.approx(nu * nu / 2.0, abs=1e-10)
        assert p.zero.asymptote[1] == pytest.approx(-nu / 2.0, abs=1e-10)
        beta, gamma = 1.0, 3.0
        p = profile(saw_tooth(beta, gamma))
        assert p.zero.asymptote[0] == pytest.approx(
            (math.sqrt(gamma) - math.sqrt(beta)) ** 2, abs=1e-10)
        assert p.zero.asymptote[1] == pytest.approx(
            math.sqrt(beta * gamma) - gamma, abs=1e-10)
        p = profile(cp_minus_drift(2.0, 1.0))
        assert p.zero.asymptote[0] == pytest.approx(
            (math.sqrt(2.0) - 1.0) ** 2, abs=1e-10)
        assert p.zero.asymptote[1] == pytest.approx(1.0 - math.sqrt(2.0),
                                                    abs=1e-10)

    def test_boundary_values(self):
        # 4b: I(tau_plus) = b tau_plus with b = beta for the saw tooth, and
        # b = beta - tilt + Psi(tilt) = 3/4 once tilted by 1 (tau_plus = 1).
        plus_rep = profile(saw_tooth(1.0, 3.0)).plus
        assert plus_rep.value_I == 1.0
        assert profile(saw_tooth(1.0, 3.0)).plus.b == 1.0
        plus_rep = profile(saw_tooth(1.0, 3.0).esscher(1.0)).plus
        assert plus_rep.value_I == 0.75
        # 3b: I(tau_zero) = b tau_zero = beta/d for cp_plus; tilted by 1/2,
        # b = beta - tilt d + Psi(tilt) = 2 - 1/2 + 5/2 (tau_zero = 1).
        p = profile(cp_plus_drift(1.0, 2.0, 1.0))
        zero_rep, plus_rep = p.zero, p.plus
        assert zero_rep.value_I == 2.0
        assert profile(cp_plus_drift(1.0, 2.0, 1.0)).zero.b == 2.0
        assert plus_rep.value_I == 1.0   # I(0) = m_plus = gamma
        assert math.isinf(plus_rep.slope_I)
        zero_rep = profile(cp_plus_drift(1.0, 2.0, 1.0).esscher(0.5)).zero
        assert zero_rep.value_I == 4.0

    def test_cp_plus_degenerate_drift_is_3c(self):
        p = profile(cp_plus_drift(0.0, 2.0, 1.0))
        zero_rep, plus_rep = p.zero, p.plus
        assert zero_rep.case_label == "3c"
        assert zero_rep.slope_I == 2.0                    # -psi(-inf) = beta
        assert plus_rep.case_label == "4a"


class TestRateFunction:
    def test_zero_at_tau_e(self):
        for model in MODELS:
            p = profile(model)
            assert rate_I(model, p.tau_e, p) == 0.0

    def test_known_values(self):
        m = brownian_drift(1.0)
        assert rate_I(m, 0.5) == 0.0
        assert rate_I(m, 1.0) == pytest.approx(0.125, abs=1e-10)
        s = saw_tooth(1.0, 3.0)
        assert rate_I(s, 2.0) == pytest.approx(
            (math.sqrt(3.0) - math.sqrt(2.0)) ** 2, abs=1e-10)

    def test_outside_closure(self):
        p = profile(saw_tooth(1.0, 3.0))
        with pytest.raises(DomainError):
            rate_I(saw_tooth(1.0, 3.0), 0.5, p)
        with pytest.raises(DomainError):
            rate_I(cp_plus_drift(1, 2, 1), 1.5)

    def test_boundary_values_through_rate_I(self):
        assert rate_I(cp_plus_drift(1, 2, 1), 0.0) == 1.0        # 4a: m_plus
        assert rate_I(cp_plus_drift(1, 2, 1), 1.0) == 2.0        # 3b: b tau0
        assert rate_I(cp_plus_drift(1, 2, 1).esscher(0.5), 1.0) == 4.0
        assert math.isinf(rate_I(brownian_drift(1.0), 0.0))       # 4c
        assert rate_I(brownian_drift(1.0), math.inf) == math.inf  # 3a
        assert rate_I(saw_tooth(1, 3), 1.0) == 1.0                # 4b
        assert rate_I(saw_tooth(1, 3).esscher(1.0), 1.0) == 0.75

    def test_closed_forms(self):
        cases = [
            (brownian_drift(1.0), lambda x: rate_brownian(1.0, x), 0.05, 3.0),
            (cp_plus_drift(1, 2, 1), lambda x: rate_cp_plus(1, 2, 1, x),
             0.01, 0.99),
            (cp_minus_drift(2, 1), lambda x: rate_cp_minus(2, 1, x),
             0.05, 5.0),
            (saw_tooth(1, 3), lambda x: rate_saw_tooth(1, 3, x),
             1.000001, 6.0),
        ]
        for model, ref, lo, hi in cases:
            p = profile(model)
            for x in np.linspace(lo, hi, 60):
                x = float(x)
                assert abs(rate_I(model, x, p) - ref(x)) <= 1e-8

    def test_slope_matches_closed_form_derivative(self):
        # I' = -psi(m*) against a five-point derivative of the closed
        # forms, with a step well inside the distance to the ends of Delta.
        cases = [
            (brownian_drift(1.0), lambda x: rate_brownian(1.0, x), 0.05, 3.0),
            (cp_plus_drift(1, 2, 1), lambda x: rate_cp_plus(1, 2, 1, x),
             0.01, 0.99),
            (saw_tooth(1, 3), lambda x: rate_saw_tooth(1, 3, x), 1.01, 6.0),
        ]
        for model, ref, lo, hi in cases:
            p = profile(model)
            edge = min(p.tau_zero, 2.0 * hi)
            rows = rate_curve(model, lo, hi, 60, p)
            for x, _, slope in rows:
                h = 1e-4 * min(x - p.tau_plus, edge - x)
                deriv = (8.0 * (ref(x + h) - ref(x - h))
                         - (ref(x + 2 * h) - ref(x - 2 * h))) / (12.0 * h)
                assert abs(slope - deriv) <= 1e-7

    def test_shape(self):
        for model in MODELS:
            p = profile(model)
            xs = delta_grid(p, 80)
            vals = np.array([rate_I(model, float(x), p) for x in xs])
            assert np.all(vals >= 0.0)
            below = xs < p.tau_e
            above = xs > p.tau_e
            assert np.all(np.diff(vals[below]) <= 1e-12)
            assert np.all(np.diff(vals[above]) >= -1e-12)
            mid = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(vals[1:-1] <= mid + 1e-10)


class TestDuality:
    def test_legendre_known_values(self):
        m = brownian_drift(1.0)
        assert legendre_dual(m, 2.0) == pytest.approx(0.0, abs=1e-12)
        assert legendre_dual(m, 4.0) == pytest.approx(0.5, abs=1e-10)
        assert legendre_dual(m, 1.0) == pytest.approx(0.125, abs=1e-10)

    def test_legendre_edges(self):
        # At an affine end psi*(l) = -lim (psi(m) - m l).
        cp = cp_plus_drift(1.0, 2.0, 1.0)
        assert math.isinf(legendre_dual(cp, 0.5))
        assert legendre_dual(cp, 1.0) == 2.0
        assert legendre_dual(cp.esscher(0.5), 1.0) == 4.0
        # Lower end of cp_minus: psi'(-inf) = -1 and the gap is -beta, or
        # -beta - tilt - Psi(tilt) = -2 - 1/2 - 3/2 once tilted by 1/2.
        cm = cp_minus_drift(2.0, 1.0)
        assert legendre_dual(cm, -1.0) == 2.0
        assert legendre_dual(cm.esscher(0.5), -1.0) == 4.0
        assert legendre_dual(cm, -1.5) == math.inf
        # Upper end: psi'(+inf) = 1 for the saw tooth.
        st = saw_tooth(1, 3)
        assert legendre_dual(st, 1.0) == 1.0
        assert legendre_dual(st.esscher(1.0), 1.0) == 0.75
        assert legendre_dual(st, 1.5) == math.inf

    @pytest.mark.parametrize("make", [
        lambda: brownian_drift(1.0), lambda: saw_tooth(1.0, 3.0),
        lambda: stable_conditioned(1.5, 1.0),
        lambda: hypergeometric_stable(1.0, 3.0).esscher(0.5)],
        ids=["brownian", "saw_tooth", "stable", "hypergeometric_tilted"])
    def test_legendre_refuses_nan_and_diverges_at_infinity(self, make):
        model = make()
        with pytest.raises(DomainError, match="nan"):
            legendre_dual(model, math.nan)
        # refused before the exponent is evaluated anywhere
        assert "tilt_triple" not in vars(model)
        assert "base_triple" not in vars(model)
        assert legendre_dual(model, math.inf) == math.inf
        assert legendre_dual(model, -math.inf) == math.inf

    def test_pair_identity(self):
        for model in MODELS:
            p = profile(model)
            for x in delta_grid(p, 100):
                x = float(x)
                gap = rate_I(model, x, p) - x * legendre_dual(model, 1.0 / x)
                assert abs(gap) <= 1e-8

    def test_pair_identity_slow_stable(self):
        # alpha near 1: psi' grows like m^0.038, so m* is 6.5e9 at x = 6.48
        # and grows past 1e100 toward the low end of the grid.
        model = stable_conditioned(1.038, 0.063)
        p = profile(model)
        for x in np.geomspace(0.5, 8.0 * p.tau_e, 80):
            x = float(x)
            i_val = rate_I(model, x, p)
            gap = i_val - x * legendre_dual(model, 1.0 / x)
            assert abs(gap) <= 1e-10 * max(1.0, abs(i_val))

    def test_pair_identity_small_kappa_csbp(self):
        # psi' -> -inf at m_minus, but so slowly (like |m|^kappa) that the
        # closed form loses its digits first: past |m| ~ 2^43 the digamma
        # difference cancels and psi' turns back toward -481.
        model = csbp_immigration(0.002638219114365903, 0.0029063891053899595,
                                 480.88351958308783)
        p = profile(model)
        for x in (0.005, 0.00797, 0.02, 0.1):
            i_val = rate_I(model, x, p)
            gap = i_val - x * legendre_dual(model, 1.0 / x)
            assert abs(gap) <= 1e-10 * max(1.0, abs(i_val))

    def test_gartner_ellis_consistency(self):
        for model in MODELS:
            p = profile(model)
            theta_hi = -p.psi_m0
            for x in delta_grid(p, 12):
                x = float(x)
                sup, _, _ = concave_sup(
                    lambda th: x * th - invert_L(model, th, p),
                    -math.inf, theta_hi)
                assert abs(rate_I(model, x, p) - sup) <= 1e-6


    def test_maximiser_past_psi_overflow(self):
        # psi'(m*) = 1/x at m* ~ 4.4e219, where psi' is finite but psi has
        # overflowed: I and psi* read +inf, not max(m* - x inf, 0) = 0.
        model = stable_conditioned(1.5, 1.0)
        x = 1e-110
        m_star = (1.0 / (1.5 * x)) ** 2
        assert math.isfinite(model.psi_derivs(m_star)[0])
        assert model.psi(m_star) == math.inf
        assert rate_I(model, x) == math.inf
        assert legendre_dual(model, 1.0 / x) == math.inf
        assert rate_curve(model, x, 2.0 * x, 2)[0][1:] == (math.inf, -math.inf)


class TestInvertL:
    def test_zero(self):
        for model in MODELS:
            assert invert_L(model, 0.0) == 0.0

    def test_round_trip(self):
        for model in MODELS:
            p = profile(model)
            lo = p.m0 if math.isfinite(p.m0) else -6.0
            hi = model.m_plus if math.isfinite(model.m_plus) else 6.0
            for m in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 17):
                m = float(m)
                if m == 0.0:
                    continue
                theta = -model.psi(m)
                assert invert_L(model, theta, p) == pytest.approx(
                    -m, abs=1e-9 * max(1.0, abs(m)))

    def test_strictly_increasing(self):
        for model in MODELS:
            p = profile(model)
            theta_hi = -p.psi_m0
            hi = theta_hi - 0.05 * (abs(theta_hi) + 1.0) \
                if math.isfinite(theta_hi) else 5.0
            thetas = np.linspace(-10.0, hi, 25)
            vals = [invert_L(model, float(t), p) for t in thetas]
            assert np.all(np.diff(vals) > 0.0)

    def test_brownian_explicit(self):
        m = brownian_drift(1.0)
        assert invert_L(m, -4.0) == pytest.approx(-1.0, abs=1e-10)
        # true closed form L(theta) = (nu - sqrt(nu^2 - 2 theta))/2
        for theta in (-3.0, -1.0, -0.25, 0.2, 0.4):
            ref = (1.0 - math.sqrt(1.0 - 2.0 * theta)) / 2.0
            assert invert_L(m, theta) == pytest.approx(ref, abs=1e-10)

    def test_cauchy_limit(self):
        h = hypergeometric_stable(1, 3)
        theta0 = 2.0 / math.pi
        val = invert_L(h, theta0 - 1e-7)
        assert 0.99 < val < 1.0
        with pytest.raises(DomainError):
            invert_L(h, theta0)
        with pytest.raises(DomainError):
            invert_L(h, theta0 + 0.1)


class TestRateCurve:
    def test_matches_rate_I_and_envelope(self):
        model = brownian_drift(1.0)
        p = profile(model)
        rows = rate_curve(model, 0.1, 3.0, 30, p)
        assert len(rows) == 30
        xs = [r[0] for r in rows]
        assert xs == sorted(xs)
        h = 1e-6
        for x, val, slope in rows[1:-1]:
            assert val == rate_I(model, x, p)
            num = (rate_I(model, x + h, p) - rate_I(model, x - h, p)) / (2 * h)
            assert slope == pytest.approx(num, abs=5e-5)

    def test_boundary_rows(self):
        rows = rate_curve(saw_tooth(1, 3), 1.0, 6.0, 11)
        assert rows[0] == (1.0, 1.0, -math.inf)
        rows = rate_curve(saw_tooth(1, 3).esscher(1.0), 1.0, 6.0, 11)
        assert rows[0] == (1.0, 0.75, -math.inf)
        rows = rate_curve(cp_plus_drift(1, 2, 1), 0.0, 1.0, 3)   # 4a .. 3b
        assert rows[0] == (0.0, 1.0, math.inf)
        assert rows[-1] == (1.0, 2.0, math.inf)
        rows = rate_curve(cp_plus_drift(1, 2, 1).esscher(0.5), 0.0, 1.0, 3)
        assert rows[-1] == (1.0, 4.0, math.inf)
        rows = rate_curve(brownian_drift(1.0), 0.0, 1.0, 3)      # 4c
        assert rows[0] == (0.0, math.inf, -math.inf)

    @pytest.mark.parametrize("x_lo", [0.01, 0.2])
    def test_last_row_is_x_hi(self, x_lo):
        # x_lo + (x_hi - x_lo) * i / (n - 1) misses x_hi by an ulp at i =
        # n - 1 for many n: 0.9999999999999999 at (0.01, 4), and
        # 1.0000000000000002, outside Delta, at (0.2, 4)
        model = cp_plus_drift(1, 2, 1)
        prof = profile(model)
        for n in range(2, 200):
            rows = rate_curve(model, x_lo, 1.0, n, prof)
            assert rows[-1] == (1.0, 2.0, math.inf), n   # the 3b end row
            assert max(x for x, _, _ in rows) == 1.0
            assert [x for x, _, _ in rows[:-1]] == [
                x_lo + (1.0 - x_lo) * i / (n - 1) for i in range(n - 1)]

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            rate_curve(saw_tooth(1, 3), 0.5, 6.0, 10)
        with pytest.raises(DomainError):
            rate_curve(saw_tooth(1, 3), 1.0, 6.0, 1)
        # tau_zero = inf for Brownian: inf is in the closure of Delta but
        # cannot be a grid end (inf * 0 would give a NaN grid point).
        with pytest.raises(DomainError, match="finite"):
            rate_curve(brownian_drift(1.0), 0.5, math.inf, 3)

    @pytest.mark.parametrize("make,params", [
        (cp_plus_drift, lambda v: (1.0, 2.0, v)),
        (cp_plus_drift, lambda v: (1.0, v, v)),
        (cp_plus_drift, lambda v: (0.0, 2.0, v)),
        (cp_minus_drift, lambda v: (2.0, v)),
        (cp_minus_drift, lambda v: (2.0 * v, v)),
        (cp_minus_drift, lambda v: (1.0, v)),
        (saw_tooth, lambda v: (v, 3.0)),
        (saw_tooth, lambda v: (v, 2.0 * v)),
        (saw_tooth, lambda v: (v, 1.0)),
        (csbp_immigration, lambda v: (v, 1.0, 1.0)),
        (csbp_immigration, lambda v: (v, 2.0 * v, 1.0)),
        (hypergeometric_stable, lambda v: (v, 3.0)),
        (hypergeometric_stable, lambda v: (v, 2.0 * v)),
    ], ids=["cp_plus_gamma", "cp_plus_beta_gamma", "cp_plus_d0_gamma",
            "cp_minus_beta2_gamma", "cp_minus_beta_gamma",
            "cp_minus_beta1_gamma", "saw_tooth_beta_gamma3",
            "saw_tooth_beta_gamma", "saw_tooth_beta_gamma1",
            "csbp_kappa", "csbp_kappa_delta", "hypergeometric_alpha",
            "hypergeometric_alpha_d"])
    def test_tiny_parameters_raise_package_errors_only(self, make, params):
        # g^3 (g = gamma -+ m) underflows to 0 for g below ~1.4e-108, g^2
        # below ~1.6e-162, and the solver's (o - y)^2 for close points; so
        # does x^2 in trigamma's 1/x^2 at a Gamma argument kappa or alpha/2,
        # and Gamma(kappa) Gamma(1) overflows for kappa <= 1e-308.  The
        # profile and a rate curve then return or raise a LevyClocksError,
        # never a ZeroDivisionError or OverflowError
        for v in (1e-100, 1e-160, 1e-200, 1e-300, 1e-308, 1e-320, 5e-324):
            model = make(*params(v))
            try:
                prof = profile(model)
                hi = (prof.tau_zero if math.isfinite(prof.tau_zero)
                      else prof.tau_plus + 4.0)
                rate_curve(model, prof.tau_plus, hi, 20, prof)
            except LevyClocksError:
                pass

    def test_text_format(self, capsys):
        assert run(["rate-curve", "--family", "brownian", "--nu", "1",
                    "--x-lo", "0.5", "--x-hi", "1.0", "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "x,I,Iprime"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == 0.0


class TestEvaluationBudget:
    """Evaluations of the exponent per solve, counted on the model's one
    evaluator, ``LevyModel.base_triple``, through which psi, psi_derivs
    and every solver objective go.

    Each bound is about 1.25x the calls the solver made on its model when
    every step called psi or psi_derivs.
    """

    # (rate_curve point, legendre_dual call, invert_L call)
    BOUNDS = {
        "brownian_drift": (3.75, 5.0, 5.0),
        "cp_plus_drift": (10.0, 11.9, 13.1),
        "cp_minus_drift": (8.25, 9.7, 13.75),
        "saw_tooth": (10.6, 11.6, 10.6),
        "stable_conditioned": (8.4, 9.8, 11.9),
        "csbp_immigration": (7.5, 8.9, 13.75),
        "hypergeometric_stable": (10.3, 11.9, 13.75),
    }

    @pytest.fixture
    def calls(self, model, monkeypatch):
        count = [0]
        evaluate = model.base_triple

        def counted(m):
            count[0] += 1
            return evaluate(m)
        # the instance __dict__ holds what the cached_property returns
        monkeypatch.setitem(vars(model), "base_triple", counted)
        return count

    @pytest.mark.parametrize("model", MODELS,
                             ids=lambda model: model.family.value)
    def test_calls_per_solve(self, model, calls):
        curve_bound, dual_bound, inverse_bound = self.BOUNDS[
            model.family.value]
        prof = profile(model)
        xs = delta_grid(prof, 50)
        calls[0] = 0
        rows = rate_curve(model, float(xs[0]), float(xs[-1]), 50, prof)
        assert 0 < calls[0] / len(rows) <= curve_bound
        picks = rows[::7]
        calls[0] = 0
        for x, _, _ in picks:
            legendre_dual(model, 1.0 / x)
        assert 0 < calls[0] / len(picks) <= dual_bound
        lo = prof.m0 if math.isfinite(prof.m0) else -6.0
        hi = model.m_plus if math.isfinite(model.m_plus) else 6.0
        thetas = [-model.psi(lo + f * (hi - lo)) for f in (0.05, 0.35, 0.65,
                                                           0.95)]
        calls[0] = 0
        for theta in thetas:
            invert_L(model, theta, prof)
        assert 0 < calls[0] / len(thetas) <= inverse_bound
