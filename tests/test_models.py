"""Laplace-exponent catalog: formulas, domains, tilts, serialization."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyclocks import (
    ConstructionError,
    DomainError,
    Family,
    brownian_drift,
    cp_minus_drift,
    cp_plus_drift,
    csbp_immigration,
    hypergeometric_stable,
    legendre_dual,
    log_gamma,
    make_model,
    model_from_text,
    model_to_text,
    rate_I,
    saw_tooth,
    stable_conditioned,
)
from oracles import petit_exponent

CATALOG = [
    brownian_drift(1.0),
    cp_plus_drift(1.0, 2.0, 1.0),
    cp_plus_drift(0.0, 2.0, 1.0),
    cp_minus_drift(2.0, 1.0),
    saw_tooth(1.0, 3.0),
    stable_conditioned(1.5, 1.0),
    csbp_immigration(0.5, 0.6, 1.0),
    hypergeometric_stable(1.0, 3.0),
    hypergeometric_stable(1.3, 3.7),
]


def interior_grid(model, n=41, inset=0.02):
    lo = model.m_minus if math.isfinite(model.m_minus) else -8.0
    hi = model.m_plus if math.isfinite(model.m_plus) else 8.0
    pad = inset * (hi - lo)
    return np.linspace(lo + pad, hi - pad, n)


class TestConstruction:
    def test_domains(self):
        assert brownian_drift(1.0).m_minus == -math.inf
        assert brownian_drift(1.0).m_plus == math.inf
        st13 = saw_tooth(1.0, 3.0)
        assert (st13.m_minus, st13.m_plus) == (-3.0, math.inf)
        assert cp_plus_drift(1, 2, 1).m_plus == 1.0
        assert cp_minus_drift(2, 1).m_plus == 1.0
        assert stable_conditioned(1.5).m_minus == -1.5
        assert csbp_immigration(0.5, 0.6).m_plus == 0.5
        h = hypergeometric_stable(1, 3)
        assert (h.m_minus, h.m_plus) == (-3.0, 1.0)

    # Each refused call and the constraint it reports.
    CONSTRAINTS = {
        lambda: saw_tooth(3.0, 1.0): "0 < beta < gamma",
        lambda: saw_tooth(0.0, 1.0): "beta > 0",
        lambda: brownian_drift(0.0): "nu > 0",
        lambda: brownian_drift(-1.0): "nu > 0",
        lambda: cp_plus_drift(-0.1, 2, 1): "d >= 0",
        lambda: cp_plus_drift(0.0, 0.0, 1.0):  # no drift at all
            "d + beta > 0 (drift to +inf)",
        lambda: cp_minus_drift(1.0, 2.0): "0 < gamma < beta",
        lambda: stable_conditioned(2.5, 1.0): "alpha in (1, 2)",
        lambda: stable_conditioned(1.5, -1.0): "c > 0",
        lambda: csbp_immigration(1.5, 0.9): "kappa in (0, 1]",
        lambda: csbp_immigration(0.5, 0.33): "delta > kappa/(kappa+1)",
        lambda: hypergeometric_stable(3.0, 4.0): "alpha in (0, 2]",
        lambda: hypergeometric_stable(1.0, 0.5): "alpha < d",
        lambda: cp_plus_drift(1.0, -0.5, 1.0): "beta >= 0",
        lambda: cp_plus_drift(1.0, 2.0, 0.0): "gamma > 0",
        lambda: cp_minus_drift(2.0, 0.0): "gamma > 0",
        lambda: saw_tooth(-1.0, 1.0): "beta > 0",
        lambda: stable_conditioned(1.0, 1.0): "alpha in (1, 2)",
        lambda: csbp_immigration(0.0, 0.6): "kappa in (0, 1]",
        lambda: csbp_immigration(0.5, 0.6, 0.0): "c > 0",
        lambda: hypergeometric_stable(0.0, 3.0): "alpha in (0, 2]",
    }

    @pytest.mark.parametrize("bad", list(CONSTRAINTS))
    def test_constraint_errors(self, bad):
        message = ("parameter constraint violated: "
                   + self.CONSTRAINTS[bad])
        with pytest.raises(ConstructionError,
                           match=f"^{re.escape(message)}$"):
            bad()

    @pytest.mark.parametrize("family,params,tilt,message", [
        ("saw_tooth", [1.0], 0.0,
         "saw_tooth takes parameters ('beta', 'gamma'), got 1 values"),
        ("brownian_drift", [1.0, 2.0], 0.0,
         "brownian_drift takes parameters ('nu',), got 2 values"),
        ("cp_plus_drift", [1.0, math.inf, 1.0], 0.0,
         "cp_plus_drift parameters must be finite"),
        ("stable_conditioned", [math.nan, 1.0], 0.0,
         "stable_conditioned parameters must be finite"),
        ("saw_tooth", [1.0, 3.0], -3.0,
         "tilt -3.0 outside base domain (-3.0, inf)"),
        ("brownian_drift", [1.0], math.inf,
         "tilt inf outside base domain (-inf, inf)"),
        ("hypergeometric_stable", [1.0, 3.0], 1.5,
         "tilt 1.5 outside base domain (-3.0, 1.0)"),
        # several fail: the count, then finiteness, then the family's
        # constraints in order, then the tilt
        ("saw_tooth", [math.nan], 9.0,
         "saw_tooth takes parameters ('beta', 'gamma'), got 1 values"),
        ("saw_tooth", [3.0, math.inf], 9.0,
         "saw_tooth parameters must be finite"),
        ("cp_plus_drift", [-1.0, -1.0, -1.0], 9.0,
         "parameter constraint violated: d >= 0"),
        ("csbp_immigration", [0.5, 0.1, -1.0], 9.0,
         "parameter constraint violated: delta > kappa/(kappa+1)"),
        ("cp_minus_drift", [1.0, 2.0], 9.0,
         "parameter constraint violated: 0 < gamma < beta"),
    ], ids=["count_short", "count_long", "inf", "nan", "tilt_at_end",
            "tilt_inf", "tilt_past_end", "count_first", "finite_next",
            "constraints_in_order", "constraint_before_later_ones",
            "constraint_before_tilt"])
    def test_refusal_order(self, family, params, tilt, message):
        with pytest.raises(ConstructionError,
                           match=f"^{re.escape(message)}$"):
            make_model(family, params, tilt)

    def test_make_model_accepts_names(self):
        m = make_model("saw_tooth", [1.0, 3.0])
        assert m.family is Family.SAW_TOOTH

    def test_drift_condition_holds_on_catalog(self):
        for model in CATALOG:
            assert model.psi_derivs(0.0)[0] > 0.0


class TestPsi:
    def test_zero_is_exact(self):
        for model in CATALOG:
            assert model.psi(0.0) == 0.0

    def test_known_values(self):
        assert brownian_drift(1.0).psi(1.0) == pytest.approx(4.0, abs=1e-14)
        assert hypergeometric_stable(1, 3).psi(-1.0) == pytest.approx(
            -2.0 / math.pi, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            saw_tooth(1, 3).psi(-3.0)
        with pytest.raises(DomainError):
            cp_plus_drift(1, 2, 1).psi(1.0)
        with pytest.raises(DomainError):
            hypergeometric_stable(1, 3).psi(1.0)

    def test_convexity_on_catalog(self):
        for model in CATALOG:
            g = interior_grid(model, 61)
            for i in range(len(g) - 2):
                m1, m2, m3 = (float(g[i]), float(g[i + 1]), float(g[i + 2]))
                lam = (m2 - m1) / (m3 - m1)
                chord = (1 - lam) * model.psi(m1) + lam * model.psi(m3)
                assert model.psi(m2) <= chord + 1e-10 * max(1.0, abs(chord))

    def test_cauchy_matches_tangent_form(self):
        # hypergeometric(1, 3) equals (m+1) tan(pi m/2) via the reflection
        # identity Gamma(x)Gamma(1-x) = pi / sin(pi x)
        h = hypergeometric_stable(1, 3)
        for m in np.linspace(-2.95, 0.95, 400):
            m = float(m)
            ref = petit_exponent(m)
            assert abs(h.psi(m) - ref) <= 1e-10 * max(1.0, abs(ref))


class TestDerivatives:
    def test_known_values(self):
        d1, d2 = hypergeometric_stable(1, 3).psi_derivs(0.0)
        assert d1 == pytest.approx(math.pi / 2.0, abs=1e-12)
        d1, d2 = brownian_drift(2.5).psi_derivs(0.0)
        assert (d1, d2) == (5.0, 4.0)
        kappa, delta, c = 0.5, 0.6, 2.0
        d1, _ = csbp_immigration(kappa, delta, c).psi_derivs(0.0)
        expected = c * ((kappa + 1) * delta - kappa) * math.exp(log_gamma(kappa))
        assert d1 == pytest.approx(expected, rel=1e-12)

    def test_central_differences(self):
        # steps chosen at each difference's float-noise optimum
        h1, h2 = 1e-6, 5e-4
        for model in CATALOG:
            for m in interior_grid(model, 21, inset=0.05):
                m = float(m)
                d1, d2 = model.psi_derivs(m)
                fd1 = (model.psi(m + h1) - model.psi(m - h1)) / (2 * h1)
                fd2 = (model.psi(m + h2) - 2 * model.psi(m)
                       + model.psi(m - h2)) / (h2 * h2)
                assert abs(d1 - fd1) <= 1e-6 * max(1.0, abs(d1))
                assert abs(d2 - fd2) <= 1e-5 * max(1.0, abs(d2))


def _mp_exponent(model):
    """Tilted exponent of a Gamma-ratio family at working precision.

    1/Gamma comes from ``mp.rgamma``, which is entire, so the reference
    needs none of the reflection forms the closed forms switch to.
    """
    p = [mp.mpf(v) for v in model.params]
    if model.family is Family.STABLE_CONDITIONED:
        alpha, c = p
        base = lambda m: c * mp.gamma(m + alpha) * mp.rgamma(m)
    elif model.family is Family.CSBP_IMMIGRATION:
        kappa, delta, c = p
        base = lambda m: (c * (kappa - (kappa + 1) * delta - m)
                          * mp.gamma(kappa - m) * mp.rgamma(-m))
    else:
        alpha, d = p
        base = lambda m: (-mp.power(2, alpha)
                          * mp.gamma((alpha - m) / 2) * mp.rgamma(-m / 2)
                          * mp.gamma((m + d) / 2)
                          * mp.rgamma((m + d - alpha) / 2))
    tilt = mp.mpf(model.tilt)
    return lambda m: base(tilt + m) - base(tilt)


def _branch_switches(model):
    """Base-domain points where the closed forms change branch.

    The stable and csbp entries include a point far out along the Stirling
    branch, where differencing log Gamma would have lost every digit.
    """
    if model.family is Family.STABLE_CONDITIONED:
        return (0.5, 64.0, 2.0 ** 44)
    if model.family is Family.CSBP_IMMIGRATION:
        return (-0.5, -64.0, -2.0 ** 44)
    alpha, d = model.params
    return (-1.0, alpha - d + 1.0)


class TestMpmathOracle:
    """psi, psi' and psi'' against mpmath at 40 digits, derivatives by mp.diff."""

    @pytest.mark.parametrize("model", [
        stable_conditioned(1.5, 1.0),
        stable_conditioned(1.2, 0.3).esscher(0.7),
        csbp_immigration(0.5, 0.6, 1.0),
        csbp_immigration(0.8, 0.9, 2.0).esscher(-0.4),
        hypergeometric_stable(1.0, 3.0),
        hypergeometric_stable(1.3, 3.7).esscher(-0.6),
        hypergeometric_stable(0.6, 1.5),
    ], ids=lambda model: model.describe())
    def test_psi_and_derivatives(self, model):
        points = [float(m) for m in interior_grid(model, 25, inset=0.03)]
        for s in _branch_switches(model):
            points += [s - model.tilt - 1e-9, s - model.tilt + 1e-9]
        with mp.workdps(40):
            f = _mp_exponent(model)
            for m in points:
                got = (model.psi(m), *model.psi_derivs(m))
                for k, value in enumerate(got):
                    ref = float(mp.diff(f, mp.mpf(m), k))
                    assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (m, k)


    def test_derivatives_far_out(self):
        # Gamma(m + 1.5)/Gamma(m) leaves float range near m = 3e205, but
        # psi' ~ 1.5 sqrt(m) and psi'' ~ 0.75/sqrt(m) do not; from m ~ 1e153
        # on, psi''/psi is below the smallest normal float.  c times the
        # ratio fits up to (1.8e308 / c)^(2/3): psi at 1e206 for c = 1e-3,
        # and at 1e250 too for c = 1e-100.  Where c times the value of the
        # model with c = 1 is finite, it is the value, bit for bit.
        unit = stable_conditioned(1.5, 1.0)
        for c in (1.0, 1e-3, 1e-100):
            model = stable_conditioned(1.5, c)
            for m in (1e154, 1e200, 1e206, 1e250, 1e300):
                with mp.workdps(600):
                    z, h = mp.mpf(m), mp.mpf(1.5)
                    f = c * mp.exp(mp.loggamma(z + h) - mp.loggamma(z))
                    g1 = mp.digamma(z + h) - mp.digamma(z)
                    g2 = mp.polygamma(1, z + h) - mp.polygamma(1, z)
                    refs = float(f), float(f * g1), float(f * (g1 * g1 + g2))
                assert refs[1] == pytest.approx(c * 1.5 * math.sqrt(m),
                                                rel=1e-6)
                assert refs[2] == pytest.approx(c * 0.75 / math.sqrt(m),
                                                rel=1e-6)
                got = (model.psi(m), *model.psi_derivs(m))
                plain = [c * v for v in (unit.psi(m), *unit.psi_derivs(m))]
                for k, (value, ref) in enumerate(zip(got, refs)):
                    if math.isfinite(plain[k]):
                        assert value == plain[k], (c, m, k)
                    if ref == math.inf:
                        assert value == math.inf, (c, m, k)
                    else:
                        assert abs(value - ref) <= 1e-12 * ref, (c, m, k)

    def test_rate_past_overflow(self):
        # the maximiser of m - x psi(m) lies at m* ~ 1e206, where only
        # c f fits: I is finite, about m*/3
        model, x = stable_conditioned(1.5, 1e-3), 6.7e-101
        with mp.workdps(600):
            c, h = mp.mpf(1e-3), mp.mpf(1.5)

            def psi(m):
                return c * mp.exp(mp.loggamma(m + h) - mp.loggamma(m))

            def slope(m):
                return psi(m) * (mp.digamma(m + h) - mp.digamma(m)) - 1 / x

            m_star = mp.findroot(slope, mp.mpf(1.0 / (1.5 * 1e-3 * x)) ** 2)
            ref = float(m_star - x * psi(m_star))
        assert ref == pytest.approx(float(m_star) / 3.0, rel=1e-12)
        assert rate_I(model, x) == pytest.approx(ref, rel=1e-12)
        assert x * legendre_dual(model, 1.0 / x) == pytest.approx(ref,
                                                                  rel=1e-12)


class TestEsscher:
    def test_zero_tilt_is_identity(self):
        m = saw_tooth(1, 3)
        assert m.esscher(0.0) is m

    def test_exponent_definition(self):
        m = saw_tooth(1, 3)
        t = m.esscher(1.0)
        assert t.psi(0.0) == 0.0
        assert m.psi(1.0) == pytest.approx(0.75, abs=1e-15)
        for th in np.linspace(-1.5, 4.0, 25):
            th = float(th)
            assert t.psi(th) == pytest.approx(m.psi(1.0 + th) - 0.75,
                                              abs=1e-12)

    def test_domain_shift(self):
        t = saw_tooth(1, 3).esscher(1.0)
        assert (t.m_minus, t.m_plus) == (-4.0, math.inf)

    def test_brownian_tilt_matches_reparametrized_family(self):
        base = brownian_drift(1.0)
        tilted = base.esscher(0.7)
        alt = brownian_drift(1.0 + 2 * 0.7)
        for th in np.linspace(-3, 3, 31):
            th = float(th)
            assert tilted.psi(th) == pytest.approx(alt.psi(th), abs=1e-12)

    def test_tilt_derivative_consistency(self):
        for model in CATALOG:
            for m in interior_grid(model, 9, inset=0.1):
                m = float(m)
                assert model.esscher(m).psi_derivs(0.0) == model.psi_derivs(m)

    @given(st.floats(-0.9, 3.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_double_tilt_composes(self, m):
        base = saw_tooth(1.0, 3.0)
        once = base.esscher(m)
        twice = once.esscher(0.5)
        assert twice.tilt == pytest.approx(m + 0.5)
        for th in (-0.5, 0.3, 1.1):
            assert twice.psi(th) == pytest.approx(
                base.psi(m + 0.5 + th) - base.psi(m + 0.5), abs=1e-10)


INF = math.inf
UNBOUNDED = ((INF, -INF, None), (INF, INF, None))


class TestEndLimits:
    """(lim psi, lim psi', gap) at the lower and upper end of the domain.

    At an end where psi' is unbounded, psi -> +inf and psi' -> -inf below
    or +inf above, with no gap.  At a compound-Poisson end, psi' -> l, the
    drift, and psi(m) - m l -> g + tilt l - Psi(tilt), where g = -beta.
    """

    @pytest.mark.parametrize("model,lower,upper", [
        (brownian_drift(1.0), *UNBOUNDED),
        (cp_plus_drift(1.0, 2.0, 1.0), (-INF, 1.0, -2.0), UNBOUNDED[1]),
        (cp_plus_drift(0.0, 2.0, 1.0), (-2.0, 0.0, -2.0), UNBOUNDED[1]),
        (cp_minus_drift(2.0, 1.0), (INF, -1.0, -2.0), UNBOUNDED[1]),
        (saw_tooth(1.0, 3.0), UNBOUNDED[0], (INF, 1.0, -1.0)),
        (stable_conditioned(1.5, 1.0), *UNBOUNDED),
        (csbp_immigration(0.5, 0.6, 1.0), *UNBOUNDED),
        (hypergeometric_stable(1.0, 3.0), *UNBOUNDED),
        # pure drift: affine on the whole line, with gap -beta = 0 at both
        (cp_plus_drift(1.0, 0.0, 1.0), (-INF, 1.0, 0.0), (INF, 1.0, 0.0)),
        # Brownian motion with drift on the whole line
        (csbp_immigration(1.0, 0.6, 2.0), *UNBOUNDED),
        (hypergeometric_stable(2.0, 3.0), *UNBOUNDED),
    ], ids=["brownian", "cp_plus", "cp_plus_d0", "cp_minus", "saw_tooth",
            "stable", "csbp", "hypergeometric", "cp_plus_beta0", "csbp_kappa1",
            "hypergeometric_alpha2"])
    def test_untilted(self, model, lower, upper):
        assert model.end_limits(upper=False) == lower
        assert model.end_limits(upper=True) == upper

    @pytest.mark.parametrize("model,upper,l,g,Psi", [
        (cp_plus_drift(1.0, 2.0, 1.0).esscher(0.5), False, 1.0, -2.0,
         lambda m: m * (1.0 + 2.0 / (1.0 - m))),
        (cp_minus_drift(2.0, 1.0).esscher(-1.0), False, -1.0, -2.0,
         lambda m: m * (-1.0 + 2.0 / (1.0 - m))),
        (saw_tooth(1.0, 3.0).esscher(1.0), True, 1.0, -1.0,
         lambda m: m * (3.0 - 1.0 + m) / (3.0 + m)),
    ], ids=["cp_plus", "cp_minus", "saw_tooth"])
    def test_tilted_affine_end(self, model, upper, l, g, Psi):
        tilt = model.tilt
        gap = g + tilt * l - Psi(tilt)
        lim_psi, lim_d1, got = model.end_limits(upper)
        assert got == pytest.approx(gap, rel=1e-15)
        assert lim_d1 == l
        end = model.m_plus if upper else model.m_minus
        assert lim_psi == l * end
        # the other end stays unbounded
        assert model.end_limits(not upper) == UNBOUNDED[not upper]
        # and psi(m) - m l approaches the gap along the affine end
        m = 1e6 if upper else -1e6
        assert model.psi(m) - m * l == pytest.approx(gap, abs=1e-5)


class TestSerialization:
    @pytest.mark.parametrize("model", CATALOG)
    def test_round_trip(self, model):
        text = model_to_text(model)
        back = model_from_text(text)
        assert back == model

    def test_round_trip_with_tilt(self):
        model = saw_tooth(0.1, 2.7182818284590451).esscher(-0.333)
        assert model_from_text(model_to_text(model)) == model

    @pytest.mark.parametrize("model", CATALOG)
    def test_pickles_after_use(self, model):
        import pickle
        tilted = model.esscher(0.25 * model.m_minus
                               if math.isfinite(model.m_minus) else -0.25)
        value = tilted.psi(0.5 * tilted.m_plus
                           if math.isfinite(tilted.m_plus) else 0.5)
        back = pickle.loads(pickle.dumps(tilted))
        assert back == tilted
        assert back.psi(0.5 * back.m_plus
                        if math.isfinite(back.m_plus) else 0.5) == value

    def test_malformed(self):
        with pytest.raises(ConstructionError):
            model_from_text("family: saw_tooth\nbeta: 1.0\n")
        with pytest.raises(ConstructionError):
            model_from_text("beta: 1.0\ngamma: 3.0\n")
        with pytest.raises(ConstructionError):
            model_from_text("family: saw_tooth\nbeta: 1\ngamma: 3\nzz: 1\n")
