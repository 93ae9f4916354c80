"""Special functions and scalar solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath as mp

from levyclocks import (
    DomainError,
    EvaluationError,
    digamma,
    find_root,
    log_gamma,
    trigamma,
)
from oracles import Bracket, digamma_sign_scan, maximize_concave

mp.mp.dps = 30


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(4.0) == pytest.approx(math.log(6.0), abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi),
                                               abs=1e-14)
        assert log_gamma(1e306) == math.inf   # beyond float range

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)

    def test_accuracy_against_mpmath(self):
        # abs error <= 1e-12 over [1e-3, 1e3]
        xs = np.geomspace(1e-3, 1e3, 400)
        worst = max(abs(log_gamma(float(x)) - float(mp.loggamma(mp.mpf(float(x)))))
                    for x in xs)
        assert worst <= 1e-12

    def test_recurrence(self):
        for x in np.linspace(0.5, 100.0, 250):
            x = float(x)
            gap = log_gamma(x + 1.0) - log_gamma(x) - math.log(x)
            assert abs(gap) <= 1e-11


class TestDigamma:
    def test_recurrence_at_two(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-13)

    def test_frozen_oracle_values(self):
        # Frozen from the truncated-series oracle (oracles.digamma_series,
        # 1e7 terms + tail correction): Psi(1) = -gamma, Psi(1/2) matching
        # the reflection identity -gamma - 2 ln 2.
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-10)
        assert digamma(0.5) == pytest.approx(-1.9635100260214235, abs=1e-10)

    @pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -17.0])
    def test_poles(self, pole):
        with pytest.raises(DomainError):
            digamma(pole)

    def test_accuracy_band(self):
        # abs error <= 1e-10 on [-50, 50], >= 1e-3 away from the poles
        rng = np.random.default_rng(7)
        xs = rng.uniform(-50.0, 50.0, 500)
        xs = xs[np.abs(xs - np.round(xs)) >= 1e-3]
        for x in xs:
            x = float(x)
            if x > 0 or x - round(x) != 0:
                assert abs(digamma(x) - float(mp.digamma(x))) <= 1e-10

    def test_matches_log_gamma_derivative(self):
        h = 1e-5
        for x in np.linspace(0.1, 50.0, 120):
            x = float(x)
            num = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
            assert abs(digamma(x) - num) <= 1e-6


class TestTrigamma:
    def test_against_mpmath(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-30.0, 30.0, 200)
        xs = xs[np.abs(xs - np.round(xs)) >= 1e-2]
        for x in xs:
            x = float(x)
            ref = float(mp.polygamma(1, x))
            assert abs(trigamma(x) - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_pole(self):
        with pytest.raises(DomainError):
            trigamma(-3.0)


def _digamma_gap(g):
    """Psi(g + 1.5) - Psi(g) and its slope."""
    return (digamma(g + 1.5) - digamma(g), trigamma(g + 1.5) - trigamma(g))


class TestFindRoot:
    def test_sqrt2(self):
        root = find_root(lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_identity(self):
        assert find_root(lambda x: (x, 1.0), -1.0, 1.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_digamma_difference_root(self):
        # Frozen bracket: the cell of the 1e4-point grid where
        # Psi(g+1.5)-Psi(g) changes sign (oracles.digamma_sign_scan):
        # root in (-0.58256, -0.58246).
        root = find_root(_digamma_gap, -1.0 + 1e-9, -1e-9)
        assert -0.5825580907090709 < root < -0.5824580809080908
        assert abs(_digamma_gap(root)[0]) < 1e-9

    def test_no_sign_change(self):
        # no root short of a finite end: None, as toward an infinite one
        assert find_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0) is None

    def test_non_finite_evaluation(self):
        with pytest.raises(EvaluationError):
            find_root(lambda x: (math.nan, math.nan), -1.0, 1.0)

    def test_root_beyond_float_range(self):
        # increasing toward +inf, root at 1e310: None, not an error
        f = lambda x: (1e-300 * x - 1e10, 1e-300)
        assert find_root(f, 0.0, math.inf) is None
        # f leaves float range before it changes sign
        g = lambda x: (-1.0 if x < 1e3 else math.inf, 0.0)
        assert find_root(g, 0.0, math.inf) is None

    def test_far_root_toward_infinite_end(self):
        # Newton steps crawl on this tail; the probes double the distance.
        f = lambda x: (-1e-6 + 1.0 / (1.0 + x) ** 2, -2.0 / (1.0 + x) ** 3)
        root = find_root(f, 0.0, math.inf)
        assert root == pytest.approx(999.0, rel=1e-13)

    def test_pole_at_finite_end(self):
        # psi' of cp_plus(1, 2, 1) = 1 + 2/(1 - m)^2 = 20 near its pole at 1
        f = lambda m: (1.0 + 2.0 / (1.0 - m) ** 2 - 20.0, 4.0 / (1.0 - m) ** 3)
        root = find_root(f, 0.0, 1.0)
        assert root == pytest.approx(1.0 - math.sqrt(2.0 / 19.0), abs=1e-14)

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 4.0), st.floats(0.2, 5.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cubic_bracket_width(self, r, spread, scale):
        # cubic with a known root r, bracketed within +-spread
        f = lambda x: (scale * (x - r) * ((x - r) ** 2 + 1.0),
                       scale * (3.0 * (x - r) ** 2 + 1.0))
        root = find_root(f, r - spread, r + spread)
        assert abs(root - r) <= 1e-9


class TestMaximizeConcave:
    def test_quadratic_vertex(self):
        res = maximize_concave(lambda m: -(m - 1.0) ** 2, Bracket(-5.0, 5.0),
                               tol=1e-10)
        assert res.boundary is None
        assert res.argmax == pytest.approx(1.0, abs=1e-9)
        assert res.value == pytest.approx(0.0, abs=1e-16)

    def test_rate_objective_closed_form(self):
        # m - 2m(m+1) has vertex (1 - 2 nu x)/(4x) = -1/4 and value 1/8
        # for nu = 1, x = 1.
        res = maximize_concave(lambda m: m - 2.0 * m * (m + 1.0),
                               Bracket(-0.5, 10.0), tol=1e-10)
        # argmax accuracy is floored at sqrt(eps |f|/|f''|) ~ 4e-9 here
        assert res.argmax == pytest.approx(-0.25, abs=1e-7)
        assert res.value == pytest.approx(0.125, abs=1e-12)

    def test_boundary_limit_flag(self):
        res = maximize_concave(lambda m: m, Bracket(0.0, 1.0), tol=1e-10)
        assert res.boundary == "hi"
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_non_finite_probe(self):
        with pytest.raises(EvaluationError):
            maximize_concave(lambda m: math.inf, Bracket(0.0, 1.0))

    @given(st.floats(-8.0, 8.0), st.floats(0.05, 10.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_quadratic_family(self, vertex, curvature):
        res = maximize_concave(lambda m: -curvature * (m - vertex) ** 2,
                               Bracket(-12.0, 12.0), tol=1e-9)
        assert abs(res.argmax - vertex) <= 1e-8


def test_sign_scan_oracle_brackets_library_root():
    # The independent series-based sign scan and the library agree on the
    # critical root of the stable family's digamma equation.
    lo, hi = digamma_sign_scan(1.5)
    root = find_root(_digamma_gap, -1.0 + 1e-9, -1e-9)
    assert lo <= root <= hi
