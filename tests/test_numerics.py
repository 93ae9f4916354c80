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

    def test_tiny_argument(self):
        # x * x underflows to 0 below ~1.5e-162: 1/x^2 is +inf, as it is
        # where it overflows (1.6e-162)
        for x in (1.6e-162, 1e-200, 5e-324):
            assert trigamma(x) == math.inf
        assert digamma(5e-324) == -math.inf


# (x, Psi(x), Psi'(x)) as float.hex: the recorded values of digamma and
# trigamma, which a change to their arithmetic must keep bit for bit.
SPECIAL_BITS = [
    (1.6e-162, "-0x1.63a432c8f5cd7p+537", "inf"),
    (1e-154, "-0x1.7dddf6b095ff1p+511", "0x1.1ccf385ebc8a0p+1023"),
    (1e-150, "-0x1.38d352e5096afp+498", "0x1.7e43c8800759bp+996"),
    (1e-100, "-0x1.249ad2594c37dp+332", "0x1.4e718d7d7625ap+664"),
    (1e-30, "-0x1.93e5939a08ce9p+99", "0x1.3e9e4e4c2f344p+199"),
    (1e-08, "-0x1.7d784024f119fp+26", "0x1.1c37937e07fffp+53"),
    (0.001, "-0x1.f449ac574fcf9p+9", "0x1.e848348fa1c6dp+19"),
    (0.1, "-0x1.4d8f668552b02p+3", "0x1.95bbb2c5c8285p+6"),
    (0.25, "-0x1.0e8e9943cd7c2p+2", "0x1.1328429d927c7p+4"),
    (0.5, "-0x1.f6a897d3214f8p+0", "0x1.3bd3cc9be45dfp+2"),
    (1.0, "-0x1.2788cfc6fb616p-1", "0x1.a51a6625307d3p+0"),
    (1.5, "0x1.2aed059bd6079p-5", "0x1.de9e64df22ef2p-1"),
    (2.0, "0x1.b0ee6072093cbp-2", "0x1.4a34cc4a60fa7p-1"),
    (3.7, "0x1.2aca9308f7e53p+0", "0x1.3d7a906cdbdedp-2"),
    (7.25, "0x1.e9137b7a7e563p+0", "0x1.2edb4eb166c0dp-3"),
    (11.999999999999998, "0x1.38a9234f5821cp+1", "0x1.63f337df20566p-4"),
    (12.0, "0x1.38a9234f5821dp+1", "0x1.63f337df20565p-4"),
    (12.5, "0x1.3e1ae41f318ecp+1", "0x1.5522e33e75f06p-4"),
    (30.0, "0x1.b13544cb9c1d2p+1", "0x1.15ab17f770242p-5"),
    (100.0, "0x1.26690d4274476p+2", "0x1.4952e891b603ap-7"),
    (1000.0, "0x1.ba1078189c03cp+2", "0x1.06466dfb5dfe1p-10"),
    (100000.0, "0x1.7069d82dcebc1p+3", "0x1.4f8bc681cdfb6p-17"),
    (100000000.0, "0x1.26bb1bb9fdb87p+4", "0x1.5798ee3fdb763p-27"),
    (1e15, "0x1.144f69ff9ffc4p+5", "0x1.203af9ee75619p-50"),
    (1e50, "0x1.cc845b54b54f2p+6", "0x1.dee7a4ad4b81ep-167"),
    (1e150, "0x1.5963447f87fb5p+8", "0x1.a2fe76a3f9475p-499"),
    (1e300, "0x1.5963447f87fb5p+9", "0x1.56e1fc2f8f359p-997"),
    (-0.5, "0x1.2aed059bd6095p-5", "0x1.1de9e64df22efp+3"),
    (-1e-08, "0x1.7d783fdb0ee5fp+26", "0x1.1c37937e08002p+53"),
    (-0.999, "-0x1.f3c98b8a4e86fp+9", "0x1.e84854a00a608p+19"),
    (-1.5, "0x1.680425af12b5dp-1", "0x1.2c22c9dc2b128p+3"),
    (-2.25, "0x1.0a263badf8e6fp+2", "0x1.361210c1c3c90p+4"),
    (-3.7, "-0x1.b0ade9fee8e34p-1", "0x1.daf51eb27b2c2p+3"),
    (-7.5, "0x1.0a406a791b546p+1", "0x1.37d5201922bc8p+3"),
    (-11.9, "-0x1.c9a7b439a8700p+2", "0x1.9d19d7dfcc695p+6"),
    (-12.1, "0x1.867d3b17c62c6p+3", "0x1.9d1b26e7af0bcp+6"),
    (-25.3, "0x1.621ba6e5704f2p+2", "0x1.e14d13d0bbd58p+3"),
    (-40.3, "0x1.7f6ff2bf35f58p+2", "0x1.e1c1c864db718p+3"),
    (-1000.5, "0x1.ba2909faf5e58p+2", "0x1.3bcb9d8d5bf73p+3"),
    (-123456.75, "0x1.12a037313407cp+3", "0x1.3bd3c41d92adcp+4"),
]


@pytest.mark.parametrize("x,psi,psi1", SPECIAL_BITS,
                         ids=[repr(x) for x, _, _ in SPECIAL_BITS])
def test_special_function_bits(x, psi, psi1):
    assert (digamma(x).hex(), trigamma(x).hex()) == (psi, psi1)


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
