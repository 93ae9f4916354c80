"""Rate-engine properties over the full parameter boxes of all seven families.

The strategies mirror the benchmark's parameter draws: scales from 1e-3 to
1e3, relative gaps to a box edge down to 1e-6, kappa = 1 and alpha = 2
exactly (the polynomial members), delta just above kappa/(kappa+1), and
stable alpha within 1e-6 of 1 and of 2.  Draws are derandomized so that a
run is reproducible.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyclocks import (
    Family,
    brownian_drift,
    cp_minus_drift,
    cp_plus_drift,
    csbp_immigration,
    hypergeometric_stable,
    invert_L,
    legendre_dual,
    make_model,
    profile,
    rate_I,
    rate_curve,
    saw_tooth,
    stable_conditioned,
)

PROPERTY_SETTINGS = settings(max_examples=1000, deadline=None,
                             derandomize=True)


def _pow10(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


SCALES = _pow10(-3.0, 3.0)
GAPS = st.one_of(_pow10(-6.0, -2.0), _pow10(-2.0, 1.0))
UNIT_OPEN = st.floats(0.0, 1.0, exclude_max=True).map(lambda u: 1.0 - u)


@st.composite
def models(draw):
    family = draw(st.sampled_from(list(Family)))
    if family is Family.BROWNIAN_DRIFT:
        return brownian_drift(draw(SCALES))
    if family is Family.CP_PLUS_DRIFT:
        d = draw(st.one_of(st.just(0.0), SCALES))
        return cp_plus_drift(d, draw(SCALES), draw(SCALES))
    if family is Family.CP_MINUS_DRIFT:
        gamma = draw(SCALES)
        return cp_minus_drift(gamma * (1.0 + draw(GAPS)), gamma)
    if family is Family.SAW_TOOTH:
        beta = draw(SCALES)
        return saw_tooth(beta, beta * (1.0 + draw(GAPS)))
    if family is Family.STABLE_CONDITIONED:
        alpha = draw(st.one_of(_pow10(-6.0, -2.0).map(lambda g: 1.0 + g),
                               _pow10(-6.0, -2.0).map(lambda g: 2.0 - g),
                               st.floats(1.0, 2.0, exclude_min=True,
                                         exclude_max=True)))
        return stable_conditioned(alpha, draw(SCALES))
    if family is Family.CSBP_IMMIGRATION:
        kappa = draw(st.one_of(st.just(1.0), _pow10(-4.0, -1.0), UNIT_OPEN))
        delta = kappa / (kappa + 1.0) * (1.0 + draw(GAPS))
        return csbp_immigration(kappa, delta, draw(SCALES))
    alpha = draw(st.one_of(st.just(2.0), _pow10(-3.0, -1.0),
                           UNIT_OPEN.map(lambda u: 2.0 * u)))
    return hypergeometric_stable(alpha, alpha * (1.0 + draw(GAPS)))


@st.composite
def models_and_x(draw):
    """A model and a point x strictly inside its speed interval Delta."""
    model = draw(models())
    prof = profile(model)
    hi_edge = prof.tau_zero if math.isfinite(prof.tau_zero) else 8.0 * prof.tau_e
    u = draw(st.floats(0.01, 0.99))
    return model, prof.tau_plus + u * (hi_edge - prof.tau_plus)


def _scaled(model, factor):
    """The model with psi multiplied by ``factor``, or None if the family
    has no scale parameter."""
    p = model.params
    if model.family in (Family.STABLE_CONDITIONED, Family.CSBP_IMMIGRATION):
        return make_model(model.family, (*p[:-1], p[-1] * factor))
    if model.family is Family.CP_PLUS_DRIFT:
        return make_model(model.family, (p[0] * factor, p[1] * factor, p[2]))
    return None


def _labels(model):
    prof = profile(model)
    return prof.zero.case_label, prof.plus.case_label


@PROPERTY_SETTINGS
@given(models(), st.integers(-3, 3))
@example(cp_plus_drift(2.596662849002389, 0.0010609028483231882,
                       3.226555896356978), 1)
def test_profile_zero_and_inverse(model, k):
    prof = profile(model)
    assert rate_I(model, prof.tau_e, prof) == 0.0
    # L(-psi(m)) = -m on (m0, m_plus).
    lo = prof.m0 if math.isfinite(prof.m0) else -6.0
    hi = model.m_plus if math.isfinite(model.m_plus) else 6.0
    for f in (0.05, 0.35, 0.65, 0.95):
        m = lo + f * (hi - lo)
        if m != 0.0:
            got = invert_L(model, -model.psi(m), prof)
            assert abs(got + m) <= 1e-9 * max(1.0, abs(m)), (m, got)
    # The case labels do not depend on the scale of psi.
    scaled = _scaled(model, 10.0 ** k)
    if scaled is not None:
        assert _labels(scaled) == _labels(model)


@PROPERTY_SETTINGS
@given(models_and_x())
@example((stable_conditioned(1.027866466217572, 19.170763888161574),
          0.02119007551356389))
def test_rate_duality(model_x):
    model, x = model_x
    i_val = rate_I(model, x)
    assert i_val >= 0.0
    dual = x * legendre_dual(model, 1.0 / x)
    if math.isinf(i_val) or math.isinf(dual):
        assert i_val == dual
    else:
        assert abs(i_val - dual) <= 1e-8 * max(1.0, abs(i_val))


@PROPERTY_SETTINGS
@given(models_and_x())
def test_rate_curve_row_is_rate_I(model_x):
    # Each rate point depends on (model, x) only: the row of a curve through
    # x is rate_I(x) bit for bit, whatever the other points of the curve.
    model, x = model_x
    prof = profile(model)
    hi_edge = prof.tau_zero if math.isfinite(prof.tau_zero) else 8.0 * prof.tau_e
    rows = rate_curve(model, x, x + 0.5 * (hi_edge - x), 3, prof)
    assert rows[0][1] == rate_I(model, x, prof)
