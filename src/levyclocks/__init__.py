"""Clocks of positive self-similar Markov processes.

A numerical library for the additive clock T(t) = int_0^t ds / X_s^alpha
of a Lamperti-transformed Lévy process: closed-form Laplace exponents for
seven model families, large-deviation rate functions and their boundary
classification, reproducible Monte Carlo of paths and clocks, and exact
and simulated moments of exponential functionals.

The analytic half (``models``, ``numerics``, ``rate`` and the moment
ledger of ``moments``) imports no numpy.  The Monte Carlo names of
``paths`` and ``estimators`` resolve on first access, which imports
numpy and those two modules.
"""

from .errors import (AssumptionError, CapabilityError, ClassificationError,
                     ConstructionError, DomainError, EvaluationError,
                     HorizonExceededError, LevyClocksError, RescalingError)
from .models import (Family, LevyModel, brownian_drift, cp_minus_drift,
                     cp_plus_drift, csbp_immigration, hypergeometric_stable,
                     make_model, model_from_text, model_to_text, saw_tooth,
                     stable_conditioned)
from .moments import (Finiteness, MCMoment, MomentLedger, MomentRow, F_of_m,
                      mc_exp_functional, moment_finite, moment_recursion)
from .numerics import digamma, find_root, log_gamma, trigamma
from .rate import (BoundaryReport, RateProfile, invert_L, legendre_dual,
                   profile, rate_I, rate_curve)

# Public name -> the Monte Carlo module that defines it (each module also
# resolves its own name), bound in globals() on first access.
_LAZY = {
    name: module
    for module, names in (
        ("estimators", ("CltResult", "EstimateRow", "FirstPassageResult",
                        "LdpSlopeResult", "TiltedIdentityResult",
                        "estimate_clt", "estimate_ldp_slope", "estimate_lln",
                        "estimate_logA_rate", "first_passage_check",
                        "fundamental_relation_check", "ks_statistic",
                        "normal_cdf", "tau_ensemble",
                        "tilted_identity_check")),
        ("paths", ("CauchyModulus", "CauchyModulusPath", "SimConfig",
                   "horizon_policy", "sample_levy_path",
                   "simulate_cauchy_modulus")),
    )
    for name in (module, *names)
}

__all__ = sorted(n for n in {*globals(), *_LAZY} if not n.startswith("_"))

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
