"""The public surface: every name a module exports resolves."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["errors", "models", "numerics", "rate",
                                  "paths", "estimators", "moments"])
def test_all_names_resolve(name):
    # a stale __all__ entry breaks `from levyclocks.<name> import *`
    module = importlib.import_module(f"levyclocks.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


# The package's public names by defining module; ``paths`` and
# ``estimators`` load on first access, the rest at import.
SURFACE = {
    "errors": ("AssumptionError", "CapabilityError", "ClassificationError",
               "ConstructionError", "DomainError", "EvaluationError",
               "HorizonExceededError", "LevyClocksError", "RescalingError"),
    "models": ("Family", "LevyModel", "brownian_drift", "cp_minus_drift",
               "cp_plus_drift", "csbp_immigration", "hypergeometric_stable",
               "make_model", "model_from_text", "model_to_text", "saw_tooth",
               "stable_conditioned"),
    "moments": ("F_of_m", "Finiteness", "MCMoment", "MomentLedger",
                "MomentRow", "mc_exp_functional", "moment_finite",
                "moment_recursion"),
    "numerics": ("digamma", "find_root", "log_gamma", "trigamma"),
    "rate": ("BoundaryReport", "RateProfile", "invert_L", "legendre_dual",
             "profile", "rate_I", "rate_curve"),
    "paths": ("CauchyModulus", "CauchyModulusPath", "SimConfig",
              "horizon_policy", "sample_levy_path",
              "simulate_cauchy_modulus"),
    "estimators": ("CltResult", "EstimateRow", "FirstPassageResult",
                   "LdpSlopeResult", "TiltedIdentityResult", "estimate_clt",
                   "estimate_ldp_slope", "estimate_lln", "estimate_logA_rate",
                   "first_passage_check", "fundamental_relation_check",
                   "ks_statistic", "normal_cdf", "tau_ensemble",
                   "tilted_identity_check"),
}
PUBLIC = {*SURFACE, *(name for names in SURFACE.values() for name in names)}


def test_package_lists_its_public_names():
    import levyclocks
    listed = {n for n in dir(levyclocks) if not n.startswith("_")}
    assert listed - {"cli"} == PUBLIC        # bound by `import levyclocks.cli`
    namespace = {}
    exec("from levyclocks import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


@pytest.mark.parametrize("module", SURFACE)
def test_package_names_are_their_modules_objects(module):
    import levyclocks
    defining = importlib.import_module(f"levyclocks.{module}")
    assert getattr(levyclocks, module) is defining
    for name in SURFACE[module]:
        assert getattr(levyclocks, name) is getattr(defining, name)


def test_unknown_package_name_raises_attribute_error():
    import levyclocks
    with pytest.raises(AttributeError, match="no_such_name"):
        levyclocks.no_such_name
    assert not hasattr(levyclocks, "run_paths")   # not re-exported


def test_submodule_import_from_package():
    from levyclocks import estimators, paths
    assert paths is importlib.import_module("levyclocks.paths")
    assert estimators is importlib.import_module("levyclocks.estimators")
