"""Clocks of positive self-similar Markov processes.

A numerical library for the additive clock T(t) = int_0^t ds / X_s^alpha
of a Lamperti-transformed Lévy process: closed-form Laplace exponents for
seven model families, large-deviation rate functions and their boundary
classification, reproducible Monte Carlo of paths and clocks, and exact
and simulated moments of exponential functionals.
"""

from .errors import (
    AssumptionError,
    CapabilityError,
    ClassificationError,
    ConstructionError,
    DomainError,
    EvaluationError,
    HorizonExceededError,
    LevyClocksError,
    RescalingError,
)
from .estimators import (
    CltResult,
    EstimateRow,
    FirstPassageResult,
    LdpSlopeResult,
    TiltedIdentityResult,
    estimate_clt,
    estimate_ldp_slope,
    estimate_lln,
    estimate_logA_rate,
    first_passage_check,
    fundamental_relation_check,
    ks_statistic,
    normal_cdf,
    tau_ensemble,
    tilted_identity_check,
)
from .models import (
    Family,
    LevyModel,
    brownian_drift,
    cp_minus_drift,
    cp_plus_drift,
    csbp_immigration,
    hypergeometric_stable,
    make_model,
    model_from_text,
    model_to_text,
    saw_tooth,
    stable_conditioned,
)
from .moments import (
    Finiteness,
    MCMoment,
    MomentLedger,
    MomentRow,
    F_of_m,
    mc_exp_functional,
    moment_finite,
    moment_recursion,
)
from .numerics import (
    digamma,
    find_root,
    log_gamma,
    trigamma,
)
from .paths import (
    CauchyModulus,
    CauchyModulusPath,
    SimConfig,
    horizon_policy,
    path_rng,
    sample_levy_path,
    simulate_cauchy_modulus,
)
from .rate import (
    BoundaryReport,
    RateProfile,
    invert_L,
    legendre_dual,
    profile,
    rate_I,
    rate_curve,
)

__version__ = "0.1.0"
