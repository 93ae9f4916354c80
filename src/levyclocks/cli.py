"""Command-line front end.

Subcommands: ``profile``, ``rate-curve``, ``figures``, ``simulate``,
``lln``, ``clt``, ``ldp``, ``moments``, ``check-identities``.

Conventions: tables (CSV, one header row, 17-significant-digit floats) go
to stdout or to files under ``--out``; the run report (command echo, model
descriptor, seed, wall time) goes to stderr, so stdout is byte-identical
across reruns of the same argv.  Stochastic subcommands require an
explicit ``--seed``; there is deliberately no environment-variable
fallback.  Exit codes: 0 success, 1 usage error, 2 domain/assumption/
construction error, 3 horizon exhaustion.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import moments as moments_mod
from .errors import (
    AssumptionError,
    CapabilityError,
    ClassificationError,
    ConstructionError,
    DomainError,
    HorizonExceededError,
    RescalingError,
)
from .estimators import (
    estimate_clt,
    estimate_ldp_slope,
    estimate_lln,
    estimate_logA_rate,
    first_passage_check,
    fundamental_relation_check,
    tau_ensemble,
    tilted_identity_check,
)
from .models import (
    PARAM_NAMES,
    Family,
    LevyModel,
    make_model,
    model_from_text,
)
from .paths import CauchyModulus, SimConfig
from .rate import classify_boundaries, profile, rate_curve, rate_curve_text

_FAMILY_ALIASES = {
    "brownian": Family.BROWNIAN_DRIFT,
    "brownian_drift": Family.BROWNIAN_DRIFT,
    "cp-plus": Family.CP_PLUS_DRIFT,
    "cp_plus_drift": Family.CP_PLUS_DRIFT,
    "cp-minus": Family.CP_MINUS_DRIFT,
    "cp_minus_drift": Family.CP_MINUS_DRIFT,
    "sawtooth": Family.SAW_TOOTH,
    "saw_tooth": Family.SAW_TOOTH,
    "stable": Family.STABLE_CONDITIONED,
    "stable_conditioned": Family.STABLE_CONDITIONED,
    "csbp": Family.CSBP_IMMIGRATION,
    "csbp_immigration": Family.CSBP_IMMIGRATION,
    "hypergeometric": Family.HYPERGEOMETRIC_STABLE,
    "hypergeometric_stable": Family.HYPERGEOMETRIC_STABLE,
}

# Parameters of Figures 1-5: (family, params, x_lo, x_hi).
_FIGURES = (
    ("fig1", Family.BROWNIAN_DRIFT, (1.0,), 0.05, 3.0),
    ("fig2", Family.CP_PLUS_DRIFT, (1.0, 2.0, 1.0), 0.01, 1.0),
    ("fig3", Family.CP_MINUS_DRIFT, (2.0, 1.0), 0.01, 5.0),
    ("fig4", Family.SAW_TOOTH, (1.0, 3.0), 1.0, 6.0),
    ("fig5", Family.HYPERGEOMETRIC_STABLE, (1.0, 3.0), 0.05, 5.0),
)

_USAGE_EXIT = 1
_DOMAIN_EXIT = 2
_HORIZON_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 1
        raise _UsageError(message)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="model family "
                   "(brownian, cp-plus, cp-minus, sawtooth, stable, csbp, "
                   "hypergeometric, or cauchy for estimators)")
    p.add_argument("--model-file",
                   help="read the model from a key-value text file")
    p.add_argument("--tilt", type=float, default=0.0)
    for flag in ("nu", "d", "beta", "gamma", "alpha-par", "c", "kappa",
                 "delta"):
        p.add_argument(f"--{flag}", type=float, default=None)


def _add_sim_flags(p: argparse.ArgumentParser, need_seed: bool = True) -> None:
    p.add_argument("--seed", type=int, required=need_seed,
                   help="RNG seed (mandatory for stochastic runs)")
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--start", type=float, default=1.0)
    p.add_argument("--max-doublings", type=int, default=8)


_PARAM_FLAGS = {"alpha": "alpha_par"}  # --alpha is the clock index


def _model_from_args(args) -> LevyModel | CauchyModulus:
    model = _build_model(args)
    args._model_desc = model.describe()   # echoed in the run report
    return model


def _build_model(args) -> LevyModel | CauchyModulus:
    if args.model_file:
        return model_from_text(Path(args.model_file).read_text())
    if not args.family:
        raise _UsageError("--family or --model-file is required")
    name = args.family.lower()
    if name == "cauchy":
        d = getattr(args, "d", None)
        if d is None:
            raise _UsageError("--d (dimension) is required for cauchy")
        return CauchyModulus(int(d))
    if name not in _FAMILY_ALIASES:
        raise _UsageError(f"unknown family {args.family!r}")
    fam = _FAMILY_ALIASES[name]
    params = []
    for pname in PARAM_NAMES[fam]:
        flag = _PARAM_FLAGS.get(pname, pname)
        value = getattr(args, flag, None)
        if value is None:
            raise _UsageError(
                f"family {fam.value} requires --{flag.replace('_', '-')}")
        params.append(value)
    return make_model(fam, params, tilt=args.tilt)


def _require_levy(model) -> LevyModel:
    if isinstance(model, CauchyModulus):
        raise DomainError("this subcommand needs a Lévy-family model, not "
                          "the Cauchy modulus")
    return model


def _sim_config(args) -> SimConfig:
    return SimConfig(seed=args.seed, n_paths=args.paths, step=args.step,
                     horizon=args.horizon, alpha=args.alpha,
                     start=args.start, max_doublings=args.max_doublings)


def _emit(args, name: str, text: str) -> list[str]:
    """Write a table to --out/<name> or stdout; returns output records."""
    out = getattr(args, "out", None)
    if out:
        directory = Path(out)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / name
        target.write_text(text)
        return [str(target)]
    sys.stdout.write(text)
    return ["<stdout>"]


def _g(v: float) -> str:
    return f"{v:.17g}"


# --------------------------------------------------------------------------
# Subcommand bodies.
# --------------------------------------------------------------------------

def _cmd_profile(args) -> list[str]:
    model = _require_levy(_model_from_args(args))
    prof = profile(model)
    zero_rep, plus_rep = classify_boundaries(model, prof)
    lines = [
        f"model: {model.describe()}",
        f"m0: {_g(prof.m0)}",
        f"psi_m0: {_g(prof.psi_m0)}",
        f"mean: {_g(prof.mean)}",
        f"tau_plus: {_g(prof.tau_plus)}",
        f"tau_zero: {_g(prof.tau_zero)}",
        f"tau_e: {_g(prof.tau_e)}",
        f"delta: ({_g(prof.delta[0])}, {_g(prof.delta[1])})",
        f"class_tau_zero: {zero_rep.case_label}",
        f"class_tau_plus: {plus_rep.case_label}",
        f"ldp_status: {prof.ldp_status}",
    ]
    if prof.asymptote is not None:
        lines.append(f"asymptote_slope: {_g(prof.asymptote[0])}")
        lines.append(f"asymptote_intercept: {_g(prof.asymptote[1])}")
    if prof.b_zero is not None:
        lines.append(f"b_zero: {_g(prof.b_zero)}")
    if prof.b_plus is not None:
        lines.append(f"b_plus: {_g(prof.b_plus)}")
    for rep in (zero_rep, plus_rep):
        lines.append(f"I_at_{rep.at}: {_g(rep.value_I)}")
        slope = "nan" if rep.slope_I is None else _g(rep.slope_I)
        lines.append(f"Iprime_at_{rep.at}: {slope}")
    return _emit(args, "profile.txt", "\n".join(lines) + "\n")


def _cmd_rate_curve(args) -> list[str]:
    model = _require_levy(_model_from_args(args))
    rows = rate_curve(model, args.x_lo, args.x_hi, args.n)
    return _emit(args, "rate_curve.csv", rate_curve_text(rows))


def _cmd_figures(args) -> list[str]:
    outputs = []
    for name, fam, params, x_lo, x_hi in _FIGURES:
        model = make_model(fam, params)
        rows = rate_curve(model, x_lo, x_hi, args.n)
        outputs += _emit(args, f"{name}.csv", rate_curve_text(rows))
    return outputs


def _cmd_simulate(args) -> list[str]:
    model = _model_from_args(args)
    cfg = _sim_config(args)
    taus = tau_ensemble(model, cfg, [args.t])
    lines = ["path_id,tau"]
    for i in range(cfg.n_paths):
        lines.append(f"{i},{taus[i, 0]:.17g}")
    return _emit(args, "simulate.csv", "\n".join(lines) + "\n")


def _cmd_lln(args) -> list[str]:
    model = _model_from_args(args)
    cfg = _sim_config(args)
    report = estimate_lln(model, cfg, args.t)
    return _emit(args, "lln.txt", report.to_text())


def _cmd_clt(args) -> list[str]:
    model = _require_levy(_model_from_args(args))
    cfg = _sim_config(args)
    result = estimate_clt(model, cfg, args.t)
    return _emit(args, "clt.txt", result.report(model, cfg).to_text())


def _cmd_ldp(args) -> list[str]:
    model = _model_from_args(args)
    cfg = _sim_config(args)
    res = estimate_ldp_slope(model, cfg, args.x, args.t, eps=args.eps)
    lines = [
        f"estimator: ldp-slope",
        f"model: {model.describe()}",
        f"seed: {cfg.seed}",
        f"x: {_g(res.x)}",
        f"eps: {_g(res.eps)}",
        f"slope: {_g(res.slope)}",
        f"slope_stderr: {_g(res.slope_stderr)}",
        f"reference_I: {_g(res.reference)}",
        f"excluded: {','.join(_g(t) for t in res.excluded) or 'none'}",
        "t,p_hat,hits",
    ]
    for t, p_hat, hits in res.rows:
        lines.append(f"{t:.17g},{p_hat:.17g},{hits}")
    return _emit(args, "ldp.txt", "\n".join(lines) + "\n")


def _cmd_moments(args) -> list[str]:
    model = _require_levy(_model_from_args(args))
    outputs = []
    ledger = moments_mod.moment_recursion(model, args.r_max)
    outputs += _emit(args, "moments.csv", ledger.to_text())
    if args.mc_s is not None:
        cfg = _sim_config(args)
        mc = moments_mod.mc_exp_functional(model, args.mc_s, cfg)
        lines = [
            "s,estimate,stderr,n_paths,horizon,tail_bound",
            f"{args.mc_s:.17g},{mc.estimate:.17g},{mc.stderr:.17g},"
            f"{mc.n_paths},{mc.horizon:.17g},{mc.tail_bound:.17g}",
        ]
        outputs += _emit(args, "moments_mc.csv", "\n".join(lines) + "\n")
    return outputs


def _cmd_check_identities(args) -> list[str]:
    model = _require_levy(_model_from_args(args))
    cfg = _sim_config(args)
    lines = [f"model: {model.describe()}", f"seed: {cfg.seed}"]

    # Fundamental relation tau(t) = T(t a^alpha), checked pathwise.
    worst = fundamental_relation_check(model, cfg)
    lines.append(f"fundamental_relation_max_abs_err: {_g(worst)}")

    tilted = tilted_identity_check(model, args.m, args.t, args.a, cfg)
    lines += [
        f"tilted_lhs: {_g(tilted.lhs)}",
        f"tilted_rhs: {_g(tilted.rhs)}",
        f"tilted_z: {_g(tilted.z_score)}",
    ]
    if model.family in (Family.BROWNIAN_DRIFT, Family.SAW_TOOTH):
        fp_cfg = SimConfig(seed=cfg.seed, n_paths=cfg.n_paths, step=cfg.step,
                           horizon=args.t_fp, alpha=cfg.alpha,
                           start=cfg.start, max_doublings=cfg.max_doublings)
        fp = first_passage_check(model, fp_cfg, args.theta)
        lines += [
            f"first_passage_lhs: {_g(fp.lhs)}",
            f"first_passage_rhs: {_g(fp.rhs)}",
            f"first_passage_rhs_stderr: {_g(fp.rhs_stderr)}",
            f"first_passage_analytic_L: {_g(fp.analytic)}",
        ]
    else:
        lines.append("first_passage: skipped (needs a spectrally negative "
                     "family)")
    return _emit(args, "identities.txt", "\n".join(lines) + "\n")


def _cmd_logA(args) -> list[str]:
    model = _require_levy(_model_from_args(args))
    cfg = _sim_config(args)
    report = estimate_logA_rate(model, cfg, args.t)
    return _emit(args, "logA.txt", report.to_text())


# --------------------------------------------------------------------------
# Parser assembly and entry point.
# --------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="levyclocks",
                     description="Clocks of positive self-similar Markov "
                                 "processes: rate functions and Monte Carlo")
    parser.add_argument("--out", help="directory for output tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="print the rate profile and boundary "
                                       "classification")
    _add_model_flags(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("rate-curve", help="emit an (x, I, I') table")
    _add_model_flags(p)
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(func=_cmd_rate_curve)

    p = sub.add_parser("figures", help="emit the five canonical rate-curve "
                                       "tables (fig1.csv ... fig5.csv)")
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("simulate", help="per-path clock values tau(t)")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("lln", help="ensemble mean of tau(t)/log t")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--t", type=float, action="append", required=True,
                   help="clock target (repeatable)")
    p.set_defaults(func=_cmd_lln)

    p = sub.add_parser("clt", help="KS probe of the Gaussian-limit "
                                   "conjecture")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("ldp", help="empirical LDP slope at a window")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--t", type=float, action="append", required=True)
    p.set_defaults(func=_cmd_ldp)

    p = sub.add_parser("moments", help="exponential-functional moment ledger")
    _add_model_flags(p)
    _add_sim_flags(p, need_seed=False)
    p.add_argument("--r-max", type=int, default=10)
    p.add_argument("--mc-s", type=float, default=None,
                   help="also Monte Carlo E I^s (requires --seed)")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("logA", help="ensemble mean of (1/t) log A(t)")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_logA)

    p = sub.add_parser("check-identities",
                       help="fundamental relation, tilted identity, and "
                            "first-passage checks")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=-1.0)
    p.add_argument("--t-fp", type=float, default=100.0,
                   help="clock target for the first-passage left side")
    p.set_defaults(func=_cmd_check_identities)
    return parser


def run(argv: list[str]) -> int:
    """Execute one command; returns the exit code and prints a run report
    (command echo, outputs, seed, wall time) to stderr."""
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "mc_s", None) is not None and args.seed is None:
            raise _UsageError("--mc-s requires --seed")
        outputs = args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (DomainError, AssumptionError, ConstructionError,
            ClassificationError, CapabilityError, RescalingError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    except HorizonExceededError as exc:
        print(f"horizon error: {exc}", file=sys.stderr)
        return _HORIZON_EXIT
    elapsed = time.perf_counter() - started
    report = [
        f"command: levyclocks {' '.join(argv)}",
        f"outputs: {', '.join(outputs)}",
    ]
    desc = getattr(args, "_model_desc", None)
    if desc is not None:
        report.append(f"model: {desc}")
    seed = getattr(args, "seed", None)
    if seed is not None:
        report.append(f"seed: {seed}")
    report.append(f"wall_time_s: {elapsed:.3f}")
    print("\n".join(report), file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
