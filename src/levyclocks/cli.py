"""Command-line front end.

Subcommands: ``profile``, ``rate-curve``, ``figures``, ``simulate``,
``lln``, ``clt``, ``ldp``, ``moments``, ``logA``, ``check-identities``.

Conventions: the library returns values, and :func:`_text` is the one
writer of output text: ``key: value`` lines, then a CSV header row and one
line per row, floats with 17 significant digits.  Tables go to stdout or
to files under ``--out``; the run report (command echo, model descriptor,
seed, wall time) goes to stderr, so stdout is byte-identical across reruns
of the same argv.  Stochastic subcommands require an explicit ``--seed``;
there is deliberately no environment-variable fallback.  Exit codes: 0
success, 1 usage error, 2 any other error of the package, of file I/O or
of an allocation the machine refuses, 3 horizon exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import moments as moments_mod
from .errors import (
    DomainError,
    HorizonExceededError,
    LevyClocksError,
)
from .models import (
    PARAM_NAMES,
    Family,
    LevyModel,
    make_model,
    model_from_text,
)
from .rate import profile, rate_curve

if TYPE_CHECKING:
    from .paths import CauchyModulus, SimConfig

# Each family by its value and by its short name, in Family order.
_FAMILY_ALIASES = {
    name: fam for fam, short in zip(Family, (
        "brownian", "cp-plus", "cp-minus", "sawtooth", "stable", "csbp",
        "hypergeometric"), strict=True)
    for name in (short, fam.value)}

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


_PARAM_FLAGS = {"alpha": "alpha_par"}  # --alpha is the clock index

# Model flags as argparse dests, the families' params in first-appearance
# order; --tilt absent means tilt 0.
_MODEL_FLAGS = ("tilt", *dict.fromkeys(
    _PARAM_FLAGS.get(name, name) for names in PARAM_NAMES.values()
    for name in names))


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="model family "
                   "(brownian, cp-plus, cp-minus, sawtooth, stable, csbp, "
                   "hypergeometric, or cauchy for estimators)")
    p.add_argument("--model-file",
                   help="read the model from a key-value text file")
    for flag in _MODEL_FLAGS:
        p.add_argument(f"--{flag.replace('_', '-')}", type=float,
                       default=None)


def _add_sim_flags(p: argparse.ArgumentParser, need_seed: bool = True) -> None:
    p.add_argument("--seed", type=int, required=need_seed,
                   help="RNG seed (mandatory for stochastic runs)")
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--step", type=float, default=0.01,
                   help="Brownian and Cauchy grid step; the event-exact "
                   "compound-Poisson families do not read it")
    p.add_argument("--horizon", type=float, default=10.0,
                   help="read by no command: every estimator derives its "
                   "own horizons (only echoed in the output)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--start", type=float, default=1.0)
    p.add_argument("--max-doublings", type=int, default=8)


def _model_from_args(args) -> LevyModel | CauchyModulus:
    model = _build_model(args)
    args._model_desc = model.describe()   # echoed in the run report
    return model


def _refuse(args, owner: str, takes) -> None:
    """A usage error for the first model flag given not in ``takes``."""
    for flag in ("family", *_MODEL_FLAGS):
        if getattr(args, flag) is not None and flag not in takes:
            raise _UsageError(
                f"{owner} does not take --{flag.replace('_', '-')}")


def _build_model(args) -> LevyModel | CauchyModulus:
    if args.model_file:
        _refuse(args, "--model-file", ())
        return model_from_text(Path(args.model_file).read_text())
    if not args.family:
        raise _UsageError("--family or --model-file is required")
    name = args.family.lower()
    if name == "cauchy":
        _refuse(args, "cauchy", ("family", "d"))
        d = args.d
        if d is None:
            raise _UsageError("--d (dimension) is required for cauchy")
        from .paths import CauchyModulus
        return CauchyModulus(int(d) if d.is_integer() else d)
    if name not in _FAMILY_ALIASES:
        raise _UsageError(f"unknown family {args.family!r}")
    fam = _FAMILY_ALIASES[name]
    takes = [_PARAM_FLAGS.get(pname, pname) for pname in PARAM_NAMES[fam]]
    _refuse(args, fam.value, ["family", "tilt", *takes])
    params = []
    for flag in takes:
        value = getattr(args, flag)
        if value is None:
            raise _UsageError(
                f"family {fam.value} requires --{flag.replace('_', '-')}")
        params.append(value)
    return make_model(fam, params, tilt=args.tilt or 0.0)


def _require_levy(model) -> LevyModel:
    if not isinstance(model, LevyModel):
        raise DomainError("this subcommand needs a Lévy-family model, not "
                          "the Cauchy modulus")
    return model


def _sim_config(args) -> SimConfig:
    from .paths import SimConfig
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


def _text(fields, header: str | None = None, fmt: str = "",
          rows=()) -> str:
    """The one writer of output text: a ``key: value`` line per pair of
    ``fields``, then the CSV ``header`` line and ``fmt.format(*row)`` per
    row (``fmt`` ends in a newline)."""
    lines = [f"{key}: {value}\n" for key, value in fields]
    if header is not None:
        lines.append(header + "\n")
    lines += itertools.starmap(fmt.format, rows)
    return "".join(lines)


# (header, row format) of the tables that more than one command writes.
_RATE_TABLE = ("x,I,Iprime", "{:.17g},{:.17g},{:.17g}\n")
_ESTIMATE_TABLE = ("t,estimate,stderr,reference",
                   "{:.17g},{:.17g},{:.17g},{:.17g}\n")


def _run_echo(estimator: str, model, cfg: SimConfig) -> list[tuple]:
    """The leading fields of an estimator table: what ran, on which paths."""
    return [("estimator", estimator), ("model", model.describe()),
            ("seed", cfg.seed), ("n_paths", cfg.n_paths),
            ("step", repr(cfg.step)), ("horizon", repr(cfg.horizon)),
            ("alpha", repr(cfg.alpha)), ("start", repr(cfg.start))]


# --------------------------------------------------------------------------
# Subcommand bodies.
# --------------------------------------------------------------------------

def _cmd_profile(args) -> list[str]:
    model = _require_levy(_model_from_args(args))
    prof = profile(model)
    zero, plus = prof.zero, prof.plus
    fields = [("model", model.describe())]
    fields += [(key, _g(getattr(prof, key))) for key in
               ("m0", "psi_m0", "mean", "tau_plus", "tau_zero", "tau_e")]
    fields += [
        ("delta", f"({_g(prof.tau_plus)}, {_g(prof.tau_zero)})"),
        ("class_tau_zero", zero.case_label),
        ("class_tau_plus", plus.case_label),
        ("ldp_status", prof.ldp_status),
    ]
    if zero.asymptote is not None:
        fields += zip(("asymptote_slope", "asymptote_intercept"),
                      map(_g, zero.asymptote))
    for name, rep in (("b_zero", zero), ("b_plus", plus)):
        if rep.b is not None:
            fields.append((name, _g(rep.b)))
    for rep in (zero, plus):
        fields += [(f"I_at_{rep.at}", _g(rep.value_I)),
                   (f"Iprime_at_{rep.at}", _g(rep.slope_I))]
    return _emit(args, "profile.txt", _text(fields))


def _cmd_rate_curve(args) -> list[str]:
    model = _require_levy(_model_from_args(args))
    rows = rate_curve(model, args.x_lo, args.x_hi, args.n)
    return _emit(args, "rate_curve.csv", _text((), *_RATE_TABLE, rows))


def _cmd_figures(args) -> list[str]:
    outputs = []
    for name, fam, params, x_lo, x_hi in _FIGURES:
        rows = rate_curve(make_model(fam, params), x_lo, x_hi, args.n)
        outputs += _emit(args, f"{name}.csv", _text((), *_RATE_TABLE, rows))
    return outputs


def _cmd_simulate(args) -> list[str]:
    from .estimators import tau_ensemble
    model = _model_from_args(args)
    taus = tau_ensemble(model, _sim_config(args), [args.t])
    return _emit(args, "simulate.csv",
                 _text((), "path_id,tau", "{},{:.17g}\n",
                       enumerate(taus[:, 0].tolist())))


def _cmd_lln(args) -> list[str]:
    from .estimators import estimate_lln
    model = _model_from_args(args)
    cfg = _sim_config(args)
    rows = estimate_lln(model, cfg, args.t)
    return _emit(args, "lln.txt",
                 _text(_run_echo("lln", model, cfg), *_ESTIMATE_TABLE, rows))


def _cmd_clt(args) -> list[str]:
    from .estimators import estimate_clt
    model = _require_levy(_model_from_args(args))
    cfg = _sim_config(args)
    res = estimate_clt(model, cfg, args.t)
    fields = _run_echo("clt", model, cfg)
    fields.append(("target_variance", repr(res.target_variance)))
    return _emit(args, "clt.txt",
                 _text(fields, *_ESTIMATE_TABLE,
                       [(res.t, res.ks_statistic, 0.0, 0.0)]))


def _cmd_ldp(args) -> list[str]:
    from .estimators import estimate_ldp_slope
    model = _model_from_args(args)
    cfg = _sim_config(args)
    res = estimate_ldp_slope(model, cfg, args.x, args.t, eps=args.eps)
    fields = [("estimator", "ldp-slope"), ("model", model.describe()),
              ("seed", cfg.seed)]
    fields += [(key, _g(getattr(res, key)))
               for key in ("x", "eps", "slope", "slope_stderr")]
    fields += [("reference_I", _g(res.reference)),
               ("excluded", ",".join(map(_g, res.excluded)) or "none")]
    return _emit(args, "ldp.txt", _text(fields, "t,p_hat,hits",
                                        "{:.17g},{:.17g},{}\n", res.rows))


def _cmd_moments(args) -> list[str]:
    model = _require_levy(_model_from_args(args))
    ledger = moments_mod.moment_recursion(model, args.r_max)
    notes = [(ledger.note,)] if ledger.note else []
    # a ledger row is exact or a recursion of it: no stderr, and finite
    outputs = _emit(args, "moments.csv",
                    _text((), "s,value,method,stderr,finite",
                          "{:.17g},{:.17g},{},,true\n", ledger.rows)
                    + _text((), None, "# {}\n", notes))
    if args.mc_s is not None:
        mc = moments_mod.mc_exp_functional(model, args.mc_s,
                                           _sim_config(args))
        outputs += _emit(args, "moments_mc.csv", _text(
            (), "s,estimate,stderr,n_paths,horizon,tail_bound",
            "{:.17g},{:.17g},{:.17g},{},{:.17g},{:.17g}\n",
            [(args.mc_s, mc.estimate, mc.stderr, mc.n_paths, mc.horizon,
              mc.tail_bound)]))
    return outputs


def _cmd_check_identities(args) -> list[str]:
    from .estimators import identity_checks
    model = _require_levy(_model_from_args(args))
    cfg = _sim_config(args)
    fields = [("model", model.describe()), ("seed", cfg.seed)]

    # the fundamental relation tau(t) = T(t a^alpha), checked pathwise,
    # then at index 1 the tilted identity and the first passage
    thetas = args.theta or [-1.0]
    checks = identity_checks(model, cfg, args.m, args.t, args.t_fp, thetas)
    fields.append(("fundamental_relation_max_abs_err",
                   _g(checks.fundamental)))
    if checks.tilted is None:
        skip = "skipped (stated for clocks of index 1)"
        fields += [("tilted", skip), ("first_passage", skip)]
        return _emit(args, "identities.txt", _text(fields))

    fields += [
        ("tilted_lhs", _g(checks.tilted.lhs)),
        ("tilted_rhs", _g(checks.tilted.rhs)),
        ("tilted_z", _g(checks.tilted.z_score)),
    ]
    if checks.first_passage is None:
        fields.append(("first_passage",
                       "skipped (needs a spectrally negative family)"))
    for fp in checks.first_passage or ():
        if len(thetas) > 1:
            fields.append(("first_passage_theta", _g(fp.theta)))
        fields += [
            ("first_passage_lhs", _g(fp.lhs)),
            ("first_passage_rhs", _g(fp.rhs)),
            ("first_passage_rhs_stderr", _g(fp.rhs_stderr)),
            ("first_passage_analytic_L", _g(fp.analytic)),
        ]
    return _emit(args, "identities.txt", _text(fields))


def _cmd_logA(args) -> list[str]:
    from .estimators import estimate_logA_rate
    model = _require_levy(_model_from_args(args))
    cfg = _sim_config(args)
    row = estimate_logA_rate(model, cfg, args.t)
    return _emit(args, "logA.txt",
                 _text(_run_echo("logA", model, cfg), *_ESTIMATE_TABLE, [row]))


# --------------------------------------------------------------------------
# Parser assembly and entry point.
# --------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first ``run`` and reused by later ones:
    parsing leaves it unchanged, and each parse fills a fresh namespace."""
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
    p.add_argument("--theta", type=float, action="append",
                   help="first-passage transform parameter (repeatable; "
                        "one path ensemble serves all; default -1)")
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
    except HorizonExceededError as exc:
        print(f"horizon error: {exc}", file=sys.stderr)
        return _HORIZON_EXIT
    except (LevyClocksError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    elapsed = time.perf_counter() - started
    report = [("command", f"levyclocks {' '.join(argv)}"),
              ("outputs", ", ".join(outputs))]
    desc = getattr(args, "_model_desc", None)
    if desc is not None:
        report.append(("model", desc))
    seed = getattr(args, "seed", None)
    if seed is not None:
        report.append(("seed", seed))
    report.append(("wall_time_s", f"{elapsed:.3f}"))
    sys.stderr.write(_text(report))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
