"""Seeded job decks for the four benchmark workloads.

A deck is a list of jobs, each a plain dict that the worker executes:

* ``{"kind": "cli", "argv": [...], "type": ..., "paths": n}`` runs
  ``levyclocks.cli.run(argv)`` with stdout captured;
* ``{"kind": "draw", "family": ..., "params": [...]}`` is one seeded
  parameter point of the ``rate_sweep`` workload (profile, boundary
  classification, a rate curve over the interior of Delta, and a handful
  of rate_I / legendre_dual / invert_L points).

The deck is a pure function of (workload, seed, n_jobs); it uses only
the standard library, so building it needs no part of the program.
Monte Carlo jobs draw their Philox seed from a fixed pool per job type,
so that every job a deck can contain has a digest recorded in
``recorded.json``; the workload seed picks which pool entries run and in
which order.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("rate_sweep", "clock_gaussian", "clock_jump",
             "identities_moments")

# Jobs per second of --seconds.  Every job runs twice, on the program and
# on the frozen reference copy, so a run measures about --seconds of work
# on the reference machine (2-core x86-64, Python 3.11, numpy 2.4) when a
# Monte Carlo job takes about 0.15 s and a rate_sweep draw about 0.12 s.
JOBS_PER_SECOND = {"rate_sweep": 4, "clock_gaussian": 3.25,
                   "clock_jump": 3.125, "identities_moments": 2.5}

# Philox seeds of Monte Carlo jobs: POOL_SIZE per job type, disjoint
# across job types.
POOL_SIZE = 100

# Points of the rate curve in one rate_sweep draw, per family, sized so
# that a draw takes about the same time whatever its family: with
# equal-cost jobs the median and tail job times do not depend on where
# the family clusters fall in the ranking.  CHECK_POINTS is how many
# rate_I, legendre_dual and invert_L points a draw adds.
CURVE_POINTS = {"brownian": 500, "cp-plus": 400, "cp-minus": 400,
                "sawtooth": 350, "stable": 170, "csbp": 180,
                "hypergeometric": 100}
CHECK_POINTS = 4

_E = math.exp


def _targets(*logs: float) -> list[str]:
    argv: list[str] = []
    for k in logs:
        argv += ["--t", repr(_E(k))]
    return argv


_BROWNIAN = ["--family", "brownian", "--nu", "1"]
_SAW_TOOTH = ["--family", "sawtooth", "--beta", "1", "--gamma", "3"]

# (type, argv without --seed, paths per job).  The paths count is part of
# the argv, so a job's digest covers it.
_MC_TYPES: dict[str, tuple[tuple[str, list[str], int], ...]] = {
    "clock_gaussian": (
        # criterion 9, scaled down
        ("ldp_brownian", ["ldp", *_BROWNIAN, "--x", "1", "--eps", "0.03",
                          *_targets(8, 10, 12, 14), "--step", "0.005"], 600),
        # criterion 10, scaled down
        ("clt_brownian", ["clt", *_BROWNIAN, *_targets(14),
                          "--step", "0.002"], 350),
        ("lln_cauchy", ["lln", "--family", "cauchy", "--d", "3",
                        *_targets(14), "--step", "0.004"], 180),
    ),
    "clock_jump": (
        # criterion 6, scaled down
        ("simulate_cp_plus", ["simulate", "--family", "cp-plus", "--d", "1",
                              "--beta", "2", "--gamma", "1",
                              *_targets(8)], 1000),
        ("simulate_cp_minus", ["simulate", "--family", "cp-minus",
                               "--beta", "2", "--gamma", "1",
                               *_targets(8)], 1000),
        ("simulate_saw_tooth", ["simulate", *_SAW_TOOTH, *_targets(8)], 1000),
    ),
    "identities_moments": (
        ("moments_brownian", ["moments", *_BROWNIAN, "--mc-s", "-1",
                              "--step", "0.005"], 700),
        ("moments_saw_tooth", ["moments", *_SAW_TOOTH, "--mc-s", "-1"], 1500),
        ("logA_brownian", ["logA", *_BROWNIAN, "--t", "20",
                           "--step", "0.005"], 450),
        # criterion 8, scaled down
        ("identities_brownian", ["check-identities", *_BROWNIAN,
                                 "--step", "5e-4"], 64),
        ("identities_saw_tooth", ["check-identities", *_SAW_TOOTH], 300),
    ),
}


def mc_job(workload: str, type_index: int, pool_index: int) -> dict:
    """The Monte Carlo job at one pool entry of one job type."""
    name, argv, paths = _MC_TYPES[workload][type_index]
    seed = 10_000 * (type_index + 1) + pool_index
    return {"kind": "cli", "type": name, "paths": paths,
            "argv": [*argv, "--paths", str(paths), "--seed", str(seed)]}


def mc_pool(workload: str) -> list[dict]:
    """Every job a deck of this workload can contain."""
    return [mc_job(workload, k, p)
            for k in range(len(_MC_TYPES[workload]))
            for p in range(POOL_SIZE)]


# --------------------------------------------------------------------------
# rate_sweep parameter draws over the full _validate boxes.
# --------------------------------------------------------------------------

def _gap(rng: random.Random) -> float:
    """A relative distance to a box edge: close to it a third of the time."""
    if rng.random() < 1.0 / 3.0:
        return 10.0 ** rng.uniform(-6.0, -2.0)
    return 10.0 ** rng.uniform(-2.0, 1.0)


def _scale(rng: random.Random) -> float:
    """A positive scale (c, nu, beta, gamma, d), small and large included."""
    u = rng.random()
    if u < 0.25:
        return 10.0 ** rng.uniform(-3.0, -2.0)
    if u < 0.5:
        return 10.0 ** rng.uniform(2.0, 3.0)
    return 10.0 ** rng.uniform(-2.0, 2.0)


def _unit_open(rng: random.Random) -> float:
    """Uniform on (0, 1]."""
    return 1.0 - rng.random()


def _draw_params(family: str, rng: random.Random) -> list[float]:
    if family == "brownian":
        return [_scale(rng)]
    if family == "cp-plus":
        d = 0.0 if rng.random() < 0.1 else _scale(rng)
        return [d, _scale(rng), _scale(rng)]
    if family == "cp-minus":           # 0 < gamma < beta
        gamma = _scale(rng)
        return [gamma * (1.0 + _gap(rng)), gamma]
    if family == "sawtooth":           # 0 < beta < gamma
        beta = _scale(rng)
        return [beta, beta * (1.0 + _gap(rng))]
    if family == "stable":             # alpha in (1, 2)
        u = rng.random()
        if u < 0.25:
            alpha = 1.0 + 10.0 ** rng.uniform(-6.0, -2.0)
        elif u < 0.5:
            alpha = 2.0 - 10.0 ** rng.uniform(-6.0, -2.0)
        else:
            alpha = 1.0 + _unit_open(rng) * (1.0 - 1e-9)
        return [alpha, _scale(rng)]
    if family == "csbp":               # kappa in (0, 1], delta > k/(k+1)
        u = rng.random()
        if u < 0.25:
            kappa = 1.0
        elif u < 0.5:
            kappa = 10.0 ** rng.uniform(-4.0, -1.0)
        else:
            kappa = _unit_open(rng)
        edge = kappa / (kappa + 1.0)
        return [kappa, edge * (1.0 + _gap(rng)), _scale(rng)]
    if family == "hypergeometric":     # alpha in (0, 2], alpha < d
        u = rng.random()
        if u < 0.25:
            alpha = 2.0
        elif u < 0.5:
            alpha = 10.0 ** rng.uniform(-3.0, -1.0)
        else:
            alpha = 2.0 * _unit_open(rng)
        return [alpha, alpha * (1.0 + _gap(rng))]
    raise ValueError(f"unknown family {family!r}")


# CLI family name and parameter flags, in levyclocks.models.PARAM_NAMES order.
FAMILY_FLAGS = {
    "brownian": ("nu",),
    "cp-plus": ("d", "beta", "gamma"),
    "cp-minus": ("beta", "gamma"),
    "sawtooth": ("beta", "gamma"),
    "stable": ("alpha-par", "c"),
    "csbp": ("kappa", "delta", "c"),
    "hypergeometric": ("alpha-par", "d"),
}


def model_flags(family: str, params: list[float]) -> list[str]:
    argv = ["--family", family]
    for flag, value in zip(FAMILY_FLAGS[family], params):
        argv += [f"--{flag}", repr(value)]
    return argv


def _rate_sweep_deck(rng: random.Random, n_jobs: int) -> list[dict]:
    families = list(FAMILY_FLAGS)
    deck: list[dict] = []
    seen = set()
    for i in range(n_jobs - 1):
        family = families[i % len(families)]
        params = _draw_params(family, rng)
        while (family, *params) in seen:      # no model repeats in a run
            params = _draw_params(family, rng)
        seen.add((family, *params))
        deck.append({"kind": "draw", "type": f"draw_{family}",
                     "family": family, "params": params,
                     "points": CURVE_POINTS[family]})
    deck.insert(rng.randrange(n_jobs),
                {"kind": "cli", "type": "figures", "paths": 0,
                 "argv": ["figures", "--n", "200"]})
    return deck


def build_deck(workload: str, seed: int, n_jobs: int) -> list[dict]:
    """The seeded job list of one run; the same arguments give the same
    list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    n_jobs = max(1, n_jobs)
    if workload == "rate_sweep":
        return _rate_sweep_deck(rng, max(2, n_jobs))
    types = _MC_TYPES[workload]
    picks = [rng.sample(range(POOL_SIZE), POOL_SIZE) for _ in types]
    return [mc_job(workload, i % len(types),
                   picks[i % len(types)][(i // len(types)) % POOL_SIZE])
            for i in range(n_jobs)]
