#!/usr/bin/env python3
"""Walk through the large-deviation analytics for the seven model families.

For each catalog model: the critical point m0, the speed interval
Delta = (tau_plus, tau_zero) with the law-of-large-numbers point tau_e,
the boundary classification (3a/3b/3c at tau_zero, 4a/4b/4c at tau_plus),
and a slice of the rate function I with its Legendre-dual cross-check.
"""

import math

import numpy as np

from levyclocks import (
    brownian_drift,
    cp_minus_drift,
    cp_plus_drift,
    csbp_immigration,
    hypergeometric_stable,
    legendre_dual,
    profile,
    rate_curve,
    rate_I,
    saw_tooth,
    stable_conditioned,
)

MODELS = [
    ("squared-Bessel clock (Brownian drift, nu=1)", brownian_drift(1.0)),
    ("drift + positive jumps (d=1, beta=2, gamma=1)", cp_plus_drift(1, 2, 1)),
    ("negative drift + positive jumps (beta=2, gamma=1)", cp_minus_drift(2, 1)),
    ("saw tooth (beta=1, gamma=3)", saw_tooth(1, 3)),
    ("stable conditioned positive (alpha=1.5)", stable_conditioned(1.5, 1.0)),
    ("CSBP with immigration (kappa=0.5, delta=0.6)", csbp_immigration(0.5, 0.6, 1.0)),
    ("Cauchy modulus in R^3 (hypergeometric, alpha=1, d=3)",
     hypergeometric_stable(1, 3)),
]


def fmt(v):
    return f"{v:.6g}"


def main():
    for title, model in MODELS:
        prof = profile(model)
        print(f"== {title}")
        print(f"   m0 = {fmt(prof.m0)}, psi(m0) = {fmt(prof.psi_m0)}, "
              f"E xi_1 = psi'(0) = {fmt(prof.mean)}")
        print(f"   Delta = ({fmt(prof.tau_plus)}, {fmt(prof.tau_zero)}), "
              f"minimum of I at tau_e = {fmt(prof.tau_e)}")
        print(f"   boundary cases: tau_zero -> {prof.zero.case_label}, "
              f"tau_plus -> {prof.plus.case_label} "
              f"(full LDP: {prof.ldp_status})")
        if prof.zero.asymptote:
            s, b = prof.zero.asymptote
            print(f"   asymptote of I: y = {fmt(s)} x + {fmt(b)}")
        # a short interior slice of I with the duality cross-check
        hi = prof.tau_zero if math.isfinite(prof.tau_zero) else 4 * prof.tau_e
        xs = np.linspace(prof.tau_plus + 0.15 * (hi - prof.tau_plus),
                         prof.tau_plus + 0.85 * (hi - prof.tau_plus), 4)
        cells = []
        worst = 0.0
        for x in xs:
            x = float(x)
            i_val = rate_I(model, x, prof)
            worst = max(worst, abs(i_val - x * legendre_dual(model, 1 / x)))
            cells.append(f"I({fmt(x)}) = {fmt(i_val)}")
        print("   " + ", ".join(cells))
        print(f"   duality |I(x) - x psi*(1/x)| <= {worst:.1e}")
        print()

    print("== rate-curve table (first rows of the Bessel-clock figure)")
    rows = rate_curve(brownian_drift(1.0), 0.05, 3.0, 200)
    for x, i_val, i_slope in rows[:5]:
        print(f"   x = {fmt(x)}: I = {fmt(i_val)}, I' = {fmt(i_slope)}")
    print("   ... (200 rows total; the CLI `figures` subcommand writes all "
          "five canonical tables)")


if __name__ == "__main__":
    main()
