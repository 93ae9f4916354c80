#!/usr/bin/env python3
"""Exact-in-law identities checked by simulation.

Narrative: the Esscher tilt keeps each family in its own class; the
scaling/change-of-measure identity ties the clock transform under the
base law to a plain path functional under the tilted law; and the limit
log-Laplace transform L of the clock coincides with the Laplace exponent
of the first-passage subordinator.
"""

import math

import numpy as np

from levyclocks import (
    SimConfig,
    brownian_drift,
    first_passage_check,
    invert_L,
    saw_tooth,
    tilted_identity_check,
)


def main():
    print("== Esscher tilts stay in the family")
    base = saw_tooth(1.0, 3.0)
    tilted = base.esscher(1.0)
    alt = saw_tooth(1.0 * 3.0 / (3.0 + 1.0), 3.0 + 1.0)   # beta', gamma'
    worst = max(abs(tilted.psi(th) - alt.psi(th))
                for th in np.linspace(-1.5, 3.0, 41))
    print(f"   saw_tooth(1,3) tilted by 1 == saw_tooth(0.75, 4): "
          f"max |psi gap| = {worst:.1e}")

    print("\n== tilted identity, Brownian drift (m=1, t=2, a=1)")
    cfg = SimConfig(seed=3, n_paths=30_000, step=0.004)
    r = tilted_identity_check(brownian_drift(1.0), 1.0, 2.0, cfg)
    print(f"   E_a exp(-psi(1) T(t)) = {r.lhs:.5f} +- {r.lhs_stderr:.5f}")
    print(f"   tilted-path functional = {r.rhs:.5f} +- {r.rhs_stderr:.5f}")
    print(f"   z = {r.z_score:+.2f}")

    print("\n== tilted identity, saw tooth (m=0.5, t=2, a=1)")
    cfg = SimConfig(seed=3, n_paths=30_000, step=0.01)
    r = tilted_identity_check(saw_tooth(1.0, 3.0), 0.5, 2.0, cfg)
    print(f"   lhs {r.lhs:.5f}, rhs {r.rhs:.5f}, z = {r.z_score:+.2f}")

    print("\n== first passage: log E exp(theta tau_hat(1)) vs L(theta)")
    for model, name, step in ((brownian_drift(1.0), "brownian", 1e-3),
                              (saw_tooth(1.0, 3.0), "saw tooth", 0.01)):
        cfg = SimConfig(seed=9, n_paths=8000, step=step)
        fp = first_passage_check(model, cfg, 200.0, -0.5)
        print(f"   {name}: rhs = {fp.rhs:.5f} +- {fp.rhs_stderr:.5f}, "
              f"L(-0.5) = {fp.analytic:.5f}; clock side (slow, O(1/log t)): "
              f"lhs = {fp.lhs:.5f}")

    print("\n== L by inversion of psi (Brownian closed form)")
    m = brownian_drift(1.0)
    for theta in (-2.0, -0.5, 0.25):
        ref = (1.0 - math.sqrt(1.0 - 2.0 * theta)) / 2.0
        print(f"   L({theta:+.2f}) = {invert_L(m, theta):+.8f}   "
              f"(closed form {ref:+.8f})")


if __name__ == "__main__":
    main()
