#!/usr/bin/env python3
"""Simulate clocks through the Lamperti transform and test the limit laws.

Narrative: sample Lévy paths, build the exponential functional A and its
inverse clock tau, map to the positive self-similar process X, then check
the law of large numbers tau(t)/log t -> 1/psi'(0), the Gaussian-limit
probe, and an empirical large-deviation slope against the analytic rate.
"""

import math

import numpy as np

from levyclocks import (
    CauchyModulus,
    SimConfig,
    brownian_drift,
    estimate_clt,
    estimate_ldp_slope,
    estimate_lln,
    sample_levy_path,
    saw_tooth,
    simulate_cauchy_modulus,
)


def main():
    cfg = SimConfig(seed=7, n_paths=400, step=0.01, horizon=12.0)

    print("== one saw-tooth path and its clock")
    path = sample_levy_path(saw_tooth(1.0, 3.0), cfg, 0)   # a one-row block
    print(f"   {path.size[0] - 2} jumps on [0, {cfg.horizon:g}], "
          f"A(horizon) = {path.totals(1.0)[0]:.4g}")
    # the clock of index 1 at each target; NaN where a target lies above
    # A(horizon)
    ts = np.array([1.0, 10.0, 100.0])
    taus = path.clock(1.0, ts)
    assert not np.isnan(taus).any(), "a clock target lies above A(horizon)"
    for t, tau in zip(ts, taus[0]):
        print(f"   tau({t:g}) = {tau:.4f}   (pathwise bound: >= log t = "
              f"{math.log(t):.4f})")

    print("\n== Lamperti: the same path as a self-similar process from a = 2")
    # X = a exp(xi) at the times a^alpha A, with clock T(t) = tau(t a^-alpha)
    a, t = 2.0, 8.0
    x_times, x_values = a * path.functional(1.0)[0], a * np.exp(path.xi[0])
    print(f"   X goes from {x_values[0]:g} to {x_values[-1]:.4g} over "
          f"[0, {x_times[-1]:.4g}]")
    big_t = path.clock(1.0, [t * a * a ** -1.0])[0, 0]
    tau_t = path.clock(1.0, [t])[0, 0]
    print(f"   T(t a) = {big_t:.6f} equals tau(t) = {tau_t:.6f} "
          f"(fundamental relation)")

    print("\n== LLN for tau(t)/log t (saw tooth: 1/psi'(0) = 1.5)")
    rep = estimate_lln(saw_tooth(1.0, 3.0), cfg, [math.e ** 6, math.e ** 10])
    for row in rep.rows:
        print(f"   t = e^{math.log(row.t):.0f}: {row.estimate:.4f} "
              f"+- {row.stderr:.4f}   (limit {row.reference:.4f}; the gap "
              f"shrinks like 1/log t)")

    print("\n== LLN for the Cauchy modulus in R^3 (limit 2/pi = 0.6366)")
    ccfg = SimConfig(seed=7, n_paths=300, step=0.01, horizon=math.e ** 10)
    rep = estimate_lln(CauchyModulus(3), ccfg, [math.e ** 10])
    row = rep.rows[0]
    print(f"   T(e^10)/10 = {row.estimate:.4f} +- {row.stderr:.4f}")
    one = simulate_cauchy_modulus(3, ccfg, 0)
    print(f"   (one path: {len(one.times)} geometric nodes, "
          f"R(horizon) = {one.radius[-1]:.3g})")

    print("\n== CLT probe for the Bessel clock (target N(0, 1/2))")
    bcfg = SimConfig(seed=11, n_paths=600, step=0.005)
    res = estimate_clt(brownian_drift(1.0), bcfg, math.e ** 10)
    print(f"   KS distance {res.ks_statistic:.4f} over {res.n_paths} paths "
          f"(variance target {res.target_variance}; the limit is a "
          f"conjecture, so this is a report, not a gate)")

    print("\n== LDP slope for the Bessel clock at x = 1 (I(1) = 0.125)")
    lcfg = SimConfig(seed=11, n_paths=4000, step=0.005)
    res = estimate_ldp_slope(brownian_drift(1.0), lcfg, 1.0,
                             [math.e ** 8, math.e ** 10, math.e ** 12],
                             eps=0.04)
    print(f"   fitted slope {res.slope:.4f} +- {res.slope_stderr:.4f} "
          f"(pre-asymptotic; hits per t: {[h for _, _, h in res.rows]})")


if __name__ == "__main__":
    main()
