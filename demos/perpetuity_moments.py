#!/usr/bin/env python3
"""Moments of the perpetuity I = int_0^inf exp(-xi_s) ds.

Narrative: the finiteness region of E I^s, the one-step recursion for the
negative integer moments (closed by E I^-1 = psi'(0)), the exact gamma law
for the Brownian family, and truncated-path Monte Carlo with its reported
tail bound.
"""

from levyclocks import (
    F_of_m,
    SimConfig,
    brownian_drift,
    mc_exp_functional,
    moment_finite,
    moment_recursion,
    saw_tooth,
)


def main():
    b = brownian_drift(1.0)

    print("== finiteness of E I^s, Brownian drift nu = 1")
    for s in (-3.0, -1.0, 0.5, 1.0, 2.0):
        print(f"   s = {s:+.1f}: {moment_finite(b, s).value}")
    print("   (E I^s < inf for s > 0 exactly when psi(-s) < 0; "
          "s = 1 sits on the boundary psi(-1) = 0)")

    print("\n== negative-moment recursion vs the exact gamma law")
    for row in moment_recursion(b, r_max=5).rows:
        print(f"   E I^{row.s:g} = {row.value:g}   [{row.method}]")
    print("   gamma law: I = 1/(2 Z_1), so E I^-r = 2^r r! "
          "(2, 8, 48, 384, ...)")

    print("\n== recursion truncation at the domain end")
    from levyclocks import cp_minus_drift
    ledger = moment_recursion(cp_minus_drift(3.0, 2.5), r_max=8)
    print("   rows:", [row.s for row in ledger.rows])
    print("   note:", ledger.note)

    print("\n== Monte Carlo vs exact, E I^-1 = 2 for nu = 1")
    cfg = SimConfig(seed=5, n_paths=5000, step=0.01)
    mc = mc_exp_functional(b, -1.0, cfg)
    print(f"   estimate {mc.estimate:.4f} +- {mc.stderr:.4f} "
          f"(truncation horizon {mc.horizon:g}, tail bound "
          f"{mc.tail_bound:.1e})")

    print("\n== the finiteness constant F(m) = E^(m) I^(m-1)")
    for m in (0.5, 1.0, 2.0):
        v, method, se = F_of_m(b, m, cfg)
        print(f"   Brownian, m = {m}: F = {v:.6f}   [{method}]")
    v, method, se = F_of_m(saw_tooth(1.0, 3.0), 0.5, cfg)
    print(f"   saw tooth, m = 0.5: F = {v:.4f} +- {se:.4f}   [{method}]")


if __name__ == "__main__":
    main()
