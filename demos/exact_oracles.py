"""Exact finite-n distributions of the weak-record count, two ways.

The dynamic program over the reflected chain and the renewal convolution of
the return-time law are independent representations of the same
distribution; they agree to machine precision.
"""

import numpy as np

from recordwalk import (
    IncrementLaw,
    build_kernel,
    exact_An_distribution,
    renewal_tail_table,
    tau_pmf,
)

sym = IncrementLaw.explicit("right", 0.5, [0.0, 0.5])
stable = IncrementLaw.stable("right", 0.5, 0.5)

print("== return-time law of the reflected chain ==")
tau = tau_pmf(sym, 10)
for m in range(1, 9):
    print(f"P(tau = {m}) = {tau[m]:.10f}")

print("\n== tail table, n = 12 ==")
n = 12
dp = exact_An_distribution(build_kernel(sym, n), n)
rn = renewal_tail_table(sym, n)
print(f"{'k':>3s} {'DP':>18s} {'renewal':>18s}")
for k in range(n + 1):
    print(f"{k:3d} {dp.tail[k]:18.15f} {rn.tail[k]:18.15f}")
print(f"max deviation: {np.max(np.abs(dp.tail - rn.tail)):.2e}")

print("\n== boundary law P(A_n = n) = (q + p0)^n ==")
for n in (5, 20, 40):
    dp = exact_An_distribution(build_kernel(sym, n), n)
    print(f"n = {n:3d}: DP {dp.tail[n]:.15e}  closed {0.5**n:.15e}")

print("\n== stable family, exact: jumps of size >= n lumped ==")
n = 30
dp = exact_An_distribution(build_kernel(stable, n), n)
rn = renewal_tail_table(stable, n)
print(f"error bound carried by the table: {dp.error_bound:.1e}")
print(f"DP vs renewal max deviation: {np.max(np.abs(dp.tail - rn.tail)):.2e}")
base = stable.q + stable.p0
print(f"P(A_n = n): DP {dp.tail[n]:.15e}  closed (q + p0)^n {base**n:.15e}")
