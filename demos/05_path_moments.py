"""Open-path counting: exact transfer recursions against Monte Carlo.

An edge is open when its transmission clock beats the source's recovery
clock.  The expected number of open n-step paths has a closed matrix form;
the second moment needs the joint law of walk pairs, exact for small cases
and sampled for large ones.  Their ratio lower-bounds survival.
"""

import numpy as np

from orientedcp import (WeightDistribution, count_paths_mc, expected_path_count,
                        path_count_moment_ratio, survival_lower_bound)

dist = WeightDistribution.two_point(0.7)
d, lam = 2, 1.2

print(f"two-point(0.7), d={d}, lam={lam}: open-path count moments")
print(f"{'n':>2} {'E exact':>10} {'E mc':>10} {'ratio exact':>12} {'ratio mc':>10}")
for n in (1, 2, 3, 4):
    exact = expected_path_count(dist, d, lam, n)
    mc = count_paths_mc(dist, d, lam, n, reps=20_000, seed=[1, n])
    r_exact = path_count_moment_ratio(dist, d, lam, n)
    r_mc = path_count_moment_ratio(dist, d, lam, n, walk_samples=4000, seed=[2, n])
    print(f"{n:2d} {exact:10.4f} {mc.mean:10.4f} {r_exact.value:12.6f} "
          f"{r_mc.value:10.6f}")

print("\nsurvival lower bound (E count)^2 / E count^2 at n = 8:")
for lam in (0.8, 1.5, 3.0, 6.0):
    sb = survival_lower_bound(dist, d, lam, n_max=8)
    print(f"  lam={lam:4.1f}: bound {sb.value:.4f}")

print("\nconstant weights admit a closed form d^n (lam/(1+lam))^n:")
unit = WeightDistribution.constant(1.0)
for n in (2, 5, 8):
    got = expected_path_count(unit, 3, 0.5, n)
    want = 3.0 ** n * (0.5 / 1.5) ** n
    print(f"  n={n}: {got:.12f} vs {want:.12f}")
