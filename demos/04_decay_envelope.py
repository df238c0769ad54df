"""Exponential decay of the weighted occupancy below the mean-field rate.

With recovery rate 1 and infection rate lam per weighted edge, the expected
weight-at-the-origin observable starts at the mean weight and, whenever
d * lam * E[rho^2] < 1, stays under mean * exp((d lam E[rho^2] - 1) t).

The observable is the apex weight times the apex state under the
all-infected start.  By duality the estimator never runs that start: each
replicate runs the reversed process from the apex alone and scores the apex
weight at every time it is still alive.
"""

from orientedcp import WeightDistribution, decay_envelope, weighted_origin_occupancy

d = 3
dist = WeightDistribution.constant(1.0)
lam = 1.0 / 6.0          # d * lam * m2 = 1/2, so the envelope decays at rate 1/2
times = [0.0, 1.0, 2.0, 4.0]

occ = weighted_origin_occupancy(dist, d, lam, times, reps=3000, seed=5)
print(f"d={d}, lam={lam:.4f}, box side {occ.side} (auto)")
print(f"{'t':>4} {'estimate':>10} {'se':>8} {'envelope':>10}")
for t, v, se in zip(occ.times, occ.values, occ.standard_errors):
    env = decay_envelope(dist, d, lam, t)
    print(f"{t:4.1f} {v:10.4f} {se:8.4f} {env:10.4f}")
print("the t=0 value is exact: every vertex starts infected, so the state factor is 1")

# with random weights the envelope uses the second moment, not the mean
tp = WeightDistribution.two_point(0.5)
occ2 = weighted_origin_occupancy(tp, d, 0.5, [1.0, 2.0], reps=3000, seed=6)
print(f"\ntwo-point(0.5), lam=0.5 (d lam m2 = {d * 0.5 * tp.second_moment:.2f}):")
for t, v, se in zip(occ2.times, occ2.values, occ2.standard_errors):
    print(f"  t={t}: estimate {v:.4f} vs envelope "
          f"{decay_envelope(tp, d, 0.5, t):.4f}")
