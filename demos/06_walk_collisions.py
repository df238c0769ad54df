"""How often two independent oriented walks meet again.

Two walks from the origin step up a uniform coordinate each tick.  Their
re-meeting probability decays like 1/d^2, and the structure of meetings
(runs travelled together, isolated touches) is what the pair-moment bound
charges for.
"""

from orientedcp import WeightDistribution, collision_functional, meet_probability

print("first re-meet probability q = P(2 <= tau <= horizon):")
print(f"{'d':>3} {'P(tau=1)':>9} {'q':>8} {'q d^2':>8} {'never':>7}")
for d in (2, 3, 4, 6, 8):
    est = meet_probability(d, horizon=2000, samples=30_000, seed=[9, d])
    print(f"{d:3d} {est.tau1_fraction:9.4f} {est.q_hat:8.4f} "
          f"{est.d2_scaled:8.3f} {est.censored_fraction:7.4f}")
print("P(tau=1) is exactly 1/d; q d^2 staying bounded is the point")

# Each record is read as three counts: episodes (runs of >= 2 shared steps),
# isolated touches and together-steps.  S_m is the part of the functional
# from records with m episodes; records still meeting at step 40 are cut off.
unit = WeightDistribution.constant(1.0)
print("\n2000 pairs over 40 steps, weighed at lam = 1.5/d:")
print(f"{'d':>3} {'cut off':>8} {'S_0':>9} {'S_1':>9} {'S_2+':>9}")
for d in (2, 3, 6):
    est = collision_functional(unit, d, 1.5 / d, samples=2000, horizon=40,
                               seed=[10, d])
    sums = dict(est.m_sums)
    rest = sum(s for m, s in sums.items() if m >= 2)
    print(f"{d:3d} {est.censored_fraction:8.4f} {sums.get(0, 0.0):9.3g} "
          f"{sums.get(1, 0.0):9.3g} {rest:9.3g}")
print("in d=2 the walks keep meeting and many-episode records dominate; at d=6"
      " they weigh less than one-episode records")
