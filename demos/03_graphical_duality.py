"""One random structure, two readings: forward infection and its dual.

The graphical construction drops recovery marks on vertices and transmission
arrows on edges.  Reading time forward from an all-infected start, or
backward from the apex, answers the same question per realization; averaging
over the environment makes the three standard probabilities agree.
"""

import numpy as np

from orientedcp import (BoxSpec, WeightDistribution, build, duality_annealed,
                        duality_check, duality_sweep, percolate_forward,
                        sample_field)

box = BoxSpec(d=2, side=5)
dist = WeightDistribution.two_point(0.7)

rep = build(box, sample_field(dist, box, seed=1), lam=0.8, horizon=2.5, seed=2)
print(f"one realization: {rep.n_events()} events "
      f"({int((rep.kinds == 0).sum())} marks, {int((rep.kinds == 1).sum())} arrows)")
fwd, rev = duality_check(rep)
print(f"forward reading says apex infected: {fwd}; backward reading: {rev}")

hot = percolate_forward(rep, [0])
print(f"from the origin alone, {len(hot)} vertices are infected at the horizon")

sweep = duality_sweep(dist, box, 0.8, 2.5, reps=2000, seed=3)
print(f"\nper-realization agreement over {sweep.reps} structures: "
      f"{sweep.rate:.4f} ({sweep.failures} disagreements)")

est = duality_annealed(dist, box, 0.8, 2.5, reps=4000, seed=4)
print("annealed, three independent estimates of the same number:")
print(f"  apex infected from all-infected start: {est.p_forward_all:.4f} "
      f"(se {est.se_forward_all:.4f})")
print(f"  dual process from the apex survives:   {est.p_dual_process:.4f} "
      f"(se {est.se_dual_process:.4f})")
print(f"  forward process from the origin lives: {est.p_forward_origin:.4f} "
      f"(se {est.se_forward_origin:.4f})")
