"""Weight laws and quenched environments.

Every simulation in this package runs on a box of the oriented lattice whose
vertices carry i.i.d. random weights.  This script builds the three discrete
law constructors plus a quadrature law from a density, checks their moments,
and samples a quenched field.
"""

from orientedcp import BoxSpec, WeightDistribution, sample_field

laws = {
    "constant 1": WeightDistribution.constant(1.0),
    "two-point p=0.7": WeightDistribution.two_point(0.7),
    "table {0.5, 1.5}": WeightDistribution.from_table((0.5, 1.5), (0.5, 0.5)),
    "uniform on [0,1]": WeightDistribution.from_density(lambda x: 1.0, bound=1.0),
}

print("law moments (mean, second moment, sup):")
for name, dist in laws.items():
    print(f"  {name:20s} mean={dist.mean:.4f}  m2={dist.second_moment:.4f}  "
          f"sup={dist.bound:.4f}")

# a quenched field is one realization of the environment on a concrete box
box = BoxSpec(d=2, side=6)
fld = sample_field(laws["two-point p=0.7"], box, seed=7)
grid = fld.grid()
print(f"\nfield on a {grid.shape} box, occupied fraction "
      f"{(grid > 0).mean():.3f} (law says 0.7)")
print(grid.astype(int))

# a field is keyed by its seed and the site, not drawn up front: the same
# seed on a box twice the side repeats every weight the boxes share
wider = sample_field(laws["two-point p=0.7"], BoxSpec(d=2, side=12), seed=7)
print(f"side-12 field with the same seed agrees on the side-6 sites: "
      f"{bool((wider.grid()[:7, :7] == grid).all())}")

# empirical vs exact moments on a larger draw
big = sample_field(laws["uniform on [0,1]"], BoxSpec(d=2, side=200), seed=8)
print(f"\nempirical mean of 201^2 uniform draws: {big.weights.mean():.4f} "
      f"(exact 0.5000)")
print(f"empirical second moment:               {(big.weights ** 2).mean():.4f} "
      f"(exact {1/3:.4f})")
