"""Contact processes with i.i.d. random vertex weights on oriented lattices.

Simulation (uniformized event-driven kinetics and the graphical
construction), exact and Monte Carlo path-moment calculations, collision
statistics of oriented walk pairs, and critical-rate scanning, all on
finite boxes of the oriented lattice where every edge points one step up
a coordinate.

The top level exports the common entry points used by the demos and the
README example; every other name is imported from its submodule.
"""

__version__ = "0.1.0"

from .errors import ResourceLimitError, ScanError
from .lattice import BoxSpec
from .weights import WeightDistribution, sample_field
from .kinetics import (Configuration, decay_envelope, run,
                       weighted_origin_occupancy)
from .harris import (build, duality_annealed, duality_check, duality_sweep,
                     percolate_forward)
from .moments import (count_paths_mc, expected_path_count,
                      path_count_moment_ratio, survival_lower_bound)
from .walks import collision_functional, meet_probability
from .critfind import estimate_critical_rate

__all__ = [
    "BoxSpec", "Configuration", "ResourceLimitError", "ScanError",
    "WeightDistribution", "build", "collision_functional", "count_paths_mc",
    "decay_envelope", "duality_annealed", "duality_check", "duality_sweep",
    "estimate_critical_rate", "expected_path_count", "meet_probability",
    "path_count_moment_ratio", "percolate_forward", "run", "sample_field",
    "survival_lower_bound", "weighted_origin_occupancy",
]
