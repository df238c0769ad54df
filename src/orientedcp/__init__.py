"""Contact processes with i.i.d. random vertex weights on oriented lattices.

Simulation (event-queue kinetics and the graphical construction), exact and
Monte Carlo path-moment calculations, collision statistics of oriented walk
pairs, and critical-rate scanning, all on finite boxes of the oriented
lattice where every edge points one step up a coordinate.
"""

__version__ = "0.1.0"

from .errors import ResourceLimitError, ScanError
from .lattice import (BoxSpec, edge_table, in_neighbors, index_vertex,
                      out_neighbors, vertex_index)
from .weights import (WeightDistribution, WeightField, constant_field,
                      load_field, sample_field, save_field, seed_key)
from .kinetics import (Configuration, OccupancyEstimate, SimResult,
                       decay_envelope, run, run_on_events, step_rates,
                       weighted_origin_occupancy)
from .harris import (CheckReport, DualityEstimate, GraphicalRep, build,
                     coupling_sweep, duality_annealed, duality_check,
                     duality_sweep, percolate_dual, percolate_forward,
                     removal_coupling_check, thin_arrows)
from .moments import (MomentRatio, PathCountEstimate, SurvivalBound,
                      TransferOperator, count_paths_mc, expected_path_count,
                      pair_chain_expectation, path_count_moment_ratio,
                      survival_lower_bound)
from .walks import (CollisionStats, FunctionalEstimate, MeetEstimate, WalkPair,
                    collision_functional, collision_integrand, collision_stats,
                    meet_probability, sample_walk_pair)
from .critfind import (CritScanResult, DecayReport, SurvivalEstimate,
                       check_subcritical_decay, estimate_critical_rate,
                       scan_defaults, survival_indicators_nested,
                       survival_probability)

__all__ = [
    "BoxSpec", "CheckReport", "CollisionStats", "Configuration",
    "CritScanResult", "DecayReport", "DualityEstimate", "FunctionalEstimate",
    "GraphicalRep", "MeetEstimate", "MomentRatio", "OccupancyEstimate",
    "PathCountEstimate", "ResourceLimitError", "ScanError", "SimResult",
    "SurvivalBound", "SurvivalEstimate", "TransferOperator", "WalkPair",
    "WeightDistribution", "WeightField", "build", "check_subcritical_decay",
    "collision_functional", "collision_integrand", "collision_stats",
    "constant_field", "count_paths_mc", "coupling_sweep",
    "decay_envelope", "duality_annealed", "duality_check", "duality_sweep",
    "edge_table", "estimate_critical_rate", "expected_path_count",
    "in_neighbors", "index_vertex", "load_field", "meet_probability",
    "out_neighbors", "pair_chain_expectation",
    "path_count_moment_ratio", "percolate_dual", "percolate_forward",
    "removal_coupling_check", "run", "run_on_events", "sample_field",
    "sample_walk_pair", "save_field",
    "scan_defaults", "seed_key", "step_rates", "survival_indicators_nested",
    "survival_lower_bound", "survival_probability", "thin_arrows",
    "vertex_index", "weighted_origin_occupancy",
]
