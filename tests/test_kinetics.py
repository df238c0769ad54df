import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from _oracles import FixedField, constant_field, run_next_reaction, step_rates
from orientedcp import lattice
from orientedcp.kinetics import (ETA, ETA_HAT, HEALTHY, INFECTED, REMOVED, ZETA,
                                 Configuration, decay_envelope, run,
                                 weighted_origin_occupancy)
from orientedcp.lattice import BoxSpec
from orientedcp.weights import WeightDistribution, annealed_map, sample_field


def _idx(box, x):
    return lattice.vertex_index(box, x)


def _config(box, mode=ETA, fill=HEALTHY, at=None):
    """A configuration at state ``fill`` except the vertex states in
    ``at``; ``cfg.states`` is read-only once built."""
    st = np.full(box.n_vertices, fill, dtype=np.int8)
    for x, state in (at or {}).items():
        st[_idx(box, x)] = state
    return Configuration(box, st, mode=mode)


def _all_healthy(box, mode=ETA):
    return _config(box, mode)


def test_step_rates_two_infected_in_neighbors():
    box = BoxSpec(d=2, side=2)
    fld = constant_field(1.0, box)
    cfg = _config(box, at={(0, 1): INFECTED, (1, 0): INFECTED})
    rates = step_rates(cfg, fld, 1.0)
    assert rates[_idx(box, (1, 1))] == pytest.approx(2.0)
    assert rates[_idx(box, (0, 1))] == 1.0  # recovery
    assert rates[_idx(box, (0, 0))] == 0.0  # in-neighbors healthy


def test_step_rates_eta_hat_uses_out_neighbors():
    box = BoxSpec(d=2, side=2)
    fld = constant_field(1.0, box)
    cfg = _config(box, ETA_HAT, at={(0, 1): INFECTED, (1, 0): INFECTED})
    rates = step_rates(cfg, fld, 1.0)
    assert rates[_idx(box, (0, 0))] == pytest.approx(2.0)
    assert rates[_idx(box, (1, 1))] == 0.0


def test_step_rates_zeta_removed_is_silent():
    box = BoxSpec(d=2, side=2)
    fld = constant_field(1.0, box)
    cfg = _config(box, ZETA, INFECTED, at={(1, 1): REMOVED})
    rates = step_rates(cfg, fld, 1.0)
    assert rates[_idx(box, (1, 1))] == 0.0


def test_step_rates_zero_weight_never_infected():
    box = BoxSpec(d=2, side=2)
    w = np.ones(box.n_vertices)
    w[_idx(box, (1, 1))] = 0.0
    fld = FixedField(box, w)
    cfg = _config(box, ETA, INFECTED, at={(1, 1): HEALTHY})
    rates = step_rates(cfg, fld, 5.0)
    assert rates[_idx(box, (1, 1))] == 0.0


def test_removed_state_rejected_outside_zeta():
    box = BoxSpec(d=1, side=1)
    for mode in ("eta", "eta_hat"):
        with pytest.raises(ValueError):
            Configuration(box, np.array([-1, 1], dtype=np.int8), mode=mode)
    assert Configuration(box, np.array([-1, 1], dtype=np.int8), mode="zeta").states[0] == -1
    for mode in ("eta", "eta_hat", "zeta"):
        for states in ([2, 0], [1, 2]):
            with pytest.raises(ValueError):
                Configuration(box, np.array(states, dtype=np.int8), mode=mode)


def test_run_rejects_nan_rate_and_horizon():
    box = BoxSpec(d=2, side=3)
    start, fld = Configuration.single_seed(box), constant_field(1.0, box)
    with pytest.raises(ValueError, match="lam must be nonnegative, got nan"):
        run(start, fld, math.nan, 1.0, seed=0)
    with pytest.raises(ValueError, match="horizon must be positive, got nan"):
        run(start, fld, 0.5, math.nan, seed=0)


def test_all_healthy_dies_instantly():
    box = BoxSpec(d=2, side=3)
    res = run(_all_healthy(box), constant_field(1.0, box),
              1.0, 5.0, seed=3)
    assert not res.survived
    assert res.extinction_time == 0.0


def test_pure_death_extinction_time_mean():
    # lam ~ 0: the single seed just waits out its Exp(1) recovery
    box = BoxSpec(d=1, side=1)
    fld = constant_field(1.0, box)
    times = []
    for r in range(10_000):
        res = run(Configuration.single_seed(box), fld, 1e-12, 50.0,
                  seed=[5, r])
        assert not res.survived
        times.append(res.extinction_time)
    assert abs(np.mean(times) - 1.0) <= 0.03


def test_lambda_zero_occupancy_decay():
    box = BoxSpec(d=2, side=3)
    fld = constant_field(1.0, box)
    t = 1.0
    counts = []
    for r in range(500):
        res = run(Configuration.all_infected(box), fld, 0.0, t,
                  seed=[21, r], sample_times=[t])
        counts.append(res.occupancy_trace[0][1])
    want = box.n_vertices * math.exp(-t)
    se = math.sqrt(box.n_vertices * math.exp(-t) * (1 - math.exp(-t)) / 500)
    assert abs(np.mean(counts) - want) <= 3.0 * se


def test_two_vertex_chain_against_matrix_exponential():
    # d=1, L=1: states (s0, s1), infection only along 0 -> 1
    lam, t = 1.5, 2.0
    Q = np.zeros((4, 4))  # order: 00, 01, 10, 11
    Q[1, 0] = 1.0
    Q[2, 0], Q[2, 3] = 1.0, lam
    Q[3, 1], Q[3, 2] = 1.0, 1.0
    np.fill_diagonal(Q, -Q.sum(axis=1))
    p_surv = 1.0 - expm(Q * t)[2, 0]

    box = BoxSpec(d=1, side=1)
    fld = constant_field(1.0, box)
    reps = 4000
    hits = sum(run(Configuration.single_seed(box), fld, lam, t,
                   seed=[9, r]).survived for r in range(reps))
    p_hat = hits / reps
    se = math.sqrt(p_hat * (1 - p_hat) / reps)
    assert abs(p_hat - p_surv) <= 3.0 * se


@pytest.mark.parametrize("mode", [ETA, ETA_HAT])
@pytest.mark.parametrize("described", [True, False])
def test_square_against_matrix_exponential(mode, described):
    # d=2, L=1: 4 vertices, 16 states.  Unequal weights make the engine thin
    # transmissions, and the corner vertices have fewer than d in-box
    # targets, so some transmission slots are null events.  When described,
    # the law's weight bound (2.5) exceeds every weight in the field.
    box = BoxSpec(d=2, side=1)
    weights = [1.0, 0.5, 2.0, 1.5]
    fld = FixedField(box, weights, 2.5 if described else None)
    lam, t = 0.8, 1.5
    Q = np.zeros((16, 16))
    for s in range(16):
        states = np.array([(s >> v) & 1 for v in range(4)], dtype=np.int8)
        rates = step_rates(Configuration(box, states, mode=mode), fld, lam)
        for v in range(4):
            Q[s, s ^ (1 << v)] = rates[v]
    np.fill_diagonal(Q, -Q.sum(axis=1))
    seed_site, probe = (box.origin, 3) if mode == ETA else (box.apex, 0)
    start = Configuration.single_seed(box, seed_site, mode=mode)
    p_t = expm(Q * t)[1 << _idx(box, seed_site)]
    counts = np.array([bin(s).count("1") for s in range(16)])
    exact = {"survival": 1.0 - p_t[0],
             "count": float(p_t @ counts),
             "probe": float(sum(p_t[s] for s in range(16) if s >> probe & 1))}

    reps = 4000
    got = {key: [] for key in exact}
    for r in range(reps):
        res = run(start, fld, lam, t, seed=[19, r], sample_times=[t], probe=probe)
        got["survival"].append(res.survived)
        got["count"].append(res.occupancy_trace[0][1])
        got["probe"].append(res.probe_trace[0][1] == INFECTED)
    for key, want in exact.items():
        vals = np.asarray(got[key], dtype=float)
        se = vals.std() / math.sqrt(reps)
        assert abs(vals.mean() - want) <= 3.0 * se, key


def _engine_summary(engine, dist, mode, start, reps, seed):
    """Per-replicate survival, extinction time and sampled counts."""
    box, lam, horizon, times = BoxSpec(2, 4), 0.9, 3.0, [1.0, 2.0, 3.0]
    cfg = start(box, mode=mode)
    rows = []
    for r in range(reps):
        fld = sample_field(dist, box, [seed, r, 0])
        res = engine(cfg, fld, lam / dist.second_moment, horizon,
                     seed=[seed, r, 1], sample_times=times)
        rows.append([res.survived, res.extinction_time]
                    + [count for _, count, _ in res.occupancy_trace])
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("mode", [ETA, ETA_HAT, ZETA])
@pytest.mark.parametrize("dist", [WeightDistribution.constant(1.0),
                                  WeightDistribution.two_point(0.5),
                                  WeightDistribution.two_point(0.5, 2.0, 0.5)],
                         ids=["constant", "two_point", "two_point_2_half"])
@pytest.mark.parametrize("start", [Configuration.single_seed,
                                   Configuration.all_infected],
                         ids=["origin", "all"])
def test_uniformized_engine_matches_next_reaction(mode, dist, start):
    # the same law through two unrelated event loops: survival, mean
    # extinction time and the counts at each sample time agree within
    # 3 joint standard errors (exactly when neither side varies)
    reps = 300
    new = _engine_summary(run, dist, mode, start, reps, seed=41)
    old = _engine_summary(run_next_reaction, dist, mode, start, reps, seed=42)
    for k in range(new.shape[1]):
        joint = math.hypot(new[:, k].std(), old[:, k].std()) / math.sqrt(reps)
        assert abs(new[:, k].mean() - old[:, k].mean()) <= 3.0 * joint, k


def test_sample_time_past_horizon_rejected():
    box = BoxSpec(d=2, side=3)
    with pytest.raises(ValueError, match="past the horizon 2.0"):
        run(Configuration.single_seed(box), constant_field(1.0, box), 0.5, 2.0,
            seed=1, sample_times=[0.5, 1.0, 5.0])
    # a sample exactly at the horizon is recorded
    res = run(Configuration.single_seed(box), constant_field(1.0, box), 0.5, 2.0,
              seed=1, sample_times=[2.0])
    assert [t for t, _, _ in res.occupancy_trace] == [2.0]


def test_run_determinism_bit_exact():
    box = BoxSpec(d=2, side=4)
    dist = WeightDistribution.two_point(0.6)
    fld = sample_field(dist, box, 8)
    kw = dict(sample_times=[0.5, 1.5, 3.0], probe=_idx(box, (2, 2)))
    a = run(Configuration.all_infected(box), fld, 0.9, 3.0, seed=77, **kw)
    b = run(Configuration.all_infected(box), fld, 0.9, 3.0, seed=77, **kw)
    assert a.survived == b.survived
    assert a.extinction_time == b.extinction_time
    assert a.occupancy_trace == b.occupancy_trace
    assert a.probe_trace == b.probe_trace
    # callers reuse one start configuration across replicates: its states
    # are read-only, and each run restores the buffer it borrows, so a
    # second run from the same configuration repeats the first
    for mode in (ETA, ETA_HAT, ZETA):
        for cfg in (Configuration.all_infected(box, mode=mode),
                    Configuration.single_seed(box, mode=mode)):
            before = cfg.states.copy()
            first = run(cfg, fld, 0.9, 3.0, seed=77, **kw)
            again = run(cfg, fld, 0.9, 3.0, seed=77, **kw)
            assert np.array_equal(cfg.states, before)
            assert (first.extinction_time, first.occupancy_trace, first.probe_trace) \
                == (again.extinction_time, again.occupancy_trace, again.probe_trace)
            with pytest.raises(ValueError, match="read-only"):
                cfg.states[0] = 0


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_run_golden_digests():
    # Fixed outputs of the engine: any change in how it consumes random
    # draws, picks events or records samples moves these digests.
    rows = []
    for box in (BoxSpec(2, 6), BoxSpec(3, 4)):
        for mode in (ETA, ETA_HAT, ZETA):
            for start in (Configuration.single_seed, Configuration.all_infected):
                for s in range(3):
                    fld = sample_field(WeightDistribution.two_point(0.5), box, [s, 1])
                    res = run(start(box, mode=mode), fld, 0.9, 6.0, seed=[s, 9],
                              sample_times=[0.5, 1.0, 2.0, 6.0],
                              probe=box.n_vertices - 1)
                    rows.append((res.survived, res.extinction_time,
                                 res.occupancy_trace, res.probe_trace))
    assert len(rows) == 36
    assert _digest(rows) == \
        "5ec0914d69f02d66b96ebd71652483435fefc65bcbabe14fce70f207a26f0202"

    # long supercritical runs that cross several batches of draws
    box = BoxSpec(3, 8)
    rows = []
    for r in range(20):
        fld = sample_field(WeightDistribution.constant(1.0), box, [5, r, 0])
        res = run(Configuration.single_seed(box), fld, 2 / 3, 16.0, seed=[5, r, 1],
                  sample_times=[4.0, 8.0, 15.0])
        rows.append((res.survived, res.extinction_time, res.occupancy_trace))
    assert sum(row[0] for row in rows) == 8
    assert _digest(rows) == \
        "69e7de1858a93e0584c89d7768db0a55955c43412907326f1ba0f60468c6dd2a"


def test_no_infection_without_in_edges():
    # the origin has no in-neighbors, so with everything else infected it
    # must stay healthy forever in mode eta
    box = BoxSpec(d=2, side=3)
    fld = constant_field(1.0, box)
    st = np.ones(box.n_vertices, dtype=np.int8)
    st[0] = 0
    cfg = Configuration(box, st)
    res = run(cfg, fld, 5.0, 4.0, seed=13, sample_times=[1.0, 2.0, 4.0],
              probe=0)
    assert all(state == 0 for _, state in res.probe_trace)


def test_zeta_state_path_is_one_way():
    box = BoxSpec(d=2, side=3)
    fld = constant_field(1.0, box)
    rank = {0: 0, 1: 1, -1: 2}
    probe = _idx(box, (1, 1))
    for r in range(50):
        res = run(Configuration.single_seed(box, mode=ZETA), fld, 2.0, 3.0,
                  seed=[31, r], sample_times=np.linspace(0.2, 3.0, 15),
                  probe=probe)
        ranks = [rank[s] for _, s in res.probe_trace]
        assert ranks == sorted(ranks)


def test_occupancy_monotone_in_time():
    dist = WeightDistribution.constant(1.0)
    occ = weighted_origin_occupancy(dist, 2, 0.4, [1.0, 2.0, 3.0], 800, seed=4)
    for k in range(len(occ.times) - 1):
        joint = 3.0 * math.hypot(occ.standard_errors[k], occ.standard_errors[k + 1])
        assert occ.values[k + 1] <= occ.values[k] + joint


def _forward_occupancy(dist, d, lam, times, reps, seed):
    """All-infected forward estimator of the apex occupancy, for cross-checks."""
    ts = sorted(times)
    box = BoxSpec(d=d, side=math.ceil(ts[-1]) + 3)
    apex = _idx(box, box.apex)
    w = np.zeros((reps, len(ts)))
    for r in range(reps):
        fld = sample_field(dist, box, [seed, r, 0])
        res = run(Configuration.all_infected(box), fld, lam, ts[-1],
                  seed=[seed, r, 1], sample_times=ts, probe=apex)
        w[r] = [fld.weights[apex] * (st == INFECTED) for _, st in res.probe_trace]
    return w.mean(axis=0), w.std(axis=0) / math.sqrt(reps)


def test_dual_occupancy_matches_forward_estimator():
    dist = WeightDistribution.two_point(0.5)
    times, reps = [1.0, 2.0, 3.0], 2000
    fwd, fwd_se = _forward_occupancy(dist, 2, 0.8, times, reps, seed=17)
    occ = weighted_origin_occupancy(dist, 2, 0.8, times, reps, seed=18)
    assert occ.times == tuple(times)
    for k in range(len(times)):
        joint = math.hypot(fwd_se[k], occ.standard_errors[k])
        assert joint > 0.0
        assert abs(occ.values[k] - fwd[k]) <= 3.0 * joint


def test_dual_occupancy_exactly_non_increasing():
    times = [0.5, 1.0, 1.5, 2.0, 3.0]
    for dist, lam in ((WeightDistribution.constant(1.0), 0.4),
                      (WeightDistribution.two_point(0.5), 0.8),
                      (WeightDistribution.from_table([0.5, 1.5], [0.5, 0.5]), 0.3)):
        for seed in (1, 2, 3):
            occ = weighted_origin_occupancy(dist, 2, lam, times, 60, seed=seed)
            assert all(b <= a for a, b in zip(occ.values, occ.values[1:]))


def test_weighted_origin_occupancy_rejects_zero_reps():
    with pytest.raises(ValueError, match="reps"):
        weighted_origin_occupancy(WeightDistribution.constant(1.0), 2, 0.5,
                                  [1.0], 0, seed=1)


def test_weighted_origin_occupancy_t0_exact():
    dist = WeightDistribution.two_point(0.35)
    occ = weighted_origin_occupancy(dist, 2, 0.5, [0.0], 10, seed=1)
    assert occ.values[0] == dist.mean
    assert occ.standard_errors[0] == 0.0


def test_decay_envelope_value():
    dist = WeightDistribution.constant(1.0)
    # d*lam*Erho^2 = 1/2 -> exponent -1/2
    assert decay_envelope(dist, 3, 1.0 / 6.0, 2.0) == pytest.approx(math.exp(-1.0))


def test_constant_weight_scaling_equivalence():
    # rho = c at rate lam equals rho = 1 at rate lam*c^2; with c = 2 every
    # float product is exact, so trajectories must match bit for bit
    box = BoxSpec(d=2, side=4)
    f2 = constant_field(2.0, box)
    f1 = constant_field(1.0, box)
    lam = 0.11
    for r in range(100):
        a = run(Configuration.single_seed(box), f2, lam, 6.0, seed=[55, r],
                sample_times=[2.0, 4.0])
        b = run(Configuration.single_seed(box), f1, 4.0 * lam, 6.0, seed=[55, r],
                sample_times=[2.0, 4.0])
        assert a.survived == b.survived
        assert a.extinction_time == b.extinction_time
        assert [(t, n) for t, n, _ in a.occupancy_trace] == \
            [(t, n) for t, n, _ in b.occupancy_trace]


# Keyed weights and counter-based streams couple boxes of different sides:
# a run that never reaches the smaller box's far faces makes the same
# choices in both and reads the same weights.  Together these stand in for
# a timing gate on "per-replicate setup does not grow with V".
SPREAD = WeightDistribution.from_table([0.5, 1.0, 2.0], [0.3, 0.4, 0.3])


def _coupled(side):
    box = BoxSpec(3, side)
    start = Configuration.single_seed(box)
    lam = 0.3 / (3 * SPREAD.second_moment)

    def trial(fld, rng):
        res = run(start, fld, lam, 4.0, seed=rng)
        sites = sorted(tuple(int(c) for c in np.unravel_index(v, box.shape))
                       for v in fld.at)
        return res.extinction_time, sites, fld._weights is None

    return annealed_map(trial, SPREAD, box, 200, seed=[13, 3])


def test_boxes_of_two_sides_give_identical_runs_from_the_origin():
    small, big = _coupled(8), _coupled(16)
    assert [t for t, _, _ in small] == [t for t, _, _ in big]
    assert len({t for t, _, _ in small}) > 100  # the runs do differ


def test_runs_read_the_same_weights_whatever_the_box_side():
    small, big = _coupled(8), _coupled(16)
    assert [s for _, s, _ in small] == [s for _, s, _ in big]
    reads = [len(s) for _, s, _ in small]
    assert sum(reads) > 0 and max(reads) < 64
    # no replicate hashed its whole box
    assert all(lazy for _, _, lazy in small + big)


def test_run_without_transmission_reads_no_weight():
    box = BoxSpec(3, 8)
    fld = sample_field(SPREAD, box, 4)
    for start in (Configuration.single_seed(box), Configuration.all_infected(box)):
        run(start, fld, 0.0, 4.0, seed=5)
    assert len(fld.at) == 0 and fld._weights is None
