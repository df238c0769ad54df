import hashlib
import os
import re

import numpy as np
import pytest
from scipy import stats as sps

from _oracles import nested_survival, read_csv
from orientedcp import cli, critfind, harris, kinetics, weights
from orientedcp.lattice import BoxSpec
from orientedcp.weights import (WeightDistribution, annealed_map, rng_from,
                                sample_field, seed_key)


def _moments(dist):
    return dist.mean, dist.second_moment, dist.bound


def test_moments_constant():
    assert _moments(WeightDistribution.constant(1.0)) == (1.0, 1.0, 1.0)


def test_moments_two_point():
    for p in (0.3, 0.7):
        m1, m2, bound = _moments(WeightDistribution.two_point(p))
        assert m1 == pytest.approx(p, abs=1e-15)
        assert m2 == pytest.approx(p, abs=1e-15)
        assert bound == 1.0


def test_moments_table_hand_values():
    dist = WeightDistribution.from_table([0.5, 1.5], [0.5, 0.5])
    m1, m2, bound = _moments(dist)
    assert m1 == pytest.approx(1.0, abs=1e-15)
    assert m2 == pytest.approx(1.25, abs=1e-15)
    assert bound == 1.5


def test_quadrature_uniform_moments():
    # Gauss-Legendre is exact for polynomials, so the discretized uniform
    # law on [0,1] reproduces mean 1/2 and second moment 1/3 to rounding
    dist = WeightDistribution.from_density(lambda x: 1.0, bound=1.0)
    assert dist.kind == "quadrature"
    assert len(dist.values) == 32
    assert dist.mean == pytest.approx(0.5, abs=1e-13)
    assert dist.second_moment == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        WeightDistribution.from_table([0.5, 1.0], [0.6, 0.6])  # probs sum != 1
    with pytest.raises(ValueError):
        WeightDistribution.from_table([-0.5, 1.0], [0.5, 0.5])  # negative value
    with pytest.raises(ValueError):
        WeightDistribution.from_table([], [])
    with pytest.raises(ValueError):
        WeightDistribution.from_table([0.0], [1.0])  # P(rho>0) = 0


def test_two_point_zero_mass_needs_escape_hatch():
    with pytest.raises(ValueError):
        WeightDistribution.two_point(0.0)
    dist = WeightDistribution.two_point(0.0, strict=False)
    assert dist.mean == 0.0


def test_sample_field_constant_and_determinism():
    box = BoxSpec(d=2, side=5)
    fld = sample_field(WeightDistribution.constant(1.0), box, 11)
    assert np.all(fld.weights == 1.0)
    dist = WeightDistribution.two_point(0.4)
    f1 = sample_field(dist, box, 42)
    f2 = sample_field(dist, box, 42)
    assert np.array_equal(f1.weights, f2.weights)
    f3 = sample_field(dist, box, 43)
    assert not np.array_equal(f1.weights, f3.weights)


def test_sample_field_binomial_ci():
    box = BoxSpec(d=2, side=99)  # 10^4 vertices
    p = 0.3
    fld = sample_field(WeightDistribution.two_point(p), box, 7)
    n = box.n_vertices
    frac = float((fld.weights == 1.0).mean())
    assert abs(frac - p) <= 3.0 * np.sqrt(p * (1 - p) / n)


def test_sample_chi_square_against_table():
    dist = WeightDistribution.from_table([0.2, 0.7, 1.3], [0.2, 0.5, 0.3])
    rng = np.random.default_rng(123)
    draws = dist.sample(rng, 1_000_000)
    counts = [int((draws == v).sum()) for v in dist.values]
    expected = [p * len(draws) for p in dist.probs]
    assert sum(counts) == len(draws)  # every draw lands on a support value
    _, pval = sps.chisquare(counts, expected)
    assert pval > 0.01


def test_weight_field_readonly_and_grid():
    box = BoxSpec(d=2, side=3)
    fld = sample_field(WeightDistribution.two_point(0.5), box, 1)
    with pytest.raises(ValueError):
        fld.weights[0] = 9.0
    assert fld.grid().shape == (4, 4)


def test_weight_field_equality_is_identity():
    box = BoxSpec(d=2, side=3)
    law = WeightDistribution.two_point(0.5)
    a, b = sample_field(law, box, 1), sample_field(law, box, 1)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert a.law is law and np.array_equal(a.weights, b.weights)


def test_weight_field_span_and_rejections():
    box = BoxSpec(d=2, side=1)
    law = WeightDistribution.from_table([0.5, 1.0, 2.5], [0.5, 0.5, 0.0])
    assert law.span == (0.5, 1.0) and law.bound == 1.0
    # kinetics.run thins against the law's span, and every weight of a
    # field lies in it: a value without mass is never drawn
    drawn = sample_field(law, box, 3)
    assert drawn.law.span == (0.5, 1.0)
    assert set(drawn.weights.tolist()) <= {0.5, 1.0}
    # a law rejects a support value no weight may take
    for bad in (-0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            WeightDistribution.from_table([1.0, bad], [0.5, 0.5])


def test_seed_key_forms():
    assert seed_key(5) == [5]
    assert seed_key([2, 3]) == [2, 3]
    assert seed_key((2, np.int64(3))) == [2, 3]
    with pytest.raises(TypeError):
        seed_key("nope")


def test_seed_sequence_is_not_a_seed():
    # a seed is an int or a list of ints; a SeedSequence is rejected by
    # name wherever a seed is read
    ss = np.random.SeedSequence(17)
    for call in (seed_key, rng_from, lambda s: sample_field(THREE, BoxSpec(2, 2), s),
                 lambda s: annealed_map(_record, THREE, BoxSpec(2, 2), 1, s)):
        with pytest.raises(TypeError, match=r"got SeedSequence\("):
            call(ss)


def test_seed_key_rejects_negative_and_bool_seeds():
    for bad in (-1, [3, -2], (np.int64(-5),)):
        with pytest.raises(ValueError, match=r"seed .*-[125].* negative entry"):
            seed_key(bad)
    for bad in (True, [1, False], 1.5):
        with pytest.raises(TypeError, match=f"got {re.escape(repr(bad))}"):
            seed_key(bad)
    with pytest.raises(ValueError, match="negative"):
        rng_from(-3)
    with pytest.raises(ValueError, match="negative"):
        sample_field(WeightDistribution.two_point(0.5), BoxSpec(2, 2), [-1])


def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys):
    rc = cli.main(["walks", "--set", "d=2", "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "seed -1 has a negative entry" in capsys.readouterr().err


def test_large_seeds_stay_distinct_from_their_low_bits():
    box = BoxSpec(d=2, side=15)
    dist = WeightDistribution.two_point(0.5)
    seeds = (5, 2 ** 64 + 5, 2 ** 128 + 5, [5, 1], [5, 0, 1], [2 ** 32 + 5])
    fields = [sample_field(dist, box, s).weights.tobytes() for s in seeds]
    assert len(set(fields)) == len(seeds)
    keys = [weights._stream_key(seed_key(s)).tolist() for s in seeds]
    assert len({tuple(k) for k in keys}) == len(seeds)


def test_seed_key_streams_are_composable():
    box = BoxSpec(d=2, side=4)
    dist = WeightDistribution.two_point(0.5)
    a = sample_field(dist, box, [7, 0])
    b = sample_field(dist, box, seed_key(7) + [0])
    c = sample_field(dist, box, (7, np.int64(0)))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.weights, c.weights)


def test_rng_from_matches_seed_sequence_streams():
    for seed in (5, [7, 0], (4, np.int64(5))):
        want = np.random.default_rng(np.random.SeedSequence(seed_key(seed))).random(8)
        assert np.array_equal(rng_from(seed).random(8), want)
    gen = np.random.default_rng(3)
    assert rng_from(gen) is gen


THREE = WeightDistribution.from_table([0.3, 1.1, 1.7], [0.2, 0.5, 0.3])


def test_keyed_weights_chi_square():
    box = BoxSpec(d=2, side=399)  # 160 000 sites
    w = sample_field(THREE, box, [21, 4]).weights
    counts = [int((w == v).sum()) for v in THREE.values]
    assert sum(counts) == box.n_vertices  # every weight is a support value
    _, pval = sps.chisquare(counts, [p * box.n_vertices for p in THREE.probs])
    assert pval > 0.001


def test_keyed_weights_lag_one_correlations():
    # neighbours along each axis, and one site in replicates r and r + 1,
    # are uncorrelated: |rho_hat| < 4 / sqrt(n)
    box = BoxSpec(d=3, side=49)
    key = seed_key([33, 2])
    grids = [sample_field(THREE, box, key + [r]).grid() for r in range(3)]
    for g in grids:
        for axis in range(box.d):
            a = np.take(g, range(box.side), axis=axis).ravel()
            b = np.take(g, range(1, box.side + 1), axis=axis).ravel()
            assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(a.size), axis
    for g, h in zip(grids, grids[1:]):
        assert abs(np.corrcoef(g.ravel(), h.ravel())[0, 1]) < 4.0 / np.sqrt(g.size)


def test_per_vertex_reads_equal_the_full_array():
    box = BoxSpec(d=3, side=8)
    order = np.random.default_rng(4).permutation(box.n_vertices).tolist()
    for law in (THREE, WeightDistribution.two_point(0.3),
                WeightDistribution.from_table([0.5, 1.0, 2.5], [0.5, 0.5, 0.0])):
        full = sample_field(law, box, [8, 1]).weights
        # read vertex by vertex, past the point where the rest is hashed
        # in one pass; then read the array of a field read a little first
        lazy = sample_field(law, box, [8, 1])
        assert [lazy.at[v] for v in order] == full[order].tolist()
        assert np.array_equal(lazy.weights, full)
        mixed = sample_field(law, box, [8, 1])
        assert [mixed.at[v] for v in order[:10]] == full[order[:10]].tolist()
        assert np.array_equal(mixed.weights, full)
    # a one-valued law hashes and stores nothing
    const = sample_field(WeightDistribution.constant(2.0), box, 1)
    assert const.at[5] == 2.0 and len(const.at) == 0
    assert np.array_equal(const.weights, np.full(box.n_vertices, 2.0))


def test_boxes_of_two_sides_share_their_common_weights():
    small = sample_field(THREE, BoxSpec(d=3, side=8), [3, 7]).grid()
    big = sample_field(THREE, BoxSpec(d=3, side=16), [3, 7]).grid()
    assert np.array_equal(big[:9, :9, :9], small)


def _record(fld, rng):
    # module level, so the process pool can pickle it
    return [fld.weights.tolist(), rng.random(3).tolist()]


def test_annealed_map_streams_and_order():
    # replicate r runs on sample_field(..., seed_key(seed) + [r]); its
    # stream is Philox under the seed's stream key at counter words
    # [0, 0, r, 1]; the layout does not depend on the number of jobs
    box = BoxSpec(d=2, side=3)
    seed = [9, 4]
    out = annealed_map(_record, THREE, box, 5, seed)
    assert len(out) == 5
    key = weights._stream_key(seed_key(seed))
    for r, (w, got) in enumerate(out):
        assert w == sample_field(THREE, box, seed_key(seed) + [r]).weights.tolist()
        bits = np.random.Philox(key=key, counter=[0, 0, r, 1])
        assert got == np.random.Generator(bits).random(3).tolist()
    assert annealed_map(_record, THREE, box, 5, seed, jobs=2) == out
    other = annealed_map(_record, THREE, box, 5, [9, 5])
    assert all(a[1] != b[1] for a, b in zip(out, other))


def _two_builds(fld, rng):
    first = harris.build(fld.box, fld, 0.8, 2.0, rng)
    second = harris.build(fld.box, fld, 0.8, 2.0, rng)
    return first.times.tolist(), second.times.tolist(), rng.random()


def test_two_builds_read_consecutive_draws_of_one_stream():
    # a trial that builds twice reads the second rep from where the first
    # stopped, in every replicate and for every number of jobs
    box = BoxSpec(d=2, side=3)
    out = annealed_map(_two_builds, THREE, box, 4, 6)
    key = weights._stream_key(seed_key(6))
    for r, (first, second, tail) in enumerate(out):
        rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, r, 1]))
        fld = sample_field(THREE, box, [6, r])
        assert harris.build(box, fld, 0.8, 2.0, rng).times.tolist() == first
        assert harris.build(box, fld, 0.8, 2.0, rng).times.tolist() == second
        assert rng.random() == tail
        assert first != second
    assert annealed_map(_two_builds, THREE, box, 4, 6, jobs=2) == out


def _index(fld, rng):
    return rng.random()


@pytest.mark.parametrize("jobs", [1, 2])
def test_annealed_map_stop_cuts_at_the_first_accepted_prefix(jobs):
    # the stop predicate sees the results in replicate order, and the list
    # ends at its first yes, whatever the number of jobs
    box = BoxSpec(d=1, side=2)
    full = annealed_map(_index, THREE, box, 70, 3)
    seen = []

    def stop(out):
        seen.append(len(out))
        return len(out) == 45

    assert annealed_map(_index, THREE, box, 70, 3, jobs, stop) == full[:45]
    assert seen == list(range(1, 46))
    assert annealed_map(_index, THREE, box, 70, 3, jobs, lambda out: False) == full


def test_annealed_map_rejects_zero_reps():
    box = BoxSpec(d=2, side=3)
    with pytest.raises(ValueError, match="reps must be >= 1"):
        annealed_map(_record, WeightDistribution.constant(1.0), box, 0, seed=1)


# Outputs of every replicate loop that runs on annealed_map: any change to
# how a replicate draws its field or its streams, to how kinetics.run reads
# its stream, or to the order results are combined in, moves these.
TWO_POINT = WeightDistribution.two_point(0.7)


def test_survival_probability_golden():
    for jobs in (1, 2):
        est = critfind.survival_probability(TWO_POINT, 2, 5, 0.9, 4.0, 60, seed=11,
                                            jobs=jobs)
        assert est.p_hat == 6 / 60


def test_survival_indicators_nested_golden():
    ind = nested_survival(TWO_POINT, 2, 4, [0.5, 0.8, 1.2], 3.0, 40, seed=8)
    assert ind.shape == (40, 3) and ind.sum(axis=0).tolist() == [5, 10, 13]
    assert hashlib.sha256(ind.tobytes()).hexdigest() == \
        "2f514d8d71577e07d4507f531e70970ef86d285adff955ce7810a8d5678b29c7"


def test_weighted_origin_occupancy_golden():
    dist = WeightDistribution.from_table([0.3, 1.1, 1.7], [0.2, 0.5, 0.3])
    occ = kinetics.weighted_origin_occupancy(dist, 2, 0.35, [0.0, 0.5, 1.5, 3.0], 40,
                                             seed=9)
    assert repr(occ.values) == "(1.12, 0.7150000000000001, 0.48250000000000004, 0.40499999999999997)"
    assert repr(occ.standard_errors) == ("(0.0, 0.10963291020491978, "
                                         "0.10546844907364479, 0.10111565160745395)")


def test_duality_annealed_and_sweeps_golden():
    box = BoxSpec(2, 4)
    est = harris.duality_annealed(TWO_POINT, box, 0.8, 2.0, 50, seed=12)
    assert (est.p_forward_all, est.p_dual_process, est.p_forward_origin) == \
        (15 / 50, 17 / 50, 15 / 50)
    for jobs in (1, 2):
        for sweep in (harris.duality_sweep, harris.coupling_sweep):
            rep = sweep(TWO_POINT, box, 0.8, 2.0, 40, seed=5, jobs=jobs)
            assert (rep.reps, rep.failures) == (40, 0)


@pytest.mark.parametrize("sets, digest", [
    (["start=origin"],
     "97aeb1f4675c3f89c2f81ca1e624ac5c015f9480b59e234ccbaea8722e949de5"),
    (["start=all", "mode=zeta"],
     "d4b01c14f63defa2d18691e9b5f2cdc10232a87b0b74e89a64f8f36aece0aa88"),
], ids=["origin", "all-zeta"])
def test_simulate_trace_golden(tmp_path, sets, digest):
    out = str(tmp_path / "sim")
    argv = ["simulate", "--out", out, "--seed", "4"]
    for kv in ["lambda=0.9", "reps=3", "box.L=5", "horizon=3.0"] + sets:
        argv += ["--set", kv]
    assert cli.main(argv) == 0
    _, _, rows = read_csv(os.path.join(out, "trace.csv"))
    assert len(rows) == 24
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
