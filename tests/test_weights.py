import json

import numpy as np
import pytest
from scipy import stats as sps

from orientedcp import weights
from orientedcp.lattice import BoxSpec
from orientedcp.weights import (WeightDistribution, constant_field, load_field,
                                rng_from, sample_field, save_field, seed_key)


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
    dist = WeightDistribution.from_density(lambda x: 1.0, bound=1.0, nodes=16)
    assert dist.kind == "quadrature"
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


def test_descriptor_roundtrip():
    for dist in (WeightDistribution.constant(2.0),
                 WeightDistribution.two_point(0.7),
                 WeightDistribution.from_table([0.5, 1.5], [0.25, 0.75])):
        again = WeightDistribution.from_descriptor(dist.descriptor())
        assert again == dist


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


def test_save_load_roundtrip(tmp_path):
    box = BoxSpec(d=3, side=3)
    dist = WeightDistribution.from_table([0.5, 1.5], [0.25, 0.75])
    fld = sample_field(dist, box, 99)
    path = tmp_path / "field.bin"
    save_field(fld, path)
    # sidecar JSON carries the descriptor
    side = json.loads((tmp_path / "field.bin.json").read_text())
    assert side["descriptor"] == dist.descriptor()
    back = load_field(path)
    assert back.box == fld.box
    assert np.array_equal(back.weights, fld.weights)


def test_constant_field():
    box = BoxSpec(d=2, side=2)
    fld = constant_field(0.5, box)
    assert np.all(fld.weights == 0.5)


def test_seed_key_forms():
    assert seed_key(5) == [5]
    assert seed_key([2, 3]) == [2, 3]
    assert seed_key(np.random.SeedSequence(17)) == [17]
    assert seed_key(np.random.SeedSequence([4, 5])) == [4, 5]
    with pytest.raises(TypeError):
        seed_key("nope")


def test_seed_key_streams_are_composable():
    box = BoxSpec(d=2, side=4)
    dist = WeightDistribution.two_point(0.5)
    a = sample_field(dist, box, [7, 0])
    b = sample_field(dist, box, np.random.SeedSequence([7, 0]))
    assert np.array_equal(a.weights, b.weights)


def test_rng_from_matches_seed_sequence_streams():
    for seed in (5, [7, 0], np.random.SeedSequence([4, 5])):
        ss = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(seed)
        want = np.random.default_rng(ss).random(8)
        assert np.array_equal(rng_from(seed).random(8), want)
    gen = np.random.default_rng(3)
    assert rng_from(gen) is gen
