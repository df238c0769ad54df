import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from orientedcp.walks import (CollisionStats, WalkPair, _stats_from_meets,
                              collision_functional, collision_integrand,
                              collision_stats, meet_probability,
                              sample_walk_pair)
from orientedcp.weights import WeightDistribution

CONST = WeightDistribution.constant(1.0)


def test_walk_pair_positions_and_validation():
    wp = WalkPair(d=2, n_steps=3, steps_a=np.array([0, 1, 0]),
                  steps_b=np.array([1, 1, 0]))
    pos = wp.positions("a")
    assert pos.shape == (4, 2)
    assert pos[0].tolist() == [0, 0]
    assert pos[-1].tolist() == [2, 1]
    assert wp.meet_indices()[0] == 0
    with pytest.raises(ValueError):
        WalkPair(d=2, n_steps=3, steps_a=np.array([0, 1]), steps_b=np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        WalkPair(d=2, n_steps=2, steps_a=np.array([0, 2]), steps_b=np.array([0, 1]))


def test_d1_full_coincidence():
    wp = sample_walk_pair(1, 10, seed=4)
    assert wp.meet_indices().tolist() == list(range(11))
    st_ = collision_stats(wp)
    assert st_.episodes == ((0, 10),)
    assert st_.truncated
    est = collision_functional(CONST, 1, 1.0, samples=50, horizon=30, seed=5)
    assert est.value is None and est.se is None
    assert est.censored_fraction == 1.0
    assert est.m_sums == ()


def test_sampled_steps_are_uniform():
    wp = sample_walk_pair(3, 6000, seed=12)
    for steps in (wp.steps_a, wp.steps_b):
        counts = np.bincount(steps, minlength=3)
        assert counts.sum() == 6000
        assert sps.chisquare(counts).pvalue > 1e-3


def test_six_step_fixture():
    wp = WalkPair(d=2, n_steps=6, steps_a=np.array([0, 1, 0, 0, 1, 0]),
                  steps_b=np.array([1, 0, 0, 1, 0, 1]))
    assert wp.meet_indices().tolist() == [0, 2, 3, 5]
    st_ = collision_stats(wp)
    assert st_.episodes == ((2, 3),)
    assert st_.isolated_counts == (1, 1)
    assert not st_.truncated
    assert st_.episode_lengths("inclusive") == (2,)
    assert st_.episode_lengths("gap") == (1,)
    # T=1, sum K=2, sum L=2: 2^3 * (1+1)^(4+4) with unit weights at lam=1
    assert collision_integrand(st_, CONST, 1.0) == pytest.approx(2048.0)


def _stats_brute(meets, n_steps):
    """Literal re-derivation of the run classification."""
    runs = []
    for m in meets:
        if runs and m == runs[-1][-1] + 1:
            runs[-1].append(m)
        else:
            runs.append([m])
    episodes = [(r[0], r[-1]) for r in runs if len(r) >= 2]
    counts = [0] * (len(episodes) + 1)
    for r in runs:
        if len(r) == 1:
            counts[sum(1 for (_, e) in episodes if e < r[0])] += 1
    truncated = bool(meets) and meets[-1] == n_steps
    return tuple(episodes), tuple(counts), truncated


def test_classifier_vs_brute_on_sampled_pairs():
    rng = np.random.default_rng(77)
    for _ in range(2000):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 13))
        wp = WalkPair(d=d, n_steps=n, steps_a=rng.integers(0, d, n),
                      steps_b=rng.integers(0, d, n))
        meets = wp.meet_indices().tolist()
        st_ = collision_stats(wp)
        eps, counts, trunc = _stats_brute(meets, n)
        assert st_.episodes == eps
        assert st_.isolated_counts == counts
        assert st_.truncated == trunc
        covered = sum(e - s + 1 for (s, e) in eps) + sum(counts)
        assert covered == len(meets)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.data())
def test_classifier_vs_brute_hypothesis(n, data):
    extra = data.draw(st.sets(st.integers(1, n), max_size=n))
    meets = sorted({0} | extra)
    got = _stats_from_meets(np.array(meets), n, 2)
    eps, counts, trunc = _stats_brute(meets, n)
    assert got.episodes == eps
    assert got.isolated_counts == counts
    assert got.truncated == trunc


def test_difference_norm_parity_is_even():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 20))
        wp = WalkPair(d=d, n_steps=n, steps_a=rng.integers(0, d, n),
                      steps_b=rng.integers(0, d, n))
        l1 = np.abs(wp.positions("a") - wp.positions("b")).sum(axis=1)
        assert (l1 % 2 == 0).all()


def test_collision_stats_validation():
    with pytest.raises(ValueError):
        CollisionStats(d=2, n_steps=5, episodes=((1, 3),), isolated_counts=(0,),
                       truncated=False)
    with pytest.raises(ValueError):
        CollisionStats(d=2, n_steps=5, episodes=((3, 3),), isolated_counts=(0, 0),
                       truncated=False)
    with pytest.raises(ValueError):
        CollisionStats(d=2, n_steps=5, episodes=((2, 4), (1, 3)),
                       isolated_counts=(0, 0, 0), truncated=False)
    with pytest.raises(ValueError):
        CollisionStats(d=2, n_steps=5, episodes=((1, 2),), isolated_counts=(0, 0),
                       truncated=False).episode_lengths("median")


def test_integrand_fixtures():
    empty = CollisionStats(d=2, n_steps=8, episodes=(), isolated_counts=(0,),
                           truncated=False)
    assert collision_integrand(empty, CONST, 1.0) == pytest.approx(1.0)
    ep = CollisionStats(d=2, n_steps=10, episodes=((2, 3),), isolated_counts=(0, 1),
                        truncated=False)
    assert collision_integrand(ep, CONST, 1.0) == pytest.approx(256.0)
    assert collision_integrand(ep, CONST, 1.0, convention="gap") == pytest.approx(64.0)
    with pytest.raises(ValueError):
        collision_integrand(empty, CONST, 0.0)
    # bounded weights enter through sup and second moment
    half = WeightDistribution.constant(0.5)
    one_touch = CollisionStats(d=2, n_steps=8, episodes=(), isolated_counts=(1,),
                               truncated=False)
    want = 2.0 * 0.5 ** 4 * (1 + 0.25) ** 2 / 0.25 ** 2
    assert collision_integrand(one_touch, half, 1.0) == pytest.approx(want)


def test_meet_probability_tau1_matches_exact():
    for d in (2, 3):
        est = meet_probability(d, horizon=40, samples=20_000, seed=[50, d])
        p = 1.0 / d
        assert abs(est.tau1_fraction - p) <= 3.0 * math.sqrt(p * (1 - p) / est.samples)
        assert est.tau1_fraction + est.q_hat + est.censored_fraction == pytest.approx(1.0)
        assert est.d2_scaled == pytest.approx(est.q_hat * d * d)


def test_meet_probability_decreases_in_d():
    ests = {d: meet_probability(d, horizon=1000, samples=20_000, seed=[51, d])
            for d in (2, 3, 4, 6)}
    ds = sorted(ests)
    for lo, hi in zip(ds, ds[1:]):
        a, b = ests[lo], ests[hi]
        assert a.q_hat > b.q_hat - 3.0 * (a.se + b.se)


def test_meet_probability_validation_and_determinism():
    with pytest.raises(ValueError):
        meet_probability(1, horizon=10, samples=10)
    with pytest.raises(ValueError):
        meet_probability(2, horizon=0, samples=10)
    a = meet_probability(3, horizon=64, samples=500, seed=7)
    b = meet_probability(3, horizon=64, samples=500, seed=7)
    assert a == b


def test_meet_probability_stops_when_every_pair_has_met():
    # at d=2 every row can meet before a compaction step, which used to leave
    # an empty working set that warned "Mean of empty slice"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = meet_probability(2, 600, 1, seed=0)
        twenty = meet_probability(2, 600, 20, seed=2)
    assert (one.tau1_fraction, one.q_hat, one.se, one.censored_fraction) == \
        (1.0, 0.0, 0.0, 0.0)
    assert (twenty.tau1_fraction, twenty.q_hat, twenty.censored_fraction) == \
        (0.45, 0.55, 0.0)
    assert twenty.se == 0.11124297730643495


def test_functional_se_is_none_below_two_records():
    est = collision_functional(CONST, 10, 0.15, samples=1, horizon=200, seed=0)
    assert est.value == 2.6449999999999996
    assert est.se is None


def test_functional_m_sums_account_for_value():
    est = collision_functional(CONST, 3, 0.3, samples=3000, horizon=256, seed=13)
    assert est.value is not None and est.se > 0.0
    assert est.censored_fraction < 0.05
    assert sum(s for _, s in est.m_sums) == pytest.approx(est.value)
    ms = [m for m, _ in est.m_sums]
    assert ms == list(range(len(ms)))
    for m, ratio in est.m_sum_ratios():
        assert ratio >= 0.0


def test_functional_validation_and_determinism():
    with pytest.raises(ValueError):
        collision_functional(CONST, 2, 0.0, samples=10)
    with pytest.raises(ValueError):
        collision_functional(CONST, 2, 1.0, samples=10, convention="median")
    a = collision_functional(CONST, 2, 0.8, samples=400, horizon=128, seed=3)
    b = collision_functional(CONST, 2, 0.8, samples=400, horizon=128, seed=3)
    assert a == b


def test_functional_no_meet_baseline():
    # the origin touch counts as one isolated meet, so every complete record
    # is worth at least the single-touch factor 2 M^4 (1+lam M^2)^2 / m2^2;
    # were never-re-met rows scored as empty records the mean would dip
    # below it (most rows at d=12 never re-meet and would contribute 1.0)
    est = collision_functional(CONST, 12, 0.1, samples=300, horizon=16, seed=21)
    base = 2.0 * (1.0 + 0.1) ** 2
    assert est.value >= base - 1e-9
    assert est.m_sums[0][1] >= base * 0.5


def test_walk_estimators_golden_digest():
    # Fixed outputs of the difference-walk estimators.  At 1200 samples and
    # horizon 600, meet_probability compacts its working set at steps 256
    # and 512, so the digest also pins the compaction.
    law = WeightDistribution.two_point(0.5)
    rows = []
    for d in (3, 4, 6, 10):
        m = meet_probability(d, 600, 1200, seed=[d])
        rows.append((float(m.tau1_fraction), float(m.q_hat), float(m.se),
                     float(m.censored_fraction)))
        f = collision_functional(law, d, 0.3, 500, 400, seed=[d, 1])
        rows.append((float(f.value), float(f.se), float(f.censored_fraction),
                     f.m_sums, f.diverging))
    assert len(rows) == 8
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "1379c5e13f2b8a49cc9d9f977ded69b313c64f0225d461e3284eccfddecdc43b"
