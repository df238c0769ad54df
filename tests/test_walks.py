import hashlib
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (coincidence_rows, difference_walk_meetings,
                      walk_positions)
from orientedcp.walks import (_block_meetings, _integrand, _record_counts,
                              _step_table, collision_functional,
                              meet_probability)
from orientedcp.weights import WeightDistribution, rng_from

CONST = WeightDistribution.constant(1.0)


def _meets(steps_a, steps_b, d):
    """(record, step) of every shared vertex of each walk pair, step 0
    included, listed step by step as collision_functional collects them."""
    steps, rows = np.nonzero(coincidence_rows(steps_a, steps_b, d).T)
    return rows, steps


def test_d1_full_coincidence():
    rows, steps = _meets(np.zeros((1, 10), dtype=int), np.zeros((1, 10), dtype=int), 1)
    assert steps.tolist() == list(range(11))
    t, sk, sl, censored = _record_counts(rows, steps, 10)
    assert (t.tolist(), sk.tolist(), sl.tolist(), censored.tolist()) == \
        ([1], [0], [11], [True])
    est = collision_functional(CONST, 1, 1.0, samples=50, horizon=30, seed=5)
    assert est.value is None and est.se is None
    assert est.censored_fraction == 1.0
    assert est.m_sums == ()


def test_six_step_fixture():
    rows, steps = _meets(np.array([[0, 1, 0, 0, 1, 0]]),
                         np.array([[1, 0, 0, 1, 0, 1]]), 2)
    assert steps.tolist() == [0, 2, 3, 5]
    t, sk, sl, censored = _record_counts(rows, steps, 6)
    # one episode (2, 3), isolated touches at 0 and 5
    assert (t.tolist(), sk.tolist(), sl.tolist(), censored.tolist()) == \
        ([1], [2], [2], [False])
    # T=1, sum K=2, sum L=2: 2^3 * (1+1)^(4+4) with unit weights at lam=1
    assert _integrand(CONST, 1.0, 1, 2, 2) == pytest.approx(2048.0)


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


def _assert_counts_match_brute(rows, steps, horizon):
    t, sk, sl, censored = _record_counts(np.asarray(rows), np.asarray(steps), horizon)
    assert len(t) == len(set(rows))
    for r in range(len(t)):
        meets = sorted(s for row, s in zip(rows, steps) if row == r)
        eps, counts, trunc = _stats_brute(meets, horizon)
        assert t[r] == len(eps)
        assert sk[r] == sum(counts)
        assert sl[r] == sum(e - s + 1 for (s, e) in eps)
        assert censored[r] == trunc
        assert sl[r] + sk[r] == len(meets)


def test_classifier_vs_brute_on_sampled_pairs():
    rng = np.random.default_rng(77)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 13))
        rows, steps = _meets(rng.integers(0, d, (20, n)), rng.integers(0, d, (20, n)), d)
        _assert_counts_match_brute(rows.tolist(), steps.tolist(), n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.data())
def test_classifier_vs_brute_hypothesis(n, data):
    records = data.draw(st.lists(st.sets(st.integers(1, n), max_size=n),
                                 min_size=1, max_size=4))
    pairs = sorted((s, r) for r, extra in enumerate(records) for s in {0} | extra)
    _assert_counts_match_brute([r for _, r in pairs], [s for s, _ in pairs], n)


def test_difference_norm_parity_is_even():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 20))
        pos = walk_positions(rng.integers(0, d, (2, n)), d)
        l1 = np.abs(pos[0] - pos[1]).sum(axis=1)
        assert (l1 % 2 == 0).all()


def test_integrand_fixtures():
    # (t, sk, sl): no meetings at all, one episode of two steps plus one touch
    assert _integrand(CONST, 1.0, 0, 0, 0) == pytest.approx(1.0)
    assert _integrand(CONST, 1.0, 1, 1, 2) == pytest.approx(256.0)
    # the gap convention measures that episode as one step
    assert _integrand(CONST, 1.0, 1, 1, 1) == pytest.approx(64.0)
    # bounded weights enter through sup and second moment
    half = WeightDistribution.constant(0.5)
    want = 2.0 * 0.5 ** 4 * (1 + 0.25) ** 2 / 0.25 ** 2
    assert _integrand(half, 1.0, 0, 1, 0) == pytest.approx(want)


def test_integrand_is_the_ieee_quotient_once_its_denominator_underflows():
    # 0.05 ** 399 underflows to 0: the weight is inf, where Python would raise
    assert _integrand(CONST, 0.05, 1, 0, 400) == math.inf
    # with a small weight bound the numerator underflows too: 0 / 0 is nan
    assert math.isnan(_integrand(WeightDistribution.constant(0.5), 0.05, 200, 0, 600))


def test_functional_overflowing_spread_warns_nothing():
    # the integrands' spread overflows at this low rate and long horizon:
    # se is None and numpy is not asked to warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = collision_functional(CONST, 2, 0.05, samples=50, horizon=3000, seed=1)
    assert est.se is None
    assert math.isfinite(est.value) and est.value > 0.0


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


def test_meet_probability_counts_first_meetings_of_its_draws():
    # horizon * samples below one block: all steps come from one draw, so
    # the first meetings can be replayed on the l1 oracle
    d, horizon, samples = 3, 50, 200
    est = meet_probability(d, horizon, samples, seed=5)
    codes = rng_from(5).integers(0, d * d, size=(horizon, samples), dtype=np.int16)
    rows, steps = difference_walk_meetings(codes, d)
    first = {}
    for r, s in zip(rows.tolist(), steps.tolist()):
        first.setdefault(r, s)
    tau = list(first.values())
    assert est.tau1_fraction == tau.count(1) / samples
    assert est.q_hat == (len(tau) - tau.count(1)) / samples
    assert est.censored_fraction == (samples - len(tau)) / samples


def test_meet_probability_validation_and_determinism():
    with pytest.raises(ValueError):
        meet_probability(1, horizon=10, samples=10)
    with pytest.raises(ValueError):
        meet_probability(2, horizon=0, samples=10)
    a = meet_probability(3, horizon=64, samples=500, seed=7)
    b = meet_probability(3, horizon=64, samples=500, seed=7)
    assert a == b


def test_meet_probability_stops_when_every_pair_has_met():
    # at d=2 every row can meet well before the horizon, which once left an
    # empty working set that warned "Mean of empty slice"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = meet_probability(2, 600, 1, seed=0)
        twenty = meet_probability(2, 600, 20, seed=2)
    assert (one.tau1_fraction, one.q_hat, one.se, one.censored_fraction) == \
        (0.0, 1.0, 0.0, 0.0)
    assert (twenty.tau1_fraction, twenty.q_hat, twenty.censored_fraction) == \
        (0.5, 0.5, 0.0)
    assert twenty.se == 0.11180339887498948


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
    # Fixed outputs of meet_probability.  At 1200 samples the first block
    # spans 54 steps and later ones lengthen as pairs retire, so the digest
    # also pins the block schedule.
    rows = []
    for d in (3, 4, 6, 10):
        m = meet_probability(d, 600, 1200, seed=[d])
        rows.append((float(m.tau1_fraction), float(m.q_hat), float(m.se),
                     float(m.censored_fraction)))
    assert len(rows) == 4
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "4ef73ab1960d5db420e0504de37b8f603a5802c67269fa59da339c4c56969586"


def test_walk_functional_rows_golden_digest():
    # The collision_functional rows of the walk-estimator digest on their
    # own: the functional draws two step indices per pair and step, so any
    # change to how the difference walk is stepped must leave these fixed.
    law = WeightDistribution.two_point(0.5)
    rows = []
    for d in (3, 4, 6, 10):
        f = collision_functional(law, d, 0.3, 500, 400, seed=[d, 1])
        rows.append((float(f.value), float(f.se), float(f.censored_fraction),
                     f.m_sums, f.diverging))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "f5bcae396cdd29c614867e85dcbc1dd19674fb6cefc8142002167c70aa40628f"


def test_collision_functional_golden_digest():
    # Fixed outputs of the functional under both conventions, on a short
    # horizon where many records are censored and on a longer one, for a
    # constant law and a two-point law with M != 1.
    rows = []
    for law in (CONST, WeightDistribution.two_point(0.7, 2.0, 0.5)):
        for d in (2, 3):
            for convention in ("inclusive", "gap"):
                for horizon in (7, 64):
                    f = collision_functional(law, d, 0.4, 300, horizon,
                                             seed=[d, horizon],
                                             convention=convention)
                    rows.append((f.value, f.se, f.censored_fraction, f.m_sums,
                                 f.diverging))
    assert len(rows) == 16
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "cda03fda2338849d1c5a34b2171300a115049018f6bd5d78c9a502185a017820"


def _kernel_meetings(codes, d, horizon, blocks):
    """(rows, steps) of the block kernel fed the codes in the given blocks."""
    table = _step_table(d, horizon)
    n = codes.shape[1]
    state = np.zeros((len(table), n), dtype=np.int64)
    rows, steps, start = [], [], 0
    for k in blocks:
        hits = _block_meetings(table, state, codes[start:start + k])
        rows.append(hits % n)
        steps.append(hits // n + start + 1)
        start += k
    return np.concatenate(rows), np.concatenate(steps)


def _digits_per_lane(horizon):
    base, k = 2 * horizon + 1, 1
    while base ** (k + 1) <= 1 << 62:
        k += 1
    return k


@pytest.mark.parametrize("d, horizon, lanes", [
    (2, 100, 1), (3, 100, 1), (6, 10_000, 2), (10, 10_000, 3),
    (16, 10_000, 4), (40, 100, 5), (40, 200, 6), (40, 300, 7), (200, 60, 25)])
def test_block_kernel_meets_where_the_l1_oracle_does(d, horizon, lanes):
    assert len(_step_table(d, horizon)) == lanes
    rng = np.random.default_rng([d, horizon])
    n, steps = 120, min(horizon, 300)
    # half the pairs step on three axes only (d - 1, the coordinate with no
    # digit, among them), so they keep meeting at every d
    axes = np.array([0, d // 2, d - 1])
    i = rng.integers(0, d, (steps, n))
    j = rng.integers(0, d, (steps, n))
    i[:, ::2] = axes[rng.integers(0, 3, (steps, n // 2))]
    j[:, ::2] = axes[rng.integers(0, 3, (steps, n // 2))]
    codes = (i * d + j).astype(np.int16 if d * d <= 1 << 15 else np.int32)
    want_rows, want_steps = difference_walk_meetings(codes, d)
    assert want_rows.size > n // 2
    blocks = [1, 2, 37, 5, steps]    # carries state across uneven blocks
    got_rows, got_steps = _kernel_meetings(codes, d, horizon, blocks)
    assert got_rows.tolist() == want_rows.tolist()
    assert got_steps.tolist() == want_steps.tolist()


@pytest.mark.parametrize("d, horizon", [(3, 500), (16, 2000), (40, 300)])
def test_block_kernel_extreme_digits_are_exact(d, horizon):
    # the first walk always steps on the top digit of lane 0 and the second
    # on its bottom digit: after `horizon` steps they hold +horizon and
    # -horizon, the lane's widest values, with no false zero and no wrap
    top = min(_digits_per_lane(horizon), d - 1) - 1
    bottom = 0 if top else d - 1
    code = top * d + bottom
    codes = np.full((horizon, 3), code, dtype=np.int16)
    table = _step_table(d, horizon)
    state = np.zeros((len(table), 3), dtype=np.int64)
    assert _block_meetings(table, state, codes).size == 0
    base = 2 * horizon + 1
    want = horizon * base ** top - (horizon if top else 0)
    assert state[0].tolist() == [want] * 3 and not state[1:].any()
    # out for half the horizon and back: one meeting, at the last step
    half = horizon // 2
    codes[half:2 * half] = bottom * d + top
    state[:] = 0
    hits = _block_meetings(table, state, codes[:2 * half])
    assert (hits // 3).tolist() == [2 * half - 1] * 3
    assert not state.any()


def test_block_kernel_is_exact_next_to_the_lane_limit():
    # horizon 2**30 - 1 gives base 2**31 - 1 and two digits per lane, the
    # widest lanes any horizon gives; start two steps short of +-horizon
    d, horizon = 5, (1 << 30) - 1
    base = 2 * horizon + 1
    assert _digits_per_lane(horizon) == 2
    table = _step_table(d, horizon)
    start = (horizon - 2) * base - (horizon - 2)    # digit 1 high, digit 0 low
    state = np.array([[start], [-start]], dtype=np.int64)
    codes = np.array([[1 * d + 0], [1 * d + 0]], dtype=np.int16)
    assert _block_meetings(table, state, codes).size == 0
    want = horizon * base - horizon
    assert state[:, 0].tolist() == [want, -start]
    assert want > 1 << 60


def test_walk_block_temporaries_stay_small():
    # the block temporaries are bounded by 2**16 cells per lane: the peak
    # traced allocation of both estimators at the benchmark's sizes
    for call in (lambda: meet_probability(10, 2000, 1000),
                 lambda: collision_functional(CONST, 10, 0.15, 2000, horizon=2000)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def test_integrand_overflow_is_the_ieee_quotient():
    # Python's float ** raises OverflowError where IEEE gives inf
    law = WeightDistribution.two_point(0.5, 2.0, 0.5)
    assert _integrand(law, 0.5, 1, 0, 400) == math.inf
    # finite integrands keep their bits
    assert _integrand(law, 0.5, 0, 3, 200) == \
        2.0 ** 3 * 2.0 ** 12 * 3.0 ** 406 / (0.5 ** 200 * 2.125 ** 206)
    # a denominator past the range gives 0.0, both past it nan (the
    # attribute pairs are not weight laws: no law reaches these corners)
    assert _integrand(SimpleNamespace(bound=1.0, second_moment=1e10),
                      1.0, 0, 1, 40) == 0.0
    assert math.isnan(_integrand(SimpleNamespace(bound=1e10, second_moment=1e100),
                                 1.0, 1, 0, 10))
