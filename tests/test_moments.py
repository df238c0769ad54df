import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from _oracles import (FixedField, PathPercolation, coincidence_rows, constant_field,
                      count_paths, pair_factor, path_percolation,
                      sample_path_percolation)
from orientedcp import lattice, walks
from orientedcp.lattice import BoxSpec
from orientedcp.moments import (_pattern_values, _patterns_between,
                                count_paths_mc, edge_pass_probability,
                                expected_path_count, pair_chain_expectation,
                                path_count_moment_ratio,
                                shared_source_pass_probability,
                                survival_lower_bound)
from orientedcp.weights import WeightDistribution, rng_from, sample_field

CONST = WeightDistribution.constant(1.0)
LAWS = (CONST, WeightDistribution.two_point(0.5),
        WeightDistribution.from_table((0.3, 1.0, 2.0), (0.2, 0.5, 0.3)))


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_edge_pass_fixtures():
    assert edge_pass_probability(1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert edge_pass_probability(4.0, 0.5, 0.5) == pytest.approx(0.5)
    assert edge_pass_probability(1.0, 0.0, 1.0) == 0.0
    # matches the one-edge integral P(U <= T)
    r = 0.7
    want, _ = quad(lambda t: (1 - math.exp(-r * t)) * math.exp(-t), 0, np.inf)
    assert edge_pass_probability(0.7, 1.0, 1.0) == pytest.approx(want, abs=1e-10)


def test_shared_source_exact_value():
    # unit rates: 1 - 1/2 - 1/2 + 1/3
    assert shared_source_pass_probability(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)


def test_shared_source_vs_quadrature():
    for lam, a, c, ch in [(1.0, 1.0, 1.0, 1.0), (0.5, 2.0, 0.7, 1.3), (3.0, 0.4, 0.9, 0.2)]:
        r1, r2 = lam * a * c, lam * a * ch
        want, _ = quad(lambda t: (1 - math.exp(-r1 * t)) * (1 - math.exp(-r2 * t))
                       * math.exp(-t), 0, np.inf)
        got = shared_source_pass_probability(lam, a, c, ch)
        assert got == pytest.approx(want, abs=1e-10)


def test_shared_source_vs_direct_draws():
    rng = np.random.default_rng(2024)
    n = 1_000_000
    t = rng.standard_exponential(n)
    r1, r2 = 0.8, 1.7
    u1 = rng.standard_exponential(n) / r1
    u2 = rng.standard_exponential(n) / r2
    hit = ((u1 <= t) & (u2 <= t)).mean()
    want = shared_source_pass_probability(1.0, 1.0, r1, r2)
    assert abs(hit - want) <= 3.0 * math.sqrt(want * (1 - want) / n)


def test_pair_factor_dispatch():
    same = pair_factor(1.0, 1.0, 1.0)
    assert (same.value, same.is_bound, same.exact) == (0.5, False, 0.5)
    split = pair_factor(1.0, 1.0, 1.0, c_hat=1.0)
    assert split.value == pytest.approx(1.0 / 3.0)
    assert not split.is_bound
    bound = pair_factor(1.0, 1.0, 1.0, c_hat=1.0, use_bound=True)
    assert bound.value == pytest.approx(0.5)
    assert bound.is_bound and bound.exact == pytest.approx(1.0 / 3.0)
    far = pair_factor(1.0, 1.0, 1.0, b=1.0, c_hat=1.0)
    assert far.value == pytest.approx(0.25)
    with pytest.raises(ValueError):
        pair_factor(1.0, 1.0, 1.0, b=2.0)


def test_split_bound_dominates_exact():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam, a, c, ch = rng.uniform(0.05, 4.0, size=4)
        f = pair_factor(lam, a, c, c_hat=ch, use_bound=True)
        assert f.value >= f.exact - 1e-15


def _chain_brute(dist, lam, n):
    vals, prs = dist.values, dist.probs
    tot = 0.0
    for combo in itertools.product(range(len(vals)), repeat=n + 1):
        p = math.prod(prs[i] for i in combo)
        g = math.prod(float(edge_pass_probability(lam, vals[combo[k]], vals[combo[k + 1]]))
                      for k in range(n))
        tot += p * g
    return tot


def test_chain_expectation_closed_form_constant():
    # at d = 1 the path count is the chain expectation itself
    for lam in (0.3, 1.0, 2.5):
        g = lam / (1.0 + lam)
        for n in range(11):
            assert expected_path_count(CONST, 1, lam, n) == pytest.approx(
                g ** n, abs=1e-12)


def test_chain_expectation_two_point_one_step():
    p, lam, d = 0.6, 0.9, 3
    want = d * p * p * lam / (1.0 + lam)
    got = expected_path_count(WeightDistribution.two_point(p), d, lam, 1)
    assert got == pytest.approx(want, abs=1e-12)


def test_chain_expectation_vs_nested_sum():
    dist = WeightDistribution.from_table((0.5, 1.0, 2.0), (0.2, 0.5, 0.3))
    for lam in (0.4, 1.3):
        for n in range(5):
            assert expected_path_count(dist, 1, lam, n) == pytest.approx(
                _chain_brute(dist, lam, n), abs=1e-12)


def test_count_paths_hand_fixture():
    box = BoxSpec(d=2, side=2)
    fld = constant_field(1.0, box)
    V = box.n_vertices
    vclock = np.ones(V)
    eclock = np.full((2, V), np.inf)
    idx = lambda c: lattice.vertex_index(box, c)
    # open: (0,0)->(1,0), (0,0)->(0,1), (1,0)->(1,1), (0,1)->(1,1)
    eclock[0, idx((0, 0))] = 0.5
    eclock[1, idx((0, 0))] = 0.5
    eclock[1, idx((1, 0))] = 0.5
    eclock[0, idx((0, 1))] = 0.5
    perc = PathPercolation(field=fld, lam=1.0, vertex_clocks=vclock, edge_clocks=eclock)
    assert count_paths(perc, 0) == 1
    assert count_paths(perc, 1) == 2
    assert count_paths(perc, 2) == 2
    with pytest.raises(ValueError):
        count_paths(perc, 3)


def _dfs_count(perc, n):
    """Recursive re-derivation, no level vectorisation."""
    box = perc.field.box
    opn = perc.open_edges()
    nb = lattice.out_neighbor_indices(box)

    def go(v, k):
        if k == 0:
            return 1
        tot = 0
        for i in range(box.d):
            w = nb[v, i]
            if w >= 0 and opn[i, v]:
                tot += go(w, k - 1)
        return tot

    return go(0, n)


def test_count_paths_vs_dfs():
    dist = WeightDistribution.two_point(0.7)
    for d, side, n in [(2, 3, 3), (3, 2, 2)]:
        box = BoxSpec(d, side)
        for r in range(40):
            fld = sample_field(dist, box, [301, d, r])
            perc = sample_path_percolation(fld, 0.9, seed=[302, d, r])
            assert count_paths(perc, n) == _dfs_count(perc, n)


def test_zero_weight_origin_blocks_all_paths():
    box = BoxSpec(2, 2)
    fld = None
    for s in range(80):
        cand = sample_field(WeightDistribution.two_point(0.5), box, [401, s])
        if cand.weights[0] == 0.0:
            fld = cand
            break
    assert fld is not None
    perc = sample_path_percolation(fld, 1.0, seed=9)
    assert count_paths(perc, 0) == 1
    assert count_paths(perc, 1) == 0
    assert count_paths(perc, 2) == 0


def test_count_paths_mc_matches_exact_moments():
    dist = WeightDistribution.two_point(0.7)
    d, n, lam = 2, 3, 0.9
    est = count_paths_mc(dist, d, lam, n, reps=40_000, seed=11)
    assert abs(est.mean - expected_path_count(dist, d, lam, n)) <= 3.0 * est.se_mean
    exact = path_count_moment_ratio(dist, d, lam, n)
    assert abs(est.second_moment - exact.numerator) <= 3.0 * est.se_second
    se_ratio = est.ratio * math.sqrt((est.se_second / est.second_moment) ** 2
                                     + (2.0 * est.se_mean / est.mean) ** 2)
    assert abs(est.ratio - exact.value) <= 4.0 * se_ratio


def test_count_paths_mc_per_draw_matches_full_box_oracle():
    # One replicate per call: redraw its weights, recovery clocks and edge
    # clocks over the simplex {coordinate sum <= n} from the same stream,
    # embed them in the full box (weight 0 and never-firing edge clocks
    # off the simplex), and count on the full box, which reads every
    # vertex rather than the level sets.  A (S,) draw consumes the stream
    # exactly as a (1, S) draw does.
    for dist in LAWS:
        for d in (1, 2, 3, 4):
            for n in (0, 1, 3, 5):
                box = BoxSpec(d, max(n, 1))
                V = box.n_vertices
                level = np.indices(box.shape).reshape(d, V).sum(axis=0)
                simplex = np.argsort(level, kind="stable")[:int((level <= n).sum())]
                for s in range(40):
                    est = count_paths_mc(dist, d, 0.9, n, reps=1, seed=[s])
                    rng = rng_from([s])
                    w, t_vertex, raw = np.zeros(V), np.zeros(V), np.full((d, V), np.inf)
                    w[simplex] = dist.sample(rng, len(simplex))
                    t_vertex[simplex] = rng.standard_exponential(len(simplex))
                    raw[:, simplex] = rng.standard_exponential((d, len(simplex)))
                    fld = FixedField(box, w)
                    perc = path_percolation(fld, 0.9, t_vertex, raw)
                    assert count_paths(perc, n) == est.mean, (dist.kind, d, n, s)


def test_count_paths_mc_determinism():
    a = count_paths_mc(CONST, 2, 1.0, 2, reps=500, seed=21)
    b = count_paths_mc(CONST, 2, 1.0, 2, reps=500, seed=21)
    assert a == b


def test_pair_chain_identical_walks_reduce_to_chain():
    dist = WeightDistribution.from_table((0.5, 1.5), (0.4, 0.6))
    for lam in (0.7, 1.4):
        for n in range(1, 5):
            pat = (True,) * (n + 1)
            assert pair_chain_expectation(pat, dist, lam) == pytest.approx(
                expected_path_count(dist, 1, lam, n), abs=1e-12)


def test_pair_chain_split_and_remeet_fixture():
    # split at the origin then remeet: h * g * g with unit weights
    got = pair_chain_expectation((True, False, True), CONST, 1.0)
    assert got == pytest.approx((1.0 / 3.0) * 0.25, abs=1e-12)
    # one-step split alone is the shared-source factor
    assert pair_chain_expectation((True, False), CONST, 1.0) == pytest.approx(1.0 / 3.0)
    bound = pair_chain_expectation((True, False), CONST, 1.0, use_bound=True)
    assert bound == pytest.approx(0.5)


def test_pair_chain_rejects_bad_patterns():
    with pytest.raises(ValueError):
        pair_chain_expectation((False, True), CONST, 1.0)
    with pytest.raises(ValueError):
        pair_chain_expectation((), CONST, 1.0)


@pytest.mark.parametrize("d", [1, 2, 3, 6, 40, 200])
def test_packed_patterns_match_the_one_hot_rows(d):
    # d = 1 packs no lane, d <= 14 one lane at every n <= 12, and d = 40
    # and 200 several (up to 16 at n = 12)
    rng = np.random.default_rng(d)
    for n in (1, 2, 5, 12):
        a = rng.integers(0, d, (300, n))
        b = rng.integers(0, d, (300, n))
        # half the pairs step on three axes only (d - 1, the coordinate
        # with no digit, among them), so they keep meeting at every d
        axes = np.array([0, d // 2, d - 1])
        a[::2] = axes[rng.integers(0, 3, (150, n))]
        b[::2] = axes[rng.integers(0, 3, (150, n))]
        for other in (b, (b + 1) % d):    # the plain and the relabelled pair
            want = coincidence_rows(a, other, d)
            assert want[:, 1:].any()
            assert _patterns_between(a, other, d).tolist() == want.tolist()


@pytest.mark.parametrize("d", [2, 3, 6, 40, 200])
def test_packed_patterns_meet_only_at_the_last_step(d):
    # walk b takes walk a's distinct axes in rotated order: the two part at
    # step 1 and first share a vertex again after all n steps
    n = min(d, 12)
    a = np.linspace(0, d - 1, n).astype(np.int64)[None, :]
    b = np.roll(a, -1, axis=1)
    want = [True] + [False] * (n - 1) + [True]
    assert coincidence_rows(a, b, d).tolist() == [want]
    assert _patterns_between(a, b, d).tolist() == [want]


@pytest.mark.parametrize("width", [7, 64, 65, 130])
def test_pattern_values_group_rows_of_any_width(width):
    # rows of up to 64 steps pack into one word, longer ones into several
    rng = np.random.default_rng(width)
    rows = rng.random((40, width)) < 0.9
    rows[:, 0] = True
    rows[20:] = rows[:20]
    # rows 30-39 differ from rows 10-19 in the last step only
    rows[30:, -1] = ~rows[30:, -1]
    dist = WeightDistribution.two_point(0.6)
    want = [pair_chain_expectation(row, dist, 0.8) for row in rows]
    assert _pattern_values(rows, dist, 0.8, False).tolist() == want


@pytest.mark.parametrize("d, n", [(1, 4), (2, 5), (3, 3)])
def test_exact_ratio_sums_the_one_hot_rows_in_row_order(d, n):
    # row j*N + i pairs walk i with walk j; each row's value is summed in
    # that order, so the total is the same float bit for bit
    dist = WeightDistribution.two_point(0.6)
    every = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)
    cache, total = {}, 0.0
    for j in range(len(every)):
        for row in coincidence_rows(every, np.repeat(every[j:j + 1], len(every), 0), d):
            key = tuple(row.tolist())
            if key not in cache:
                cache[key] = pair_chain_expectation(key, dist, 0.8)
            total += cache[key]
    assert path_count_moment_ratio(dist, d, 0.8, n).numerator == total


def test_exact_ratio_at_more_axes_than_an_int8_holds():
    # n = 1: the d pairs on one edge share it, the d(d-1) others split
    d = 200
    dist = WeightDistribution.two_point(0.6)
    want = (d * pair_chain_expectation((True, True), dist, 0.3)
            + d * (d - 1) * pair_chain_expectation((True, False), dist, 0.3))
    got = path_count_moment_ratio(dist, d, 0.3, 1)
    assert got.numerator == pytest.approx(want, rel=1e-12)


def _pair_open_quad(steps_a, steps_b, lam, d):
    """Joint open probability of two unit-weight walks by direct integration.

    Groups required edges by source; each source integrates its shared
    recovery clock against independent transmission clocks.
    """
    edges = set()
    for steps in (steps_a, steps_b):
        pos = (0,) * d
        for ax in steps:
            edges.add((pos, ax))
            pos = tuple(p + (1 if i == ax else 0) for i, p in enumerate(pos))
    by_src = {}
    for src, ax in edges:
        by_src.setdefault(src, set()).add(ax)
    prob = 1.0
    for axes in by_src.values():
        k = len(axes)
        val, _ = quad(lambda t, k=k: (1 - math.exp(-lam * t)) ** k * math.exp(-t),
                      0, np.inf)
        prob *= val
    return prob


def test_exact_ratio_vs_quadrature_sum_d2_n2():
    d, n, lam = 2, 2, 1.0
    num = 0.0
    for sa in itertools.product(range(d), repeat=n):
        for sb in itertools.product(range(d), repeat=n):
            num += _pair_open_quad(sa, sb, lam, d)
    den = expected_path_count(CONST, d, lam, n) ** 2
    got = path_count_moment_ratio(CONST, d, lam, n)
    assert got.method == "exact" and got.se == 0.0
    assert got.value == pytest.approx(num / den, abs=1e-9)


def test_ratio_single_path_cases():
    # d=1: one walk, count in {0, 1}, so ratio = 1 / E count
    r = path_count_moment_ratio(CONST, 1, 1.0, 1)
    assert r.value == pytest.approx(2.0, abs=1e-12)
    r2 = path_count_moment_ratio(CONST, 1, 1.0, 2)
    assert r2.value == pytest.approx(4.0, abs=1e-12)


def test_ratio_bound_dominates_and_at_least_one():
    for d, n, lam, dist in itertools.product(
            (1, 2, 3), (1, 2, 3), (0.5, 2.0),
            (CONST, WeightDistribution.two_point(0.5))):
        exact = path_count_moment_ratio(dist, d, lam, n)
        loose = path_count_moment_ratio(dist, d, lam, n, use_bound=True)
        assert loose.value >= exact.value - 1e-12
        assert exact.value >= 1.0 - 1e-12


def test_ratio_mc_agrees_with_exact():
    dist = WeightDistribution.two_point(0.7)
    exact = path_count_moment_ratio(dist, 2, 0.9, 3)
    mc = path_count_moment_ratio(dist, 2, 0.9, 3, walk_samples=4000, seed=5)
    assert mc.method == "mc" and mc.se > 0.0
    assert abs(mc.value - exact.value) <= 3.0 * mc.se


def test_ratio_exhaustive_refusal():
    with pytest.raises(ValueError, match="exhaustive_limit"):
        path_count_moment_ratio(WeightDistribution.two_point(0.5), 3, 1.0, 6)


def test_survival_bound_supercritical():
    sb = survival_lower_bound(CONST, 2, 100.0, 6)
    assert 0.5 < sb.value <= 1.0
    assert [row[0] for row in sb.per_n] == [1, 2, 3, 4, 5, 6]
    assert sb.value == sb.per_n[-1][2]


def test_survival_bound_subcritical_decays():
    sb = survival_lower_bound(CONST, 2, 0.1, 4)
    bounds = [row[2] for row in sb.per_n]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert sb.value == bounds[-1] < bounds[0]


def test_survival_bound_degenerate_law():
    dead = WeightDistribution.two_point(0.0, strict=False)
    sb = survival_lower_bound(dead, 2, 1.0, 3)
    assert sb.value == 0.0
    assert all(row[2] == 0.0 for row in sb.per_n)


def test_survival_bound_refuses_past_the_exhaustive_limit():
    # 2^18 walk pairs at n = 9; the message must not point to a sampled
    # route that survival_lower_bound does not have
    with pytest.raises(ValueError, match="n_max=9 needs 262144 walk pairs") as exc:
        survival_lower_bound(CONST, 2, 1.0, 9)
    assert "walk_samples" not in str(exc.value)


def test_sampled_routes_default_to_seed_0():
    # the CLI's default seed; calling without a seed must not raise
    dist = WeightDistribution.two_point(0.7)
    calls = [
        lambda **kw: walks.meet_probability(2, 50, 200, **kw),
        lambda **kw: walks.collision_functional(dist, 2, 0.5, 50, horizon=50, **kw),
        lambda **kw: path_count_moment_ratio(dist, 2, 2.0, 3, walk_samples=100, **kw),
    ]
    for call in calls:
        assert call() == call(seed=0)


def test_count_paths_mc_golden_digest():
    # Fixed outputs of the batched level DP: any change in how it draws
    # weights and clocks, or in the order its sums are taken, moves this.
    # The last row runs 2100 replicates, so it spans two batches of 2048.
    rows = []
    for dist in LAWS:
        for d in (1, 2, 3, 4):
            for n in (0, 1, 3, 6):
                e = count_paths_mc(dist, d, 0.9, n, reps=300, seed=[d, n])
                rows.append((float(e.mean), float(e.se_mean),
                             float(e.second_moment), float(e.se_second)))
    e = count_paths_mc(LAWS[1], 3, 0.9, 6, reps=2100, seed=[3, 6])
    rows.append((float(e.mean), float(e.se_mean),
                 float(e.second_moment), float(e.se_second)))
    assert len(rows) == 49
    assert _digest(rows) == \
        "7fbf33044cb705500f43411650b80dd0abc9429fe099cb86c79cd38be844e77d"


def test_sampled_ratio_golden_digest():
    # Fixed outputs of the sampled moment ratio: the walk draws, the
    # pattern values and their averaging order.
    rows = []
    for dist in LAWS[:2]:
        for d in (2, 3, 5):
            for n in (1, 4, 7):
                for ub in (False, True):
                    r = path_count_moment_ratio(dist, d, 0.7, n, walk_samples=2000,
                                                seed=[d, n], use_bound=ub)
                    rows.append((float(r.value), float(r.se),
                                 float(r.numerator), float(r.denominator)))
    assert len(rows) == 36
    assert _digest(rows) == \
        "29f1794339bd3efbfb39dd9330325a456fc599543bc3c345159064bc9f7dd36f"
