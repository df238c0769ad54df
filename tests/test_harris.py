import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest

from _oracles import constant_field, run_on_events, thin_arrows
from orientedcp import lattice
from orientedcp.harris import (GraphicalRep, build, coupling_sweep,
                               duality_annealed, duality_check, duality_sweep,
                               percolate_dual, percolate_forward,
                               removal_coupling_check)
from orientedcp.kinetics import Configuration
from orientedcp.lattice import BoxSpec
from orientedcp.weights import WeightDistribution, sample_field


MARK, ARROW = 0, 1
COLUMNS = ("times", "kinds", "a", "b")


def _rep(box, marks_map=None, arrows_map=None, horizon=10.0):
    """Hand-built rep: marks_map {vertex_idx: times}, arrows {(src,dst): times}."""
    rows = [(t, MARK, x, -1) for x, ts in (marks_map or {}).items() for t in ts]
    rows += [(t, ARROW, x, y) for (x, y), ts in (arrows_map or {}).items() for t in ts]
    times, kinds, a, b = zip(*rows) if rows else ((), (), (), ())
    return GraphicalRep.from_columns(box, 1.0, horizon, times, kinds, a, b)


def _streams(rep, kind):
    """Per-stream time lists grouped from the event table.

    Marks come back as {vertex: times}, arrows as {(src, dst): times}.
    """
    out = {}
    for t, k, x, y in zip(rep.times.tolist(), rep.kinds.tolist(),
                          rep.a.tolist(), rep.b.tolist()):
        if k == kind:
            out.setdefault(x if kind == MARK else (x, y), []).append(t)
    return out


def test_build_lambda_zero_no_arrows():
    box = BoxSpec(d=2, side=4)
    rep = build(box, constant_field(1.0, box), 0.0, 5.0, seed=1)
    assert _streams(rep, ARROW) == {}
    assert rep.n_events() > 0 and (rep.b == -1).all()


def test_build_determinism():
    box = BoxSpec(d=2, side=4)
    fld = sample_field(WeightDistribution.two_point(0.6), box, 5)
    a = build(box, fld, 0.7, 4.0, seed=10)
    b = build(box, fld, 0.7, 4.0, seed=10)
    assert all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS)
    assert a.event_arrays() == b.event_arrays()


def test_rep_equality_is_identity():
    box = BoxSpec(d=2, side=3)
    fld = sample_field(WeightDistribution.two_point(0.6), box, 5)
    rep = build(box, fld, 0.7, 4.0, seed=10)
    other = build(box, fld, 0.7, 4.0, seed=10)
    assert rep == rep
    assert (rep == other) is False
    assert hash(rep) == hash(rep)
    assert len({rep, other}) == 2


def test_build_poisson_means():
    # per-edge arrow mean ~ horizon over ~10^4 edges; total marks ~ V*horizon
    box = BoxSpec(d=2, side=70)
    horizon = 10.0
    rep = build(box, constant_field(1.0, box), 1.0, horizon, seed=3)
    n_edges = 2 * 70 * 71
    arrow_total = int((rep.kinds == ARROW).sum())
    per_edge = arrow_total / n_edges
    assert abs(per_edge - horizon) <= 3.0 * math.sqrt(horizon / n_edges)
    mark_total = int((rep.kinds == MARK).sum())
    mean = box.n_vertices * horizon
    assert abs(mark_total - mean) <= 3.0 * math.sqrt(mean)


def test_zero_rate_edges_have_no_streams():
    box = BoxSpec(d=2, side=6)
    fld = sample_field(WeightDistribution.two_point(0.5), box, 8)
    rep = build(box, fld, 1.0, 6.0, seed=2)
    w = fld.weights
    arrows = _streams(rep, ARROW)
    assert arrows
    for (x, y) in arrows:
        assert w[x] > 0 and w[y] > 0


def test_percolate_fixtures():
    # the replays read a rep up to its horizon
    box = BoxSpec(d=2, side=4)
    e1 = lattice.vertex_index(box, (1, 0))
    empty = _rep(box)
    assert percolate_forward(empty, []) == frozenset()
    assert percolate_forward(_rep(box, horizon=5.0), [0]) == {0}
    one_arrow = _rep(box, arrows_map={(0, e1): [2.0]}, horizon=3.0)
    assert percolate_forward(one_arrow, [0]) == {0, e1}
    # cut at horizon 1, the rep holds no arrow yet
    assert percolate_forward(_rep(box, horizon=1.0), [0]) == {0}
    # dual mirrors with the edge direction reversed
    assert percolate_dual(one_arrow, [e1]) == {0, e1}
    assert percolate_dual(one_arrow, [0]) == {0}
    assert percolate_dual(empty, []) == frozenset()


def test_mark_clears_vertex():
    box = BoxSpec(d=2, side=4)
    e1 = lattice.vertex_index(box, (1, 0))
    rep = _rep(box, marks_map={0: [1.0]}, arrows_map={(0, e1): [2.0]}, horizon=3.0)
    assert percolate_forward(rep, [0]) == frozenset()
    rep2 = _rep(box, marks_map={0: [2.5]}, arrows_map={(0, e1): [2.0]}, horizon=3.0)
    assert percolate_forward(rep2, [0]) == {e1}


def test_duality_check_fixtures():
    box = BoxSpec(d=2, side=2)
    apex = box.n_vertices - 1
    assert duality_check(_rep(box)) == (True, True)
    marked = _rep(box, marks_map={apex: [1.0]})
    assert duality_check(marked) == (False, False)


def _oracle_infected(rep, site_idx, t):
    """Backward memoized reachability: all-infected start, is site hot at t?

    Independent of the scan implementations: searches the event DAG from the
    query point down to time 0.
    """
    marks = _streams(rep, MARK)
    inbound = {}
    for (u, v), ts in _streams(rep, ARROW).items():
        inbound.setdefault(v, []).extend((s, u) for s in ts)

    @lru_cache(maxsize=None)
    def hot(v, t):
        last_mark = None
        for m in marks.get(v, ()):
            if m <= t:
                last_mark = m
            else:
                break
        if last_mark is None:
            return True
        for s, u in inbound.get(v, ()):
            if last_mark < s <= t and hot(u, s):
                return True
        return False

    return hot(site_idx, t)


def test_duality_check_against_backward_oracle():
    box = BoxSpec(d=2, side=4)
    dist = WeightDistribution.two_point(0.7)
    apex = box.n_vertices - 1
    agree = 0
    for r in range(300):
        fld = sample_field(dist, box, [61, r])
        rep = build(box, fld, 0.8, 2.5, seed=[62, r])
        fwd, rev = duality_check(rep)
        want = _oracle_infected(rep, apex, rep.horizon)
        assert fwd == want
        assert rev == want
        agree += (fwd == rev)
    assert agree == 300


def test_percolate_matches_event_driven_engine():
    # same event structure pushed through the kinetics replay; <= 81 vertices
    box = BoxSpec(d=2, side=8)
    dist = WeightDistribution.two_point(0.6)
    for r in range(50):
        fld = sample_field(dist, box, [71, r])
        rep = build(box, fld, 0.9, 3.0, seed=[72, r])
        states = run_on_events(Configuration.all_infected(box), rep)
        assert frozenset(np.flatnonzero(states == 1)) == percolate_forward(rep, "all")
        states0 = run_on_events(Configuration.single_seed(box), rep)
        assert frozenset(np.flatnonzero(states0 == 1)) == percolate_forward(rep, [0])


def test_percolate_monotone_in_initial_set():
    box = BoxSpec(d=2, side=5)
    rng = np.random.default_rng(5)
    fld = constant_field(1.0, box)
    for r in range(60):
        rep = build(box, fld, 0.6, 2.0, seed=[81, r])
        a_mask = rng.random(box.n_vertices) < 0.3
        b_mask = a_mask | (rng.random(box.n_vertices) < 0.3)
        small = percolate_forward(rep, list(np.flatnonzero(a_mask)))
        big = percolate_forward(rep, list(np.flatnonzero(b_mask)))
        assert small <= big


def test_removal_coupling_fixtures_and_sweep():
    box = BoxSpec(d=2, side=2)
    assert removal_coupling_check(_rep(box))
    rep = coupling_sweep(WeightDistribution.constant(1.0), box, 1.0, 2.0,
                         400, seed=9)
    assert rep.failures == 0
    assert rep.rate == 1.0


def test_duality_sweep_and_jobs_invariance():
    box = BoxSpec(d=2, side=3)
    dist = WeightDistribution.two_point(0.7)
    one = duality_sweep(dist, box, 0.8, 2.0, 80, seed=33, jobs=1)
    two = duality_sweep(dist, box, 0.8, 2.0, 80, seed=33, jobs=2)
    assert one.failures == 0
    assert one == two


def test_duality_annealed_three_way():
    box = BoxSpec(d=2, side=4)
    dist = WeightDistribution.two_point(0.7)
    est = duality_annealed(dist, box, 0.8, 2.0, 600, seed=44)
    assert abs(est.p_forward_all - est.p_dual_process) <= 3.0 * est.joint_se()
    assert abs(est.p_forward_all - est.p_forward_origin) <= \
        3.0 * math.hypot(est.se_forward_all, est.se_forward_origin)


def test_sweeps_and_annealed_reject_zero_reps():
    box = BoxSpec(d=2, side=3)
    dist = WeightDistribution.constant(1.0)
    for fn in (duality_sweep, coupling_sweep, duality_annealed):
        with pytest.raises(ValueError, match="reps"):
            fn(dist, box, 0.8, 2.0, 0, seed=1)


def test_build_rejects_nan_rate_and_horizon():
    box = BoxSpec(d=2, side=3)
    fld = constant_field(1.0, box)
    for lam, horizon in ((math.nan, 1.0), (0.5, math.nan), (-0.1, 1.0), (0.5, 0.0)):
        with pytest.raises(ValueError, match=f"lam={lam}, horizon={horizon}"):
            build(box, fld, lam, horizon, 0)


@pytest.mark.parametrize("site", [-1, 16, np.int64(-1)])
def test_integer_sites_are_range_checked(site):
    # -1 must not wrap around to the apex; 16 is one past the last index
    box = BoxSpec(d=2, side=3)
    rep = build(box, constant_field(1.0, box), 1.0, 2.0, seed=4)
    with pytest.raises(ValueError, match="outside box"):
        percolate_forward(rep, [site])
    with pytest.raises(ValueError, match="outside box"):
        percolate_dual(rep, [site])


def test_thin_arrows_nested_and_extremes():
    box = BoxSpec(d=2, side=5)
    rep = build(box, constant_field(1.0, box), 1.0, 5.0, seed=6)
    zero, part, full = thin_arrows(rep, [0.0, 0.5, 1.0], seed=7)
    arrows = _streams(rep, ARROW)
    assert _streams(zero, ARROW) == {}
    assert _streams(full, ARROW) == arrows
    for th in (zero, part, full):
        assert _streams(th, MARK) == _streams(rep, MARK)
    assert part.lam == pytest.approx(0.5)
    for k, ts in _streams(part, ARROW).items():
        assert set(ts) <= set(arrows[k])
    kept = int((part.kinds == ARROW).sum())
    total = int((rep.kinds == ARROW).sum())
    assert abs(kept / total - 0.5) <= 3.0 * math.sqrt(0.25 / total)


def test_thinned_survival_is_nested():
    box = BoxSpec(d=2, side=5)
    fld = constant_field(1.0, box)
    for r in range(40):
        rep = build(box, fld, 1.2, 4.0, seed=[91, r])
        lo, hi = thin_arrows(rep, [0.3, 0.9], seed=[92, r])
        if percolate_forward(lo, [0]):
            assert percolate_forward(hi, [0])


def _digest(rep):
    ev = (rep.times.tolist(),) + rep.event_arrays()
    return len(ev[0]), hashlib.sha256(repr(ev).encode()).hexdigest()


def test_build_and_thin_golden_event_tables():
    # frozen digests of the merged event lists; any change to how build or
    # thin_arrows consume the random stream or order the table moves them
    box = BoxSpec(2, 6)
    fld = sample_field(WeightDistribution.two_point(0.7), box, 5)
    rep = build(box, fld, 0.8, 3.0, seed=6)
    lo, hi = thin_arrows(rep, [0.3, 0.9], seed=7)
    assert _digest(rep) == (
        271, "e35c7e89ba5769e3c1aea92f4a017bf4f924491a5cd77ec6dfac9afa29671c5c")
    assert _digest(lo) == (
        196, "3e69d6f72efb00eef50bf3d193fbd1e7f27fbf8c4646a67e628c92b2fc2edbfe")
    assert _digest(hi) == (
        262, "fb67aaa3797767d7f26f8ec2cfe959923830d552178e9ffd377f65fad32d2206")
    for r in (rep, lo, hi):
        assert np.array_equal(np.lexsort((r.b, r.a, r.kinds, r.times)),
                              np.arange(r.n_events()))
        assert np.array_equal(r.b == -1, r.kinds == MARK)


def _replay_outcomes(rep):
    apex = rep.box.n_vertices - 1
    return (sorted(percolate_forward(rep, "all")), sorted(percolate_forward(rep, [0])),
            sorted(percolate_dual(rep, [apex])), sorted(percolate_dual(rep, "all")),
            tuple(map(bool, duality_check(rep))), bool(removal_coupling_check(rep)))


def test_replay_outcomes_golden():
    # one frozen digest over every replay's answer on 900 built reps; any
    # change to what a replay returns, early exits included, moves it
    h = hashlib.sha256()
    for box, dist, lams in ((BoxSpec(2, 6), WeightDistribution.two_point(0.7), (0.8, 1.0)),
                            (BoxSpec(3, 3), WeightDistribution.constant(1.0), (1.5,))):
        for lam in lams:
            for r in range(300):
                fld = sample_field(dist, box, [17, r])
                rep = build(box, fld, lam, 3.0, seed=[18, r])
                h.update(repr(_replay_outcomes(rep)).encode())
    assert h.hexdigest() == (
        "88006fed713394480ce3c3dea721c2c61d21fa7285e16629d892a8367e580b3f")


def test_replays_count_infected_vertices():
    box = BoxSpec(d=2, side=4)
    e1 = lattice.vertex_index(box, (1, 0))
    e2 = lattice.vertex_index(box, (0, 1))
    # a second arrow into an infected vertex adds nobody to kill
    rep = _rep(box, marks_map={0: [2.0], e1: [2.5]},
               arrows_map={(0, e1): [1.0, 1.5]}, horizon=3.0)
    assert percolate_forward(rep, [0]) == frozenset()
    assert percolate_dual(rep, [e1]) == frozenset()
    # a mark on a healthy vertex takes nobody away
    rep = _rep(box, marks_map={e1: [0.5], 0: [2.0]},
               arrows_map={(0, e1): [1.0]}, horizon=3.0)
    assert percolate_forward(rep, [0]) == {e1}
    # an arrow out of a vertex after its mark passes nothing on
    rep = _rep(box, marks_map={0: [1.0], e1: [1.0]},
               arrows_map={(0, e1): [2.0], (0, e2): [2.5]}, horizon=3.0)
    assert percolate_forward(rep, [0]) == frozenset()
    assert percolate_dual(rep, [e1]) == frozenset()


def test_all_infected_start_dies_out():
    box = BoxSpec(d=2, side=2)
    V = box.n_vertices
    src, dst, _ = lattice.edge_table(box)
    arrows = {(int(x), int(y)): [5.0] for x, y in zip(src, dst)}
    rep = _rep(box, marks_map={x: [1.0 + 0.1 * x] for x in range(V)},
               arrows_map=arrows, horizon=6.0)
    assert percolate_forward(rep, "all") == frozenset()
    assert percolate_dual(rep, "all") == frozenset()
    assert duality_check(rep) == (False, False)


def test_removal_coupling_after_the_freezing_copy_dies():
    # the freezing copy loses (2, 1) and (1, 1) to their marks and dies at
    # t = 3.5; the plain copy is re-infected at (1, 1) at t = 3 and at
    # (2, 1) at t = 4, after the freezing copy is gone
    box = BoxSpec(d=2, side=2)
    v = {x: lattice.vertex_index(box, x)
         for x in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1))}
    rep = _rep(box,
               marks_map={v[2, 1]: [1.6], v[1, 1]: [2.0], v[0, 0]: [2.6],
                          v[1, 0]: [2.7], v[0, 1]: [3.5]},
               arrows_map={(v[0, 0], v[1, 0]): [1.0], (v[1, 0], v[1, 1]): [1.2],
                           (v[1, 1], v[2, 1]): [1.4, 4.0],
                           (v[0, 0], v[0, 1]): [2.5], (v[0, 1], v[1, 1]): [3.0]},
               horizon=5.0)
    assert percolate_forward(rep, [0]) == {v[1, 1], v[2, 1]}
    assert removal_coupling_check(rep)


def test_from_columns_breaks_time_ties_by_kind_and_vertices():
    rows = [(1.0, ARROW, 3, 4), (0.5, ARROW, 2, 3), (1.0, MARK, 4, -1),
            (1.0, ARROW, 0, 1), (0.5, MARK, 2, -1), (1.0, MARK, 1, -1),
            (1.0, ARROW, 0, 5), (0.25, ARROW, 1, 2)]
    rep = GraphicalRep.from_columns(BoxSpec(d=2, side=2), 1.0, 2.0, *zip(*rows))
    got = list(zip(rep.times.tolist(), rep.kinds.tolist(), rep.a.tolist(),
                   rep.b.tolist()))
    assert got == sorted(rows)
