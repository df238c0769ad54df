import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import nested_survival
from orientedcp.critfind import (_verdict, estimate_critical_rate, scan_defaults,
                                 survival_probability)
from orientedcp.errors import ScanError
from orientedcp.kinetics import decay_envelope, weighted_origin_occupancy
from orientedcp.weights import WeightDistribution

CONST = WeightDistribution.constant(1.0)


def test_survival_vanishes_without_transmission():
    # rate ~ 0: origin must hold out alone for the whole horizon
    est = survival_probability(CONST, 2, 4, 1e-12, 10.0, 10_000, seed=1)
    assert est.p_hat <= 0.001
    dead = WeightDistribution.two_point(0.0, strict=False)
    est2 = survival_probability(dead, 2, 4, 1.0, 10.0, 2_000, seed=2)
    assert est2.p_hat <= 0.001


def test_survival_probability_validation():
    with pytest.raises(ValueError):
        survival_probability(CONST, 2, 4, 0.0, 5.0, 10, seed=0)
    with pytest.raises(ValueError):
        survival_probability(CONST, 2, 4, 1.0, 5.0, 0, seed=0)


def test_survival_jobs_invariance():
    one = survival_probability(CONST, 2, 5, 0.6, 4.0, 60, seed=3, jobs=1)
    two = survival_probability(CONST, 2, 5, 0.6, 4.0, 60, seed=3, jobs=2)
    assert one == two


def test_nested_indicators_are_monotone_per_replicate():
    ind = nested_survival(CONST, 2, 5, [0.3, 0.6, 1.2], 4.0, 300, seed=4)
    assert ind.shape == (300, 3)
    assert np.all(ind[:, 0] <= ind[:, 1])
    assert np.all(ind[:, 1] <= ind[:, 2])
    hits = ind.sum(axis=0)
    assert hits[2] > hits[0]  # the spread must actually bite at these rates


def test_subcritical_decay_report():
    # below the floor rate 1/(d E rho^2) = 1/3 the apex occupancy stays
    # under the exponential envelope (the ok column of f-decay) and the
    # origin-seeded process dies out
    d, lam = 3, 0.1
    occ = weighted_origin_occupancy(CONST, d, lam, (1.0, 2.0, 4.0), 2000,
                                    seed=[5, 0, 0])
    for t, v, se in zip(occ.times, occ.values, occ.standard_errors):
        assert v <= decay_envelope(CONST, d, lam, t) + 3.0 * se
    surv = survival_probability(CONST, d, 6, lam, 50.0, 400, seed=[5, 0, 1])
    assert surv.p_hat <= 0.01


def test_scan_defaults_table():
    assert scan_defaults(2) == {"side": 24, "horizon": 24.0}
    assert scan_defaults(5) == {"side": 7, "horizon": 16.0}
    assert scan_defaults(7) == {"side": 5, "horizon": 12.0}
    assert scan_defaults(30) == {"side": 4, "horizon": 12.0}


def test_estimate_critical_rate_smoke():
    res = estimate_critical_rate(CONST, 2, side=6, horizon=8.0,
                                 reps_per_probe=300, threshold=0.05,
                                 tol=0.05, seed=6, check_box=False)
    mf = 0.5
    assert res.mean_field_ref == pytest.approx(mf)
    assert res.status in ("converged", "statistically_limited")
    lo, hi = res.bracket
    assert lo <= res.lam_hat <= hi
    # the estimate must sit above the proven subcritical region
    assert res.lam_hat + res.tol >= mf
    assert res.lam_hat < 8.0 * mf
    assert res.scaled == pytest.approx(res.lam_hat / mf)
    assert len(res.trace) >= 3
    # bracket ends stop once their 200-replicate verdict is settled; the
    # bisection probes run their fixed 300 or 1200
    ends = [e for e in res.trace if e.settled]
    assert len(ends) >= 2
    assert all(1 <= e.reps <= 200 and e.se is None for e in ends)
    assert all(e.reps in (300, 1200) and e.se is not None
               for e in res.trace if not e.settled)
    again = estimate_critical_rate(CONST, 2, side=6, horizon=8.0,
                                   reps_per_probe=300, threshold=0.05,
                                   tol=0.05, seed=6, check_box=False)
    assert again.lam_hat == res.lam_hat
    assert again.trace == res.trace


def test_estimate_critical_rate_box_check():
    res = estimate_critical_rate(CONST, 2, side=4, horizon=5.0,
                                 reps_per_probe=150, threshold=0.05,
                                 tol=0.1, seed=7, check_box=True)
    base, doubled = res.box_check
    assert res.box_converged in (True, False)
    assert (doubled.side, doubled.horizon) == (8, 10.0)
    assert doubled.reps == 200
    assert base.lam == doubled.lam == res.lam_hat


def test_estimate_critical_rate_bracket_failure():
    # on a side-1 box every run dies within a few recoveries, so no rate
    # reaches the threshold and each probe is fast
    with pytest.raises(ScanError) as exc:
        estimate_critical_rate(CONST, 2, side=1, horizon=6.0,
                               reps_per_probe=200, threshold=0.999,
                               tol=0.1, seed=8, check_box=False)
    assert "supercritical" in str(exc.value)
    assert len(exc.value.trace) >= 2
    # one subcritical probe, then the first supercritical one and six widenings
    assert len(exc.value.trace) == 8


def test_estimate_critical_rate_validation():
    dead = WeightDistribution.two_point(0.0, strict=False)
    with pytest.raises(ValueError, match="second moment"):
        estimate_critical_rate(dead, 2)
    with pytest.raises(ValueError, match="threshold"):
        estimate_critical_rate(CONST, 2, threshold=1.5)
    with pytest.raises(ValueError, match="tol"):
        estimate_critical_rate(CONST, 2, tol=-0.1)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 400), high=st.booleans(), data=st.data())
def test_settled_verdict_is_the_fixed_count_verdict(n, high, data):
    # thresholds of the form j / n put the final fraction exactly on the
    # threshold, where a strict and a loose comparison part ways
    threshold = data.draw(st.one_of(st.floats(0.001, 0.999),
                                    st.integers(1, n - 1).map(lambda j: j / n)))
    hits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    full = sum(hits) / n >= threshold if high else sum(hits) / n <= threshold
    h = 0
    for k, hit in enumerate(hits, 1):
        h += hit
        verdict = _verdict(n, threshold, high, h, k)
        if verdict is not None:
            break
    assert k <= n
    assert verdict == full


def test_bracket_ends_stop_early_with_the_fixed_count_answer():
    # the supercritical end is far above threshold, so its verdict settles
    # within the first few dozen of its 200 replicates
    res = estimate_critical_rate(CONST, 2, side=6, horizon=8.0,
                                 reps_per_probe=300, threshold=0.05,
                                 tol=0.05, seed=6, check_box=False)
    hi_end = next(e for e in res.trace if e.settled and e.lam == 2.0 * 0.5)
    assert hi_end.reps < 200
    assert hi_end.p_hat * hi_end.reps >= 0.05 * 200
    full = survival_probability(CONST, 2, 6, hi_end.lam, 8.0, 200,
                                seed=[6, res.trace.index(hi_end)])
    assert full.p_hat >= 0.05
    assert not full.settled and full.se is not None


def test_estimate_critical_rate_jobs_invariance():
    kw = dict(side=4, horizon=5.0, reps_per_probe=150, threshold=0.05,
              tol=0.1, seed=9, check_box=True)
    one = estimate_critical_rate(CONST, 2, jobs=1, **kw)
    two = estimate_critical_rate(CONST, 2, jobs=2, **kw)
    assert any(e.settled for e in one.trace)
    assert two.trace == one.trace
    assert (two.lam_hat, two.box_check) == (one.lam_hat, one.box_check)
