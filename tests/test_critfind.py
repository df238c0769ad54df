import numpy as np
import pytest

from _oracles import nested_survival
from orientedcp.critfind import (estimate_critical_rate, scan_defaults,
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
    assert all(e.reps in (200, 300, 1200) for e in res.trace)
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
