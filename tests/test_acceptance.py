"""Frozen-seed acceptance checks, the heavy end-to-end half of the suite.

Each check prints one "[criterion NN] PASS/FAIL" line straight to the
terminal (bypassing capture) before asserting, so a partial run still
shows the scoreboard.  Deselect with `pytest -m "not acceptance"` when
iterating on the fast unit tests.
"""

import math
import os
import time
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from scipy import integrate

from _oracles import constant_field
from orientedcp import cli, critfind, harris, kinetics, moments, walks
from orientedcp.cli import main
from orientedcp.lattice import BoxSpec
from orientedcp.weights import WeightDistribution

pytestmark = pytest.mark.acceptance

CONST = WeightDistribution.constant(1.0)
TP5 = WeightDistribution.two_point(0.5)
TP7 = WeightDistribution.two_point(0.7)


def _verdict(capsys, num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_per_realization_duality(capsys):
    t0 = time.perf_counter()
    rep = harris.duality_sweep(TP7, BoxSpec(2, 6), 0.8, 3.0, 10_000, seed=[11])
    dt = time.perf_counter() - t0
    ok = rep.failures == 0 and dt < 120.0
    _verdict(capsys, 1, ok,
             f"{rep.failures} disagreements in {rep.reps} reps, {dt:.1f}s")


def test_criterion_02_annealed_duality(capsys):
    est = harris.duality_annealed(TP7, BoxSpec(2, 6), 0.8, 3.0, 10_000,
                                  seed=[12])
    gap = abs(est.p_forward_all - est.p_dual_process)
    lim = 3.0 * est.joint_se()
    _verdict(capsys, 2, gap <= lim,
             f"|{est.p_forward_all:.4f} - {est.p_dual_process:.4f}| = "
             f"{gap:.4f} vs 3se = {lim:.4f}")


def test_criterion_03_removal_coupling(capsys):
    rep = harris.coupling_sweep(TP7, BoxSpec(2, 6), 1.0, 3.0, 100_000,
                                seed=[13])
    _verdict(capsys, 3, rep.failures == 0,
             f"{rep.failures} violations in {rep.reps} coupled realizations")


def test_criterion_04_subcritical_envelope(capsys):
    # d * lam * E rho^2 = 1/2, so the decay envelope is f_0 * exp(-t/2)
    est = kinetics.weighted_origin_occupancy(CONST, 3, 1.0 / 6.0,
                                             [0.0, 1.0, 2.0, 4.0], 10_000,
                                             seed=[41])
    ok = est.values[0] == CONST.mean and est.standard_errors[0] == 0.0
    parts = [f"f(0)={est.values[0]:g} exact"]
    for t, v, se in zip(est.times[1:], est.values[1:],
                        est.standard_errors[1:]):
        env = est.values[0] * math.exp(-0.5 * t)
        ok = ok and v <= env + 3.0 * se
        parts.append(f"f({t:g})={v:.4f} <= {env:.4f}+3*{se:.4f}")
    _verdict(capsys, 4, ok, "; ".join(parts))


def test_criterion_05_first_moment_grid(capsys):
    ok = True
    worst = 0.0
    cell = 0
    for dist in (CONST, TP5):
        for d, n, lam in product((2, 3), (2, 4, 6), (0.5, 1.0)):
            cell += 1
            exact = moments.expected_path_count(dist, d, lam, n)
            est = moments.count_paths_mc(dist, d, lam, n, 20_000,
                                         [51, cell])
            gap = abs(est.mean - exact)
            if est.se_mean > 0.0:
                worst = max(worst, gap / est.se_mean)
                ok = ok and gap <= 3.0 * est.se_mean
            else:
                ok = ok and gap == 0.0
    closed_ok = True
    for d, n, lam in product((2, 3), (2, 4, 6), (0.5, 1.0)):
        exact = moments.expected_path_count(CONST, d, lam, n)
        ref = (d * lam / (1.0 + lam)) ** n
        closed_ok = closed_ok and abs(exact - ref) <= 1e-12 * ref
    ok = ok and closed_ok
    _verdict(capsys, 5, ok,
             f"24 MC cells within 3se (worst gap {worst:.2f}se), "
             f"constant-weight closed form to 1e-12: {closed_ok}")


@lru_cache(maxsize=None)
def _source_integral(rates):
    """P(all listed edges out of one source open), by direct integration.

    Edges out of a common source share its unit-rate clock T; conditional
    on T = t each edge opens independently with probability 1 - exp(-r*t).
    """
    if any(r == 0.0 for r in rates):
        return 0.0

    def f(t):
        v = math.exp(-t)
        for r in rates:
            v *= 1.0 - math.exp(-r * t)
        return v

    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
                            limit=200)
    return val


def _pair_open_prob(steps_a, steps_b, dist, lam):
    """P(both directed paths fully open) for two explicit d=2 walks."""
    def verts(steps):
        pos = [(0, 0)]
        for s in steps:
            x = list(pos[-1])
            x[s] += 1
            pos.append(tuple(x))
        return pos

    pa, pb = verts(steps_a), verts(steps_b)
    edges = set()
    for pos in (pa, pb):
        edges.update(zip(pos[:-1], pos[1:]))
    by_source = {}
    for u, v in edges:
        by_source.setdefault(u, []).append(v)
    sites = sorted(set(pa) | set(pb))
    atoms = list(zip(dist.values, dist.probs))
    total = 0.0
    for assign in product(atoms, repeat=len(sites)):
        w = {s: a[0] for s, a in zip(sites, assign)}
        p_assign = 1.0
        for a in assign:
            p_assign *= a[1]
        if p_assign == 0.0:
            continue
        term = p_assign
        for u, dsts in by_source.items():
            rates = tuple(sorted(lam * w[u] * w[v] for v in dsts))
            term *= _source_integral(rates)
            if term == 0.0:
                break
        total += term
    return total


def test_criterion_06_second_moment_brute_force(capsys):
    # library route: transfer recursion over coincidence patterns of the
    # walk pair; brute route: numeric integration of the exact joint
    # open-probability over every ordered walk pair and weight assignment
    lam = 1.0
    worst = 0.0
    ok = True
    for dist in (CONST, TP5):
        for n in (1, 2, 3):
            lib = moments.path_count_moment_ratio(dist, 2, lam, n).value
            num = 0.0
            for sa in product(range(2), repeat=n):
                for sb in product(range(2), repeat=n):
                    num += _pair_open_prob(sa, sb, dist, lam)
            brute = num / moments.expected_path_count(dist, 2, lam, n) ** 2
            rel = abs(lib - brute) / brute
            worst = max(worst, rel)
            ok = ok and rel <= 1e-8
    _verdict(capsys, 6, ok,
             f"exhaustive ratio vs quadrature brute force, 6 cases, "
             f"worst rel diff {worst:.2e}")


def test_criterion_07_collision_scaling(capsys):
    scaled = {}
    for d in (4, 6, 8, 10):
        est = walks.meet_probability(d, 10_000, 100_000, seed=[71, d])
        scaled[d] = est.d2_scaled
    spread = max(scaled.values()) / min(scaled.values())
    desc = ", ".join(f"d={d}: {v:.3f}" for d, v in scaled.items())
    _verdict(capsys, 7, spread < 3.0,
             f"q*d^2 spread {spread:.3f} < 3 ({desc})")


def test_criterion_08_collision_functional(capsys):
    d = 10
    est = walks.collision_functional(CONST, d, 1.5 / d, 20_000,
                                     horizon=10_000, seed=[81])
    ratios = [r for m, r in est.m_sum_ratios() if m >= 1]
    ok = (est.value is not None and math.isfinite(est.value)
          and est.censored_fraction < 0.01
          and not est.diverging
          and ratios and all(r < 0.5 for r in ratios))
    one_d = walks.collision_functional(CONST, 1, 1.5 / d, 50, horizon=200,
                                       seed=[82])
    ok = ok and one_d.value is None and one_d.censored_fraction == 1.0
    _verdict(capsys, 8, ok,
             f"value={est.value:.3f}, censored={est.censored_fraction:.4f}, "
             f"max m-sum ratio beyond m=1: "
             f"{max(ratios) if ratios else float('nan'):.3f}; "
             f"d=1 fully censored: {one_d.value is None}")


def test_criterion_09_critical_rate_trend(capsys):
    scans = []
    ok = True
    parts = []
    for d in (2, 3, 4, 5):
        t0 = time.perf_counter()
        res = critfind.estimate_critical_rate(CONST, d, reps_per_probe=2000,
                                              seed=[91, d])
        dt = time.perf_counter() - t0
        ok = ok and dt < 1800.0
        scans.append(res)
        parts.append(f"d={d}: {res.scaled:.3f} ({res.status}, {dt:.0f}s)")
    # nonincreasing within CI: adjacent values may rise by at most the two
    # scans' scaled bisection tolerances; floor is 1 - 2*tol in scaled units
    for a, b in zip(scans, scans[1:]):
        slack = a.tol / a.mean_field_ref + b.tol / b.mean_field_ref
        ok = ok and b.scaled <= a.scaled + slack
    for res in scans:
        ok = ok and res.scaled >= 1.0 - 2.0 * res.tol / res.mean_field_ref
    t0 = time.perf_counter()
    tp = critfind.estimate_critical_rate(TP5, 3, reps_per_probe=2000,
                                         seed=[91, 99])
    dt = time.perf_counter() - t0
    ok = ok and dt < 1800.0
    ok = ok and tp.scaled >= 1.0 - 2.0 * tp.tol / tp.mean_field_ref
    parts.append(f"two-point d=3: {tp.scaled:.3f} ({tp.status}, {dt:.0f}s)")
    _verdict(capsys, 9, ok, "d*lam*m2 trend: " + "; ".join(parts))


def test_criterion_10_constant_weight_rescaling(capsys):
    # rho=c at rate lam and rho=1 at rate lam*c^2 induce the same rate map,
    # so shared seeds must give identical runs, not merely equal laws
    box = BoxSpec(2, 5)
    mismatches = 0
    for r in range(1000):
        ca = kinetics.Configuration.single_seed(box)
        cb = kinetics.Configuration.single_seed(box)
        ra = kinetics.run(ca, constant_field(2.0, box), 0.3, 6.0,
                          seed=[101, r])
        rb = kinetics.run(cb, constant_field(1.0, box), 1.2, 6.0,
                          seed=[101, r])
        mismatches += int(ra.survived != rb.survived)
    _verdict(capsys, 10, mismatches == 0,
             f"{mismatches} survival-indicator mismatches in 1000 "
             f"shared-seed runs (rho=2 @ 0.3 vs rho=1 @ 1.2)")


SMALL_RUNS = (
    ("simulate", ("lambda=0.4", "box.L=3", "horizon=2.0", "reps=3",
                  "sample_times=0.5,1,2", "seed=7")),
    ("f-decay", ("box.d=2", "lambda=0.15", "reps=200", "times=0,1,2",
                 "dist.kind=two_point", "dist.p=0.6", "seed=5")),
    ("duality", ("lambda=0.8", "box.L=4", "horizon=2.0", "reps=150",
                 "dist.kind=two_point", "dist.p=0.7", "seed=3")),
    ("zeta-check", ("lambda=1.0", "box.L=4", "horizon=2.0", "reps=150",
                    "seed=4")),
    ("moments", ("d=2", "n=1,2", "lambda=0.5", "walk_samples=500", "seed=9")),
    ("moments", ("d=2", "n=2", "lambda=1.0", "walk_samples=0", "use_bound=true",
                 "seed=2")),
    ("walks", ("d=2,3", "horizon=100", "samples=1500", "seed=8")),
    ("functional", ("d=3", "lambda=0.3", "samples=300", "horizon=128",
                    "seed=6")),
    ("critscan", ("d=2", "L=5", "horizon=6.0", "reps_per_probe=150",
                  "tol=0.1", "check_box=false", "seed=1")),
)


def test_criterion_11_covers_every_subcommand():
    # a subcommand criterion 11 never runs would go unchecked
    assert {name for name, _ in SMALL_RUNS} | {"report"} == set(cli._HANDLERS)


def _rerun_from_manifest(name, sets, out_a, out_b):
    argv = [name, "--out", out_a]
    for kv in sets:
        argv += ["--set", kv]
    if main(argv) != 0:
        return [f"{name}: first run failed"]
    rc = main([name, "--config", os.path.join(out_a, "manifest.json"),
               "--out", out_b])
    if rc != 0:
        return [f"{name}: rerun failed"]
    diffs = []
    names_a = sorted(os.listdir(out_a))
    if names_a != sorted(os.listdir(out_b)):
        diffs.append(f"{name}: artifact lists differ")
    for art in names_a:
        with open(os.path.join(out_a, art), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, art), "rb") as fh:
            b = fh.read()
        if a != b:
            diffs.append(f"{name}/{art}")
    return diffs


def test_criterion_11_manifest_reruns(tmp_path, capsys):
    diffs = []
    outs = {}
    for i, (name, sets) in enumerate(SMALL_RUNS):  # moments runs twice
        outs[name] = tmp_path / f"{i}-{name}"
        diffs += _rerun_from_manifest(name, sets, str(outs[name] / "a"),
                                      str(outs[name] / "b"))
    src = str(outs["walks"] / "a")
    diffs += _rerun_from_manifest("report", (f"dirs={src}",),
                                  str(tmp_path / "report" / "a"),
                                  str(tmp_path / "report" / "b"))
    _verdict(capsys, 11, not diffs,
             f"{len(cli._HANDLERS)} subcommands re-run from their manifests "
             "byte-identically"
             if not diffs else "differing artifacts: " + ", ".join(diffs))
