"""The four benchmark workloads and the checks on their outputs.

A workload call is one pass of CLI invocations through
``orientedcp.cli.main(argv)`` (plus one direct ``count_paths_mc`` call in
``pairs``, which has no subcommand), always at ``--jobs 1``.  The program
receives only the generated argv; the per-call seed is derived from the
benchmark seed and the call index.

Each checked call records its own checks (exit codes and deterministic or
wide-margin conditions).  Conditions that are statistical at the few-se
level are checked once per run on the estimates pooled over the run's
checked calls, so that a run of many calls does not trip a 3-se gate by
chance.

Sizes are a fraction of the full-size settings (the acceptance criteria
and the baseline table in ROADMAP.md) so that one call takes about 0.7-2.5
s on a 2-core x86 host; a 30-s run then holds 11-40 calls, and its median
call time does not depend on which seed it was given.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from orientedcp import cli, moments
from orientedcp.weights import WeightDistribution


class Checks:
    """Tally of output checks; a failed check keeps its name."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok


def call_seed(seed: int, k: int) -> int:
    """The CLI seed of call ``k`` in a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _cli(checks: Checks, argv: list[str], seed: int, out: str) -> bool:
    rc = cli.main(argv + ["--jobs", "1", "--seed", str(seed), "--out", out])
    return checks(f"{argv[0]}.exit_code", rc == 0)


def _sets(*pairs: str) -> list[str]:
    return [a for kv in pairs for a in ("--set", kv)]


def _read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _binomial(hits: float, n: int) -> tuple[float, float]:
    p = hits / n
    return p, math.sqrt(p * (1.0 - p) / n)


class Critscan:
    """Headline experiment: bracket-and-bisect critical-rate scan at d=3.

    Constant law, box check on.  Almost all time is origin-seeded
    ``kinetics.run`` calls, dominated by the few replicates that survive
    and fill the box during the supercritical bracket-end probe.  Box side
    8 and horizon 16 (instead of the default 12 and 20) bring one scan to
    about 1.7 s on a 2-core x86 host.  Traced there, about 8% of the
    replicates survive, the bracket-end probe is about half of the scan
    and the box check (its doubled probe at side 16, horizon 32) about an
    eighth of ``kinetics.run`` time; at side 6 and horizon 10 the
    bracket-end probe fell to about a quarter.
    """

    name = "critscan"
    trace_calls = 4
    argv = ["critscan"] + _sets("d=3", "L=8", "horizon=16",
                                "reps_per_probe=200", "check_box=true")

    def __init__(self):
        self.scaled: list[float] = []

    def call(self, checks: Checks, seed: int, out: str) -> None:
        if not _cli(checks, self.argv, seed, out):
            return
        s = _read_json(os.path.join(out, "critscan.json"))[0]
        floor = 1.0 - 2.0 * s["tol"] / s["mean_field_ref"]
        checks("critscan.scaled_floor", s["scaled"] >= floor)
        checks("critscan.status",
               s["status"] in ("converged", "statistically_limited"))
        self.scaled.append(s["scaled"])

    def finish(self, checks: Checks) -> list[str]:
        if not self.scaled:
            return []
        return [f"critscan scaled rate d*lam_hat*E[rho^2]: median "
                f"{float(np.median(self.scaled)):.4f} over {len(self.scaled)} scans"]


class Fdecay:
    """Subcritical decay profile f(t), criterion 04's setting at 1/100 reps.

    Same ``kinetics.run`` engine as ``critscan`` but from the all-infected
    start: a dense heap and about 8 ms per replicate.
    """

    name = "fdecay"
    trace_calls = 6
    argv = ["f-decay"] + _sets("box.d=3", "lambda=0.16666666666666666",
                               "reps=100")

    def call(self, checks: Checks, seed: int, out: str) -> None:
        if not _cli(checks, self.argv, seed, out):
            return
        for row in _read_csv(os.path.join(out, "fdecay.csv")):
            checks(f"fdecay.ok[t={row['t']}]", row["ok"] == "true")

    def finish(self, checks: Checks) -> list[str]:
        return []


class Graphical:
    """Harris graphical construction only: annealed duality plus two sweeps.

    ``duality`` is build-heavy (three builds per replicate, each replayed
    once) while the duality and coupling sweeps are replay-heavy, so a
    change that speeds one half and slows the other shows up.
    """

    name = "graphical"
    trace_calls = 5
    duality_reps = 150
    law = _sets("dist.kind=two_point", "dist.p=0.7", "box.L=6", "horizon=3")
    duality = ["duality"] + law + _sets("lambda=0.8", f"reps={duality_reps}")
    zeta = ["zeta-check"] + law + _sets("lambda=1.0", "reps=300")

    def __init__(self):
        self.fwd_hits = self.dual_hits = 0.0
        self.reps = 0

    def call(self, checks: Checks, seed: int, out: str) -> None:
        if _cli(checks, self.duality, seed, out):
            rows = {r["metric"]: r for r in _read_csv(os.path.join(out, "duality.csv"))}
            checks("duality.disagreements", int(rows["disagreements"]["value"]) == 0)
            reps = self.duality_reps
            self.fwd_hits += round(float(rows["p_forward_all"]["value"]) * reps)
            self.dual_hits += round(float(rows["p_dual_process"]["value"]) * reps)
            self.reps += reps
        if _cli(checks, self.zeta, seed, out):
            rows = {r["metric"]: r for r in _read_csv(os.path.join(out, "zeta.csv"))}
            checks("zeta.violations", int(rows["violations"]["value"]) == 0)

    def finish(self, checks: Checks) -> list[str]:
        if not self.reps:
            return []
        pf, sf = _binomial(self.fwd_hits, self.reps)
        pd, sd = _binomial(self.dual_hits, self.reps)
        joint = math.hypot(sf, sd)
        checks("duality.forward_vs_dual_3se", abs(pf - pd) <= 3.0 * joint)
        return [f"duality pooled over {self.reps} reps: p_forward_all {pf:.4f}, "
                f"p_dual_process {pd:.4f}, joint se {joint:.4f}"]


class Pairs:
    """Vectorised numpy batch kernels with no event loop.

    Walk re-meeting probabilities, the collision functional at criterion
    08's d and rate, sampled moment ratios, and the Monte Carlo path count.
    The functional's value is reported, never gated: its Monte Carlo
    estimate is known to sit many se below the exact renewal value at this
    setting, and that gap must stay visible.
    """

    name = "pairs"
    trace_calls = 6
    walks_argv = ["walks"] + _sets("d=6,10", "horizon=2000", "samples=1000")
    functional_argv = ["functional"] + _sets("d=10", "lambda=0.15",
                                             "samples=2000", "horizon=2000")
    moments_argv = ["moments"] + _sets("d=3", "n=2,4,6", "lambda=0.5",
                                       "walk_samples=10000")
    paths = dict(dist=WeightDistribution.two_point(0.7), d=3, lam=0.5, n=6,
                 reps=2000)

    def __init__(self):
        self.q: dict[int, list[float]] = {}
        self.values: list[float] = []
        self.ses: list[float] = []
        self.m_sums: list[dict[int, float]] = []
        self.path_means: list[float] = []
        self.path_ses: list[float] = []

    def call(self, checks: Checks, seed: int, out: str) -> None:
        if _cli(checks, self.walks_argv, seed, out):
            for row in _read_csv(os.path.join(out, "walks.csv")):
                self.q.setdefault(int(row["d"]), []).append(float(row["tau_ge2_prob"]))
        if _cli(checks, self.functional_argv, seed, out):
            f = _read_json(os.path.join(out, "functional.json"))
            finite = f["value"] is not None and math.isfinite(f["value"])
            checks("functional.finite", finite)
            checks("functional.censored_below_1pct", f["censored_fraction"] < 0.01)
            if finite:
                self.values.append(f["value"])
                self.ses.append(f["se"])
                self.m_sums.append({int(m): s for m, s in f["m_sums"]})
        _cli(checks, self.moments_argv, seed, out)
        est = moments.count_paths_mc(seed=seed, **self.paths)
        self.path_means.append(est.mean)
        self.path_ses.append(est.se_mean)

    def finish(self, checks: Checks) -> list[str]:
        notes = []
        if self.q:
            scaled = {d: float(np.mean(v)) * d * d for d, v in sorted(self.q.items())}
            spread = max(scaled.values()) / min(scaled.values())
            checks("walks.q_d2_spread_below_3", spread < 3.0)
            notes.append("walks q*d^2 pooled: " + ", ".join(
                f"d={d} {v:.3f}" for d, v in scaled.items()) + f"; spread {spread:.3f}")
        if self.values:
            n = len(self.values)
            value = float(np.mean(self.values))
            se = math.sqrt(sum(s * s for s in self.ses)) / n
            top = max(max(s) for s in self.m_sums)
            dense = [sum(s.get(m, 0.0) for s in self.m_sums) / n for m in range(top + 1)]
            ratios = [dense[m + 1] / dense[m] for m in range(1, top) if dense[m] > 0.0]
            # the program's own rule: growth of consecutive m-sums from m=1 on
            diverging = any(dense[m] > 0.0 and dense[m + 1] >= dense[m]
                            for m in range(1, top))
            checks("functional.not_diverging", not diverging)
            checks("functional.m_sum_ratios_below_half", all(r < 0.5 for r in ratios))
            notes.append(f"functional d=10 lambda=0.15 pooled over {n} calls: "
                         f"value {value:.4f} se {se:.4f} (recorded, not gated); "
                         f"m-sum ratios beyond m=1: "
                         + (", ".join(f"{r:.3f}" for r in ratios) or "none"))
        if self.path_means:
            n = len(self.path_means)
            p = self.paths
            exact = moments.expected_path_count(p["dist"], p["d"], p["lam"], p["n"])
            mean = float(np.mean(self.path_means))
            se = math.sqrt(sum(s * s for s in self.path_ses)) / n
            checks("count_paths_mc.within_3se", abs(mean - exact) <= 3.0 * se)
            notes.append(f"count_paths_mc pooled over {n * p['reps']} reps: mean "
                         f"{mean:.5f} se {se:.5f}, expected_path_count {exact:.5f}")
        return notes


WORKLOADS = {w.name: w for w in (Critscan, Fdecay, Graphical, Pairs)}
