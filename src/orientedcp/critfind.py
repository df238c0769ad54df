"""Survival estimation and critical-rate scans.

Survival on a finite box is a proxy: the process starts from the origin
corner, the boundary absorbs (arrows leaving the box are dropped), and
"survived" means the infected set is nonempty at the horizon.  The proxy is
honest only together with its convergence protocol, so scans can re-probe
at doubled box side and horizon and report whether the estimate moved.

A bracket end is read for its verdict alone (is the survival fraction of
its N replicates at least, or at most, the threshold?), so its probe runs
the replicates in order and stops at the first one after which that
verdict can no longer change, whatever the remaining replicates do (a
curtailed fixed-N test in the sense of Wald's sequential analysis).  The
verdict, the seeds of every later probe and so the scan's answer are the
ones the full N replicates give; only the bracket end's own trace entry
changes: it reports the replicates run and their survival fraction, and
no standard error, since stopping on the data voids the binomial one.

Reference rates: 1 / (d * E[rho^2]) serves both as the mean-field
prediction for the critical rate and as the provable floor below which the
weighted occupancy decays exponentially; scans must land above that floor
up to tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .errors import ScanError
from .kinetics import Configuration, run
from .lattice import BoxSpec
from .weights import WeightDistribution, annealed_map, seed_key


@dataclass(frozen=True)
class SurvivalEstimate:
    lam: float
    d: int
    side: int
    horizon: float
    reps: int
    p_hat: float
    se: float | None        # None once the probe stopped on its data
    settled: bool = False   # a bracket end stopped once its verdict was settled


def _survives(start, lam, horizon, fld, rng) -> bool:
    return run(start, fld, lam, horizon, seed=rng).survived


def survival_probability(dist: WeightDistribution, d: int, side: int, lam: float,
                         horizon: float, reps: int, seed,
                         jobs: int = 1, stop=None) -> SurvivalEstimate:
    """Fresh weight field per replicate, infection from the origin corner.

    Replicates run through ``annealed_map``, so the answer does not depend
    on ``jobs``.  ``stop`` is handed to ``annealed_map``: the estimate is
    then over the replicates run before it fired, marked ``settled``, and
    carries no standard error.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    box = BoxSpec(d=d, side=side)
    start = Configuration.single_seed(box)  # run never modifies it
    out = annealed_map(partial(_survives, start, lam, horizon), dist, box,
                       reps, seed, jobs, stop)
    n = len(out)
    p = sum(out) / n
    se = None if stop is not None else math.sqrt(p * (1.0 - p) / n)
    return SurvivalEstimate(lam=float(lam), d=d, side=side, horizon=float(horizon),
                            reps=n, p_hat=p, se=se, settled=stop is not None)


def _verdict(n: int, threshold: float, high: bool, hits: int, k: int) -> bool | None:
    """The verdict of an n-replicate bracket end after k of them, or None.

    The supercritical end (``high``) holds iff hits / n >= threshold over
    all n replicates, the subcritical end iff hits / n <= threshold.  After
    k replicates with ``hits`` survivals the final count lies in
    [hits, hits + n - k], so the verdict is settled once both ends of that
    range give the same answer; the comparisons are the scan's own.
    """
    if high:
        if hits / n >= threshold:
            return True
        if (hits + n - k) / n < threshold:
            return False
    else:
        if (hits + n - k) / n <= threshold:
            return True
        if hits / n > threshold:
            return False
    return None


def scan_defaults(d: int) -> dict:
    """Box side and horizon defaults tuned for desk-scale scans."""
    table = {2: (24, 24.0), 3: (12, 20.0), 4: (8, 18.0), 5: (7, 16.0)}
    if d in table:
        side, horizon = table[d]
    else:
        side, horizon = max(4, 14 // d + 3), 12.0
    return {"side": side, "horizon": horizon}


@dataclass(frozen=True)
class CritScanResult:
    d: int
    dist_label: str
    side: int
    horizon: float
    threshold: float
    tol: float
    bracket: tuple            # (lo, hi) at termination
    lam_hat: float
    status: str               # "converged" or "statistically_limited"
    trace: tuple              # SurvivalEstimate probes, in probe order
    mean_field_ref: float     # 1 / (d * E rho^2)
    box_converged: bool | None
    box_check: tuple          # () or (base, doubled) SurvivalEstimate pair

    @property
    def scaled(self) -> float:
        """lam_hat expressed in units of the mean-field rate."""
        return self.lam_hat / self.mean_field_ref


_BRACKET_BUDGET = 6  # widening steps at each bracket end before a scan fails


def estimate_critical_rate(dist: WeightDistribution, d: int,
                           side: int | None = None, horizon: float | None = None,
                           reps_per_probe: int = 2000, threshold: float = 0.05,
                           tol: float | None = None, seed=0,
                           check_box: bool = True, jobs: int = 1) -> CritScanResult:
    """Bracket and bisect the rate where the survival proxy crosses threshold.

    Bracketing starts at (0.5, 2.0) times the mean-field rate and widens
    geometrically, up to 6 times at each end; failure raises ScanError
    carrying the probe trace.  An end holds when at most (subcritical) or
    at least (supercritical) a threshold share of its
    max(reps_per_probe // 4, 200) replicates survive; its probe stops at
    the first replicate after which that verdict is settled (see the module
    docstring), so the bracket, every later probe and the answer are those
    of the full count, and the end's trace entry is ``settled`` with no
    standard error.  A bisection probe whose estimate is within 2 standard
    errors of the threshold is re-probed once at 4x replicates; if still
    inconclusive the scan stops early with status "statistically_limited".
    check_box re-probes the answer at doubled side and horizon and flags
    whether the estimate moved by more than 3 joint standard errors.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    m2 = dist.second_moment
    if m2 <= 0:
        raise ValueError("weight law has zero second moment; nothing can spread")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    mf = 1.0 / (d * m2)
    defaults = scan_defaults(d)
    side = side if side is not None else defaults["side"]
    horizon = horizon if horizon is not None else defaults["horizon"]
    tol = tol if tol is not None else 0.1 * mf
    if tol <= 0:
        raise ValueError("tol must be positive")
    key = seed_key(seed)
    trace = []

    def probe(lam: float, reps: int, stop=None) -> SurvivalEstimate:
        est = survival_probability(dist, d, side, lam, horizon, reps,
                                   seed=key + [len(trace)], jobs=jobs, stop=stop)
        trace.append(est)
        return est

    # bracket ends sit far from the threshold, so a coarse read suffices,
    # and only its verdict is used: each probe stops once that is settled
    bracket_reps = max(reps_per_probe // 4, 200)

    def holds(lam: float, high: bool) -> bool:
        verdict = [None]

        def decided(out) -> bool:
            verdict[0] = _verdict(bracket_reps, threshold, high, sum(out), len(out))
            return verdict[0] is not None

        probe(lam, bracket_reps, stop=decided)
        return verdict[0]

    lo, hi = 0.5 * mf, 2.0 * mf
    tries = 0
    while not holds(lo, high=False):
        tries += 1
        if tries > _BRACKET_BUDGET:
            raise ScanError(f"no subcritical end below {lo:.6g}", trace)
        lo *= 0.5
    tries = 0
    while not holds(hi, high=True):
        tries += 1
        if tries > _BRACKET_BUDGET:
            raise ScanError(f"no supercritical end up to {hi:.6g}", trace)
        hi *= 2.0

    status = "converged"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        est = probe(mid, reps_per_probe)
        if abs(est.p_hat - threshold) < 2.0 * est.se:
            est = probe(mid, 4 * reps_per_probe)
            if abs(est.p_hat - threshold) < 2.0 * est.se:
                status = "statistically_limited"
                break
        if est.p_hat > threshold:
            hi = mid
        else:
            lo = mid
    lam_hat = 0.5 * (lo + hi)

    box_converged = None
    box_pair = ()
    if check_box:
        base = survival_probability(dist, d, side, lam_hat, horizon,
                                    reps_per_probe, seed=key + [900_000],
                                    jobs=jobs)
        doubled = survival_probability(dist, d, 2 * side, lam_hat, 2.0 * horizon,
                                       max(reps_per_probe // 4, 200),
                                       seed=key + [900_001], jobs=jobs)
        joint = math.sqrt(base.se ** 2 + doubled.se ** 2)
        box_converged = abs(base.p_hat - doubled.p_hat) <= 3.0 * max(joint, 1e-12)
        box_pair = (base, doubled)
    return CritScanResult(d=d, dist_label=dist.label, side=side, horizon=float(horizon),
                          threshold=threshold, tol=tol, bracket=(lo, hi),
                          lam_hat=lam_hat, status=status, trace=tuple(trace),
                          mean_field_ref=mf,
                          box_converged=box_converged, box_check=box_pair)
