"""Collision structure of two independent oriented walks.

Both walks start at the origin and step along a uniformly chosen positive
axis, so they can only share a vertex after equal step counts.  The steps at
which they share one, step 0 included, split into runs travelled together
(episodes: two or more consecutive steps) and isolated touches in between.
The moment machinery reads a record as three counts: the number of episodes
t, the number of isolated touches sk, and the together-steps sl, the
episodes' summed lengths; a closed-form integrand turns them into the
record's weight in the pair-moment bound.

All estimators here run on the difference walk: only the coordinate-wise
difference of the two positions is tracked, with an incrementally updated
l1 norm, so one step costs a handful of vectorized operations regardless of
dimension.  A batch of pairs keeps its differences in one flat int32 array,
d entries per pair, addressed by per-pair offsets; a step gathers and
scatters through those offsets instead of two-dimensional fancy indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import WeightDistribution, rng_from


def _advance(rng, diff: np.ndarray, l1: np.ndarray, base: np.ndarray, d: int) -> None:
    """One synchronous step of the difference walk, l1 updated in place.

    diff is flat: pair r owns the d entries diff[base[r]:base[r] + d].  The
    first walk adds +1 at a uniform coordinate, the second subtracts 1 at
    an independent one; each half-step changes l1 by +1 or -1 according to
    the sign of the touched coordinate, so no full-norm rescan is needed.
    """
    n = len(base)
    i = rng.integers(0, d, size=n, dtype=np.int16)
    j = rng.integers(0, d, size=n, dtype=np.int16)
    at = base + i
    vi = diff[at]
    diff[at] = vi + 1
    up = vi >= 0
    at = base + j
    vj = diff[at]
    diff[at] = vj - 1
    down = vj <= 0
    # l1 += (2 * up - 1) + (2 * down - 1), without integer temporaries
    l1 += up
    l1 += up
    l1 += down
    l1 += down
    l1 -= 2


@dataclass(frozen=True)
class MeetEstimate:
    d: int
    horizon: int
    samples: int
    tau1_fraction: float      # share of pairs meeting again at step 1
    q_hat: float              # share with first re-meet in [2, horizon]
    se: float
    censored_fraction: float  # never re-met within the horizon

    @property
    def d2_scaled(self) -> float:
        return self.q_hat * self.d * self.d


def meet_probability(d: int, horizon: int, samples: int, seed=0) -> MeetEstimate:
    """Estimate the first re-meeting law of two independent oriented walks.

    tau = first positive step count with equal positions.  Step 1 is
    reported separately (its probability is exactly 1/d); q_hat estimates
    P(2 <= tau <= horizon).  Rows are retired at their first meet and the
    working set compacted when enough of them have retired; stepping stops
    once none is left.
    """
    if d < 2:
        raise ValueError("d must be >= 2; in one dimension the walks never separate")
    if horizon < 1 or samples < 1:
        raise ValueError("horizon and samples must be >= 1")
    rng = rng_from(seed)
    diff = np.zeros(samples * d, dtype=np.int32)
    l1 = np.zeros(samples, dtype=np.int64)
    done = np.zeros(samples, dtype=bool)
    base = np.arange(samples) * d
    count1 = count2 = 0
    for step in range(1, horizon + 1):
        _advance(rng, diff, l1, base, d)
        newly = (l1 == 0) & ~done
        hits = int(np.count_nonzero(newly))
        if hits:
            if step == 1:
                count1 += hits
            else:
                count2 += hits
            done |= newly
        if step % 256 == 0 and done.mean() > 0.1:
            keep = ~done
            diff = diff.reshape(-1, d)[keep].ravel()
            l1 = l1[keep]
            if not l1.size:
                break
            done = np.zeros(len(l1), dtype=bool)
            base = np.arange(len(l1)) * d
    q = count2 / samples
    return MeetEstimate(d=d, horizon=horizon, samples=samples,
                        tau1_fraction=count1 / samples, q_hat=q,
                        se=math.sqrt(q * (1.0 - q) / samples),
                        censored_fraction=(samples - count1 - count2) / samples)


@dataclass(frozen=True)
class FunctionalEstimate:
    """MC average of the collision integrand over complete records.

    value is None when every sampled record was cut off by the horizon, and
    inf or nan once an integrand leaves the float range; se is None when
    fewer than two records are kept or when their spread is not finite;
    m_sums[m] is the contribution to value from records with exactly m
    episodes (they sum to value); diverging flags growth of consecutive
    m-sums from m=1 on, the empirical signature that the pair-moment series
    does not converge at this rate.
    """

    d: int
    lam: float
    samples: int
    horizon: int
    convention: str
    value: float | None
    se: float | None
    censored_fraction: float
    m_sums: tuple             # ((m, partial sum), ...) ascending, uncensored only
    diverging: bool

    def m_sum_ratios(self) -> tuple:
        """((m, S_{m+1}/S_m), ...) for consecutive m with S_m > 0."""
        sums = dict(self.m_sums)
        out = []
        for m in sorted(sums):
            if m + 1 in sums and sums[m] > 0.0:
                out.append((m, sums[m + 1] / sums[m]))
        return tuple(out)


def _record_counts(rows: np.ndarray, steps: np.ndarray, horizon: int):
    """(t, sk, sl, censored) per record from its meeting steps.

    rows and steps list every (record, step) meeting, the step-0 touch of
    each record 0..R-1 included, with steps ascending within a record.  A
    run of consecutive steps is an episode when it covers two or more steps
    and an isolated touch otherwise; sl counts the episodes' steps
    (inclusive lengths).  A record is censored when its last meeting is at
    the horizon, where its final run may go on.
    """
    order = np.argsort(rows, kind="stable")
    rows, steps = rows[order], steps[order]
    new_run = np.ones(len(rows), dtype=bool)
    new_run[1:] = steps[1:] != steps[:-1] + 1    # a record's step 0 starts one
    starts = np.flatnonzero(new_run)
    length = np.diff(starts, append=len(rows))
    owner = rows[starts]
    episode = length >= 2
    first = np.flatnonzero(steps == 0)
    last = np.append(first[1:], len(rows)) - 1
    n = len(first)
    t = np.bincount(owner[episode], minlength=n)
    sk = np.bincount(owner[~episode], minlength=n)
    sl = np.bincount(rows, minlength=n) - sk
    return t, sk, sl, steps[last] == horizon


def _integrand(dist: WeightDistribution, lam: float, t: int, sk: int, sl: int) -> float:
    """Closed-form weight of a record with t episodes over sl together-steps
    and sk isolated touches.

    Episodes are expensive (they put lam and the second moment in the
    denominator per together-step), isolated touches cost a bounded factor,
    and a record with no meetings at all would contribute exactly 1.
    """
    big_m = dist.bound
    m2 = dist.second_moment
    num = 2.0 ** (t + sk) * big_m ** (6 * t + 4 * sk) \
        * (1.0 + lam * big_m * big_m) ** (2 * sl + 2 * sk)
    den = lam ** (sl - t) * m2 ** (sl + 2 * t + 2 * sk)
    if den == 0.0:  # underflowed: IEEE gives inf, or nan for 0 / 0; Python raises
        return math.inf if num else math.nan
    return num / den


def collision_functional(dist: WeightDistribution, d: int, lam: float,
                         samples: int, horizon: int = 10_000, seed=0,
                         convention: str = "inclusive") -> FunctionalEstimate:
    """Estimate the expected collision integrand over random walk pairs.

    convention "inclusive" measures an episode by its meeting steps
    (end - start + 1), "gap" by the steps between its ends (end - start).
    Records whose final index is a meeting are censored: their last run may
    extend past the horizon, so they are excluded from the average and only
    counted in censored_fraction.  In d=1 the two walks coincide at every
    index, every record is censored at every horizon, and the estimate is
    reported as None rather than a number.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if d < 1 or samples < 1 or horizon < 1:
        raise ValueError("d, samples, horizon must be >= 1")
    if convention not in ("inclusive", "gap"):
        raise ValueError(f"unknown episode-length convention {convention!r}")
    if dist.second_moment <= 0:
        raise ValueError("weight law has zero second moment; nothing can spread")
    censored_all = FunctionalEstimate(d=d, lam=lam, samples=samples, horizon=horizon,
                                      convention=convention, value=None, se=None,
                                      censored_fraction=1.0, m_sums=(), diverging=False)
    if d == 1:
        return censored_all
    rng = rng_from(seed)
    diff = np.zeros(samples * d, dtype=np.int32)
    l1 = np.zeros(samples, dtype=np.int64)
    base = np.arange(samples) * d
    met_rows = [np.arange(samples, dtype=np.int32)]    # the origin touch
    met_steps = [np.zeros(samples, dtype=np.int32)]
    for step in range(1, horizon + 1):
        _advance(rng, diff, l1, base, d)
        hits = np.flatnonzero(l1 == 0)
        if hits.size:
            met_rows.append(hits.astype(np.int32))
            met_steps.append(np.full(hits.size, step, dtype=np.int32))
    t, sk, sl, censored = _record_counts(np.concatenate(met_rows),
                                         np.concatenate(met_steps), horizon)
    keep = ~censored
    n_keep = int(keep.sum())
    if n_keep == 0:
        return censored_all
    if convention == "gap":
        sl = sl - t
    tk = t[keep]
    triples, which = np.unique(np.stack([tk, sk[keep], sl[keep]], axis=1),
                               axis=0, return_inverse=True)
    kept = np.array([_integrand(dist, lam, *row)
                     for row in triples.tolist()])[which.ravel()]
    # integrands past the float range make these inf or nan, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(kept.mean())
        se = float(kept.std(ddof=1) / math.sqrt(n_keep)) if n_keep > 1 else math.inf
        sums = [(m, float(kept[tk == m].sum()) / n_keep)
                for m in range(int(tk.max()) + 1)]
    se = se if math.isfinite(se) else None
    dense = [s for (_, s) in sums]
    diverging = any(dense[m] > 0.0 and dense[m + 1] >= dense[m]
                    for m in range(1, len(dense) - 1))
    return FunctionalEstimate(d=d, lam=lam, samples=samples, horizon=horizon,
                              convention=convention, value=value, se=se,
                              censored_fraction=1.0 - n_keep / samples,
                              m_sums=tuple(sums), diverging=diverging)
