"""Collision structure of two independent oriented walks.

Both walks start at the origin and step along a uniformly chosen positive
axis, so they can only share a vertex after equal step counts.  The record
of those shared indices, split into runs where the walks travel together
and isolated touches in between, measures how correlated two random paths
are; the moment machinery consumes it through a closed-form integrand whose
exponents count episodes, their lengths, and the isolated touches.

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


@dataclass(frozen=True)
class WalkPair:
    """Two independent n-step walks; steps are axis indices in [0, d)."""

    d: int
    n_steps: int
    steps_a: np.ndarray
    steps_b: np.ndarray

    def __post_init__(self):
        for s in (self.steps_a, self.steps_b):
            if len(s) != self.n_steps:
                raise ValueError("step arrays must have length n_steps")
            if len(s) and (np.min(s) < 0 or np.max(s) >= self.d):
                raise ValueError("axis indices must lie in [0, d)")

    def positions(self, which: str = "a") -> np.ndarray:
        """(n_steps+1, d) integer positions including the origin row."""
        steps = {"a": self.steps_a, "b": self.steps_b}[which]
        pos = np.zeros((self.n_steps + 1, self.d), dtype=np.int64)
        if self.n_steps:
            np.cumsum(np.eye(self.d, dtype=np.int64)[np.asarray(steps)],
                      axis=0, out=pos[1:])
        return pos

    def meet_indices(self) -> np.ndarray:
        """Ascending step counts at which the walks share a vertex; 0 always."""
        same = (self.positions("a") == self.positions("b")).all(axis=1)
        return np.flatnonzero(same)


def sample_walk_pair(d: int, n_steps: int, seed) -> WalkPair:
    if d < 1:
        raise ValueError("d must be >= 1")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    rng = rng_from(seed)
    steps = rng.integers(0, d, size=(2, n_steps))
    return WalkPair(d=d, n_steps=n_steps, steps_a=steps[0], steps_b=steps[1])


@dataclass(frozen=True)
class CollisionStats:
    """Episode decomposition of the shared-vertex record of one walk pair.

    episodes are maximal runs of >= 2 consecutive meeting indices, stored as
    inclusive (start, end) pairs; isolated_counts[j] counts single-index
    touches before episode 1 (j=0), between episodes j and j+1, and after
    the last episode.  truncated is set when the walks meet at the final
    index, where the run's true extent is cut off by the horizon.
    """

    d: int
    n_steps: int
    episodes: tuple
    isolated_counts: tuple
    truncated: bool

    def __post_init__(self):
        if len(self.isolated_counts) != len(self.episodes) + 1:
            raise ValueError("need one isolated-count slot per gap")
        prev_end = -1
        for (s, e) in self.episodes:
            if not (prev_end < s < e <= self.n_steps):
                raise ValueError(f"episodes must be ordered runs, got {self.episodes}")
            prev_end = e

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    @property
    def total_isolated(self) -> int:
        return int(sum(self.isolated_counts))

    def episode_lengths(self, convention: str = "inclusive") -> tuple:
        """Lengths under the two published-count conventions.

        "inclusive" counts meeting indices (end - start + 1, always >= 2);
        "gap" counts steps between the endpoints (end - start, >= 1).
        """
        if convention == "inclusive":
            return tuple(e - s + 1 for (s, e) in self.episodes)
        if convention == "gap":
            return tuple(e - s for (s, e) in self.episodes)
        raise ValueError(f"unknown episode-length convention {convention!r}")


def _stats_from_meets(meets, n_steps: int, d: int) -> CollisionStats:
    """Classify an ascending meet-index array into episodes and touches.

    A final run touching n_steps is classified provisionally (episode if it
    already spans two indices, isolated touch otherwise) and flagged.
    """
    meets = np.asarray(meets, dtype=np.int64)
    episodes = []
    isolated = []           # (meet index, episodes seen so far)
    run_start = None
    prev = None
    for m in meets.tolist():
        if run_start is None:
            run_start = prev = m
            continue
        if m == prev + 1:
            prev = m
            continue
        if prev > run_start:
            episodes.append((run_start, prev))
        else:
            isolated.append((run_start, len(episodes)))
        run_start = prev = m
    if run_start is not None:
        if prev > run_start:
            episodes.append((run_start, prev))
        else:
            isolated.append((run_start, len(episodes)))
    counts = [0] * (len(episodes) + 1)
    for (_, j) in isolated:
        counts[j] += 1
    truncated = bool(len(meets)) and int(meets[-1]) == n_steps
    return CollisionStats(d=d, n_steps=n_steps, episodes=tuple(episodes),
                          isolated_counts=tuple(counts), truncated=truncated)


def collision_stats(wp: WalkPair) -> CollisionStats:
    return _stats_from_meets(wp.meet_indices(), wp.n_steps, wp.d)


def collision_integrand(stats: CollisionStats, dist: WeightDistribution,
                        lam: float, convention: str = "inclusive") -> float:
    """Closed-form weight of one collision record in the pair-moment bound.

    Episodes are expensive (they put lam and the second moment in the
    denominator per together-step), isolated touches cost a bounded factor,
    and a record with no meetings at all contributes exactly 1.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    t = stats.n_episodes
    sk = stats.total_isolated
    sl = sum(stats.episode_lengths(convention))
    big_m = dist.bound
    m2 = dist.second_moment
    num = 2.0 ** (t + sk) * big_m ** (6 * t + 4 * sk) \
        * (1.0 + lam * big_m * big_m) ** (2 * sl + 2 * sk)
    den = lam ** (sl - t) * m2 ** (sl + 2 * t + 2 * sk)
    return num / den


# ---------------------------------------------------------------------------
# batched difference-walk estimators

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
    se is None when fewer than two records are kept;
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


def collision_functional(dist: WeightDistribution, d: int, lam: float,
                         samples: int, horizon: int = 10_000, seed=0,
                         convention: str = "inclusive") -> FunctionalEstimate:
    """Estimate the expected collision integrand over random walk pairs.

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
    if d == 1:
        # deterministic full coincidence: one run covering every index
        return FunctionalEstimate(d=d, lam=lam, samples=samples, horizon=horizon,
                                  convention=convention, value=None, se=None,
                                  censored_fraction=1.0, m_sums=(), diverging=False)
    rng = rng_from(seed)
    diff = np.zeros(samples * d, dtype=np.int32)
    l1 = np.zeros(samples, dtype=np.int64)
    base = np.arange(samples) * d
    met_rows, met_steps = [], []
    for step in range(1, horizon + 1):
        _advance(rng, diff, l1, base, d)
        hits = np.flatnonzero(l1 == 0)
        if hits.size:
            met_rows.append(hits.astype(np.int32))
            met_steps.append(np.full(hits.size, step, dtype=np.int32))

    # rows with no re-meet: origin touch only, complete record
    base = collision_integrand(
        CollisionStats(d=d, n_steps=horizon, episodes=(), isolated_counts=(1,),
                       truncated=False), dist, lam, convention)
    values = np.full(samples, base)
    t_count = np.zeros(samples, dtype=np.int64)
    censored = np.zeros(samples, dtype=bool)
    if met_rows:
        r_all = np.concatenate(met_rows)
        s_all = np.concatenate(met_steps)
        order = np.argsort(r_all, kind="stable")   # steps stay ascending per row
        r_all, s_all = r_all[order], s_all[order]
        cuts = np.flatnonzero(np.diff(r_all)) + 1
        for chunk_rows, chunk_steps in zip(np.split(r_all, cuts), np.split(s_all, cuts)):
            row = int(chunk_rows[0])
            meets = np.concatenate(([0], chunk_steps))
            st = _stats_from_meets(meets, horizon, d)
            if st.truncated:
                censored[row] = True
            else:
                values[row] = collision_integrand(st, dist, lam, convention)
                t_count[row] = st.n_episodes
    keep = ~censored
    n_keep = int(keep.sum())
    cens_frac = 1.0 - n_keep / samples
    if n_keep == 0:
        return FunctionalEstimate(d=d, lam=lam, samples=samples, horizon=horizon,
                                  convention=convention, value=None, se=None,
                                  censored_fraction=1.0, m_sums=(), diverging=False)
    kept = values[keep]
    value = float(kept.mean())
    se = float(kept.std(ddof=1) / math.sqrt(n_keep)) if n_keep > 1 else None
    tk = t_count[keep]
    sums = []
    for m in range(int(tk.max()) + 1):
        sums.append((m, float(kept[tk == m].sum()) / n_keep))
    dense = [s for (_, s) in sums]
    diverging = any(dense[m] > 0.0 and dense[m + 1] >= dense[m]
                    for m in range(1, len(dense) - 1))
    return FunctionalEstimate(d=d, lam=lam, samples=samples, horizon=horizon,
                              convention=convention, value=value, se=se,
                              censored_fraction=cens_frac, m_sums=tuple(sums),
                              diverging=diverging)
