"""Collision structure of two independent oriented walks.

Both walks start at the origin and step along a uniformly chosen positive
axis, so they can only share a vertex after equal step counts.  The steps at
which they share one, step 0 included, split into runs travelled together
(episodes: two or more consecutive steps) and isolated touches in between.
The moment machinery reads a record as three counts: the number of episodes
t, the number of isolated touches sk, and the together-steps sl, the
episodes' summed lengths; a closed-form integrand turns them into the
record's weight in the pair-moment bound.

All estimators here run on the difference walk, the coordinate-wise
difference of the two positions; the walks share a vertex exactly when it
is zero.  A step is one code i*d + j: the first walk steps along axis i and
the second along axis j, so the difference gains +1 at i and -1 at j.

The difference is packed into a few int64 lanes.  Its coordinates sum to
zero, so coordinate d-1 is minus the sum of the others and only coordinates
0..d-2 are stored, as balanced digits in base b = 2*horizon + 1, as many
digits per lane as fit with b**k <= 2**62.  After s <= horizon steps no
coordinate exceeds s in absolute value, so every digit lies in
[-horizon, horizon], no lane exceeds (b**k - 1) / 2 < 2**61 in absolute
value, and each lane is the exact integer whose balanced digits are those
coordinates: nothing overflows, and the difference is zero exactly when
every lane is zero.  A (lanes, d*d) table holds each lane's increment for
each step code, so a block of k steps for n pairs is one gather and one
running sum along the steps per lane, and a meeting is a cell where every
lane is zero.  Blocks hold at most 2**16 cells, laid out step-major.

meet_probability draws a block's step codes in one call.
collision_functional's stream is frozen as two
rng.integers(0, d, size=n, dtype=int16) calls per step, axis i then axis j
for every pair, because a new stream would re-roll its heavy-tailed
estimate: the integrand has infinite variance at the rates it is run at, so
one rare record with many episodes can decide its m-sums and whether they
read as diverging.  _Int16Reader gives the values of a block's calls from
one pass over the bit generator's raw words, with no numpy call per step,
and leaves the generator where the calls would; the functional writes them
into one (k, 2, n) block and forms the block's step codes in one pass.

moments reads the same table at horizon n for its coincidence rows.

The cost grows with the number of lanes, about (d-1) / k: every caller runs
d <= 12, at most 3 lanes at horizon 10 000.  At that horizon, with 1000
pairs, meet_probability took 0.16 s at d = 12 (3 lanes), 0.34 s at d = 40
(10 lanes) and 0.75 s at d = 80 (20 lanes) on a 2-core x86 host, where the
former per-coordinate step, whose cost does not grow with d, took 0.45 s.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .weights import WeightDistribution, rng_from

_BLOCK_CELLS = 1 << 16
_LOG_MAX = math.log(sys.float_info.max)


def _step_table(d: int, horizon: int) -> np.ndarray:
    """(lanes, d*d) int64: each lane's increment for each step code.

    Coordinate c < d-1 is digit c % k of lane c // k, with k digits of base
    2*horizon + 1 per lane; coordinate d-1 has no digit.
    """
    base = 2 * horizon + 1
    k = 1
    while base ** (k + 1) <= 1 << 62:
        k += 1
    weight = np.zeros((-(-(d - 1) // k), d), dtype=np.int64)
    for c in range(d - 1):
        weight[c // k, c] = base ** (c % k)
    return (weight[:, :, None] - weight[:, None, :]).reshape(len(weight), d * d)


def _block_meetings(table: np.ndarray, state: np.ndarray,
                    codes: np.ndarray) -> np.ndarray:
    """Flat step-major indices of the cells of a (k, n) block of step codes
    where the difference is zero; state, (lanes, n), is advanced past it.

    Lane 0 holds the most digits, so its zeros are the few candidates that
    the other lanes then check.
    """
    codes = codes.astype(np.intp, copy=False)  # gathers by intp are the fast ones
    hits = None
    for lane, row in enumerate(table):
        inc = row[codes]
        inc[0] += state[lane]
        for t in range(1, len(inc)):
            inc[t] += inc[t - 1]
        state[lane] = inc[-1]
        if hits is None:
            zero = inc == 0
            hits = np.flatnonzero(zero) if zero.any() else np.empty(0, dtype=np.intp)
        elif hits.size:
            hits = hits[inc.ravel()[hits] == 0]
    return hits


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
    P(2 <= tau <= horizon).  Pairs are stepped a block at a time and
    retired after the block of their first meet; stepping stops once none
    is left.
    """
    if d < 2:
        raise ValueError("d must be >= 2; in one dimension the walks never separate")
    if horizon < 1 or samples < 1:
        raise ValueError("horizon and samples must be >= 1")
    rng = rng_from(seed)
    table = _step_table(d, horizon)
    state = np.zeros((len(table), samples), dtype=np.int64)
    met = met1 = step = 0
    while step < horizon and state.shape[1]:
        n = state.shape[1]
        k = min(horizon - step, max(1, _BLOCK_CELLS // n))
        codes = rng.integers(0, d * d, size=(k, n),
                             dtype=np.int16 if d * d <= 1 << 15 else np.int32)
        hits = _block_meetings(table, state, codes)
        if hits.size:
            if step == 0:
                met1 = int(np.count_nonzero(hits < n))    # met at step 1
            rows = np.unique(hits % n)
            met += len(rows)
            state = np.delete(state, rows, axis=1)
        step += k
    q = (met - met1) / samples
    return MeetEstimate(d=d, horizon=horizon, samples=samples,
                        tau1_fraction=met1 / samples, q_hat=q,
                        se=math.sqrt(q * (1.0 - q) / samples),
                        censored_fraction=(samples - met) / samples)


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


class _Int16Reader:
    """Fills blocks of consecutive ``rng.integers(0, d, size=n, dtype=np.int16)``
    calls from the bit generator's raw words, and leaves rng where those
    calls leave it.

    numpy's 16-bit bounded sampler (Lemire's method) reads the u32 stream,
    low half of each 64-bit raw word first (the high half is kept as the
    buffered ``uinteger``), and takes each u32's two u16 halves h, low
    first.  A half gives the value (h * d) >> 16 and is rejected when the
    low 16 bits of h * d fall below 2**16 % d; the unread high half of a
    call's last u32 is dropped.  A call without a rejection spans
    per = 2 * ceil(n / 2) halves, so up to 2**16 halves at a time are
    turned into values and rejection positions by a few vector operations,
    and only the few calls that hold a rejection are walked one by one.
    Words are read once a call is known to need them, so none is read past
    the last call.  Of numpy's own bit generators, those with a buffered
    u32 have 64-bit raw words and MT19937 has u32 words; any other bit
    generator is read call by call.

    Positions count halves from the start of a fill.  The window
    [start, end) holds the values of the halves read and not yet passed, in
    vals; bad lists every rejected position read so far.
    """

    def __init__(self, rng: np.random.Generator, d: int, n: int):
        self.rng, self.d, self.n = rng, d, n
        self.bg = rng.bit_generator
        st = self.bg.state
        own = type(self.bg).__module__.startswith("numpy.random.")
        self.wide = own and "has_uint32" in st
        self.raw = self.wide or own and st["bit_generator"] == "MT19937"
        self.per = 2 * (-(-n // 2))
        self.chunk = max(1, _BLOCK_CELLS // self.per)    # calls read at a time
        self.thr = (1 << 16) % d
        # the window holds at most a partial call and a chunk, or one call
        # and its rejections: more than twice its halves would need more
        # rejections than values, and no d < 2**15 rejects a third
        self.vals = np.empty((self.chunk + 1) * self.per + 8, dtype=np.uint32)
        self.mask = np.empty(len(self.vals), dtype=bool)

    def _take(self, u32: np.ndarray, p: int) -> None:
        """Append the halves of u32 to the window, which then starts at p."""
        h = u32.view("<u2")
        keep = self.end - p
        self.vals[:keep] = self.vals[p - self.start:self.end - self.start]
        v = self.vals[keep:keep + len(h)]
        if self.thr:
            low = v.view(np.uint16)[:len(h)]
            np.multiply(h, np.uint16(self.d), out=low)
            mask = np.less(low, self.thr, out=self.mask[:len(h)])
            self.bad += (np.flatnonzero(mask) + self.end).tolist()
        np.multiply(h, self.d, out=v, dtype=np.uint32)
        v >>= 16
        self.start, self.end = p, self.end + len(h)

    def _cover(self, p: int, target: int) -> None:
        """Read raw words until the window reaches position target."""
        need = (target - self.end) // 2             # u32; positions are even
        if need > 0:
            more = self.bg.random_raw(-(-need // 2) if self.wide else need)
            more = more.astype("<u8", copy=False).view("<u4") if self.wide \
                else more.astype("<u4")
            self.last = int(more[-1])
            self._take(more, p)

    def fill(self, out: np.ndarray) -> None:
        """Fill each row of out, (calls, n) int16, as one call would."""
        calls, n, per = len(out), self.n, self.per
        if not self.raw:
            for row in out:
                row[:] = self.rng.integers(0, self.d, size=n, dtype=np.int16)
            return
        st = self.bg.state
        self.start = self.end = 0
        self.bad = bad = []
        if self.wide and st["has_uint32"]:
            self._take(np.array([st["uinteger"]], dtype="<u4"), 0)
        held = self.end // 2
        p = i = b = 0   # first unread position, first unfilled row, first rejection to check
        self._cover(p, min(calls, self.chunk) * per)
        while i < calls:
            while b < len(bad) and (bad[b] < p or (bad[b] - p) % per >= n):
                b += 1                          # passed, or in a dropped half
            clean = min(calls - i, (self.end - p) // per)
            if b < len(bad):
                clean = min(clean, (bad[b] - p) // per)
            if clean:
                s = p - self.start
                out[i:i + clean] = self.vals[s:s + clean * per].reshape(clean, per)[:, :n]
                i += clean
                p += clean * per
            elif b == len(bad) or bad[b] - p >= n:  # the call runs past the window
                self._cover(p, p + min(calls - i, self.chunk) * per)
            else:       # the call holds a rejection: find its n-th accepted half
                used = n
                while True:
                    self._cover(p, p + 2 * (-(-used // 2)))
                    hit = bad[b:bisect_left(bad, p + used, b)]
                    if n + len(hit) == used:
                        break
                    used = n + len(hit)
                k, src = 0, p           # copy the runs between rejections
                for r in hit + [p + used]:
                    out[i, k:k + r - src] = self.vals[src - self.start:r - self.start]
                    k, src = k + r - src, r + 1
                i += 1
                p += 2 * (-(-used // 2))
        if self.wide:   # the high half of the last word read is buffered, or dropped
            taken = p // 2 - held                   # raw u32 consumed
            st = self.bg.state
            if taken:
                st["uinteger"] = self.last
            st["has_uint32"] = taken % 2
            self.bg.state = st


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


def _exp(x: float) -> float:
    """e**x rounded as IEEE rounds it: inf past the float range."""
    return math.inf if x > _LOG_MAX else math.exp(x)


def _integrand(dist: WeightDistribution, lam: float, t: int, sk: int, sl: int) -> float:
    """Closed-form weight of a record with t episodes over sl together-steps
    and sk isolated touches.

    Episodes are expensive (they put lam and the second moment in the
    denominator per together-step), isolated touches cost a bounded factor,
    and a record with no meetings at all would contribute exactly 1.
    """
    big_m = dist.bound
    m2 = dist.second_moment
    try:
        num = 2.0 ** (t + sk) * big_m ** (6 * t + 4 * sk) \
            * (1.0 + lam * big_m * big_m) ** (2 * sl + 2 * sk)
        den = lam ** (sl - t) * m2 ** (sl + 2 * t + 2 * sk)
    except OverflowError:  # where IEEE gives inf: round num and den from logs
        num = _exp(math.log(2.0) * (t + sk) + math.log(big_m) * (6 * t + 4 * sk)
                   + math.log1p(lam * big_m * big_m) * (2 * sl + 2 * sk))
        den = _exp(math.log(lam) * (sl - t) + math.log(m2) * (sl + 2 * t + 2 * sk))
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
    table = _step_table(d, horizon)
    state = np.zeros((len(table), samples), dtype=np.int64)
    met_rows = [np.arange(samples, dtype=np.int32)]    # the origin touch
    met_steps = [np.zeros(samples, dtype=np.int32)]
    k = max(1, _BLOCK_CELLS // samples)
    axes = np.empty((k, 2, samples), dtype=np.int16)
    draws = _Int16Reader(rng, d, samples)
    for step in range(0, horizon, k):
        block = axes[:horizon - step]
        draws.fill(block.reshape(-1, samples))  # per step, axis i then axis j
        codes = np.multiply(block[:, 0], d, dtype=np.intp)
        codes += block[:, 1]
        hits = _block_meetings(table, state, codes)
        if hits.size:
            met_rows.append((hits % samples).astype(np.int32))
            met_steps.append((hits // samples + step + 1).astype(np.int32))
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
