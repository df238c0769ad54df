"""Second-moment machinery for open-path counts.

The lower-bound route replaces the full time evolution with a static
question.  Attach to every vertex its recovery clock T ~ Exp(1) and to every
edge x -> x + e_i a first-transmission clock U ~ Exp(lam * rho(x) * rho(y));
call the edge open when U <= T at the source.  Open paths of length n from
the origin are counted exactly per draw, and the first two moments of that
count admit closed forms through small transfer operators over the weight
support.  The inequality P(count >= 1) >= (E count)^2 / E count^2 then turns
the moment ratio into an explicit survival lower bound.

Both moments come in two independent flavours on purpose: exact transfer
recursions and direct Monte Carlo on the sampled clock structure.  Tests and
the acceptance suite compare them; neither is allowed to stand in for the
other.

The exact second moment is a sum over ordered pairs of n-step walks, and a
pair enters only through its coincidence pattern: after which steps the two
walks share a vertex.  The patterns come from the packed difference lanes
of ``walks``: a running sum of lane increments along the steps, zero in
every lane where the walks meet.  The exact route enumerates all d^(2n)
pairs; the sampled route draws uniform pairs and evaluates each twice, as
drawn and with the second walk's axes relabelled cyclically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import BoxSpec
from .walks import _step_table
from .weights import WeightDistribution, rng_from


def edge_pass_probability(lam, a, b):
    """P(U <= T) for one edge: rate r = lam*a*b against a unit recovery.

    Equals r / (1 + r); zero rate gives zero.  Broadcasts over arrays.
    """
    r = lam * np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)
    return r / (1.0 + r)


def shared_source_pass_probability(lam, a, c, c_hat):
    """P(U1 <= T and U2 <= T) for two edges leaving one source of weight a.

    The recovery clock T is shared, so the joint law does not factorise;
    inclusion-exclusion over the independent transmission clocks gives the
    exact value.  Broadcasts over arrays.
    """
    r1 = lam * np.asarray(a, dtype=np.float64) * np.asarray(c, dtype=np.float64)
    r2 = lam * np.asarray(a, dtype=np.float64) * np.asarray(c_hat, dtype=np.float64)
    return 1.0 - 1.0 / (1.0 + r1) - 1.0 / (1.0 + r2) + 1.0 / (1.0 + r1 + r2)


def _pass_matrices(dist: WeightDistribution, lam: float):
    """(p, G, A) over the weight support a_i with probabilities p_i.

    G[i, j] = g(a_i, a_j) is the one-edge pass probability and
    A[i, j] = p_j * G[i, j] propagates the conditional expectation of an
    open chain one step.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    a = np.asarray(dist.values, dtype=np.float64)
    p = np.asarray(dist.probs, dtype=np.float64)
    G = edge_pass_probability(lam, a[:, None], a[None, :])
    return p, G, G * p[None, :]


def expected_path_count(dist: WeightDistribution, d: int, lam: float, n: int) -> float:
    """E[number of open n-step paths from the origin] = d^n * chain.

    chain = p . A^n . 1 is the probability that one fixed n-step path is
    fully open under i.i.d. vertex weights.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    p, _, A = _pass_matrices(dist, lam)
    if n < 0:
        raise ValueError("chain length must be nonnegative")
    v = np.ones(len(p))
    for _ in range(n):
        v = A @ v
    return float(d) ** n * float(p @ v)


# ---------------------------------------------------------------------------
# Monte Carlo path counts

@dataclass(frozen=True)
class PathCountEstimate:
    d: int
    n: int
    reps: int
    mean: float
    se_mean: float
    second_moment: float
    se_second: float

    @property
    def ratio(self) -> float:
        if self.mean <= 0.0:
            raise ValueError("mean path count is zero; ratio undefined")
        return self.second_moment / self.mean ** 2


_PATH_BATCH = 2048  # replicates count_paths_mc draws together


def count_paths_mc(dist: WeightDistribution, d: int, lam: float, n: int,
                   reps: int, seed) -> PathCountEstimate:
    """Monte Carlo moments of the open-path count by exact per-draw counting.

    An n-step path from the origin is at level k (coordinate sum k) after
    k steps, so the level dynamic program reads only the simplex
    {coordinate sum <= n}, and every vertex below level n has all d
    out-neighbours in it.  Each replicate draws weights, recovery clocks
    and edge clocks over the simplex alone, its vertices ordered by level
    and row-major within a level.  Replicates are drawn 2048 at a time in
    a fixed order, so results depend on the seed alone.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    box = BoxSpec(d, max(n, 1))
    V = box.n_vertices
    nb = lattice.out_neighbor_indices(box)
    level = np.indices(box.shape).reshape(d, V).sum(axis=0)
    layers = [np.flatnonzero(level == k) for k in range(n + 1)]
    # simplex position of every simplex vertex; level k is the slice
    # ends[k]:ends[k + 1] of the draws
    ends = np.cumsum([0] + [len(layer) for layer in layers]).tolist()
    pos = np.empty(V, dtype=np.intp)
    pos[np.concatenate(layers)] = np.arange(ends[-1])
    # step k reads the level-k sources; row i of dst holds their targets'
    # simplex positions along axis i and row i of at those targets' slots
    # in the level-(k+1) counts
    steps = [(slice(ends[k], ends[k + 1]), pos[nb[src]].T, pos[nb[src]].T - ends[k + 1])
             for k, src in enumerate(layers[:-1])]
    S = ends[-1]
    rng = rng_from(seed)
    s1 = s2 = s4 = 0.0
    done = 0
    while done < reps:
        B = min(_PATH_BATCH, reps - done)
        w = dist.sample(rng, (B, S))
        t_vertex = rng.standard_exponential((B, S))
        raw = rng.standard_exponential((B, d, S))
        counts = np.ones((B, 1))
        for k, (src, dst, at) in enumerate(steps):
            lam_w = lam * w[:, src]
            t_src = t_vertex[:, src]
            new = np.zeros((B, len(layers[k + 1])))
            for i in range(d):
                opened = raw[:, i, src] <= lam_w * w[:, dst[i]] * t_src
                new[:, at[i]] += counts * opened
            counts = new
        tot = counts.sum(axis=1)
        s1 += tot.sum()
        s2 += (tot ** 2).sum()
        s4 += (tot ** 4).sum()
        done += B
    mean = s1 / reps
    m2 = s2 / reps
    m4 = s4 / reps
    se_mean = math.sqrt(max(m2 - mean * mean, 0.0) / reps)
    se_second = math.sqrt(max(m4 - m2 * m2, 0.0) / reps)
    return PathCountEstimate(d=d, n=n, reps=reps, mean=mean, se_mean=se_mean,
                             second_moment=m2, se_second=se_second)


# ---------------------------------------------------------------------------
# exact pair expectations indexed by the coincidence pattern

def pair_chain_expectation(pattern, dist: WeightDistribution, lam: float,
                           use_bound: bool = False) -> float:
    """E[joint open probability of a walk pair] given where the walks meet.

    pattern[k] says whether the two walks occupy the same vertex after k
    steps; pattern[0] must be True since both start at the origin.  Because
    the coordinate sum grows by one per step, walks can only share a vertex
    at equal step counts, so the weight dependencies form a chain and a
    forward recursion over the support suffices.  State: a vector over the
    shared weight while the walks coincide, a matrix over the weight pair
    while they are apart.  use_bound swaps the exact split factor for its
    2*g*g upper bound everywhere a shared source splits.
    """
    pat = tuple(bool(x) for x in pattern)
    if len(pat) < 1 or not pat[0]:
        raise ValueError("pattern must start at a shared origin")
    p, G, A = _pass_matrices(dist, lam)
    if use_bound:
        split3 = 2.0 * G[:, :, None] * G[:, None, :]
    else:
        a = np.asarray(dist.values, dtype=np.float64)
        split3 = shared_source_pass_probability(
            lam, a[:, None, None], a[None, :, None], a[None, None, :])
    split3 = split3 * p[None, :, None] * p[None, None, :]

    coin = p.copy()
    apart = None
    for k in range(1, len(pat)):
        if pat[k - 1] and pat[k]:
            coin = coin @ A
        elif pat[k - 1]:
            apart = np.einsum("i,icd->cd", coin, split3)
            coin = None
        elif not pat[k]:
            apart = A.T @ apart @ A
        else:
            coin = np.einsum("ij,ie,je->e", apart, G, G) * p
            apart = None
    return float(coin.sum() if coin is not None else apart.sum())


def _patterns_between(steps_a: np.ndarray, steps_b: np.ndarray, d: int) -> np.ndarray:
    """(W, n+1) coincidence rows of the walk pairs with (W, n) axis choices
    steps_a and steps_b; column 0 is True.

    Pair w's step s is the code steps_a * d + steps_b of ``walks``, and
    the lanes of ``walks._step_table(d, n)`` pack the difference of the two
    positions into exact balanced base-(2n+1) digits, since no coordinate
    of it exceeds n after n steps.  A running sum of each lane's
    increments along the steps gives the lanes after every step, and the
    walks coincide after step s exactly when every lane is zero there.
    For d = 1 the table has no lanes and every column is True.
    """
    codes = np.ascontiguousarray((steps_a * d + steps_b).T)    # step-major
    rows = np.ones((len(codes) + 1, codes.shape[1]), dtype=bool)
    for lane in _step_table(d, len(codes)):
        run = lane[codes]
        for t in range(1, len(run)):
            run[t] += run[t - 1]
        rows[1:] &= run == 0
    return rows.T


def _pattern_values(rows: np.ndarray, dist: WeightDistribution, lam: float,
                    use_bound: bool) -> np.ndarray:
    """pair_chain_expectation of every coincidence row, one call per distinct row.

    Rows are bit-packed into 64-bit words and grouped by np.unique; each
    group is evaluated once and the values are gathered back in row order.
    One word sorts as an integer, longer rows as raw bytes.
    """
    packed = np.packbits(rows, axis=1)
    words = np.zeros((len(rows), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    keys = words.view(np.uint64 if words.shape[1] == 8 else f"V{words.shape[1]}")
    _, first, group = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    values = np.array([pair_chain_expectation(rows[r], dist, lam, use_bound=use_bound)
                       for r in first])
    return values[group]


# most walk pairs the exact route of path_count_moment_ratio enumerates
EXHAUSTIVE_LIMIT = 200_000


@dataclass(frozen=True)
class MomentRatio:
    d: int
    n: int
    value: float          # E count^2 / (E count)^2
    se: float             # 0 for the exact route
    method: str           # "exact" or "mc"
    numerator: float      # E count^2
    denominator: float    # (E count)^2

    @property
    def survival_lb(self) -> float:
        """P(some open n-path exists) >= 1 / ratio, clipped to 1."""
        return min(1.0, 1.0 / self.value)


def path_count_moment_ratio(dist: WeightDistribution, d: int, lam: float, n: int,
                            walk_samples: int | None = None, seed=0,
                            use_bound: bool = False) -> MomentRatio:
    """Second-moment ratio of the open-path count.

    E count^2 is a sum over ordered pairs of walks of the pair expectation,
    which depends on the pair only through its coincidence pattern.  With
    walk_samples=None all d^(2n) pairs are enumerated (refused above
    EXHAUSTIVE_LIMIT); otherwise the pattern is sampled by drawing that
    many independent uniform walk pairs, with a second evaluation under a
    cyclic relabeling of the second walk's axes to damp the variance.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    expected = expected_path_count(dist, d, lam, n)
    if expected <= 0.0:
        raise ValueError("expected path count is zero; ratio undefined")
    den = expected ** 2

    if walk_samples is None:
        n_pairs = d ** (2 * n)
        if n_pairs > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"{n_pairs} walk pairs exceed exhaustive_limit={EXHAUSTIVE_LIMIT};"
                " pass walk_samples for a sampled estimate")
        # every walk, its last step varying fastest; row j*N + i pairs
        # walk i with walk j, and the total is summed in row order
        steps = np.indices((d,) * n).reshape(n, -1).T
        rows = _patterns_between(np.tile(steps, (len(steps), 1)),
                                 np.repeat(steps, len(steps), axis=0), d)
        total = 0.0
        for v in _pattern_values(rows, dist, lam, use_bound).tolist():
            total += v
        return MomentRatio(d=d, n=n, value=total / den, se=0.0, method="exact",
                           numerator=total, denominator=den)

    if walk_samples < 2:
        raise ValueError("walk_samples must be >= 2")
    rng = rng_from(seed)
    steps_a = rng.integers(0, d, size=(walk_samples, n))
    steps_b = rng.integers(0, d, size=(walk_samples, n))
    rows_plain = _patterns_between(steps_a, steps_b, d)
    rows_turned = _patterns_between(steps_a, (steps_b + 1) % d, d)
    per = _pattern_values(np.concatenate([rows_plain, rows_turned]), dist, lam, use_bound)
    vals = 0.5 * (per[:walk_samples] + per[walk_samples:])
    scale = float(d) ** (2 * n)
    num = scale * float(vals.mean())
    se_num = scale * float(vals.std(ddof=1)) / math.sqrt(walk_samples)
    return MomentRatio(d=d, n=n, value=num / den, se=se_num / den, method="mc",
                       numerator=num, denominator=den)


@dataclass(frozen=True)
class SurvivalBound:
    value: float                 # second-moment lower bound at n = n_max
    per_n: tuple                 # (n, ratio, bound) rows for n = 1..n_max


def survival_lower_bound(dist: WeightDistribution, d: int, lam: float,
                         n_max: int) -> SurvivalBound:
    """(E count)^2 / E count^2 at n = n_max, clipped to [0, 1], with every n.

    Each n gives P(some open n-path exists) >= 1/ratio_n.  That event
    shrinks as n grows, so only the bound at the largest n speaks about
    survival: the largest over n would be the n=1 bound, which says only
    that the origin has an open out-edge.  n starts at 1: the empty path
    always exists and says nothing.  Every ratio is exact, so d^(2 n_max)
    walk pairs must stay within ``EXHAUSTIVE_LIMIT``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if expected_path_count(dist, d, lam, 1) <= 0.0:
        rows = tuple((n, math.inf, 0.0) for n in range(1, n_max + 1))
        return SurvivalBound(value=0.0, per_n=rows)
    if d ** (2 * n_max) > EXHAUSTIVE_LIMIT:  # fail before enumerating n < n_max
        raise ValueError(f"n_max={n_max} needs {d ** (2 * n_max)} walk pairs, above "
                         f"exhaustive_limit={EXHAUSTIVE_LIMIT}")
    rows = []
    for n in range(1, n_max + 1):
        r = path_count_moment_ratio(dist, d, lam, n)
        rows.append((n, r.value, r.survival_lb))
    return SurvivalBound(value=rows[-1][2], per_n=tuple(rows))
