"""Bounded i.i.d. vertex-weight laws and sampled weight fields.

Every law is a finite table of nonnegative support values with probabilities.
Continuous densities enter only through a quadrature discretisation, so all
moment computations downstream are exact sums over the table.

Annealed estimates draw a fresh field and fresh dynamics per replicate,
and ``annealed_map`` is the one loop that runs them.  Channel c of
replicate r is the stream ``SeedSequence(seed_key(seed) + [r, c])``:
channel 0 draws the field, channels 1, 2, ... the trial's own randomness.
Streams depend on the replicate index alone, so no result depends on the
number of jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .lattice import BoxSpec

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class WeightDistribution:
    """Finite-support law of a single vertex weight.

    Parameters
    ----------
    values : tuple of float
        Support points, each in [0, bound].
    probs : tuple of float
        Probabilities, summing to 1 within 1e-12.
    kind : str
        Constructor tag, read by ``label`` ("constant", "two_point",
        "table", "quadrature").
    strict : bool
        When True (default) require positive mass on positive values; the
        limit machinery divides by the second moment, which would vanish
        otherwise.  Degenerate all-zero laws are allowed with strict=False
        for boundary studies only.
    """

    values: tuple
    probs: tuple
    kind: str = "table"
    strict: bool = dc_field(default=True, repr=False)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        prs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probs", prs)
        if len(vals) == 0 or len(vals) != len(prs):
            raise ValueError("values and probs must be equal-length and nonempty")
        if any(not np.isfinite(v) or v < 0 for v in vals):
            raise ValueError(f"support must be finite and nonnegative: {vals}")
        if any(p < 0 for p in prs):
            raise ValueError(f"probabilities must be nonnegative: {prs}")
        if abs(sum(prs) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {sum(prs)!r}, not 1")
        if self.strict and not any(v > 0 and p > 0 for v, p in zip(vals, prs)):
            raise ValueError(
                "law puts no mass on positive weights; pass strict=False "
                "if a degenerate environment is intended"
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "WeightDistribution":
        return cls((c,), (1.0,), kind="constant")

    @classmethod
    def two_point(cls, p: float, hi: float = 1.0, lo: float = 0.0,
                  strict: bool = True) -> "WeightDistribution":
        """Weight ``hi`` with probability p, else ``lo``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        return cls((hi, lo), (p, 1.0 - p), kind="two_point", strict=strict)

    @classmethod
    def from_table(cls, values, probs, strict: bool = True) -> "WeightDistribution":
        return cls(tuple(values), tuple(probs), kind="table", strict=strict)

    @classmethod
    def from_density(cls, pdf, bound: float, nodes: int = 32) -> "WeightDistribution":
        """Gauss-Legendre discretisation of a density on [0, bound]."""
        if bound <= 0 or nodes < 1:
            raise ValueError("bound must be positive and nodes >= 1")
        x, w = np.polynomial.legendre.leggauss(nodes)
        x = 0.5 * bound * (x + 1.0)
        w = 0.5 * bound * w
        p = np.array([max(float(w_i * pdf(x_i)), 0.0) for x_i, w_i in zip(x, w)])
        total = p.sum()
        if total <= 0:
            raise ValueError("density integrates to zero on [0, bound]")
        return cls(tuple(x), tuple(p / total), kind="quadrature")

    # -- moments -------------------------------------------------------

    @property
    def mean(self) -> float:
        return float(sum(p * v for v, p in zip(self.values, self.probs)))

    @property
    def second_moment(self) -> float:
        return float(sum(p * v * v for v, p in zip(self.values, self.probs)))

    @property
    def span(self) -> tuple[float, float]:
        """Smallest and largest support value carrying mass."""
        support = [v for v, p in zip(self.values, self.probs) if p > 0]
        return min(support), max(support)

    @property
    def bound(self) -> float:
        """Supremum of the support (largest value carrying mass)."""
        return self.span[1]

    @property
    def label(self) -> str:
        if self.kind == "constant":
            return f"constant({self.values[0]:g})"
        if self.kind == "two_point":
            return f"two_point(p={self.probs[0]:g},hi={self.values[0]:g},lo={self.values[1]:g})"
        pairs = ",".join(f"{v:g}:{p:g}" for v, p in zip(self.values, self.probs))
        if len(pairs) > 60:
            pairs = pairs[:57] + "..."
        return f"{self.kind}({pairs})"

    # -- sampling ------------------------------------------------------

    def cumulative(self) -> np.ndarray:
        cum = np.cumsum(np.asarray(self.probs, dtype=np.float64))
        cum[-1] = 1.0  # guard the top bin against rounding
        return cum

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        idx = np.searchsorted(self.cumulative(), rng.random(size), side="right")
        return np.asarray(self.values, dtype=np.float64)[idx]


@dataclass(frozen=True, eq=False)
class WeightField:
    """One sampled i.i.d. weight assignment on a box, immutable after creation.

    ``law`` is the law the weights were drawn from, or None.  Equality and
    hashing are by identity, since the weights are an array.
    """

    box: BoxSpec
    weights: np.ndarray  # (n_vertices,) float64, row-major
    law: WeightDistribution | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.box.n_vertices,):
            raise ValueError(f"weights shape {w.shape} != ({self.box.n_vertices},)")
        if w.base is not None:
            w = w.copy()  # a view could still change through its base
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @cached_property
    def span(self) -> tuple[float, float]:
        """Smallest and largest support value of the field's law, or the
        field's own extremes without a law.

        ``kinetics.run`` takes its weight bound from the span, so the first
        read rejects weights outside it, or negative or non-finite ones.
        ``sample_field`` fills it in, as its weights come from the law, so
        a sampled field skips this O(V) check.
        """
        lo = float(np.minimum.reduce(self.weights))
        hi = float(np.maximum.reduce(self.weights))
        if not 0.0 <= lo <= hi < np.inf:
            raise ValueError(f"weights must be finite and nonnegative, got [{lo}, {hi}]")
        if self.law is None:
            return lo, hi
        span = self.law.span
        if not span[0] <= lo <= hi <= span[1]:
            raise ValueError(f"weights [{lo}, {hi}] leave the law's support "
                             f"[{span[0]}, {span[1]}]")
        return span

    def grid(self) -> np.ndarray:
        return self.weights.reshape(self.box.shape)


def seed_key(seed) -> list:
    """Normalize an int, int sequence, or SeedSequence to an entropy list.

    Derived streams are spelled seed_key(master) + [replicate, channel] and
    fed to SeedSequence, so every consumer composes the same way and the key
    stays JSON-serializable for manifests.
    """
    if isinstance(seed, np.random.SeedSequence):
        ent = seed.entropy
        return [int(v) for v in ent] if isinstance(ent, (list, tuple)) else [int(ent)]
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    if isinstance(seed, (list, tuple)):
        return [int(v) for v in seed]
    raise TypeError("seed must be an int, a sequence of ints, or a SeedSequence, "
                    f"got {type(seed).__name__}")


def rng_from(seed) -> np.random.Generator:
    """The one seed-to-Generator step used by every sampler.

    A Generator passes through unchanged; anything else (an int, an int
    sequence, or a SeedSequence) seeds a fresh default Generator through
    SeedSequence, so equal seeds give equal streams everywhere.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.default_rng(seed)


def sample_field(dist: WeightDistribution, box: BoxSpec, seed) -> WeightField:
    """Draw an i.i.d. field; the same seed regenerates it bit-exactly.

    ``seed`` is anything ``rng_from`` takes; derived streams like
    (master, replicate) lists are welcome.
    """
    fld = WeightField(box=box, weights=dist.sample(rng_from(seed), box.n_vertices),
                      law=dist)
    fld.__dict__["span"] = dist.span
    return fld


def annealed_map(trial, dist: WeightDistribution, box: BoxSpec, reps: int, seed,
                 jobs: int = 1) -> list:
    """``trial(fld, stream)`` over replicates 0..reps-1, results in replicate order.

    ``fld`` is drawn from ``stream(0)``, and ``stream(c)`` is the replicate's
    channel c (see the module docstring).  More than one job splits
    range(reps) over a process pool; ``trial`` must then pickle (a
    module-level function or a ``functools.partial`` of one).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    key = seed_key(seed)
    jobs = max(1, int(jobs))
    if jobs == 1:
        return _replicates(trial, dist, box, key, 0, reps)
    from concurrent.futures import ProcessPoolExecutor
    edges = np.linspace(0, reps, jobs + 1).astype(int).tolist()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = [pool.submit(_replicates, trial, dist, box, key, r0, r1)
                 for r0, r1 in zip(edges, edges[1:])]
        return [out for part in parts for out in part.result()]


def _replicates(trial, dist, box, key, r0, r1) -> list:
    out = []
    for r in range(r0, r1):
        def stream(c, r=r):
            return np.random.SeedSequence(key + [r, c])
        out.append(trial(sample_field(dist, box, stream(0)), stream))
    return out


def constant_field(value: float, box: BoxSpec) -> WeightField:
    """Deterministic field, handy for unit fixtures."""
    return WeightField(box=box, weights=np.full(box.n_vertices, float(value)))
