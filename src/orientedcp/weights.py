"""Bounded i.i.d. vertex-weight laws and keyed weight fields.

Every law is a finite table of nonnegative support values with probabilities.
Continuous densities enter only through a quadrature discretisation, so all
moment computations downstream are exact sums over the table.

Randomness is keyed by counters, so nothing is drawn before it is read.

- Seeds.  ``seed_key`` turns a seed into a list of nonnegative ints, and
  ``_fold`` hashes that list, 32-bit word by word, into 64 bits.
- Fields.  A ``WeightField`` is a box, a law and a key, and
  ``sample_field(dist, box, seed)`` is its one constructor; it keeps the
  folded seed as the field key K.  The weight at site x is the law's
  quantile of the 53-bit uniform ``mix(K + code(x)) >> 11``, so every
  weight lies in the law's support; ``mix`` is the SplitMix64
  finaliser (Steele, Lea and Flood, OOPSLA 2014) and ``code(x)`` a hash of
  the site's coordinates (``_site_codes``).  The key is the site, not its
  vertex index, so boxes of sides L and 2L agree on every site they share.
  ``WeightField.weights`` hashes the whole box the first time it is read;
  ``WeightField.at`` hashes one vertex at a time, on its first read.  A
  one-valued law hashes nothing.
- Replicates.  ``annealed_map`` runs replicate r on the field
  ``sample_field(dist, box, seed_key(seed) + [r])`` and one stream: the
  counter-based ``Philox`` generator (Salmon et al., SC 2011) with a
  128-bit key folded once from ``seed_key(seed)`` and counter words
  (r, 1).  Each chunk of replicates holds one Generator and resets its
  counter for every replicate.

Every stream depends on (seed, r) alone, so no result depends on the
number of jobs.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field

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
    def from_table(cls, values, probs) -> "WeightDistribution":
        return cls(tuple(values), tuple(probs), kind="table")

    @classmethod
    def from_density(cls, pdf, bound: float) -> "WeightDistribution":
        """32-node Gauss-Legendre discretisation of a density on [0, bound]."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        x, w = np.polynomial.legendre.leggauss(32)
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

    @functools.cached_property
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

    @functools.cached_property
    def _quantiles(self) -> tuple:
        """(values, thresholds) as arrays, then as lists, for the fields.

        A 53-bit int m maps to values[#{k : thresholds[k] <= m}], with
        thresholds[k] = ceil(cumulative[k] * 2^53).  That is exactly the
        quantile that ``sample`` gives the uniform m * 2^-53, in integers.
        """
        values = list(self.values)
        thresholds = [math.ceil(c * 2.0 ** 53) for c in self.cumulative().tolist()]
        return (np.asarray(values, dtype=np.float64),
                np.asarray(thresholds, dtype=np.uint64), values, thresholds)


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_C1, _C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U = {k: np.uint64(k) for k in (11, 27, 30, 31, _GOLDEN, _C1, _C2)}
# starting values of the folds, so the field key, the two words of the
# stream key and the site codes are unrelated hashes of their inputs
_FIELD, _STREAM = 0x243F6A8885A308D3, (0x13198A2E03707344, 0xA4093822299F31D0)
_SITE = 0x082EFA98EC4E6C89


def _mix_array(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, a bijection of 64-bit words, over a uint64
    array in place; products wrap modulo 2^64.  ``_fold`` and
    ``_Reads.__missing__`` spell it out on Python ints."""
    z ^= z >> _U[30]
    z *= _U[_C1]
    z ^= z >> _U[27]
    z *= _U[_C2]
    z ^= z >> _U[31]
    return z


def _fold(key: list, h: int) -> int:
    """Hash an entropy list into 64 bits, starting from ``h``.

    Each int enters as its 32-bit words, low word first, each tagged with
    whether more words of the same int follow.  The encoding is therefore
    prefix-free, and a seed of 2^64 or more stays distinct from its low
    64 bits.
    """
    for v in key:
        while True:
            word, v = v & 0xFFFFFFFF, v >> 32
            h = ((h ^ (word << 1 | (v > 0))) + _GOLDEN) & _M64
            h = ((h ^ (h >> 30)) * _C1) & _M64
            h = ((h ^ (h >> 27)) * _C2) & _M64
            h ^= h >> 31
            if not v:
                break
    return h


@functools.lru_cache(maxsize=64)
def _site_codes(box: BoxSpec) -> np.ndarray:
    """(V,) uint64 hash of every vertex's coordinates, row-major.

    A code depends on the coordinates alone, so boxes of different sides
    agree on the sites they share.  Built once per box, like the
    neighbour tables.
    """
    h = np.full(box.n_vertices, _SITE, dtype=np.uint64)
    for coord in np.indices(box.shape, dtype=np.uint64).reshape(box.d, -1):
        h ^= coord
        h += _U[_GOLDEN]
        _mix_array(h)
    h.setflags(write=False)
    return h


class WeightField:
    """One i.i.d. weight assignment on a box: a box, a law and a key.

    ``sample_field`` builds every field from a law and a seed.  A weight
    is hashed from the key and its site only when it is read (see the
    module docstring), so every weight lies in the law's support.
    Equality and hashing are by identity.
    """

    def __init__(self, box: BoxSpec, law: WeightDistribution, seed: list):
        self._box, self._law, self._seed = box, law, seed
        self._key = self._weights = self._at = None

    def __repr__(self) -> str:
        return f"WeightField(box={self._box}, law={self._law})"

    @property
    def box(self) -> BoxSpec:
        return self._box

    @property
    def law(self) -> WeightDistribution:
        return self._law

    @property
    def weights(self) -> np.ndarray:
        """(V,) float64 weights, row-major and read-only.

        The whole box is hashed in one vectorised pass on the first read,
        and the array is kept.
        """
        if self._weights is None:
            lo, hi = self._law.span
            if lo == hi:
                w = np.full(self._box.n_vertices, hi)
            else:
                values, thresholds, _, _ = self._law._quantiles
                z = _mix_array(_site_codes(self._box) + np.uint64(self._field_key()))
                w = values[np.searchsorted(thresholds, z >> _U[11], side="right")]
            w.setflags(write=False)
            self._weights = w
        return self._weights

    @property
    def at(self):
        """Per-vertex reads: ``fld.at[v]`` is the weight of vertex index v.

        A vertex is hashed on its first read and the value kept, so a run
        pays only for the vertices it reads, and a one-valued law reads
        nothing.  Weights already hashed for the whole box are read
        through a ``memoryview``.
        """
        if self._at is None:
            self._at = (_Reads(self) if self._weights is None
                        else memoryview(self._weights))
        return self._at

    def _field_key(self) -> int:
        if self._key is None:
            self._key = _fold(self._seed, _FIELD)
        return self._key

    def grid(self) -> np.ndarray:
        return self.weights.reshape(self._box.shape)


class _Reads(dict):
    """The weights of a field by vertex index, hashed on first read.

    Once a sixteenth of the box (at least 64 vertices) has been read, the
    next miss hashes the whole box in one vectorised pass, which costs
    about as much as the reads before it, so a run that fills the box
    pays no more than a full draw.
    """

    __slots__ = ("_field", "_const", "_codes", "_key", "_values", "_thresholds",
                 "_limit")

    def __init__(self, fld: WeightField):
        super().__init__()
        lo, hi = fld.law.span
        self._field, self._const = fld, (hi if lo == hi else None)
        if self._const is None:
            self._codes = memoryview(_site_codes(fld.box))
            self._key = fld._field_key()
            _, _, self._values, self._thresholds = fld.law._quantiles
            self._limit = max(64, fld.box.n_vertices // 16)

    def __missing__(self, v: int) -> float:
        if self._const is not None:
            return self._const
        if len(self) >= self._limit:
            self.update(enumerate(self._field.weights.tolist()))
            return self[v]
        # the SplitMix64 finaliser of _mix_array, on one Python int
        z = (self._codes[v] + self._key) & _M64
        z = ((z ^ (z >> 30)) * _C1) & _M64
        z = ((z ^ (z >> 27)) * _C2) & _M64
        w = self._values[bisect_right(self._thresholds, (z ^ (z >> 31)) >> 11)]
        self[v] = w
        return w


def seed_key(seed) -> list:
    """Normalize an int or int sequence to an entropy list.

    Entries must be nonnegative ints; a bool, a negative entry or any
    other type is rejected with a message that names the seed.  Derived
    keys are spelled seed_key(master) + [...], so every consumer composes
    the same way and the key stays JSON-serializable for manifests.
    """
    key = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    if set(map(type, key)) - {int}:  # the common case of plain ints skips this
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in key):
            raise TypeError("seed must be a nonnegative int or a sequence of "
                            f"them, got {seed!r}")
        key = [int(v) for v in key]
    if key and min(key) < 0:
        raise ValueError(f"seed {seed!r} has a negative entry; seeds must be "
                         "nonnegative")
    return key


def rng_from(seed) -> np.random.Generator:
    """The one seed-to-Generator step used by every sampler.

    A Generator passes through unchanged.  An int or int sequence, checked
    by ``seed_key``, seeds a fresh default Generator, so equal seeds give
    equal streams everywhere.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed_key(seed)))


def sample_field(dist: WeightDistribution, box: BoxSpec, seed) -> WeightField:
    """The i.i.d. field of ``dist`` on ``box`` keyed by ``seed``.

    ``seed`` is anything ``seed_key`` takes.  Equal seeds give equal
    fields, and boxes of different sides agree on every site they share.
    Nothing is hashed until a weight is read.
    """
    return WeightField(box, dist, seed_key(seed))


def _stream_key(key: list) -> np.ndarray:
    """The 128-bit Philox key of a seed key."""
    return np.array([_fold(key, h) for h in _STREAM], dtype=np.uint64)


def annealed_map(trial, dist: WeightDistribution, box: BoxSpec, reps: int, seed,
                 jobs: int = 1, stop=None) -> list:
    """``trial(fld, rng)`` over replicates 0..reps-1, results in replicate order.

    ``fld`` is ``sample_field(dist, box, seed_key(seed) + [r])`` and ``rng``
    is replicate r's stream, a Generator at its start (see the module
    docstring).  The Generator is reset for the next replicate, so a trial
    must not keep it.  More than one job splits range(reps) over a process
    pool; ``trial`` must then pickle (a module-level function or a
    ``functools.partial`` of one).

    ``stop``, if given, is called in this process on the results so far,
    in replicate order, after each replicate; the list ends at the first
    prefix it accepts.  One job stops running replicates there; more than
    one run all ``reps`` and cut the list at the same prefix, so the answer
    does not depend on ``jobs``.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    key = seed_key(seed)
    jobs = max(1, int(jobs))
    if jobs == 1:
        return _replicates(trial, dist, box, key, 0, reps, stop)
    from concurrent.futures import ProcessPoolExecutor
    edges = np.linspace(0, reps, jobs + 1).astype(int).tolist()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = [pool.submit(_replicates, trial, dist, box, key, r0, r1)
                 for r0, r1 in zip(edges, edges[1:])]
        results = [out for part in parts for out in part.result()]
    if stop is None:
        return results
    out = []
    for res in results:
        out.append(res)
        if stop(out):
            break
    return out


def _replicates(trial, dist, box, key, r0, r1, stop=None) -> list:
    bits = np.random.Philox(key=_stream_key(key))
    rng, state = np.random.Generator(bits), bits.state
    # counter words 2 and 3 name the stream; words 0 and 1 count its
    # blocks, and the saved state holds an empty output buffer
    counter = state["state"]["counter"]
    counter[3] = 1
    out = []
    for r in range(r0, r1):
        counter[2] = r
        bits.state = state
        out.append(trial(sample_field(dist, box, key + [r]), rng))
        if stop is not None and stop(out):
            break
    return out

