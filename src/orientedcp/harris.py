"""Graphical event structures: shared randomness for coupled processes.

A GraphicalRep fixes, once and for all, rate-1 recovery marks on every vertex
timeline and Poisson arrow streams on every directed edge x -> x + e_i with
intensity lam * rho(x) * rho(y).  It stores them as one event table, the
four parallel columns (times, kinds, a, b) sorted by (time, kind, a, b):
kind 0 is a recovery mark at vertex a (b = -1), kind 1 an arrow a -> b.
Reading the arrows forward in time yields the forward process; reading the
same structure with arrows reversed, or in reversed time, yields the
reversed process.  Because both readings are reachability statements about
one event diagram, the forward indicator "apex infected at the horizon from
the all-infected start" and the reversed indicator "descendants of the apex
still alive at time 0" agree for every single realization, not just in
distribution.

The replays keep vertex states in a bytearray with a count of infected
vertices, and stop reading the table once that count reaches 0: a dead
process stays dead.  The coupling check likewise stops once its freezing
copy has died, since an empty set is contained in any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial
from itertools import compress

import numpy as np

from . import lattice
from .lattice import BoxSpec
from .weights import (WeightDistribution, WeightField, annealed_map, rng_from,
                      sample_field)

_MARK, _ARROW = 0, 1


@dataclass(frozen=True, eq=False)
class GraphicalRep:
    """Immutable event table of marks and arrows on a box over [0, horizon].

    ``times`` (float64), ``kinds`` (int8), ``a`` and ``b`` (int32) are
    parallel columns, one row per event, sorted by (time, kind, a, b).
    Every event lies in [0, horizon], so a replay needs no cutoff; it reads
    the whole table unless the process it follows dies first.
    The rep keeps its box, rate and horizon but not the weight field or the
    seed it was built from; the replays read only the table.  Equality and
    hashing are by identity, since the columns are arrays.
    """

    box: BoxSpec
    lam: float
    horizon: float
    times: np.ndarray
    kinds: np.ndarray
    a: np.ndarray
    b: np.ndarray
    _cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_columns(cls, box: BoxSpec, lam: float, horizon: float,
                     times, kinds, a, b) -> "GraphicalRep":
        """Sort unordered event columns into a rep.

        Sampled times almost never tie, so one stable sort by time is the
        (time, kind, a, b) order; only if two sorted times are equal does
        the full lexsort run.
        """
        times = np.asarray(times, np.float64)
        order = np.argsort(times, kind="stable")
        ts = times[order]
        if (ts[1:] == ts[:-1]).any():
            order = np.lexsort((b, a, kinds, times))
            ts = times[order]
        return cls(box=box, lam=lam, horizon=float(horizon), times=ts,
                   kinds=np.asarray(kinds, np.int8)[order],
                   a=np.asarray(a, np.int32)[order], b=np.asarray(b, np.int32)[order])

    def event_arrays(self):
        """The table's (kinds, a, b) columns as lists, which the replays
        index faster than arrays; no replay reads the times.  Built once
        and cached; the rep is never mutated.
        """
        if "events" not in self._cache:
            self._cache["events"] = (self.kinds.tolist(), self.a.tolist(),
                                     self.b.tolist())
        return self._cache["events"]

    def n_events(self) -> int:
        return len(self.times)


@lru_cache(maxsize=64)
def _stream_columns(box: BoxSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kinds, a, b) of every event stream on ``box``: the V mark streams
    by vertex, then one arrow stream per edge in ``lattice.edge_table`` order.
    """
    src, dst, _ = lattice.edge_table(box)
    V = box.n_vertices
    kinds = np.repeat(np.array([_MARK, _ARROW], np.int8), [V, src.size])
    a = np.concatenate([np.arange(V, dtype=np.int32), src])
    b = np.concatenate([np.full(V, -1, np.int32), dst])
    for col in (kinds, a, b):
        col.setflags(write=False)
    return kinds, a, b


def build(box: BoxSpec, fld: WeightField, lam: float, horizon: float, seed) -> GraphicalRep:
    """Sample the full event structure; bit-exact for equal seeds.

    Streams are drawn in a fixed order (all mark counts, all mark times,
    then arrow counts and times over the canonical edge order), so equal
    seeds give equal structures regardless of how they are later read.
    Edges with zero rate get no stream at all.
    """
    if not (lam >= 0 and horizon > 0):
        raise ValueError(f"need lam >= 0 and horizon > 0, got lam={lam}, "
                         f"horizon={horizon}")
    rng = rng_from(seed)
    V = box.n_vertices
    rho = fld.weights
    kinds, a, b = _stream_columns(box)
    counts = np.zeros(kinds.size, np.int64)   # events per stream

    counts[:V] = rng.poisson(horizon, V)
    mark_times = rng.random(int(counts[:V].sum()))

    src, dst, _ = lattice.edge_table(box)
    rates = lam * rho[src] * rho[dst]
    live = np.flatnonzero(rates > 0)
    arrow_counts = rng.poisson(rates[live] * horizon)
    counts[V + live] = arrow_counts
    arrow_times = rng.random(int(arrow_counts.sum()))

    owner = np.repeat(np.arange(kinds.size), counts)
    return GraphicalRep.from_columns(
        box, lam, horizon, np.concatenate([mark_times, arrow_times]) * horizon,
        kinds[owner], a[owner], b[owner])


def _resolve_set(box: BoxSpec, vertices) -> bytearray:
    """Initial set as a 0/1 bytearray; accepts 'all', vertex tuples, or indices."""
    if isinstance(vertices, str):
        if vertices != "all":
            raise ValueError(f"unknown vertex-set token {vertices!r}")
        return bytearray(b"\x01") * box.n_vertices
    st = bytearray(box.n_vertices)
    for v in vertices:
        st[lattice.site_index(box, v)] = 1
    return st


def _replay(rep: GraphicalRep, initial, dual: bool,
            backwards: bool = False) -> frozenset:
    """The infected set at the end of the table; ``dual`` reads each arrow
    from head to tail, ``backwards`` reads the events newest first.
    """
    st = _resolve_set(rep.box, initial)
    alive = st.count(1)
    kinds, a, b = rep.event_arrays()
    cols = (kinds, a, b, a) if dual else (kinds, a, a, b)
    for kind, x, u, w in zip(*(map(reversed, cols) if backwards else cols)):
        if kind == _MARK:
            if st[x]:
                st[x] = 0
                alive -= 1
                if not alive:
                    return frozenset()
        elif st[u] and not st[w]:
            st[w] = 1
            alive += 1
    return frozenset(compress(range(len(st)), st))


def percolate_forward(rep: GraphicalRep, initial) -> frozenset:
    """Vertices infected at the horizon in the forward process from ``initial``.

    An arrow x -> y passes infection from x to y; a mark clears its vertex.
    The result is exactly the set of space-time reachability targets, so it
    is monotone in the initial set by construction.
    """
    return _replay(rep, initial, dual=False)


def percolate_dual(rep: GraphicalRep, initial) -> frozenset:
    """Forward-time run of the reversed process on the same event structure.

    Arrows are traversed head to tail: an arrow x -> y lets y infect x.
    """
    return _replay(rep, initial, dual=True)


def duality_check(rep: GraphicalRep) -> tuple[bool, bool]:
    """(forward indicator, reversed-reading indicator) on one realization.

    Forward: start all-infected, ask whether the apex is infected at the
    horizon.  Reversed: hang a single particle at (apex, horizon) and chase
    arrows tail-ward down the same diagram, asking whether anything is still
    alive at time 0.  The two booleans must be equal realization by
    realization.  The apex is the site whose backward cone fills the box,
    so both readings have room to propagate inside it.  The reversed
    reading replays the table newest first, so no horizon-minus-t rounding
    enters it.
    """
    idx = lattice.vertex_index(rep.box, rep.box.apex)
    fwd = idx in percolate_forward(rep, "all")
    return fwd, bool(_replay(rep, [idx], dual=True, backwards=True))


def removal_coupling_check(rep: GraphicalRep) -> bool:
    """Replay the plain and freezing processes jointly; verify containment.

    Both start from the origin alone and consume the same marks and arrows.
    In the freezing variant a recovered vertex is removed for good and
    blocks reinfection.  The check asserts, after every
    single event, that the freezing variant's infected set is contained in
    the plain process's infected set; returns True when no event violates it.
    It stops once the freezing variant has died: from then on its infected
    set is empty, so containment cannot fail.
    """
    box = rep.box
    idx = lattice.vertex_index(box, box.origin)
    plain = bytearray(box.n_vertices)    # 0 healthy, 1 infected
    frozen = bytearray(box.n_vertices)   # 0 healthy, 1 infected, 2 removed
    plain[idx] = frozen[idx] = 1
    alive = 1                            # infected vertices of the freezing copy
    kinds, a, b = rep.event_arrays()
    for kind, x, y in zip(kinds, a, b):
        if kind == _MARK:
            plain[x] = 0
            if frozen[x] == 1:
                frozen[x] = 2
                alive -= 1
                if not alive:
                    return True
        else:
            if plain[x]:
                plain[y] = 1
            if frozen[x] == 1 and not frozen[y]:
                frozen[y] = 1
                alive += 1
            # a mark leaves its vertex uninfected in the freezing copy and
            # an arrow flips only its head, so containment can break only there
            if frozen[y] == 1 and not plain[y]:
                return False
    return True


@dataclass(frozen=True)
class DualityEstimate:
    """Annealed occupation probabilities from independent randomness."""

    p_forward_all: float      # apex infected at horizon, all-infected start
    p_dual_process: float     # reversed process from the apex alive at horizon
    p_forward_origin: float   # forward process from the origin alive at horizon
    se_forward_all: float
    se_dual_process: float
    se_forward_origin: float
    reps: int

    def joint_se(self) -> float:
        """Standard error of p_forward_all - p_dual_process."""
        sa, sb = self.se_forward_all, self.se_dual_process
        return math.sqrt(sa * sa + sb * sb)


def _annealed_trial(dist, lam, horizon, apex, fld, rng) -> tuple:
    """The three indicators of one replicate, each on its own field and rep.

    All three reps and the keys of the second and third fields come from
    the replicate's one stream, read in the order they are built.
    """
    box = fld.box
    rep = build(box, fld, lam, horizon, rng)
    fwd_all = apex in percolate_forward(rep, "all")
    keys = rng.integers(1 << 63, size=2).tolist()
    rep = build(box, sample_field(dist, box, keys[0]), lam, horizon, rng)
    dual = bool(percolate_dual(rep, [apex]))
    rep = build(box, sample_field(dist, box, keys[1]), lam, horizon, rng)
    return fwd_all, dual, bool(percolate_forward(rep, [0]))


def duality_annealed(dist: WeightDistribution, box: BoxSpec, lam: float,
                     horizon: float, reps: int,
                     seed: int | list[int]) -> DualityEstimate:
    """Estimate the three annealed indicators on separate fields and reps.

    Each replicate draws a fresh weight field and a fresh event structure,
    keyed by ``seed``, an int or a list of ints (see ``weights.seed_key``).
    In the annealed law all three probabilities coincide: the first two by
    time reversal of one diagram, the last by the coordinate flip x -> apex - x
    that exchanges the two edge orientations without changing the i.i.d.
    environment.
    """
    trial = partial(_annealed_trial, dist, lam, horizon,
                    lattice.vertex_index(box, box.apex))
    counts = [sum(col) for col in zip(*annealed_map(trial, dist, box, reps, seed))]
    ps = [c / reps for c in counts]
    ses = [math.sqrt(p * (1.0 - p) / reps) for p in ps]
    return DualityEstimate(p_forward_all=ps[0], p_dual_process=ps[1],
                           p_forward_origin=ps[2], se_forward_all=ses[0],
                           se_dual_process=ses[1], se_forward_origin=ses[2],
                           reps=reps)


@dataclass(frozen=True)
class CheckReport:
    """Tally of a per-realization pass/fail check over independent replicates."""

    reps: int
    failures: int

    @property
    def rate(self) -> float:
        return 1.0 - self.failures / self.reps


def _duality_trial(lam, horizon, fld, rng) -> bool:
    fwd, rev = duality_check(build(fld.box, fld, lam, horizon, rng))
    return fwd != rev


def _coupling_trial(lam, horizon, fld, rng) -> bool:
    return not removal_coupling_check(build(fld.box, fld, lam, horizon, rng))


def duality_sweep(dist: WeightDistribution, box: BoxSpec, lam: float,
                  horizon: float, reps: int, seed: int | list[int],
                  jobs: int = 1) -> CheckReport:
    """Run duality_check on fresh realizations keyed by ``seed``, an int or
    a list of ints; count disagreements."""
    bad = annealed_map(partial(_duality_trial, lam, horizon), dist, box, reps, seed, jobs)
    return CheckReport(reps=reps, failures=sum(bad))


def coupling_sweep(dist: WeightDistribution, box: BoxSpec, lam: float,
                   horizon: float, reps: int, seed: int | list[int],
                   jobs: int = 1) -> CheckReport:
    """Run removal_coupling_check on fresh realizations keyed by ``seed``, an
    int or a list of ints; count violations."""
    bad = annealed_map(partial(_coupling_trial, lam, horizon), dist, box, reps, seed, jobs)
    return CheckReport(reps=reps, failures=sum(bad))
