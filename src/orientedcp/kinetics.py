"""Exact event-driven simulation of the weighted contact process on a box.

Three interacting-particle modes share one engine:

- ``eta``: the forward process; a healthy vertex x is infected at rate
  lam * rho(x) * sum of rho(y) over infected in-neighbours y, and infected
  vertices recover at rate 1.
- ``eta_hat``: the reversed process; infection pressure comes from infected
  out-neighbours instead.
- ``zeta``: as ``eta`` except that recovery removes the vertex permanently
  (state -1), so each vertex flips at most twice.

The engine is a next-reaction scheme with one exponential clock per vertex,
a lazy-deletion heap, and resampling of a vertex's clock whenever its total
rate changes.  By memorylessness this reproduces the jump chain exactly.
Given equal seeds and equal rate values it consumes randomness identically,
which the scale-equivalence tests rely on.

The decay profile f(t) = E[rho(apex) * 1{apex infected at t}] from the
all-infected start is estimated through duality: in the graphical
construction on the box, realization by realization, the apex is infected
at t from the all-infected start exactly when the ``eta_hat`` process
started from the apex alone is still alive at t (``harris.duality_check``
verifies this).  One dual run per replicate therefore reads every sample
time, and it touches only the backward cluster of the apex instead of the
whole box.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import lattice
from .lattice import BoxSpec
from .weights import (WeightDistribution, WeightField, rng_from, sample_field,
                      seed_key)

ETA = "eta"
ETA_HAT = "eta_hat"
ZETA = "zeta"
_MODES = (ETA, ETA_HAT, ZETA)

HEALTHY, INFECTED, REMOVED = 0, 1, -1


@dataclass
class Configuration:
    """Vertex states plus the process mode and current clock."""

    box: BoxSpec
    states: np.ndarray  # int8, 0 healthy / 1 infected / -1 removed (zeta only)
    mode: str = ETA
    clock: float = 0.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        st = np.asarray(self.states, dtype=np.int8)
        if st.shape != (self.box.n_vertices,):
            raise ValueError(f"states shape {st.shape} != ({self.box.n_vertices},)")
        lowest = REMOVED if self.mode == ZETA else HEALTHY
        if st.min() < lowest or st.max() > INFECTED:
            raise ValueError("states must lie in {0,1} (eta/eta_hat) or {-1,0,1} (zeta)")
        self.states = st

    @classmethod
    def all_infected(cls, box: BoxSpec, mode: str = ETA) -> "Configuration":
        return cls(box, np.ones(box.n_vertices, dtype=np.int8), mode=mode)

    @classmethod
    def all_healthy(cls, box: BoxSpec, mode: str = ETA) -> "Configuration":
        return cls(box, np.zeros(box.n_vertices, dtype=np.int8), mode=mode)

    @classmethod
    def single_seed(cls, box: BoxSpec, site=None, mode: str = ETA) -> "Configuration":
        """Everything healthy except one infected site (default: the origin)."""
        st = np.zeros(box.n_vertices, dtype=np.int8)
        site = box.origin if site is None else site
        st[lattice.vertex_index(box, site)] = INFECTED
        return cls(box, st, mode=mode)


@dataclass
class SimResult:
    """Outcome of one run: survival flag, extinction time, sampled occupancy."""

    survived: bool
    extinction_time: float
    # (time, number infected, weight-summed infected mass) per sample time
    occupancy_trace: list = dc_field(default_factory=list)
    # optional (time, state) pairs for a probed vertex
    probe_trace: list | None = None


def step_rates(cfg: Configuration, fld: WeightField, lam: float) -> np.ndarray:
    """Per-vertex rate of the next transition in the current configuration.

    Infected vertices carry their recovery rate 1; healthy vertices carry
    their infection rate lam * rho(x) * (sum of rho over infectious
    neighbours feeding x); removed vertices carry 0.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    box = cfg.box
    rho = fld.weights
    nb = (lattice.out_neighbor_indices(box) if cfg.mode == ETA_HAT
          else lattice.in_neighbor_indices(box))
    padded = np.concatenate([rho * (cfg.states == INFECTED), [0.0]])
    pressure = padded[nb].sum(axis=1)  # index -1 hits the zero pad
    rates = lam * rho * pressure
    rates[cfg.states == INFECTED] = 1.0
    rates[cfg.states == REMOVED] = 0.0
    return rates


class _ExpPool:
    """Batched standard-exponential draws; order of consumption is fixed.

    Batches grow from 64 to 8192 draws, so short runs draw little up front.
    """

    __slots__ = ("rng", "buf", "i", "n")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.n = 64
        self.buf = rng.standard_exponential(self.n)
        self.i = 0

    def draw(self) -> float:
        i = self.i
        if i == self.n:
            self.n = min(2 * self.n, 8192)
            self.buf = self.rng.standard_exponential(self.n)
            i = 0
        self.i = i + 1
        return self.buf[i]


def run(cfg: Configuration, fld: WeightField, lam: float, horizon: float,
        seed, sample_times=(), probe=None) -> SimResult:
    """Simulate from ``cfg`` up to ``horizon`` and return the outcome.

    ``sample_times`` requests (t, count, weighted mass) trace entries;
    ``probe`` additionally records one vertex's state at those times.
    Identical (cfg, fld, lam, horizon, seed) reproduce the result exactly.
    Heap ties break on the vertex index.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if cfg.mode not in _MODES:
        raise ValueError(f"unknown mode {cfg.mode!r}")

    box = cfg.box
    V = box.n_vertices
    rho = fld.weights
    lam_rho = lam * rho
    # "dst" are the vertices whose infection rate reads this vertex's state.
    if cfg.mode == ETA_HAT:
        dst = lattice.in_neighbor_lists(box)
    else:
        dst = lattice.out_neighbor_lists(box)

    states = cfg.states.copy()
    pressure = np.zeros(V)
    infected = np.flatnonzero(states == INFECTED)
    for x in infected:
        rx = rho[x]
        for z in dst[x]:
            pressure[z] += rx
    n_inf = int(infected.size)

    pool = _ExpPool(rng_from(seed))
    version = np.zeros(V, dtype=np.int64)
    heap: list = []
    push = heapq.heappush

    def schedule(x: int, now: float) -> None:
        s = states[x]
        if s == INFECTED:
            r = 1.0
        elif s == HEALTHY:
            r = lam_rho[x] * pressure[x]
        else:
            version[x] += 1
            return
        version[x] += 1
        if r > 0.0:
            push(heap, (now + pool.draw() / r, x, version[x]))

    # Only vertices with a nonzero rate need an initial clock.
    touched = set(int(x) for x in infected)
    for x in infected:
        touched.update(dst[x])
    for x in sorted(touched):
        schedule(x, cfg.clock)

    samples = sorted(float(t) for t in sample_times)
    if samples and samples[0] < cfg.clock:
        raise ValueError("sample times must not precede the starting clock")
    sptr = 0
    trace: list = []
    probe_trace: list | None = [] if probe is not None else None

    def flush(up_to: float) -> None:
        # record every pending sample time strictly before up_to
        nonlocal sptr
        while sptr < len(samples) and samples[sptr] < up_to and samples[sptr] <= horizon:
            mask = states == INFECTED
            trace.append((samples[sptr], int(mask.sum()), float(rho[mask].sum())))
            if probe_trace is not None:
                probe_trace.append((samples[sptr], int(states[probe])))
            sptr += 1

    extinction_time = cfg.clock if n_inf == 0 else math.inf

    while heap and n_inf > 0:
        te, x, ver = heapq.heappop(heap)
        if ver != version[x]:
            continue
        if te > horizon:
            break
        flush(te)
        s = states[x]
        rx = rho[x]
        if s == INFECTED:
            states[x] = REMOVED if cfg.mode == ZETA else HEALTHY
            n_inf -= 1
            for z in dst[x]:
                pressure[z] -= rx
                if states[z] == HEALTHY:
                    schedule(z, te)
            schedule(x, te)
            if n_inf == 0:
                extinction_time = te
                break
        else:
            states[x] = INFECTED
            n_inf += 1
            for z in dst[x]:
                pressure[z] += rx
                if states[z] == HEALTHY:
                    schedule(z, te)
            schedule(x, te)

    flush(math.inf)
    survived = n_inf > 0
    if survived:
        extinction_time = float(horizon)
    res = SimResult(survived=survived,
                    extinction_time=float(extinction_time),
                    occupancy_trace=trace,
                    probe_trace=probe_trace)
    return res


def run_on_events(cfg: Configuration, rep) -> np.ndarray:
    """Advance ``cfg`` through a pre-sampled event structure; return final states.

    ``rep`` is a harris.GraphicalRep.  Recovery marks flip 1 -> 0 (or -> -1 in
    zeta mode); an arrow x -> y transmits x's infection to y (y's to x in
    eta_hat mode).  This is the same jump chain the clock engine generates,
    driven by externally fixed event times; the two are cross-validated in
    the tests.
    """
    times, kinds, a, b = rep.event_arrays()
    states = cfg.states.copy()
    mode = cfg.mode
    for i in range(len(times)):
        if kinds[i] == 0:
            x = a[i]
            if states[x] == INFECTED:
                states[x] = REMOVED if mode == ZETA else HEALTHY
        else:
            x, y = a[i], b[i]
            if mode == ETA_HAT:
                x, y = y, x
            if states[x] == INFECTED and states[y] == HEALTHY:
                states[y] = INFECTED
    return states


@dataclass
class OccupancyEstimate:
    """Annealed estimates of E[rho(v) * 1{v infected at t}] at the apex vertex."""

    times: tuple
    values: tuple
    standard_errors: tuple
    reps: int
    d: int
    side: int
    lam: float


def weighted_origin_occupancy(dist: WeightDistribution, d: int, lam: float,
                              times, reps: int, seed,
                              side: int | None = None, slack: int = 3,
                              ) -> OccupancyEstimate:
    """Estimate the weight-times-infection expectation from the all-infected start.

    The measured vertex is the box apex: it is the only vertex whose
    backward cone down to depth ``side`` lies fully inside the box, so it
    plays the role of a bulk vertex of the infinite lattice.  ``side``
    defaults to ceil(max time) + slack; doubling it is the standard
    truncation check.  At t = 0 the state factor is identically 1, so the
    exact mean weight is returned with zero standard error.

    Each replicate draws a weight field and runs the reversed process
    ``eta_hat`` from the apex alone up to the largest time; it scores
    rho(apex) at every sample time where that dual run is still alive.
    This is exact in the box, not an approximation.  In the graphical
    construction an arrow x -> y fires at rate lam * rho(x) * rho(y)
    whichever way time is read, and the apex is infected at t from the
    all-infected start precisely when an infection path leads back from
    (apex, t) to time 0, which is the event that the dual run survives to
    t.  Given the field, both readings therefore have the same law, so the
    forward estimator and this one share their expectation.  A dead dual
    stays dead, so the values are non-increasing in t for every seed.
    """
    ts = sorted(set(float(t) for t in times))
    if not ts or ts[0] < 0:
        raise ValueError("times must be nonnegative and nonempty")
    tmax = ts[-1]
    if side is None:
        side = max(1, math.ceil(tmax) + slack)
    box = BoxSpec(d=d, side=side)
    apex = lattice.vertex_index(box, box.apex)
    positive = [t for t in ts if t > 0]

    key = seed_key(seed)
    sums = np.zeros(len(positive))
    sqsums = np.zeros(len(positive))
    if positive:
        for rep_i in range(reps):
            fld = sample_field(dist, box, np.random.SeedSequence(key + [rep_i, 0]))
            res = run(Configuration.single_seed(box, box.apex, mode=ETA_HAT), fld,
                      lam, horizon=tmax,
                      seed=np.random.SeedSequence(key + [rep_i, 1]),
                      sample_times=positive)
            w_apex = fld.weights[apex]
            for j, (_, count, _) in enumerate(res.occupancy_trace):
                if count > 0:
                    sums[j] += w_apex
                    sqsums[j] += w_apex * w_apex

    values, errors = [], []
    for t in ts:
        if t == 0.0:
            values.append(dist.mean)
            errors.append(0.0)
        else:
            j = positive.index(t)
            m = sums[j] / reps
            var = max(sqsums[j] / reps - m * m, 0.0)
            values.append(float(m))
            errors.append(float(math.sqrt(var / reps)))
    return OccupancyEstimate(times=tuple(ts), values=tuple(values),
                             standard_errors=tuple(errors), reps=reps,
                             d=d, side=side, lam=lam)


def decay_envelope(dist: WeightDistribution, d: int, lam: float, t: float) -> float:
    """Exponential reference curve mean * exp((d * lam * E[rho^2] - 1) * t)."""
    return dist.mean * math.exp((d * lam * dist.second_moment - 1.0) * t)
