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

The event loop keeps its state where Python indexes it without boxing
numpy scalars: vertex states in a ``bytearray`` (removed is byte 255; an
int8 view reads -1 and serves the O(V) sample masks), pressure, ``rho`` and
``lam * rho`` in ``array('d')``, clock versions in a list.  Exponential
draws arrive in batches turned into lists, from 64 draws doubling to 8192,
and are topped up before each event to the d + 1 it may consume.  They are
read in stream order, so batch sizes change no result.

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
from array import array
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import lattice
from .lattice import BoxSpec
from .weights import WeightDistribution, WeightField, annealed_map, rng_from

ETA = "eta"
ETA_HAT = "eta_hat"
ZETA = "zeta"
_MODES = (ETA, ETA_HAT, ZETA)

HEALTHY, INFECTED, REMOVED = 0, 1, -1


@dataclass
class Configuration:
    """Vertex states plus the process mode; a run starts at time 0."""

    box: BoxSpec
    states: np.ndarray  # int8, 0 healthy / 1 infected / -1 removed (zeta only)
    mode: str = ETA

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


_FIRST_BATCH, _BATCH_CAP = 64, 8192


def _top_up(rng: np.random.Generator, buf: list, batch: int,
            need: int) -> tuple[list, int]:
    """Append batches of exponential draws, doubling up to ``_BATCH_CAP``,
    to the unread draws ``buf`` until it holds ``need``; return it and the
    next batch size.
    """
    while len(buf) < need:
        buf += rng.standard_exponential(batch).tolist()
        batch = min(2 * batch, _BATCH_CAP)
    return buf, batch


def run(cfg: Configuration, fld: WeightField, lam: float, horizon: float,
        seed, sample_times=(), probe=None) -> SimResult:
    """Simulate from ``cfg`` at time 0 up to ``horizon`` and return the outcome.

    ``sample_times`` requests (t, count, weighted mass) trace entries;
    ``probe`` additionally records one vertex's state at those times.
    Identical (cfg, fld, lam, horizon, seed) reproduce the result exactly.
    Heap ties break on the vertex index.  ``cfg`` is not modified.
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
    rho_c = array("d", rho.tobytes())
    lam_rho = array("d", (lam * rho).tobytes())
    # "dst" are the vertices whose infection rate reads this vertex's state.
    if cfg.mode == ETA_HAT:
        dst = lattice.in_neighbor_lists(box)
    else:
        dst = lattice.out_neighbor_lists(box)
    # one event resamples at most its vertex and that vertex's dst
    per_event = box.d + 1
    # a removed vertex is byte 255 here and reads -1 through the int8 view
    after_recovery = REMOVED & 0xFF if cfg.mode == ZETA else HEALTHY
    states = bytearray(cfg.states.tobytes())
    view = np.frombuffer(states, dtype=np.int8)
    pressure = array("d", bytes(8 * V))
    infected = np.flatnonzero(cfg.states == INFECTED).tolist()
    n_inf = len(infected)
    touched = set(infected)  # only these can have a nonzero rate
    for x in infected:
        touched.update(dst[x])
        for z in dst[x]:
            pressure[z] += rho_c[x]

    rng = rng_from(seed)
    version = [0] * V
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    buf, batch = _top_up(rng, [], _FIRST_BATCH, len(touched))
    i = 0
    for x in sorted(touched):
        version[x] = 1
        s = states[x]
        r = 1.0 if s == INFECTED else lam_rho[x] * pressure[x] if s == HEALTHY else 0.0
        if r > 0.0:
            push(heap, (buf[i] / r, x, 1))
            i += 1
    n = len(buf)

    samples = sorted(float(t) for t in sample_times)
    if samples and samples[0] < 0:
        raise ValueError("sample times must be nonnegative")
    sptr = 0
    trace: list = []
    probe_trace: list | None = [] if probe is not None else None

    def flush(up_to: float, alive: bool) -> float:
        # record every pending sample time strictly before up_to and
        # return the next pending one; a dead process needs no mask
        nonlocal sptr
        while sptr < len(samples) and samples[sptr] < up_to and samples[sptr] <= horizon:
            if alive:
                mask = view == INFECTED
                trace.append((samples[sptr], int(mask.sum()), float(rho[mask].sum())))
            else:
                trace.append((samples[sptr], 0, 0.0))
            if probe_trace is not None:
                probe_trace.append((samples[sptr], int(view[probe])))
            sptr += 1
        return samples[sptr] if sptr < len(samples) else math.inf

    next_sample = samples[0] if samples else math.inf
    extinction_time = 0.0 if n_inf == 0 else math.inf

    while heap and n_inf > 0:
        te, x, ver = pop(heap)
        if ver != version[x]:
            continue
        if te > horizon:
            break
        if next_sample < te:
            next_sample = flush(te, True)
        if n - i < per_event:
            buf, batch = _top_up(rng, buf[i:], batch, per_event)
            i, n = 0, len(buf)
        # x flips; its dst gain or lose x's weight as infection pressure
        rx = rho_c[x]
        if states[x] == INFECTED:
            states[x] = after_recovery
            n_inf -= 1
            rx = -rx
        else:
            states[x] = INFECTED
            n_inf += 1
        for z in dst[x]:
            pressure[z] += rx
            if states[z] == HEALTHY:
                v = version[z] + 1
                version[z] = v
                r = lam_rho[z] * pressure[z]
                if r > 0.0:
                    push(heap, (te + buf[i] / r, z, v))
                    i += 1
        v = version[x] + 1
        version[x] = v
        s = states[x]
        r = 1.0 if s == INFECTED else lam_rho[x] * pressure[x] if s == HEALTHY else 0.0
        if r > 0.0:
            push(heap, (te + buf[i] / r, x, v))
            i += 1
        if n_inf == 0:
            extinction_time = te
            break

    flush(math.inf, n_inf > 0)
    survived = n_inf > 0
    if survived:
        extinction_time = float(horizon)
    return SimResult(survived=survived,
                     extinction_time=float(extinction_time),
                     occupancy_trace=trace,
                     probe_trace=probe_trace)


# default box side beyond the largest sample time
_SIDE_SLACK = 3


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
                              side: int | None = None) -> OccupancyEstimate:
    """Estimate the weight-times-infection expectation from the all-infected start.

    The measured vertex is the box apex: it is the only vertex whose
    backward cone down to depth ``side`` lies fully inside the box, so it
    plays the role of a bulk vertex of the infinite lattice.  ``side``
    defaults to ceil(max time) + 3; doubling it is the standard
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
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    tmax = ts[-1]
    if side is None:
        side = max(1, math.ceil(tmax) + _SIDE_SLACK)
    box = BoxSpec(d=d, side=side)
    apex = lattice.vertex_index(box, box.apex)
    positive = [t for t in ts if t > 0]

    sums = np.zeros(len(positive))
    sqsums = np.zeros(len(positive))
    if positive:
        start = Configuration.single_seed(box, box.apex, mode=ETA_HAT)

        def trial(fld, stream):
            res = run(start, fld, lam, horizon=tmax, seed=stream(1),
                      sample_times=positive)
            return fld.weights[apex], [count > 0 for _, count, _ in res.occupancy_trace]

        # summed in replicate order, as the float sums depend on it
        for w_apex, alive in annealed_map(trial, dist, box, reps, seed):
            for j, hit in enumerate(alive):
                if hit:
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
