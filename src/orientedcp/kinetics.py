"""Exact event-driven simulation of the weighted contact process on a box.

Three interacting-particle modes share one engine:

- ``eta``: the forward process; a healthy vertex x is infected at rate
  lam * rho(x) * sum of rho(y) over infected in-neighbours y, and infected
  vertices recover at rate 1.
- ``eta_hat``: the reversed process; infection pressure comes from infected
  out-neighbours instead.
- ``zeta``: as ``eta`` except that recovery removes the vertex permanently
  (state -1), so each vertex flips at most twice.

The engine is uniformized over the infected vertices (Marro and Dickman,
*Nonequilibrium Phase Transitions in Lattice Models*, CUP 1999).  With M
an upper bound on the weights, every infected vertex x carries one
recovery slot of rate 1 and d transmission slots of rate lam * M^2, so
events arrive at the total rate n_inf * (1 + d * lam * M^2) whatever the
configuration.  An event picks x uniformly among the infected and one of
its slots in proportion to rate.  A recovery removes x from the infected
list by a swap with its last entry.  Transmission slot s aims at the s-th
in-box target of x; a slot past the last one is a null event, which is
how the absorbing boundary drops edges leaving the box.  A transmission to a
healthy target y is accepted with probability rho(x) rho(y) / M^2, so the
edge x -> y fires at rate lam * rho(x) * rho(y), the law of the process.
Each event costs O(1) and needs no clock, heap or per-vertex rate.  The
share of thinned events grows with M^2 against the typical rho(x) rho(y):
none for a one-valued law, about 40% for ``two_point(0.5)``, and most
events for a law that puts little mass on a large M.

M is the largest support value of the field's law (``law.span``), and
every weight of the field lies in that support.  A one-valued law accepts
every transmission, and its runs draw no acceptance uniform and read no
weight; so a field rho = c at rate lam consumes the stream exactly as
rho = 1 at rate lam * c^2 and reproduces it bit for bit.

Weights are read lazily, one vertex at a time, through ``WeightField.at``:
a thinned transmission reads rho(x) and rho(y), and a sample time reads
the weights of the infected to sum their mass (``math.fsum``, so the sum
does not depend on their order).  A field hashes a weight on its first
read, so a run that dies after touching a few vertices pays for those
alone, whatever the size of the box.

Vertex states live in a ``bytearray`` (removed is byte 255), the infected
vertices in a list.  Neither is built per run: the configuration keeps
its infected list and one state buffer, and each run copies the list,
borrows the buffer, and in a ``finally`` restores the buffer over the
vertices it infected or removed.  ``cfg.states`` is read-only and never
changes, and a run costs no O(V) setup.  A configuration serves one run
at a time.  Uniform draws arrive in batches turned into lists, from 16
draws doubling to 8192, and are topped up before each event to the three
it may consume.  They are read in stream order, so batch sizes change no
result.

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

import math
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


@dataclass(frozen=True, eq=False)
class Configuration:
    """Vertex states plus the process mode; a run starts at time 0.

    Immutable once built, ``states`` included.  It keeps the list of its
    infected vertices and one state buffer, which every run from it
    borrows and restores (see the module docstring).
    """

    box: BoxSpec
    states: np.ndarray  # int8, 0 healthy / 1 infected / -1 removed (zeta only)
    mode: str = ETA

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        st = np.array(self.states, dtype=np.int8)  # the caller keeps its array
        if st.shape != (self.box.n_vertices,):
            raise ValueError(f"states shape {st.shape} != ({self.box.n_vertices},)")
        lowest = REMOVED if self.mode == ZETA else HEALTHY
        if st.min() < lowest or st.max() > INFECTED:
            raise ValueError("states must lie in {0,1} (eta/eta_hat) or {-1,0,1} (zeta)")
        st.setflags(write=False)
        object.__setattr__(self, "states", st)
        object.__setattr__(self, "_infected", np.flatnonzero(st == INFECTED).tolist())
        # a removed vertex is byte 255 here
        object.__setattr__(self, "_buffer", bytearray(st.tobytes()))

    @classmethod
    def all_infected(cls, box: BoxSpec, mode: str = ETA) -> "Configuration":
        return cls(box, np.ones(box.n_vertices, dtype=np.int8), mode=mode)

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


_FIRST_BATCH, _BATCH_CAP = 16, 8192
_DRAWS_PER_EVENT = 3  # time, vertex and slot, acceptance


def _top_up(rng: np.random.Generator, buf: list, batch: int,
            need: int) -> tuple[list, int]:
    """Append batches of uniform draws, doubling up to ``_BATCH_CAP``, to
    the unread draws ``buf`` until it holds ``need``; return it and the
    next batch size.
    """
    while len(buf) < need:
        buf += rng.random(batch).tolist()
        batch = min(2 * batch, _BATCH_CAP)
    return buf, batch


def run(cfg: Configuration, fld: WeightField, lam: float, horizon: float,
        seed, sample_times=(), probe=None) -> SimResult:
    """Simulate from ``cfg`` at time 0 up to ``horizon`` and return the outcome.

    ``sample_times`` requests (t, count, weighted mass) trace entries at
    times in [0, horizon]; a sample at an event time sees the state after
    that event.  ``probe`` additionally records one vertex's state at those
    times.  Each event reads two uniforms (its time step and its vertex
    and slot) and a thinned transmission to a healthy target one more (see
    the module docstring).  Identical (cfg, fld, lam, horizon, seed)
    reproduce the result exactly.  ``cfg`` is not modified.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be {'finite' if horizon > 0 else 'positive'}, "
                         f"got {horizon}")
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be {'finite' if lam >= 0 else 'nonnegative'}, got {lam}")
    samples = sorted(float(t) for t in sample_times)
    if samples and samples[0] < 0:
        raise ValueError("sample times must be nonnegative")
    if samples and samples[-1] > horizon:
        raise ValueError(f"sample time {samples[-1]} lies past the horizon {horizon}")

    box = cfg.box
    if fld.box is not box and fld.box != box:
        raise ValueError(f"the field lives on {fld.box}, not on the "
                         f"configuration's box {box}")
    # "dst" are the vertices that this vertex's infection can reach
    if cfg.mode == ETA_HAT:
        dst = lattice.in_neighbor_lists(box)
    else:
        dst = lattice.out_neighbor_lists(box)
    # the configuration's buffer, restored over the touched vertices below
    states = cfg._buffer
    infected = cfg._infected.copy()
    n_inf = len(infected)
    removed = [] if cfg.mode == ZETA else None
    after_recovery = REMOVED & 0xFF if removed is not None else HEALTHY

    lo, bound = fld.law.span
    sq_bound = bound * bound
    slot_rate = lam * sq_bound
    per_vertex = 1.0 + box.d * slot_rate
    # a one-valued law thins nothing and reads no weight
    weight = None if lo == bound else fld.at

    sptr = 0
    trace: list = []
    probe_trace: list | None = [] if probe is not None else None

    def flush(up_to: float) -> float:
        # record every pending sample time strictly before up_to and
        # return the next pending one
        nonlocal sptr
        while sptr < len(samples) and samples[sptr] < up_to:
            mass = (bound * len(infected) if weight is None
                    else math.fsum([weight[v] for v in infected]))
            trace.append((samples[sptr], len(infected), mass))
            if probe_trace is not None:
                # byte 255 is a removed vertex, state -1
                probe_trace.append((samples[sptr], (states[probe] ^ 0x80) - 0x80))
            sptr += 1
        return samples[sptr] if sptr < len(samples) else math.inf

    next_sample = samples[0] if samples else math.inf
    rng = rng_from(seed)
    buf, batch, i, n = [], _FIRST_BATCH, 0, 0
    log1p = math.log1p
    t = 0.0
    try:
        while n_inf:
            if n - i < _DRAWS_PER_EVENT:
                buf, batch = _top_up(rng, buf[i:], batch, _DRAWS_PER_EVENT)
                i, n = 0, len(buf)
            t -= log1p(-buf[i]) / (n_inf * per_vertex)
            if t > horizon:
                break
            if next_sample < t:
                next_sample = flush(t)
            u = buf[i + 1] * n_inf
            i += 2
            k = int(u)
            x = infected[k]
            u = (u - k) * per_vertex
            if u < 1.0:
                states[x] = after_recovery
                if removed is not None:
                    removed.append(x)
                last = infected.pop()
                n_inf -= 1
                if k < n_inf:
                    infected[k] = last
                continue
            targets = dst[x]
            s = int((u - 1.0) / slot_rate)
            if s >= len(targets):
                continue
            y = targets[s]
            if states[y] != HEALTHY:
                continue
            if weight is not None:
                accept = buf[i] * sq_bound < weight[x] * weight[y]
                i += 1
                if not accept:
                    continue
            states[y] = INFECTED
            infected.append(y)
            n_inf += 1

        flush(math.inf)
    finally:
        # restore the buffer: every vertex that was infected or removed
        # here goes back to healthy, then the start's infected to infected
        for v in infected:
            states[v] = HEALTHY
        for v in removed or ():
            states[v] = HEALTHY
        for v in cfg._infected:
            states[v] = INFECTED
    survived = n_inf > 0
    return SimResult(survived=survived,
                     extinction_time=float(horizon) if survived else t,
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

    Each replicate takes a keyed weight field and runs the reversed
    process ``eta_hat`` from the apex alone up to the largest time; it
    reads only the weights of the apex's backward cluster, and it scores
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

        def trial(fld, rng):
            res = run(start, fld, lam, horizon=tmax, seed=rng,
                      sample_times=positive)
            return fld.at[apex], [count > 0 for _, count, _ in res.occupancy_trace]

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
