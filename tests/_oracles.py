"""Test-side oracles: slow, direct versions of what the package computes.

The neighbour lists of one vertex and the inverse of its index, the
per-vertex transition rates of a configuration, a replay of a fixed event
table, the monotone arrow thinning of an event table, the per-draw
open-path count on an explicit full-box clock structure, the one-step joint
pass probability of a walk pair, the next-reaction event loop that the
uniformized ``kinetics.run`` replaced, the per-coordinate difference-walk
step that the packed block kernel of ``walks`` replaced, and the one-hot
walk positions that the packed coincidence rows of ``moments`` replaced.
The package does not use them; the tests cross-check ``orientedcp`` against
them, so they stay apart from the code they check.  ``read_csv`` reads back
the CSV files the CLI writes, and ``constant_field`` and ``FixedField``
are the fixed environments of the unit tests.
"""

from __future__ import annotations

import csv
import heapq
import math
from array import array
from dataclasses import dataclass

import numpy as np

from orientedcp import harris, lattice
from orientedcp.harris import _ARROW, GraphicalRep
from orientedcp.kinetics import (_MODES, ETA_HAT, HEALTHY, INFECTED, REMOVED,
                                 ZETA, Configuration, SimResult)
from orientedcp.lattice import BoxSpec, in_box
from orientedcp.moments import (edge_pass_probability,
                                shared_source_pass_probability)
from orientedcp.weights import (WeightDistribution, WeightField, annealed_map,
                                rng_from, sample_field)


def read_csv(path: str):
    """(digest, header, rows-of-strings) for files written by write_csv."""
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("# manifest_hash="):
            raise ValueError(f"{path}: missing manifest hash comment")
        digest = first.split("=", 1)[1]
        header, *rows = csv.reader(fh)
    return digest, header, rows


def constant_field(value: float, box: BoxSpec) -> WeightField:
    """The field rho = value on ``box``; a one-valued law hashes nothing, so
    the seed is immaterial."""
    return sample_field(WeightDistribution.constant(value), box, 0)


class FixedField:
    """Given weights on ``box``, with what ``kinetics.run`` and the oracles
    read of a field: read-only ``weights``, ``at`` as a list, and as ``law``
    the uniform table law on the distinct weights, with ``bound`` added to
    its support when given, so a run thins against ``bound``.
    """

    def __init__(self, box: BoxSpec, weights, bound: float | None = None):
        w = np.array(weights, dtype=np.float64)
        w.setflags(write=False)
        support = sorted(set(w.tolist())) + ([] if bound is None else [bound])
        self.box, self.weights, self.at = box, w, w.tolist()
        # an all-zero field is allowed: its law needs no mass on positive values
        self.law = WeightDistribution(support, [1 / len(support)] * len(support),
                                      strict=False)


def index_vertex(box: BoxSpec, idx: int) -> tuple[int, ...]:
    """Inverse of :func:`vertex_index`."""
    if not 0 <= idx < box.n_vertices:
        raise ValueError(f"index {idx} outside box with {box.n_vertices} vertices")
    out = []
    m = box.side + 1
    for _ in range(box.d):
        out.append(idx % m)
        idx //= m
    return tuple(reversed(out))


def out_neighbors(x, box: BoxSpec) -> list[tuple[int, ...]]:
    """In-box targets of edges leaving ``x``, ordered by axis index."""
    if not in_box(box, x):
        raise ValueError(f"{x!r} outside {box}")
    out = []
    for i in range(box.d):
        if x[i] < box.side:
            y = tuple(c + 1 if j == i else c for j, c in enumerate(x))
            out.append(y)
    return out


def in_neighbors(x, box: BoxSpec) -> list[tuple[int, ...]]:
    """In-box sources of edges entering ``x``, ordered by axis index."""
    if not in_box(box, x):
        raise ValueError(f"{x!r} outside {box}")
    out = []
    for i in range(box.d):
        if x[i] > 0:
            y = tuple(c - 1 if j == i else c for j, c in enumerate(x))
            out.append(y)
    return out


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


def run_on_events(cfg: Configuration, rep) -> np.ndarray:
    """Advance ``cfg`` through a pre-sampled event structure; return final states.

    ``rep`` is a harris.GraphicalRep.  Recovery marks flip 1 -> 0 (or -> -1 in
    zeta mode); an arrow x -> y transmits x's infection to y (y's to x in
    eta_hat mode).  This is the jump chain of ``kinetics.run`` driven by
    externally fixed event times; the tests compare its final states with
    ``harris.percolate_forward`` on the same rep.
    """
    kinds, a, b = rep.event_arrays()
    states = cfg.states.copy()
    mode = cfg.mode
    for i in range(len(kinds)):
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


def _stream_order(rep: GraphicalRep) -> np.ndarray:
    """Row indices by (kind, a, b, time): marks by vertex, then arrows by edge."""
    # lexsort is stable, so each stream keeps the table's time order
    return np.lexsort((rep.b, rep.a, rep.kinds))


def thin_arrows(rep: GraphicalRep, fractions, seed) -> list[GraphicalRep]:
    """Couple lower-rate structures by keeping each arrow with probability f.

    One uniform per arrow, drawn in (tail, head, time) order, decides its
    fate for every requested fraction, so the returned reps are nested:
    every arrow kept at a smaller fraction is kept at any larger one.
    Marks are shared untouched.  This realises the standard monotone
    coupling in the infection rate.
    """
    fr = [float(f) for f in fractions]
    if any(not 0.0 <= f <= 1.0 for f in fr):
        raise ValueError(f"fractions must lie in [0, 1]: {fr}")
    rng = rng_from(seed)
    rows = _stream_order(rep)
    rows = rows[rep.kinds[rows] == _ARROW]
    u = np.full(rep.n_events(), -1.0)   # marks sit below every fraction
    u[rows] = rng.random(rows.size)
    out = []
    for f in fr:
        keep = u < f
        out.append(GraphicalRep(box=rep.box, lam=rep.lam * f, horizon=rep.horizon,
                                times=rep.times[keep], kinds=rep.kinds[keep],
                                a=rep.a[keep], b=rep.b[keep]))
    return out


def nested_survival(dist, d: int, side: int, lams, horizon: float, reps: int,
                    seed) -> np.ndarray:
    """(reps, len(lams)) origin-survival indicators on one event table per
    replicate, built at the largest rate and thinned down by ``thin_arrows``,
    so each row is monotone in the rate.
    """
    lam_max = max(lams)
    fractions = [lam / lam_max for lam in lams]

    def trial(fld, rng):
        rep = harris.build(fld.box, fld, lam_max, horizon, rng)
        return [bool(harris.percolate_forward(th, [0]))
                for th in thin_arrows(rep, fractions, rng)]

    return np.array(annealed_map(trial, dist, BoxSpec(d=d, side=side), reps, seed),
                    dtype=bool)


@dataclass(frozen=True)
class PairFactor:
    value: float       # the number used by the calling recursion
    is_bound: bool     # True when value is the 2*g*g upper bound
    exact: float       # exact joint probability regardless of is_bound


def pair_factor(lam: float, a, c, b=None, c_hat=None, *, use_bound: bool = False) -> PairFactor:
    """One-step joint pass probability for the edges of a walk pair.

    Which optional weights are given encodes the geometry:
      - (a, c) only: both walks traverse the same edge, value g(a, c);
      - (a, c, c_hat): one source of weight a, distinct targets c and c_hat;
        exact by inclusion-exclusion, or the 2*g*g bound when use_bound;
      - (a, c, b, c_hat): distinct sources a and b, so the recovery clocks
        are independent and the value factorises g(a, c) * g(b, c_hat).
        Equal targets need no special case: only source clocks are shared.
    """
    if b is None and c_hat is None:
        v = float(edge_pass_probability(lam, a, c))
        return PairFactor(value=v, is_bound=False, exact=v)
    if b is None:
        exact = float(shared_source_pass_probability(lam, a, c, c_hat))
        if use_bound:
            bound = 2.0 * float(edge_pass_probability(lam, a, c)) \
                * float(edge_pass_probability(lam, a, c_hat))
            return PairFactor(value=bound, is_bound=True, exact=exact)
        return PairFactor(value=exact, is_bound=False, exact=exact)
    if c_hat is None:
        raise ValueError("a second source weight b requires its target c_hat")
    v = float(edge_pass_probability(lam, a, c)) * float(edge_pass_probability(lam, b, c_hat))
    return PairFactor(value=v, is_bound=False, exact=v)



@dataclass(frozen=True)
class PathPercolation:
    """One draw of recovery and transmission clocks on a box.

    vertex_clocks[x] is the Exp(1) recovery draw; edge_clocks[i, x] the
    first-transmission draw on the edge x -> x + e_i, infinite where the
    rate vanishes or the neighbor leaves the box.
    """

    field: WeightField
    lam: float
    vertex_clocks: np.ndarray
    edge_clocks: np.ndarray

    def open_edges(self) -> np.ndarray:
        """(d, V) bool: edge open iff its clock beats the source recovery."""
        return self.edge_clocks <= self.vertex_clocks[None, :]


def sample_path_percolation(fld: WeightField, lam: float, seed) -> PathPercolation:
    """Draw all clocks in a fixed order; equal seeds give equal draws."""
    rng = rng_from(seed)
    t_vertex = rng.standard_exponential(fld.box.n_vertices)
    raw = rng.standard_exponential((fld.box.d, fld.box.n_vertices))
    return path_percolation(fld, lam, t_vertex, raw)


def path_percolation(fld: WeightField, lam: float, t_vertex: np.ndarray,
                     raw: np.ndarray) -> PathPercolation:
    """The percolation of given recovery clocks (V,) and unit-rate edge
    clocks (d, V), each edge clock scaled by its edge's rate."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    box = fld.box
    V = box.n_vertices
    rho = fld.weights
    nb = lattice.out_neighbor_indices(box)
    rates = np.zeros((box.d, V))
    for i in range(box.d):
        has = nb[:, i] >= 0
        rates[i, has] = lam * rho[has] * rho[nb[has, i]]
    with np.errstate(divide="ignore"):
        clocks = np.where(rates > 0.0, raw / np.where(rates > 0.0, rates, 1.0), np.inf)
    return PathPercolation(field=fld, lam=float(lam), vertex_clocks=t_vertex,
                           edge_clocks=clocks)


def count_paths(perc: PathPercolation, n: int) -> int:
    """Exact number of open n-step paths from the origin in one draw.

    Dynamic program over levels: every step raises the coordinate sum by
    one, so paths never revisit a vertex and counts at level k feed level
    k+1 only.  Needs n <= box side so the whole depth-n cone is present.
    """
    box = perc.field.box
    if n < 0:
        raise ValueError("path length must be nonnegative")
    if n > box.side:
        raise ValueError(f"paths of length {n} escape a box of side {box.side}")
    opn = perc.open_edges()
    nb = lattice.out_neighbor_indices(box)
    counts = np.zeros(box.n_vertices)
    counts[0] = 1.0
    for _ in range(n):
        new = np.zeros_like(counts)
        for i in range(box.d):
            src = np.flatnonzero(nb[:, i] >= 0)
            new[nb[src, i]] += counts[src] * opn[i, src]
        counts = new
    return int(round(counts.sum()))


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


def run_next_reaction(cfg: Configuration, fld: WeightField, lam: float,
                      horizon: float, seed, sample_times=(),
                      probe=None) -> SimResult:
    """Next-reaction engine that ``kinetics.run`` replaced; same interface.

    One exponential clock per vertex in a lazy-deletion heap, resampled
    whenever the vertex's total rate changes.  Kept as an independent
    cross-check of the uniformized engine's law.

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


def _advance(diff: np.ndarray, l1: np.ndarray, base: np.ndarray, i, j) -> None:
    """One synchronous step of the difference walk, l1 updated in place.

    diff is flat: pair r owns the d entries diff[base[r]:base[r] + d].  The
    first walk adds +1 at coordinate i[r], the second subtracts 1 at j[r];
    each half-step changes l1 by +1 or -1 according to the sign of the
    touched coordinate, so no full-norm rescan is needed.
    """
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


def difference_walk_meetings(codes: np.ndarray, d: int):
    """(rows, steps) of every zero of the difference walk driven by the
    (steps, n) step codes i*d + j, step-major, steps counted from 1."""
    n = codes.shape[1]
    diff = np.zeros(n * d, dtype=np.int64)
    l1 = np.zeros(n, dtype=np.int64)
    base = np.arange(n) * d
    rows, steps = [], []
    for step, code in enumerate(codes.astype(np.int64), start=1):
        _advance(diff, l1, base, code // d, code % d)
        hits = np.flatnonzero(l1 == 0)
        rows.append(hits)
        steps.append(np.full(hits.size, step))
    return np.concatenate(rows), np.concatenate(steps)


def walk_positions(steps: np.ndarray, d: int) -> np.ndarray:
    """(W, n) axis choices -> (W, n, d) positions after each step."""
    return np.cumsum(np.eye(d, dtype=np.int16)[steps], axis=1)


def coincidence_rows(steps_a: np.ndarray, steps_b: np.ndarray, d: int) -> np.ndarray:
    """(W, n+1) rows: do walks a and b share a vertex after each step count,
    step 0 included, read off their one-hot positions."""
    eq = (walk_positions(steps_a, d) == walk_positions(steps_b, d)).all(axis=-1)
    return np.concatenate([np.ones((len(eq), 1), dtype=bool), eq], axis=1)
