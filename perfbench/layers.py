"""Span tracing of the orientedcp layers, done entirely from outside the package.

``Tracer.install`` replaces the layer boundary functions listed in
``FUNCTIONS`` and ``METHODS`` with timing wrappers, in every orientedcp
module namespace that holds them, since callers look a function up where
they imported it (``critfind.run`` is ``kinetics.run``).  ``uninstall``
puts the originals back.  Each span records the traced call it belongs to,
its own id, its parent span, its name, and its start and end; spans stay in
memory until ``dump`` writes them out.

A span's self time is its duration minus the durations of its child spans;
children of one span never overlap because the program is single-threaded.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from collections import defaultdict

import numpy as np

from orientedcp import (cli, critfind, harris, kinetics, lattice, moments,
                        reporting, walks, weights)
from orientedcp.harris import GraphicalRep
from orientedcp.kinetics import Configuration

MODULES = (cli, critfind, harris, kinetics, lattice, moments, reporting,
           walks, weights)

FUNCTIONS = {
    cli: ("main",),
    reporting: ("write_csv", "write_json", "write_text", "write_manifest"),
    critfind: ("estimate_critical_rate", "survival_probability"),
    kinetics: ("run", "weighted_origin_occupancy"),
    weights: ("sample_field",),
    lattice: ("out_neighbor_indices", "in_neighbor_indices",
              "out_neighbor_lists", "in_neighbor_lists", "edge_table"),
    harris: ("build", "percolate_forward", "percolate_dual", "duality_check",
             "removal_coupling_check", "duality_annealed", "duality_sweep",
             "coupling_sweep"),
    moments: ("count_paths_mc", "path_count_moment_ratio",
              "pair_chain_expectation", "expected_path_count"),
    walks: ("meet_probability", "collision_functional"),
}

METHODS = (
    (Configuration, "__init__", "kinetics.Configuration"),
    (Configuration, "single_seed", "kinetics.Configuration.single_seed"),
    (Configuration, "all_infected", "kinetics.Configuration.all_infected"),
    (GraphicalRep, "event_arrays", "harris.event_arrays"),
)

# the lru-cached neighbour tables, captured before any wrapping
LATTICE_TABLES = tuple(getattr(lattice, n) for n in FUNCTIONS[lattice])

REPLAY = ("harris.percolate_forward", "harris.percolate_dual",
          "harris.duality_check", "harris.removal_coupling_check")


def clear_tables() -> None:
    """Empty the neighbour-table caches, as a fresh CLI process starts."""
    for f in LATTICE_TABLES:
        f.cache_clear()


def table_builds() -> int:
    """Neighbour tables built since the last ``clear_tables``."""
    return sum(f.cache_info().misses for f in LATTICE_TABLES)


def _written_bytes(tracer, sid, args, kwargs, out):
    tracer.counts["reporting.bytes"] += os.path.getsize(
        args[0] if args else kwargs["path"])


def _scan(tracer, sid, args, kwargs, out):
    seen, reprobe = set(), 0
    for est in out.trace:
        if est.lam in seen:
            reprobe += est.reps
        seen.add(est.lam)
    tracer.notes[sid] = (len(out.trace), sum(e.reps for e in out.trace), reprobe)


def _survived(tracer, sid, args, kwargs, out):
    tracer.notes[sid] = out.survived


def _field(tracer, sid, args, kwargs, out):
    tracer.counts["weights.vertices_sampled"] += out.weights.size


def _pair_steps(tracer, sid, args, kwargs, out):
    tracer.counts["walks.pair_steps"] += out.samples * out.horizon


def _events(tracer, sid, args, kwargs, out):
    # event_arrays caches its result on the rep; count each live rep once
    rep = args[0]
    key = id(rep)
    if key not in tracer.event_reps:
        tracer.event_reps[key] = weakref.ref(
            rep, lambda _, k=key: tracer.event_reps.pop(k, None))
        tracer.counts["harris.events"] += len(out[0])


AFTER = {
    "reporting.write_csv": _written_bytes,
    "reporting.write_json": _written_bytes,
    "reporting.write_text": _written_bytes,
    "critfind.estimate_critical_rate": _scan,
    "kinetics.run": _survived,
    "weights.sample_field": _field,
    "walks.meet_probability": _pair_steps,
    "walks.collision_functional": _pair_steps,
    "harris.event_arrays": _events,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [call, id, parent, name, start, end]
        self.notes: dict[int, object] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.event_reps: dict[int, weakref.ref] = {}
        self.call = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        after = AFTER.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [self.call, sid, stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(sid)
            rec[4] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if after is not None:
                after(self, sid, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, call: int) -> None:
        """Start traced call ``call``: wrap every layer boundary."""
        self.call = call
        for mod, names in FUNCTIONS.items():
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in names:
                orig = getattr(mod, attr)
                wrapped = self._wrap(f"{short}.{attr}", orig)
                for holder in MODULES:
                    for k, v in list(vars(holder).items()):
                        if v is orig:
                            self._undo.append((holder, k, v))
                            setattr(holder, k, wrapped)
        for cls, attr, name in METHODS:
            raw = cls.__dict__[attr]
            self._undo.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for call, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"call": call, "id": sid, "parent": parent,
                                     "name": name, "start": start - t0,
                                     "end": end - t0}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures summed over every traced call."""
        spans = self.spans
        dur = np.array([s[5] - s[4] for s in spans])
        child = np.zeros(len(spans))
        kids: dict[int, list[int]] = defaultdict(list)
        by_name: dict[str, list[int]] = defaultdict(list)
        for call, sid, parent, name, start, end in spans:
            by_name[name].append(sid)
            if parent >= 0:
                child[parent] += dur[sid]
                kids[parent].append(sid)
        own = dur - child

        def total(name):
            return float(dur[by_name[name]].sum())

        def self_time(pred):
            return float(sum(own[i] for n, ids in by_name.items() if pred(n) for i in ids))

        def calls(name):
            return len(by_name[name])

        m: dict[str, float] = {}
        scans = by_name["critfind.estimate_critical_rate"]
        probes = [self.notes[i] for i in scans]
        m["critfind.probes"] = sum(p[0] for p in probes)
        m["critfind.probe_reps"] = sum(p[1] for p in probes)
        m["critfind.reprobe_reps_share"] = (
            sum(p[2] for p in probes) / m["critfind.probe_reps"] if scans else 0.0)
        slowest = box = 0.0
        for i, (n_probes, _, _) in zip(scans, probes):
            sp = [j for j in kids[i] if spans[j][3] == "critfind.survival_probability"]
            slowest += max(dur[j] for j in sp[:n_probes])
            box += sum(dur[j] for j in sp[n_probes:])
        m["critfind.slowest_probe_share"] = (
            slowest / total("critfind.estimate_critical_rate") if scans else 0.0)
        m["critfind.boxcheck.s"] = box

        runs = by_name["kinetics.run"]
        m["kinetics.run.calls"] = len(runs)
        m["kinetics.run.s"] = total("kinetics.run")
        ms = dur[runs] * 1e3
        m["kinetics.run.ms_p50"] = float(np.percentile(ms, 50)) if runs else 0.0
        m["kinetics.run.ms_p99"] = float(np.percentile(ms, 99)) if runs else 0.0
        m["kinetics.run.survived_share"] = (
            sum(bool(self.notes[i]) for i in runs) / len(runs) if runs else 0.0)
        m["kinetics.config.s"] = self_time(lambda n: n.startswith("kinetics.Configuration"))
        m["kinetics.weighted_origin_occupancy.s"] = total("kinetics.weighted_origin_occupancy")

        m["weights.sample_field.calls"] = calls("weights.sample_field")
        m["weights.sample_field.s"] = total("weights.sample_field")
        m["weights.vertices_sampled"] = self.counts["weights.vertices_sampled"]

        m["lattice.table_builds"] = self.counts["lattice.table_builds"]
        m["lattice.tables.s"] = self_time(lambda n: n.startswith("lattice."))

        events = self.counts["harris.events"]
        m["harris.build.calls"] = calls("harris.build")
        m["harris.build.s"] = total("harris.build")
        m["harris.events"] = events
        m["harris.event_arrays.s"] = total("harris.event_arrays")
        m["harris.replay.s"] = self_time(lambda n: n in REPLAY)
        m["harris.build.us_per_event"] = (
            m["harris.build.s"] / events * 1e6 if events else 0.0)
        m["harris.replay.us_per_event"] = (
            m["harris.replay.s"] / events * 1e6 if events else 0.0)

        steps = self.counts["walks.pair_steps"]
        m["walks.meet_probability.s"] = total("walks.meet_probability")
        m["walks.collision_functional.s"] = total("walks.collision_functional")
        m["walks.pair_steps"] = steps
        m["walks.ns_per_pair_step"] = (
            (m["walks.meet_probability.s"] + m["walks.collision_functional.s"])
            / steps * 1e9 if steps else 0.0)

        m["moments.count_paths_mc.s"] = total("moments.count_paths_mc")
        m["moments.path_count_moment_ratio.s"] = total("moments.path_count_moment_ratio")
        m["moments.pair_chain_expectation.calls"] = calls("moments.pair_chain_expectation")
        m["moments.pair_chain_expectation.s"] = total("moments.pair_chain_expectation")

        m["reporting.write.s"] = self_time(lambda n: n.startswith("reporting."))
        m["reporting.bytes"] = self.counts["reporting.bytes"]
        m["cli.self.s"] = self_time(lambda n: n == "cli.main")
        return m
