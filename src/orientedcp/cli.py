"""Experiment runner: one subcommand per capability, reproducible artifacts.

Configuration comes from key=value files (or a previous run's manifest.json),
overridden by repeated --set K=V flags and finally by --seed.  Unknown keys
are rejected.  Every run writes manifest.json with a sha256 digest of the
resolved inputs, and every CSV opens with that digest in a comment line, so
re-running a manifest reproduces each artifact byte for byte.

Exit codes: 0 success, 2 invalid configuration or scan failure, 3 resource
limits exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

from . import __version__, critfind, harris, kinetics, moments, walks
from .errors import ResourceLimitError, ScanError
from .lattice import BoxSpec
from .reporting import (as_bool, as_float, as_floats, as_int, as_ints, as_str,
                        line_chart, load_config, manifest_digest, write_csv,
                        write_json, write_manifest, write_text)
from .weights import WeightDistribution, annealed_map, seed_key

_REQ = object()

# value 0 means "pick automatically" for L, horizon and tol below
_SCHEMAS = {
    "simulate": {
        "mode": (as_str, "eta"), "start": (as_str, "all"),
        "lambda": (as_float, _REQ), "horizon": (as_float, 10.0),
        "box.d": (as_int, 2), "box.L": (as_int, 8),
        "reps": (as_int, 1), "seed": (as_int, 0),
        "sample_times": (as_floats, []),
    },
    "f-decay": {
        "box.d": (as_int, _REQ), "box.L": (as_int, 0),
        "lambda": (as_float, _REQ), "times": (as_floats, [1.0, 2.0, 4.0]),
        "reps": (as_int, 10_000), "seed": (as_int, 0),
    },
    "duality": {
        "box.d": (as_int, 2), "box.L": (as_int, 6),
        "lambda": (as_float, _REQ), "horizon": (as_float, 3.0),
        "reps": (as_int, 10_000), "seed": (as_int, 0),
    },
    "zeta-check": {
        "box.d": (as_int, 2), "box.L": (as_int, 6),
        "lambda": (as_float, _REQ), "horizon": (as_float, 3.0),
        "reps": (as_int, 10_000), "seed": (as_int, 0),
    },
    "moments": {
        "d": (as_int, _REQ), "n": (as_ints, [2, 4, 6]),
        "lambda": (as_float, _REQ), "walk_samples": (as_int, 20_000),
        "use_bound": (as_bool, False), "seed": (as_int, 0),
    },
    "walks": {
        "d": (as_ints, _REQ), "horizon": (as_int, 10_000),
        "samples": (as_int, 100_000), "seed": (as_int, 0),
    },
    "functional": {
        "d": (as_int, _REQ), "lambda": (as_float, _REQ),
        "samples": (as_int, 20_000), "horizon": (as_int, 10_000),
        "convention": (as_str, "inclusive"), "seed": (as_int, 0),
    },
    "critscan": {
        "d": (as_ints, _REQ), "L": (as_int, 0), "horizon": (as_float, 0.0),
        "reps_per_probe": (as_int, 2000), "threshold": (as_float, 0.05),
        "tol": (as_float, 0.0), "check_box": (as_bool, True),
        "seed": (as_int, 0),
    },
    "report": {
        "dirs": (as_str, _REQ), "seed": (as_int, 0),
    },
}

_NO_DIST = {"walks", "report"}

_MANIFEST_KEYS = ("subcommand", "seed", "manifest_hash", "outputs")

_DIST_KEYS_BY_KIND = {
    "constant": {"dist.kind", "dist.c"},
    "two_point": {"dist.kind", "dist.p", "dist.hi", "dist.lo"},
    "table": {"dist.kind", "dist.values", "dist.probs"},
}


def _dist_from(raw: dict) -> tuple[WeightDistribution, dict]:
    kind = as_str(raw.get("dist.kind", "constant"))
    if kind not in _DIST_KEYS_BY_KIND:
        raise ValueError(f"dist.kind must be one of {sorted(_DIST_KEYS_BY_KIND)},"
                         f" got {kind!r}")
    allowed = _DIST_KEYS_BY_KIND[kind]
    extra = sorted(k for k in raw if k.startswith("dist.") and k not in allowed)
    if extra:
        raise ValueError(f"config keys {extra} do not apply to dist.kind={kind}")
    if kind == "constant":
        c = as_float(raw.get("dist.c", 1.0))
        return WeightDistribution.constant(c), {"dist.kind": kind, "dist.c": c}
    if kind == "two_point":
        p = as_float(raw.get("dist.p", 0.5))
        hi = as_float(raw.get("dist.hi", 1.0))
        lo = as_float(raw.get("dist.lo", 0.0))
        dist = WeightDistribution.two_point(p, hi, lo, strict=p > 0)
        return dist, {"dist.kind": kind, "dist.p": p, "dist.hi": hi, "dist.lo": lo}
    if "dist.values" not in raw or "dist.probs" not in raw:
        raise ValueError("dist.kind=table requires dist.values and dist.probs")
    values = as_floats(raw["dist.values"])
    probs = as_floats(raw["dist.probs"])
    dist = WeightDistribution.from_table(values, probs)
    return dist, {"dist.kind": kind, "dist.values": values, "dist.probs": probs}


def resolve_config(sub: str, file_cfg: dict, set_pairs, seed_flag):
    """Merge defaults < config file < --set < --seed; reject unknown keys."""
    schema = _SCHEMAS[sub]
    raw = dict(file_cfg)
    for pair in set_pairs or ():
        if "=" not in pair:
            raise ValueError(f"--set expects K=V, got {pair!r}")
        k, v = pair.split("=", 1)
        raw[k.strip()] = v.strip()
    uses_dist = sub not in _NO_DIST
    unknown = sorted(k for k in raw
                     if k not in schema and not (uses_dist and k.startswith("dist.")))
    if unknown:
        raise ValueError(f"unknown config keys for {sub}: {unknown}")
    cfg = {}
    for k, (coerce, default) in schema.items():
        if k in raw:
            cfg[k] = coerce(raw[k])
            # only an empty default ("pick automatically") allows an empty list
            if cfg[k] == [] and default != []:
                raise ValueError(f"config key {k!r} for {sub} needs at least one value")
        elif default is _REQ:
            raise ValueError(f"missing required config key {k!r} for {sub}")
        else:
            cfg[k] = default
    dist = None
    if uses_dist:
        dist, dist_cfg = _dist_from(raw)
        cfg.update(dist_cfg)
    if seed_flag is not None:
        cfg["seed"] = int(seed_flag)
    seed_key(cfg["seed"])  # a negative seed fails here, naming the seed
    return cfg, dist


# ---------------------------------------------------------------------------
# subcommand handlers: cfg -> artifact files (list of names under out_dir)

def _simulate_trial(start, lam, horizon, times, fld, rng) -> list:
    return kinetics.run(start, fld, lam, horizon, seed=rng,
                        sample_times=times).occupancy_trace


def _cmd_simulate(cfg, dist, out, jobs, digest):
    box = BoxSpec(d=cfg["box.d"], side=cfg["box.L"])
    mode = cfg["mode"]
    horizon = cfg["horizon"]
    times = cfg["sample_times"] or [horizon * (k + 1) / 8.0 for k in range(8)]
    if cfg["start"] == "origin":
        start = kinetics.Configuration.single_seed(box, mode=mode)
    elif cfg["start"] == "all":
        start = kinetics.Configuration.all_infected(box, mode=mode)
    else:
        raise ValueError(f"start must be all or origin, got {cfg['start']!r}")

    trial = partial(_simulate_trial, start, cfg["lambda"], horizon, times)
    traces = annealed_map(trial, dist, box, cfg["reps"], cfg["seed"], jobs)
    rows = [(r, t, count, mass / box.n_vertices)
            for r, trace in enumerate(traces) for t, count, mass in trace]
    write_csv(os.path.join(out, "trace.csv"),
              ["run_id", "t", "n_infected", "rho_weighted_occupancy"], rows, digest)
    return ["trace.csv"]


def _cmd_fdecay(cfg, dist, out, jobs, digest):
    d, lam = cfg["box.d"], cfg["lambda"]
    occ = kinetics.weighted_origin_occupancy(
        dist, d, lam, cfg["times"], cfg["reps"], seed=cfg["seed"],
        side=cfg["box.L"] or None)
    rows = []
    for t, v, se in zip(occ.times, occ.values, occ.standard_errors):
        env = kinetics.decay_envelope(dist, d, lam, t)
        rows.append((t, v, se, env, v <= env + 3.0 * se))
    write_csv(os.path.join(out, "fdecay.csv"),
              ["t", "f_hat", "se", "envelope", "ok"], rows, digest)
    return ["fdecay.csv"]


def _cmd_duality(cfg, dist, out, jobs, digest):
    box = BoxSpec(d=cfg["box.d"], side=cfg["box.L"])
    lam, horizon, reps = cfg["lambda"], cfg["horizon"], cfg["reps"]
    key = seed_key(cfg["seed"])
    sweep = harris.duality_sweep(dist, box, lam, horizon, reps, key + [0], jobs=jobs)
    est = harris.duality_annealed(dist, box, lam, horizon, reps, key + [1])
    rows = [
        ("per_realization_agreement", sweep.rate, None),
        ("disagreements", sweep.failures, None),
        ("p_forward_all", est.p_forward_all, est.se_forward_all),
        ("p_dual_process", est.p_dual_process, est.se_dual_process),
        ("p_forward_origin", est.p_forward_origin, est.se_forward_origin),
        ("gap_forward_vs_dual", abs(est.p_forward_all - est.p_dual_process),
         est.joint_se()),
    ]
    write_csv(os.path.join(out, "duality.csv"), ["metric", "value", "se"],
              rows, digest)
    return ["duality.csv"]


def _cmd_zeta(cfg, dist, out, jobs, digest):
    box = BoxSpec(d=cfg["box.d"], side=cfg["box.L"])
    rep = harris.coupling_sweep(dist, box, cfg["lambda"], cfg["horizon"],
                                cfg["reps"], cfg["seed"], jobs=jobs)
    rows = [("reps", rep.reps, None),
            ("violations", rep.failures, None),
            ("violation_rate", rep.failures / rep.reps, None)]
    write_csv(os.path.join(out, "zeta.csv"), ["metric", "value", "se"],
              rows, digest)
    return ["zeta.csv"]


def _cmd_moments(cfg, dist, out, jobs, digest):
    d, lam = cfg["d"], cfg["lambda"]
    ws = cfg["walk_samples"] or None
    key = seed_key(cfg["seed"])
    rows = []
    for i, n in enumerate(cfg["n"]):
        exact = moments.expected_path_count(dist, d, lam, n)
        mr = moments.path_count_moment_ratio(dist, d, lam, n, walk_samples=ws,
                                             seed=key + [i],
                                             use_bound=cfg["use_bound"])
        rows.append((d, n, lam, dist.label, exact, mr.value, mr.se, mr.survival_lb,
                     mr.method, mr.numerator, mr.denominator))
    write_csv(os.path.join(out, "moments.csv"),
              ["d", "n", "lambda", "dist_id", "expected_count_exact",
               "ratio", "ratio_se", "survival_lb", "method", "numerator",
               "denominator"], rows, digest)
    return ["moments.csv"]


def _cmd_walks(cfg, dist, out, jobs, digest):
    key = seed_key(cfg["seed"])
    rows = []
    for i, d in enumerate(cfg["d"]):
        est = walks.meet_probability(d, cfg["horizon"], cfg["samples"],
                                     seed=key + [i])
        rows.append((d, est.horizon, est.samples, est.q_hat, est.se,
                     est.d2_scaled, est.censored_fraction))
    write_csv(os.path.join(out, "walks.csv"),
              ["d", "horizon", "samples", "tau_ge2_prob", "se", "d2_scaled",
               "censored_frac"], rows, digest)
    return ["walks.csv"]


def _finite_or_none(x):
    """``x``, or None when it is a non-finite float, which JSON cannot hold."""
    return None if x is not None and not math.isfinite(x) else x


def _cmd_functional(cfg, dist, out, jobs, digest):
    est = walks.collision_functional(
        dist, cfg["d"], cfg["lambda"], cfg["samples"], horizon=cfg["horizon"],
        seed=cfg["seed"], convention=cfg["convention"])
    write_json(os.path.join(out, "functional.json"),
               {"d": est.d, "lambda": est.lam, "samples": est.samples,
                "horizon": est.horizon, "convention": est.convention,
                "value": _finite_or_none(est.value),
                "se": _finite_or_none(est.se),
                "censored_fraction": est.censored_fraction,
                "diverging": est.diverging,
                "m_sums": [[m, _finite_or_none(v)] for m, v in est.m_sums],
                "m_sum_ratios": [[m, _finite_or_none(v)]
                                 for m, v in est.m_sum_ratios()]})
    return ["functional.json"]


def _cmd_critscan(cfg, dist, out, jobs, digest):
    bad = [d for d in cfg["d"] if d < 1]
    if bad:     # before the first scan, not after the scans ahead of it
        raise ValueError(f"d must be >= 1, got {bad[0]}")
    key = seed_key(cfg["seed"])
    probe_rows, summaries, xs, ys, yerr = [], [], [], [], []
    for i, d in enumerate(cfg["d"]):
        res = critfind.estimate_critical_rate(
            dist, d, side=cfg["L"] or None, horizon=cfg["horizon"] or None,
            reps_per_probe=cfg["reps_per_probe"], threshold=cfg["threshold"],
            tol=cfg["tol"] or None, seed=key + [i], check_box=cfg["check_box"],
            jobs=jobs)
        for e in res.trace:
            probe_rows.append((e.d, dist.label, e.lam, e.p_hat, e.se,
                               e.side, e.horizon, e.reps, e.settled))
        summaries.append({"d": d, "dist_id": dist.label, "L": res.side,
                          "horizon": res.horizon, "threshold": res.threshold,
                          "tol": res.tol, "bracket": list(res.bracket),
                          "lam_hat": res.lam_hat, "scaled": res.scaled,
                          "status": res.status,
                          "mean_field_ref": res.mean_field_ref,
                          "box_converged": res.box_converged,
                          "probes": len(res.trace)})
        xs.append(d)
        ys.append(d * res.lam_hat)
        yerr.append(d * res.tol)
    write_csv(os.path.join(out, "probes.csv"),
              ["d", "dist_id", "lambda", "p_hat", "se", "L", "horizon", "reps",
               "settled"], probe_rows, digest)
    write_json(os.path.join(out, "critscan.json"), summaries)
    ref = 1.0 / dist.second_moment
    # the bars are the bisection tolerance, not a statistical interval
    svg = line_chart([{"label": "d * estimated critical rate, bars +/- d * tol "
                                "(bisection tolerance)",
                       "x": xs, "y": ys, "yerr": yerr}],
                     title="critical-rate scan", x_label="d",
                     y_label="d * rate", y_reference=ref)
    write_text(os.path.join(out, "critscan.svg"), svg)
    return ["probes.csv", "critscan.json", "critscan.svg"]


def _read_manifest(path: str) -> dict:
    """The fields of a run manifest that ``report`` lists; anything that is
    not a manifest raises ValueError naming the path, before any output."""
    try:
        with open(path) as fh:
            man = json.load(fh)
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    if not (isinstance(man, dict) and all(k in man for k in _MANIFEST_KEYS)
            and isinstance(man["manifest_hash"], str)
            and isinstance(man["outputs"], list)
            and all(isinstance(o, str) for o in man["outputs"])):
        raise ValueError(f"{path} is not a run manifest: expected an object with "
                         "subcommand, seed, a string manifest_hash and a list "
                         "of outputs")
    return {k: man[k] for k in _MANIFEST_KEYS}


def _cmd_report(cfg, dist, out, jobs, digest):
    dirs = [p for p in cfg["dirs"].split(",") if p.strip()]
    if not dirs:
        raise ValueError("dirs must list at least one run directory")
    entries = [{"dir": p, **_read_manifest(os.path.join(p, "manifest.json"))}
               for p in dirs]
    write_json(os.path.join(out, "report.json"), {"runs": entries})
    lines = ["# run summary", ""]
    for e in entries:
        lines.append(f"- {e['dir']}: {e['subcommand']} (seed {e['seed']}, "
                     f"hash {e['manifest_hash'][:12]}...) -> "
                     f"{', '.join(e['outputs'])}")
    write_text(os.path.join(out, "report.md"), "\n".join(lines) + "\n")
    return ["report.json", "report.md"]


_HANDLERS = {
    "simulate": _cmd_simulate, "f-decay": _cmd_fdecay, "duality": _cmd_duality,
    "zeta-check": _cmd_zeta, "moments": _cmd_moments, "walks": _cmd_walks,
    "functional": _cmd_functional, "critscan": _cmd_critscan, "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: they all take the same options."""
    parser = argparse.ArgumentParser(
        prog="orientedcp",
        description="simulation and moment tools for weighted oriented contact processes")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=list(_HANDLERS))
    parser.add_argument("--config", help="key=value file or a prior manifest.json")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed; overrides the config file")
    parser.add_argument("--out", default=None,
                        help="output directory (default runs/<subcommand>)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for replicate loops")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override one config key")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    sub = args.subcommand
    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        file_cfg = load_config(args.config) if args.config else {}
        cfg, dist = resolve_config(sub, file_cfg, args.set, args.seed)
        out = args.out or os.path.join("runs", sub)
        digest = manifest_digest(sub, cfg, cfg["seed"], __version__)
        outputs = _HANDLERS[sub](cfg, dist, out, args.jobs, digest)
        write_manifest(out, sub, cfg, cfg["seed"], args.jobs, outputs, __version__)
    except ResourceLimitError as e:
        print(f"orientedcp {sub}: resource limit: {e}", file=sys.stderr)
        return 3
    except ScanError as e:
        print(f"orientedcp {sub}: scan failed: {e}", file=sys.stderr)
        for est in e.trace:
            read = (f"settled after {est.reps} reps" if est.settled
                    else f"se={est.se:.4f}")
            print(f"  probed rate={est.lam:.6g} p_hat={est.p_hat:.4f} {read}",
                  file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"orientedcp {sub}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
