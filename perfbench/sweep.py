"""Run the benchmark over many seeds and report how steady each metric is.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads critscan,pairs]
                               [--save runs.json] [--baseline old.json]

Runs ``run.py --trace 0`` once per (seed, workload) in fresh processes,
rotating the workload order from one seed to the next so that host drift
spreads over every workload instead of landing on one.  For each workload and metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  With ``--baseline`` (a file written by ``--save``)
it also prints how far each median moved, so that two commits can be
compared with the same benchmark code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"workload": workload, "seed": seed, "exit": proc.returncode,
                "elapsed_s": elapsed, "stderr": proc.stderr[-2000:]}
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "exit": 0, "elapsed_s": elapsed,
            "notes": lines[:-1], "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict, baseline: dict | None) -> list[str]:
    out = []
    for wl in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == wl]
        ok = [r for r in mine if r["exit"] == 0]
        wrong = sum(not r["result"]["correct"] for r in ok)
        out.append(f"{wl}: {len(ok)}/{len(mine)} runs exited 0, {wrong} reported "
                   f"incorrect output, {max(r['elapsed_s'] for r in mine):.1f} s "
                   "longest run")
        for name in (ok[0]["result"]["metrics"] if ok else {}):
            vals = [r["result"]["metrics"][name]["value"] for r in ok]
            med = statistics.median(vals)
            line = f"  {name:<40} median {med:<12.6g}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                line += f" q1 {q1:<10.6g} q3 {q3:<10.6g} spread {spread:6.3f}"
                if name in bounds:
                    b = bounds[name]
                    verdict = ("steady" if spread < b / 3 else
                               "within bound" if spread <= b else "TOO WIDE")
                    line += f" bound {b} {verdict}"
            if baseline and name in bounds:
                old = [r["result"]["metrics"][name]["value"] for r in baseline
                       if r["workload"] == wl and r["exit"] == 0]
                if old:
                    move = med / statistics.median(old) - 1.0
                    line += f" vs baseline {move:+.3f}" + (
                        " WORSE THAN BOUND" if move > bounds[name] else "")
            out.append(line)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all in BENCHMARK.json)")
    ap.add_argument("--save", default=None, help="write every run's result here")
    ap.add_argument("--baseline", default=None, help="a file written by --save")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None

    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        k = i % len(names)
        for wl in names[k:] + names[:k]:
            runs.append(run_once(wl, seed, bench["run_seconds"], 0))
            r = runs[-1]
            print(f"seed {seed} {wl}: exit {r['exit']}, {r['elapsed_s']:.1f} s",
                  file=sys.stderr, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    print("\n".join(summarize(runs, bounds, baseline)))
    return 0 if all(r["exit"] == 0 and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
