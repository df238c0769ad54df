"""Self-test of the benchmark: traced count metrics repeat exactly for a seed.

    python3 perfbench/selftest.py

Runs ``run.py --trace 1`` twice per workload with seed ``SEED`` and fails
unless both runs exit 0, report correct outputs, and agree exactly on every
per-layer metric whose unit is ``count`` or ``bytes``.  Timings may differ.
"""

from __future__ import annotations

import json
import sys

from sweep import ROOT, run_once

SEED = 7


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")]
    failures = []
    for wl in names:
        a, b = (run_once(wl, SEED, bench["run_seconds"], 1) for _ in range(2))
        for r in (a, b):
            if r["exit"] != 0:
                failures.append(f"{wl}: exit {r['exit']}: {r['stderr']}")
            elif not r["result"]["correct"]:
                failures.append(f"{wl}: outputs reported incorrect")
        if a["exit"] or b["exit"]:
            continue
        ma, mb = a["result"]["metrics"], b["result"]["metrics"]
        for name in counts:
            va, vb = ma[name]["value"], mb[name]["value"]
            if va != vb:
                failures.append(f"{wl}: {name} differs between runs: {va} vs {vb}")
        print(f"{wl}: " + ", ".join(f"{n}={ma[n]['value']}" for n in counts
                                    if ma[n]["value"]))
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
