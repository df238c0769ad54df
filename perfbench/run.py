"""orientedcp benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload critscan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing else.  The workloads and their output
checks live in ``workloads.py``; the layer tracing in ``layers.py``.

``--trace 0`` repeats workload calls (each with its own seed derived from
``--seed``) until ``--seconds`` is used up, and at least ``CHECKED_CALLS``
times, and reports the end-to-end metrics:

- ``wall_s``: median wall time of one workload call;
- ``setup_s``: median, over several fresh interpreter processes, of the
  time to start and import numpy and orientedcp;
- ``peak_rss_mb``: peak resident memory of this process.

Both times are reported at nominal host speed.  On a shared host the same
call can take twice as long from one second to the next, so ``host_ref``,
a fixed loop that uses no orientedcp code, is timed just before and just
after every timed call and spawn, and each time is scaled by
``REF_NOMINAL`` over the mean of those two reference times.  The times as
measured are printed on the lines before the result.

``--trace 1`` makes a fixed number of calls, each once untraced and once
traced, and reports the per-layer metrics of ``layers.py`` summed over the
traced calls, with ``trace.overhead_share`` (traced over untraced wall
time, minus one) and ``host.ref_s`` (a fixed reference loop, timed in every
run to expose host drift).  Count metrics repeat exactly for a seed; the
metrics of a layer that a workload does not use read 0.

Every run checks the program's outputs on a fixed set of calls: the first
``CHECKED_CALLS`` with ``--trace 0``, all ``trace_calls`` with ``--trace 1``.
Later calls are timed only, so the verdict for a seed does not depend on
how many calls the host's speed fits in ``--seconds``.  ``attempted`` is
the number of checks made and ``failed`` the number that failed
(``checks_failed``); a nonzero CLI exit code is a failed check.  The last
line of standard output is the JSON result; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# calls whose outputs are checked; every --trace 0 run makes at least these
CHECKED_CALLS = 10
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import numpy, orientedcp.cli"
# host_ref() time, in seconds, that defines nominal host speed
REF_NOMINAL = 0.04


def setup_seconds() -> tuple[list[float], list[float]]:
    times, refs = [], [host_ref()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        refs.append(host_ref())
    return times, refs


def host_ref() -> float:
    """Time a fixed interpreter loop and a fixed heap loop, neither in orientedcp."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    heap, x = [], 0.5
    for i in range(30_000):
        x = 3.9 * x * (1.0 - x)
        heapq.heappush(heap, (x, i))
        if len(heap) > 100:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def at_nominal_speed(times: list[float], refs: list[float]) -> list[float]:
    """Scale ``times[k]`` by REF_NOMINAL over the reference timed around it.

    ``refs`` has one entry more than ``times``: ``refs[k]`` and
    ``refs[k + 1]`` are timed just before and just after ``times[k]``.
    """
    return [t * REF_NOMINAL / (0.5 * (refs[k] + refs[k + 1]))
            for k, t in enumerate(times)]


def timed_call(call, *args) -> float:
    from layers import clear_tables
    clear_tables()
    gc.collect()
    t0 = time.perf_counter()
    call(*args)
    return time.perf_counter() - t0


def well_sampled_percentile(times: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(times)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p <= 0:
        return f"no percentile has ten samples above it (n={n})"
    return f"p{p} {statistics.quantiles(times, n=100, method='inclusive')[p - 1]:.4f} s"


def measure(wl_cls, checks, seed: int, seconds: float, out: str):
    from workloads import Checks, call_seed
    wl = wl_cls()
    times, refs = [], [host_ref()]
    deadline = time.perf_counter() + seconds
    while True:
        k = len(times)
        # past the checked calls, a throwaway instance and tally keep the
        # same work in the timed call out of the run's verdict
        on, tally = (wl, checks) if k < CHECKED_CALLS else (wl_cls(), Checks())
        times.append(timed_call(on.call, tally, call_seed(seed, k), out))
        refs.append(host_ref())
        if (len(times) >= CHECKED_CALLS
                and time.perf_counter() + statistics.median(times) > deadline):
            break
    return wl, times, refs


def traced(wl_cls, checks, seed: int, out: str, spans_path: Path):
    from layers import Tracer, table_builds
    from workloads import call_seed
    wl = wl_cls()
    tracer = Tracer()
    plain, with_spans, refs = [], [], [host_ref()]
    for k in range(wl_cls.trace_calls):
        s = call_seed(seed, k)
        # alternate which of the pair runs first; the traced call uses a
        # throwaway instance, so the pooled checks see each seed once
        for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced_now:
                plain.append(timed_call(wl.call, checks, s, out))
                continue
            tracer.install(k)
            try:
                with_spans.append(timed_call(wl_cls().call, checks, s, out))
                tracer.counts["lattice.table_builds"] += table_builds()
            finally:
                tracer.uninstall()
        refs.append(host_ref())
    tracer.dump(str(spans_path))
    m = tracer.layer_metrics()
    m["trace.overhead_share"] = sum(with_spans) / sum(plain) - 1.0
    m["host.ref_s"] = statistics.median(refs)
    return wl, m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "orientedcp" / "__init__.py").is_file():
        print(f"perfbench: no orientedcp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    wl_cls = WORKLOADS[args.workload]
    out = OUT / f"{args.workload}-calls"
    out.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        wl, values = traced(wl_cls, checks, args.seed, str(out), spans_path)
        lines.append(f"{wl_cls.trace_calls} calls, each once untraced and once traced; "
                     f"spans in {spans_path.relative_to(ROOT)}")
    else:
        setup, setup_refs = setup_seconds()
        wl, times, refs = measure(wl_cls, checks, args.seed, args.seconds, str(out))
        wall = at_nominal_speed(times, refs)
        values = {"wall_s": statistics.median(wall),
                  "setup_s": statistics.median(at_nominal_speed(setup, setup_refs)),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        lines.append(f"wall_s median {values['wall_s']:.4f} s at nominal host speed "
                     f"over {len(times)} calls; {well_sampled_percentile(wall)}; "
                     f"as measured: median {statistics.median(times):.4f} s, "
                     f"total {sum(times):.1f} s")
        lines.append(f"setup_s median {values['setup_s']:.4f} s at nominal host speed "
                     f"over {len(setup)} fresh processes; as measured: median "
                     f"{statistics.median(setup):.4f} s")
        lines.append(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        refs += setup_refs
        lines.append(f"host.ref_s median {statistics.median(refs):.4f} s, "
                     f"range {min(refs):.4f}-{max(refs):.4f} s over {len(refs)} timings "
                     f"(nominal {REF_NOMINAL} s)")
    lines += wl.finish(checks)
    shutil.rmtree(out, ignore_errors=True)
    lines.append(f"checks_failed {len(checks.failed)} of {checks.attempted}"
                 + (": " + ", ".join(sorted(set(checks.failed))) if checks.failed else ""))

    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are "
                           "computed or declared but not both")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
