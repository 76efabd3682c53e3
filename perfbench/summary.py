"""Run every workload, untraced and traced, and print one table.

    python3 perfbench/summary.py --seed 1

For each workload: wall_s, job_p50_s, setup_s, peak_rss_mib and error_rate
with units and sample counts, the raw (unscaled) timings beside them, the
traced wall time and the tracing overhead (traced minus untraced raw wall
time), the largest per-layer self times, and the raw per-job times beside
the ROADMAP baseline.  Each run is a fresh
`run.py` process, so peak memory is per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench" / "results"

# Workloads left out of the benchmark, with the reason.
DROPPED: dict = {}

# ROADMAP baseline (single perf_counter runs, +-20%): workload, job name
# prefix, what was timed, seconds.
BASELINE = [
    ("fair-cuts", "disc-ngon4096", "4096-gon profile", 11.9),
    ("iso-exact", "search-iso-n7-limit1-seed", "search_isoperimetric(7, limit=1)", 4.7),
    ("iso-exact", "search-iso-n6", "exhaustive search_isoperimetric(6)", 5.7),
    ("records-layouts", "hcn-limit1500000", "hcn_up_to(1_500_000)", 3.7),
    ("records-layouts", "enumerate-pair-301-299", "enumerate_layouts 1/301 x 1, 1 x 1/299", 3.5),
]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=600)
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="run and summarize every benchmark workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)

    rows = {}
    for w in WORKLOADS:
        rows[w] = (run(w, args.seed, args.seconds, 0), run(w, args.seed, args.seconds, 1))

    print(f"convexkit benchmark, seed {args.seed}, {args.seconds:g} s per run")
    print(f"machine: {json.dumps(rows[WORKLOADS[0]][0]['machine'])}")
    print(f"dropped workloads: {DROPPED or 'none'}")
    for w, (plain, traced) in rows.items():
        e = plain["end_to_end"]
        print(f"\n{w}: {plain['passes']} pass(es), correct={plain['correct']}")
        for name in ("wall_s", "job_p50_s", "setup_s", "peak_rss_mib", "error_rate",
                     "wall_raw_s", "job_p50_raw_s", "setup_raw_s"):
            d = e[name]
            print(f"  {name:<14} {d['value']:>12.6g} {d['unit']:<5} n={d['samples']}")
        print(f"  {'failed/attempted':<14} {plain['failed']:>12} / {plain['attempted']}")
        tw = traced["end_to_end"]["wall_raw_s"]["value"]
        print(f"  {'traced raw':<14} {tw:>12.6g} s     overhead {tw - e['wall_raw_s']['value']:+.4g} s")
        selfs = sorted(((m["value"], k) for k, m in traced["metrics"].items()
                        if k.endswith(".self_s") and m["value"] > 0), reverse=True)
        print("  self time: " + ", ".join(f"{k[:-7]} {v:.3g} s" for v, k in selfs))
        for line in plain["failures"][:5]:
            print(f"  failed: {line}")

    print("\nper-job median seconds vs ROADMAP baseline (+-20%):")
    for w, prefix, what, base in BASELINE:
        jobs = rows[w][0]["jobs"]
        t = next(j["median_raw_s"] for n, j in jobs.items() if n.startswith(prefix))
        print(f"  {what:<42} {t:8.3f} s  baseline {base:5.1f} s  ({t / base - 1:+.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
