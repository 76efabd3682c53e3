"""Record the report.json digest of every exact-path job.

    python3 perfbench/record_digests.py

Builds the job lists of many seeds, runs each distinct exact job once,
checks its output, and writes perfbench/digests.json.  Run it only when a
report format is meant to change; a digest that moves otherwise is a
regression the benchmark is there to catch.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
from jobs import WORKLOADS, Output, build

SEEDS = range(200)  # enough to draw every member of each seeded pool


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from convexkit.cli import main as cli_main

    os.chdir(run.ROOT)
    digests = {}
    for workload in WORKLOADS:
        inputs = (run.WORK / "inputs" / workload).relative_to(run.ROOT)
        outputs = (run.WORK / "out" / workload).relative_to(run.ROOT)
        for seed in SEEDS:
            for job in build(workload, seed, inputs, outputs):
                if not job.exact or job.name in digests:
                    continue
                if job.prepare is not None:
                    job.prepare()
                out = outputs / job.name
                rc = cli_main(job.argv + ["--out", str(out)])
                if rc not in job.expect_rc:
                    raise SystemExit(f"{job.name}: exit code {rc}")
                job.check(Output(rc, out, ""))
                digests[job.name] = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
                print(job.name, digests[job.name][:16], flush=True)
    run.DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
