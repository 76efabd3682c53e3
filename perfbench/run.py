"""Run one workload of the convexkit benchmark and print its metrics.

    python3 perfbench/run.py --workload fair-cuts --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  Jobs run one after another in this process, through
`convexkit.cli.main(argv)` (a closed loop with one client).  A pass runs
every job of the workload once and checks each output; passes repeat while
another one still fits in `--seconds` (at least one pass always runs).
Between jobs, spread evenly over the run, set-up is timed SETUP_SAMPLES
times, each in a fresh interpreter.  Every timing is kept raw and scaled
to the reference machine speed of `speed.py`; the gated metrics are the
scaled ones.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics.  Full results, with
sample counts, per-job times, failures and machine details, go to
.perfbench/results/ under the repository root; traced runs also write
their spans there.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy can be imported, here and in the
# set-up probes, which inherit the environment.
THREAD_PINS = {
    v: "1"
    for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from jobs import WORKLOADS, Output, build  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from speed import Timer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 31

# Times one set-up in a fresh interpreter: the import of convexkit.cli, then
# (after the benchmark's own modules are loaded, which is not timed) the
# generation of the workload's inputs.  The machine's speed is sampled
# before and after; the first kernel run warms the kernel up.
SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import speed
speed.kernel_seconds()
kernel = [speed.kernel_seconds() for _ in range(9)]
t0 = time.perf_counter()
import convexkit.cli
t1 = time.perf_counter()
import jobs
from pathlib import Path
t2 = time.perf_counter()
jobs.build({workload!r}, {seed!r}, Path({inputs!r}), Path({outputs!r}))
seconds = t1 - t0 + time.perf_counter() - t2
kernel += [speed.kernel_seconds() for _ in range(9)]
import statistics
print(seconds, speed.REFERENCE_S / statistics.median(kernel))
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="run one convexkit benchmark workload")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def time_setup(workload: str, seed: int, k: int) -> tuple:
    """Set up once in a fresh interpreter; return the seconds it took and
    the speed scale."""
    base = WORK / "setup" / str(k)
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed,
                              inputs=str(base / "inputs"), outputs=str(base / "out"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    seconds, scale = done.stdout.split()[-2:]
    return float(seconds), float(scale)


def timing(seconds: float, scale: float) -> tuple:
    """A (raw seconds, seconds scaled to reference speed) pair."""
    return seconds, seconds * scale


def run_job(cli, job, out: Path, digests: dict, ticking: bool = True):
    """Run one job; return (its Timer, failure message or None, wrong output?).
    Every failure is a wrong answer except the job's known defect: the
    exception its `known_defect` names."""
    if job.prepare is not None:
        job.prepare()
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), Timer(ticking) as timer:
        try:
            # Looked up at call time, so a traced run calls the wrapped main.
            rc = cli.main(job.argv + ["--out", str(out)])
        except Exception as e:  # the job's failure is the measurement
            error = e
    if error is not None:
        known = job.known_defect is not None and isinstance(error, job.known_defect)
        return timer, f"raised {type(error).__name__}: {error}", not known
    if rc not in job.expect_rc:
        return timer, f"exit code {rc}, expected {job.expect_rc}", True
    try:
        job.check(Output(rc, out, buf.getvalue()))
        if job.exact:
            digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
            if digest != digests.get(job.name):
                raise CheckFailed(f"report.json digest {digest[:16]} differs from the recorded one")
    except (CheckFailed, KeyError, ValueError, TypeError, OSError) as e:
        return timer, f"check: {type(e).__name__}: {e}", True
    return timer, None, False


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_pins": THREAD_PINS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "convexkit" / "__init__.py").is_file():
        print(f"error: no convexkit sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    shutil.rmtree(WORK / "setup", ignore_errors=True)

    sys.path.insert(0, str(SRC))
    import convexkit
    import convexkit.cli as cli

    if Path(convexkit.__file__).resolve().parent != SRC / "convexkit":
        print(f"error: convexkit imported from {convexkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Relative paths: they appear in report.json, and the recorded digests
    # were taken with these same paths.
    inputs = (WORK / "inputs" / args.workload).relative_to(ROOT)
    outputs = (WORK / "out" / args.workload).relative_to(ROOT)
    shutil.rmtree(outputs, ignore_errors=True)
    jobs = build(args.workload, args.seed, inputs, outputs)
    digests = json.loads(DIGESTS.read_text())

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    # Timings are (raw seconds, seconds scaled to reference speed) pairs.
    pass_walls, job_times, layer_passes, span_passes = [], [], [], []
    per_job = {job.name: [] for job in jobs}
    failures = []
    setup = []
    attempted = failed = wrong = 0
    started = time.perf_counter()

    def set_up_on_schedule(share: float) -> None:
        # Set-up samples are spread evenly over the run, between jobs, so
        # their median sees the same stretch of machine time as the passes.
        while len(setup) < SETUP_SAMPLES * min(share, 1.0):
            setup.append(timing(*time_setup(args.workload, args.seed, len(setup))))

    while True:
        wall = (0.0, 0.0)
        for idx, job in enumerate(jobs):
            set_up_on_schedule((time.perf_counter() - started) / args.seconds)
            if tracer is not None:
                tracer.job = len(pass_walls) * len(jobs) + idx
            timer, failure, bad = run_job(cli, job, outputs / job.name, digests,
                                          ticking=tracer is None)
            attempted += 1
            t = timing(timer.seconds, timer.scale)
            wall = (wall[0] + t[0], wall[1] + t[1])
            job_times.append(t)
            per_job[job.name].append(t)
            if failure is not None:
                failed += 1
                wrong += bad
                failures.append(f"{job.name} (pass {len(pass_walls)}): {failure}")
        pass_walls.append(wall)
        if tracer is not None:
            layer_passes.append(tracer.take())
            span_passes.append(tracer.spans())
        elapsed = time.perf_counter() - started
        if elapsed * (len(pass_walls) + 1) / len(pass_walls) > args.seconds:
            break
    set_up_on_schedule(1.0)
    if tracer is not None:
        tracer.uninstall()

    def median(pairs: list, scaled: bool) -> float:
        return statistics.median(p[scaled] for p in pairs)

    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {}
    for name, pairs in (("wall", pass_walls), ("job_p50", job_times), ("setup", setup)):
        detail[f"{name}_s"] = {"value": median(pairs, True), "unit": "s", "samples": len(pairs)}
    detail["peak_rss_mib"] = {"value": rss_mib, "unit": "MiB", "samples": 1}
    detail["error_rate"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    for name, pairs in (("wall", pass_walls), ("job_p50", job_times), ("setup", setup)):
        detail[f"{name}_raw_s"] = {"value": median(pairs, False), "unit": "s", "samples": len(pairs)}

    # The JSON line carries exactly the metrics BENCHMARK.json declares.
    declared = json.loads(BENCHMARK.read_text())
    if tracer is None:
        metrics = {m["name"]: {"value": detail[m["name"]]["value"], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
    else:
        from tracing import median_metrics, write_spans

        layer = median_metrics(layer_passes)
        names = {m["name"] for m in declared["per_layer"]}
        if names != set(layer):
            print(f"error: traced metrics differ from BENCHMARK.json per_layer: "
                  f"{sorted(names ^ set(layer))}", file=sys.stderr)
            return 2
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": wrong == 0, "attempted": attempted, "failed": failed,
        # [raw, scaled] seconds per pass and per set-up sample
        "passes": len(pass_walls), "pass_walls_s": pass_walls, "setup_samples_s": setup,
        "end_to_end": detail, "metrics": metrics, "failures": failures,
        "jobs": {name: {"runs": len(t), "median_raw_s": median(t, False), "median_s": median(t, True)}
                 for name, t in per_job.items()},
        "argv": {job.name: job.argv for job in jobs},
        "machine": machine(),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        names = [job.name for _ in pass_walls for job in jobs]
        write_spans(results / f"{stem}.spans", tracer.functions, span_passes, names)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(pass_walls)} pass(es) "
          f"of {len(jobs)} jobs, {attempted} attempted, {failed} failed, correct={wrong == 0}")
    for name, d in detail.items():
        print(f"  {name:<14} {d['value']:.6g} {d['unit']} (n={d['samples']})")
    for line in failures[:20]:
        print(f"  failed: {line}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
