"""Run one workload of the sigeo benchmark and print its metrics.

    python3 perfbench/run.py --workload geodesic --seed 1 --seconds 30 --trace 0

Run from the root of a sigeo checkout; the package is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json with tracing off. With ``--trace 1`` it runs the workload
for half the time untraced, then the same rounds again with every layer
boundary traced, and reports the per-layer metrics; spans go to
``.perfbench/trace-<workload>-<seed>.jsonl``. The last line of stdout is
one JSON object: correct, attempted, failed and metrics. An environment
record goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
# One client, no extra threads: BLAS stays single-threaded (<= nproc).
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up as a user pays it in a fresh process: import sigeo, build every
# model the workloads use, warm the lazy caches.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import workloads\n"
    "workloads.build_models()\n"
    "print(time.perf_counter() - t0)\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("geodesic", "cover", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = res.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds() -> float:
    """Median over fresh processes of import + model build + cache warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(res.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sigeo" / "__init__.py").is_file():
        print(f"sigeo sources not found under {SRC}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import metrics
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment(args)
    print("environment " + json.dumps(env), file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        zoo = workloads.build_models()
        workload = workloads.WORKLOADS[args.workload](zoo, workdir)
        if args.trace == 0:
            setup_s = setup_seconds()
            result = workloads.run(workload, args.seed, seconds=args.seconds)
            values = metrics.end_to_end(result)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"]
            runs = [result]
        else:
            values, runs = metrics.traced(
                workload, args.seed, args.seconds, OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl", env
            )
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for run in runs for r in run.records]
    correct = metrics.all_correct(runs)
    print(metrics.summary(args.workload, runs[0]), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.status != workloads.OK for r in records),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
