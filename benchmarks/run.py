"""Run one workload of mdlab's benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload sweep_oracle --seed 1 --seconds 25 --trace 0

Each workload runs in fresh interpreters (``proc.py``) with ``src`` on
``PYTHONPATH`` and BLAS/OpenMP pools held to one thread. Set-up time is the
median over several interpreters of the time from spawning one until it
has imported ``mdlab.cli`` and written the workload's inputs. The last
line of stdout is the result::

    {"correct": true, "attempted": 57, "failed": 0, "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. The line before it records provenance (machine, versions,
commit, seed, worker count) and run details. The process exits non-zero
without a result when the checkout has no ``src/mdlab`` or a workload
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, ".runs")
WORKLOADS = ("sweep_oracle", "simulate_mc", "theory_schedule")
SETUP_SAMPLES = {"full": 5, "tiny": 1}  # set-up-only interpreters per --trace 0 run
DEADLINE_S = 170.0
BENCHMARK_WORKERS = 2


class BenchmarkError(Exception):
    pass


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """Next stdout line of ``proc``, or BenchmarkError at the deadline."""
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchmarkError("workload process ran past the deadline")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise BenchmarkError(f"workload process exited with code {proc.wait()}")
            return line.rstrip("\n")


def spawn(args, mode: str, run_dir: str, workers: int, deadline: float):
    """Start one workload process; return (process, seconds until READY)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, os.path.join(HERE, "proc.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--dir", run_dir, "--size", args.size,
        "--workers", str(workers),
    ]
    if mode == "run" and args.trace:
        cmd += ["--spans", os.path.join(RUNS, f"{args.workload}.spans.jsonl")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = read_line(proc, deadline)
        if line != "READY":
            raise BenchmarkError(f"unexpected line from workload process: {line[:200]!r}")
    except BaseException:
        stop(proc)
        raise
    return proc, time.perf_counter() - start


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    workers = max(1, min(BENCHMARK_WORKERS, nproc))
    os.makedirs(RUNS, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS)
    try:
        setup = []
        for i in range(0 if args.trace else SETUP_SAMPLES[args.size]):
            probe_dir = os.path.join(run_dir, f"setup{i}")
            os.mkdir(probe_dir)
            proc, seconds = spawn(args, "setup", probe_dir, workers, deadline)
            stop(proc)
            setup.append(seconds)
        work_dir = os.path.join(run_dir, "run")
        os.mkdir(work_dir)
        proc, seconds = spawn(args, "run", work_dir, workers, deadline)
        setup.append(seconds)
        try:
            line = read_line(proc, deadline)
        finally:
            stop(proc)
        if not line.startswith("RESULT "):
            raise BenchmarkError(f"unexpected line from workload process: {line[:200]!r}")
        child = json.loads(line[len("RESULT "):])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if os.path.realpath(child["mdlab_path"]) != os.path.realpath(os.path.join(ROOT, "src", "mdlab")):
        raise BenchmarkError(f"workload imported mdlab from {child['mdlab_path']}, not this checkout")
    metrics = dict(child["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workers": workers,
        "thread_env": {"OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1, "MKL_NUM_THREADS": 1},
        "git_commit": git_commit(),
        **child["versions"],
    }
    details = {key: child[key] for key in child if key not in ("metrics", "versions")}
    details["setup_samples_s"] = setup
    details["fail_ratio"] = child["failed"] / child["attempted"]
    return provenance, {"details": details, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a scaled-down workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mdlab", "cli.py")):
        print(f"run.py: no mdlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        provenance, out = measure(args)
        mismatch = set(units) ^ set(out["metrics"])
        if mismatch:
            raise BenchmarkError(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    details = out["details"]
    print(json.dumps({"provenance": provenance, "details": details}))
    correct = details["failed"] == 0 and details.get("counts_repeat", True)
    print(json.dumps({
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": out["metrics"][name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
