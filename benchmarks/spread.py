"""Check that the benchmark is steady: run it on several seeds and report,
for every end-to-end metric, the median and the quartile spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.

Usage, from the root of a checkout::

    python3 benchmarks/spread.py --seeds 1-10 --workloads sweep_oracle,simulate_mc

``--trace 1`` runs the traced variant instead and checks that the computed
counts are identical in every run. Exits 1 when a run fails, a result is not
correct, a spread other than ``setup_s``'s exceeds its bound, or counts differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        counts = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            counts.append(info["details"].get("counts"))
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()} if not args.trace else {}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)
        if args.trace:
            same = all(c == counts[0] for c in counts)
            ok &= same
            print(f"{workload}: counts {'identical' if same else 'DIFFER'}: {counts[0] if counts else None}")
            continue
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            if name != "setup_s" and spread > bound:
                ok = False
            print(f"  {workload} {name}: median {med:.6g} spread {spread:.4f} bound {bound} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
