"""The workload process: one fresh interpreter per set-up sample or run.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It imports
``mdlab.cli``, writes the workload's generated inputs and prints ``READY``;
that is the end of set-up. In ``--mode setup`` it stops there. In
``--mode run`` it then runs passes over the workload, each in a fresh
directory, until ``--seconds`` have gone by, checks every output against
the references and prints one ``RESULT`` line of JSON.

With ``--trace 1`` passes alternate untraced and traced (at least one of
each); per-layer metrics come from the traced passes, and the difference
between the traced and untraced medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time


def emit(tag: str, payload=None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def typical(passes: list[list]) -> list:
    """One pass whose op i took the median, over ``passes``, of op i's wall
    time. Per-op medians shrug off a slow stretch of the machine that
    overlaps only some passes better than a median of whole passes."""
    out = []
    for i, run in enumerate(passes[0]):
        out.append(dataclasses.replace(run, wall=statistics.median(p[i].wall for p in passes)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import mdlab.cli  # noqa: F401  (the import is what set-up measures)

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size, args.workers)
    workload.prepare(args.dir, args.seed)
    emit("READY")
    if args.mode == "setup":
        return 0

    if args.trace:
        from tracer import Tracer, layer_metrics

    passes = []  # (traced, runs, spans)
    began = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        rep_dir = os.path.join(args.dir, f"pass{len(passes)}")
        os.mkdir(rep_dir)
        spans = None
        if traced:
            last_tracer = Tracer()
            last_tracer.install()
        try:
            runs = workload.run(rep_dir)
        finally:
            if traced:
                last_tracer.uninstall()
                spans = last_tracer.spans
        passes.append((traced, runs, spans))
        enough = not args.trace or len(passes) >= 2
        if enough and time.perf_counter() - began >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = workload.reference()
    baseline = passes[0][1]
    attempted = failed = 0
    failures = []
    for _, runs, _ in passes:
        for label, reason in workload.check(runs, refs, baseline):
            attempted += 1
            if reason is not None:
                failed += 1
                failures.append(f"{label}: {reason}")

    untraced = [runs for traced, runs, _ in passes if not traced]
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "passes": len(passes),
        "pass_walls": [sum(r.wall for r in runs) for _, runs, _ in passes],
        "import_s": import_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "mdlab": sys.modules["mdlab"].__version__,
        },
        "mdlab_path": os.path.dirname(sys.modules["mdlab"].__file__),
    }
    if not args.trace:
        result["metrics"] = {
            "wall_s": sum(r.wall for r in typical(untraced)),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
            "time_to_1pct_s": workload.time_to_accuracy(typical(untraced)),
        }
    else:
        traced_passes = [(runs, spans) for traced, runs, spans in passes if traced]
        per_pass = [
            {**layer_metrics(spans), **workload.layer_extras(runs)} for runs, spans in traced_passes
        ]
        metrics = {}
        for key in per_pass[0]:
            values = [p[key] for p in per_pass]
            integral = all(isinstance(v, int) for v in values)
            metrics[key] = statistics.median_low(values) if integral else statistics.median(values)
        counts = ("oracle.dp_cells", "oracle.enum_outcomes", "mc.path_steps", "experiments.rows")
        result["counts"] = {key: per_pass[0][key] for key in counts}
        result["counts_repeat"] = all(p[key] == per_pass[0][key] for p in per_pass for key in counts)
        traced_wall = sum(r.wall for r in typical([runs for runs, _ in traced_passes]))
        metrics["trace.overhead_s"] = traced_wall - sum(r.wall for r in typical(untraced))
        metrics["cli.import_s"] = import_s
        result["metrics"] = metrics
        if args.spans:
            last_tracer.write(args.spans)
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
