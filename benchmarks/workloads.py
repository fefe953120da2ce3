"""The benchmark's workloads: inputs from a seed, timed CLI ops, and checks.

Every op is one ``mdlab.cli.main(argv)`` call in the workload process, the
same path a user takes, with stdout captured. ``prepare`` writes the
generated inputs once per process (it is part of set-up); ``run`` executes
every op of the workload once in a fresh directory; ``check`` compares the
outputs of one such pass with independent references and returns one
verdict per op unit (a sweep row, a ``simulate`` call, a ``theory`` call).

``reference`` is imported inside the ``reference`` methods: it loads
``scipy.stats``, which ``mdlab.cli`` does not, and set-up time must not
include it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass

import numpy as np

EXACT_METHODS = ("lattice_dp", "enumeration")
TWOPOINT = {"family": "twopoint", "a": 2.0, "b": 1.0}
# relative tolerance of exact results against their reference
EXACT_RTOL = 1e-9
# Monte Carlo estimates must sit within this many standard errors
MC_Z = 5.0


@dataclass
class OpRun:
    """Outcome of one CLI call, as a user would see it."""

    rc: int
    stdout: str
    stderr: str
    wall: float
    artifact: str | None = None  # file content the op wrote (sweep CSV)


def call_cli(argv: list[str]) -> OpRun:
    import mdlab.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mdlab.cli.main(argv)
    except Exception as exc:  # an uncaught error is a traceback and exit 1 for a user
        rc = 1
        err.write(f"uncaught {type(exc).__name__}: {exc}")
    return OpRun(rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def parse_stdout(run: OpRun):
    """(payload, None) for a successful op, else (None, reason)."""
    if run.rc != 0:
        return None, f"exit code {run.rc}: {run.stderr.strip()[-200:]}"
    try:
        payload = json.loads(run.stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return None, f"stdout is not strict JSON: {exc}"
    if not isinstance(payload, dict):
        return None, "stdout is not a JSON object"
    return payload, None


def close(got, want, rtol=EXACT_RTOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rtol * abs(want) + 1e-300


class Workload:
    name = ""

    def __init__(self, size: str, workers: int):
        self.tiny = size == "tiny"
        self.workers = workers

    def prepare(self, run_dir: str, seed: int) -> None:
        raise NotImplementedError

    def run(self, rep_dir: str) -> list[OpRun]:
        raise NotImplementedError

    def reference(self):
        raise NotImplementedError

    def check(self, runs: list[OpRun], refs, baseline: list[OpRun]) -> list[tuple[str, str | None]]:
        raise NotImplementedError

    def time_to_accuracy(self, runs: list[OpRun]) -> float:
        """Seconds to results within 1% relative error: exact ops reach it
        in one pass, so this is the pass's wall time."""
        return sum(r.wall for r in runs)

    def layer_extras(self, runs: list[OpRun]) -> dict:
        """Per-layer metrics read from the outputs rather than from spans."""
        return {"experiments.fallback_rows": 0, "mc.rel_stderr_max": 0.0}


def _same_as_baseline(run: OpRun, base: OpRun) -> str | None:
    if run is base or (run.stdout == base.stdout and run.artifact == base.artifact):
        return None
    return "output differs from the first pass with the same inputs"


class SweepOracle(Workload):
    """``mdlab sweep`` on the acceptance grid with exact oracles.

    Rademacher rows run the lattice DP and TwoPoint(2, 1) rows run full
    enumeration. The workload seed only sets the config's ``seed`` field,
    which exact rows ignore, so the work is the same for every seed.
    """

    name = "sweep_oracle"

    def prepare(self, run_dir, seed):
        rad_n = [16, 64, 256] if self.tiny else [256, 1024, 4096, 16384]
        rad_x = [1.0, 1.5] if self.tiny else [1.5]
        tp_n = [8, 9, 10] if self.tiny else list(range(16, 21))
        self.sweeps = []
        for tag, dist, grid, xs in (
            ("rademacher", {"family": "rademacher", "scale": 1.0}, rad_n, rad_x),
            ("twopoint", TWOPOINT, tp_n, [1.0]),
        ):
            cfg = {
                "dist": dist, "n_grid": grid, "x_values": xs, "engine": "oracle",
                "mc_fallback": True, "mc_samples": 100_000, "seed": seed,
                "output": f"{tag}.csv",
            }
            path = os.path.join(run_dir, f"{tag}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            rows = [(n, x) for n in grid for x in xs]
            self.sweeps.append((path, cfg, rows))

    def run(self, rep_dir):
        if os.listdir(rep_dir):
            raise ValueError(f"{rep_dir} is not empty: the sweep would resume and skip its rows")
        runs = []
        cwd = os.getcwd()
        os.chdir(rep_dir)  # each pass writes its CSV and manifest afresh
        try:
            for path, cfg, _ in self.sweeps:
                run = call_cli(["sweep", "--config", path, "--workers", str(self.workers)])
                if os.path.exists(cfg["output"]):
                    with open(cfg["output"]) as fh:
                        run.artifact = fh.read()
                runs.append(run)
        finally:
            os.chdir(cwd)
        return runs

    def reference(self):
        import reference

        refs = []
        for _, cfg, rows in self.sweeps:
            dist = cfg["dist"]
            if dist["family"] == "rademacher":
                refs.append([reference.rademacher_exact(n, x) for n, x in rows])
            else:
                refs.append([reference.twopoint_exact(dist["a"], dist["b"], n, x) for n, x in rows])
        return refs

    def _rows(self, run: OpRun):
        lines = (run.artifact or "").split("\n")
        header = lines[0].split(",")
        out = []
        for line in lines[1:]:
            if line:
                out.append((line, dict(zip(header, line.split(",")))))
        return out

    def check(self, runs, refs, baseline):
        verdicts = []
        for (path, cfg, rows), run, base, ref in zip(self.sweeps, runs, baseline, refs):
            tag = cfg["output"]
            payload, reason = parse_stdout(run)
            if reason is None and payload.get("rows") != len(rows):
                reason = f"sweep reports {payload.get('rows')} rows, expected {len(rows)}"
            if reason is None:
                reason = _same_as_baseline(run, base)
            written = self._rows(run) if reason is None else []
            if reason is None and len(written) != len(rows):
                reason = f"CSV holds {len(written)} rows, expected {len(rows)}"
            for k, ((n, x), (p_max_ref, p_sum_ref)) in enumerate(zip(rows, ref)):
                label = f"{tag}[n={n},x={x}]"
                verdicts.append((label, reason or self._check_row(written[k][1], n, x, p_max_ref, p_sum_ref)))
        return verdicts

    @staticmethod
    def _check_row(row, n, x, p_max_ref, p_sum_ref):
        try:
            got_n, got_x = int(row["n"]), float(row["x"])
            p_max, p_sum = float(row["p_max"]), float(row["p_sum"])
        except (KeyError, ValueError) as exc:
            return f"unreadable row: {exc}"
        if (got_n, got_x) != (n, x):
            return f"row is for (n={got_n}, x={got_x})"
        if row.get("method") not in EXACT_METHODS:
            return f"row fell back to method {row.get('method')!r}"
        if not close(p_max, p_max_ref):
            return f"p_max {p_max!r} != reference {p_max_ref!r}"
        if not close(p_sum, p_sum_ref):
            return f"p_sum {p_sum!r} != reference {p_sum_ref!r}"
        if not p_max >= p_sum:
            return f"p_max {p_max!r} < p_sum {p_sum!r}"
        return None

    def layer_extras(self, runs):
        fallback = sum(
            1 for run in runs for _, row in self._rows(run)
            if row.get("method") not in EXACT_METHODS
        )
        return {**super().layer_extras(runs), "experiments.fallback_rows": fallback}


class SimulateMC(Workload):
    """``mdlab simulate``: tilted Rademacher and TwoPoint(2, 1) far in the
    tail, then naive Uniform, CenteredExponential and StudentT(5)."""

    name = "simulate_mc"

    def prepare(self, run_dir, seed):
        n = 16 if self.tiny else 256
        samples = 1 << 12 if self.tiny else 1 << 17
        rng = random.Random(seed)
        self.ops = [
            {"dist": dist, "method": method, "x": x, "n": n, "samples": samples,
             "seed": rng.getrandbits(32)}
            for dist, method, x in (
                ({"family": "rademacher", "scale": 1.0}, "tilted", 2.5),
                (TWOPOINT, "tilted", 2.5),
                ({"family": "uniform", "half_width": 1.0}, "naive", 1.5),
                ({"family": "centered_exponential", "rate": 1.0}, "naive", 1.5),
                ({"family": "student_t", "nu": 5.0}, "naive", 1.5),
            )
        ]
        self.ref_seed = rng.getrandbits(32)
        self.ref_paths = 1 << 12 if self.tiny else 1 << 17

    def run(self, rep_dir):
        return [
            call_cli([
                "simulate", "--dist", json.dumps(op["dist"]), "--n", str(op["n"]),
                "--x", repr(op["x"]), "--samples", str(op["samples"]),
                "--seed", str(op["seed"]), "--method", op["method"],
                "--workers", str(self.workers),
            ])
            for op in self.ops
        ]

    def reference(self):
        import reference

        refs = []
        for i, op in enumerate(self.ops):
            fam = op["dist"]["family"]
            if fam == "rademacher":
                refs.append(("exact", reference.rademacher_exact(op["n"], op["x"])))
            elif fam == "twopoint":
                d = op["dist"]
                refs.append(("exact", reference.twopoint_exact(d["a"], d["b"], op["n"], op["x"])))
            else:
                refs.append(("mc", reference.naive_mc(
                    op["dist"], op["n"], op["x"], self.ref_paths, self.ref_seed + i)))
        return refs

    def check(self, runs, refs, baseline):
        return [
            (f"simulate[{op['dist']['family']},{op['method']}]", self._check_op(op, run, base, ref))
            for op, run, base, ref in zip(self.ops, runs, baseline, refs)
        ]

    @staticmethod
    def _check_op(op, run, base, ref):
        payload, reason = parse_stdout(run)
        if reason:
            return reason
        kind, values = ref
        for event, want in zip(("max", "sum"), values):
            est = payload.get(event)
            if not isinstance(est, dict):
                return f"no {event!r} estimate"
            p, se = est.get("p_hat"), est.get("stderr")
            if not (isinstance(p, float) and isinstance(se, float) and 0.0 <= p <= 1.0 and 0.0 < se < 1.0):
                return f"{event}: bad estimate p_hat={p!r} stderr={se!r}"
            if (est.get("n_samples"), est.get("method"), est.get("seed")) != (op["samples"], op["method"], op["seed"]):
                return f"{event}: echoes the wrong request"
            if kind == "exact":
                z = (p - want) / se
            else:
                if not close(se, math.sqrt(p * (1.0 - p) / op["samples"])):
                    return f"{event}: naive stderr {se!r} is not the binomial one"
                z = (p - want[0]) / math.hypot(se, want[1])
            if abs(z) > MC_Z:
                return f"{event}: p_hat {p!r} is {z:.1f} standard errors from the reference"
        if not payload["max"]["p_hat"] >= payload["sum"]["p_hat"]:
            return "p_max < p_sum"
        return _same_as_baseline(run, base)

    def _max_estimates(self, runs):
        for run in runs:
            payload, reason = parse_stdout(run)
            if reason is None and isinstance(payload.get("max"), dict):
                est = payload["max"]
                if isinstance(est.get("p_hat"), float) and est["p_hat"] > 0.0:
                    yield run, est["stderr"] / est["p_hat"]

    def time_to_accuracy(self, runs):
        """Sum over calls of wall * (relative stderr / 1%)^2 for the max event:
        the time each call would need for 1% relative error."""
        return sum(run.wall * (rel / 0.01) ** 2 for run, rel in self._max_estimates(runs))

    def layer_extras(self, runs):
        rel = [r for _, r in self._max_estimates(runs)]
        return {**super().layer_extras(runs), "mc.rel_stderr_max": max(rel, default=0.0)}


class TheorySchedule(Workload):
    """``mdlab theory --scales`` on one lognormal schedule for four families."""

    name = "theory_schedule"
    FAMILIES = (
        {"family": "student_t", "nu": 5.0},
        {"family": "centered_exponential", "rate": 1.0},
        {"family": "uniform", "half_width": 1.0},
        TWOPOINT,
    )
    X = 2.0

    def prepare(self, run_dir, seed):
        length = 200 if self.tiny else 2_500
        self.scales = np.random.default_rng(seed).lognormal(0.0, 0.5, length).tolist()
        self.scales_path = os.path.join(run_dir, "scales.json")
        with open(self.scales_path, "w") as fh:
            json.dump(self.scales, fh)

    def run(self, rep_dir):
        return [
            call_cli([
                "theory", "--dist", json.dumps(lit), "--n", str(len(self.scales)),
                "--x", repr(self.X), "--scales", self.scales_path,
            ])
            for lit in self.FAMILIES
        ]

    def reference(self):
        import reference

        return [reference.theory_quantities(lit, np.array(self.scales), self.X) for lit in self.FAMILIES]

    def check(self, runs, refs, baseline):
        return [
            (f"theory[{lit['family']}]", self._check_op(run, base, ref))
            for lit, run, base, ref in zip(self.FAMILIES, runs, baseline, refs)
        ]

    @staticmethod
    def _check_op(run, base, ref):
        payload, reason = parse_stdout(run)
        if reason:
            return reason
        for key, want in ref.items():
            got = payload.get(key)
            if isinstance(want, float):
                if not close(got, want):
                    return f"{key} {got!r} != reference {want!r}"
            elif got != want:
                return f"{key} {got!r} != reference {want!r}"
        return _same_as_baseline(run, base)


WORKLOADS = {cls.name: cls for cls in (SweepOracle, SimulateMC, TheorySchedule)}
