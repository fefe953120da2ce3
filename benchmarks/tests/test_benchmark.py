"""Tests of the benchmark itself.

Tiny runs of every workload must emit every metric of BENCHMARK.json with
its unit, and each output check must fire on a wrong output. Run from the
root of a checkout::

    python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import OpRun  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name

    info = json.loads(lines[-2])
    prov = info["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "seed", "workers"):
        assert key in prov, key
    assert 1 <= prov["workers"] <= prov["nproc"]
    if trace:
        assert info["details"]["counts_repeat"] is True


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = run_benchmark(str(tmp_path), "--workload", NAMES[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the checks fire ----------------------------------------------------------


@pytest.fixture(scope="module", params=NAMES)
def tiny_pass(request, tmp_path_factory):
    """One checked pass of a tiny workload: (workload, runs, refs)."""
    work = tmp_path_factory.mktemp(request.param)
    wl = workloads.WORKLOADS[request.param]("tiny", 1)
    wl.prepare(str(work), 11)
    os.mkdir(work / "pass0")
    runs = wl.run(str(work / "pass0"))
    refs = wl.reference()
    assert all(reason is None for _, reason in wl.check(runs, refs, runs))
    return wl, runs, refs


def failed(wl, runs, refs, baseline=None):
    return sum(reason is not None for _, reason in wl.check(runs, refs, baseline or runs))


def test_nonzero_exit_fails_the_op(tiny_pass):
    wl, runs, refs = tiny_pass
    bad = list(runs)
    bad[0] = OpRun(2, "", "mdlab: bad input", 0.1, runs[0].artifact)
    assert failed(wl, bad, refs) >= 1


def test_nan_on_stdout_fails_the_op(tiny_pass):
    wl, runs, refs = tiny_pass
    payload = json.loads(runs[0].stdout)
    text = runs[0].stdout
    for key in ("bn2", "rows", "max"):
        if key in payload:
            text = json.dumps({**payload, key: float("nan")})
            break
    assert "NaN" in text
    bad = [OpRun(0, text, "", runs[0].wall, runs[0].artifact)] + list(runs[1:])
    assert failed(wl, bad, refs) >= 1


def test_perturbed_reference_fails_the_op(tiny_pass):
    wl, runs, refs = tiny_pass
    bad = copy.deepcopy(refs)
    if isinstance(wl, workloads.TheorySchedule):
        bad[0]["delta_nx"] *= 1 + 1e-6
    elif isinstance(wl, workloads.SimulateMC):
        payload = json.loads(runs[0].stdout)
        shift = 10 * payload["max"]["stderr"]
        kind, (p_max, p_sum) = bad[0]
        bad[0] = (kind, (p_max + shift, p_sum))
    else:
        p_max, p_sum = bad[0][0]
        bad[0][0] = (p_max * (1 + 1e-6), p_sum)
    assert failed(wl, runs, bad) == 1


def test_output_that_differs_between_passes_fails(tiny_pass):
    wl, runs, refs = tiny_pass
    other = list(runs)
    other[0] = OpRun(0, runs[0].stdout + " ", "", runs[0].wall, runs[0].artifact)
    assert failed(wl, runs, refs, baseline=other) >= 1


def test_sweep_missing_rows_fail_each_row(tmp_path):
    wl = workloads.SweepOracle("tiny", 1)
    wl.prepare(str(tmp_path), 5)
    os.mkdir(tmp_path / "pass0")
    runs = wl.run(str(tmp_path / "pass0"))
    refs = wl.reference()
    lines = runs[0].artifact.split("\n")
    cut = OpRun(0, runs[0].stdout, "", runs[0].wall, "\n".join(lines[:3]) + "\n")
    n_rows = len(wl.sweeps[0][2])
    assert failed(wl, [cut] + runs[1:], refs, [cut] + runs[1:]) == n_rows


def test_sweep_refuses_a_used_directory(tmp_path):
    """A second pass in the same directory would resume and skip every row."""
    wl = workloads.SweepOracle("tiny", 1)
    wl.prepare(str(tmp_path), 5)
    os.mkdir(tmp_path / "pass0")
    wl.run(str(tmp_path / "pass0"))
    with pytest.raises(ValueError):
        wl.run(str(tmp_path / "pass0"))


# -- references ---------------------------------------------------------------


def brute_force(values, probs, n, x):
    p_max = p_sum = 0.0
    for path in itertools.product(range(len(values)), repeat=n):
        steps = [values[i] for i in path]
        weight = math.prod(probs[i] for i in path)
        level = x * math.sqrt(sum(s * s for s in steps)) - 1e-9
        partial = list(itertools.accumulate(steps))
        p_max += weight * (max(partial) >= level)
        p_sum += weight * (partial[-1] >= level)
    return p_max, p_sum


@pytest.mark.parametrize("n,x", [(6, 1.0), (9, 0.7), (10, 1.5), (12, 2.0)])
def test_twopoint_reference_matches_brute_force(n, x):
    want = brute_force([2.0, -1.0], [1 / 3, 2 / 3], n, x)
    got = reference.twopoint_exact(2.0, 1.0, n, x)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n,x", [(9, 1.0), (16, 1.5), (256, 2.5)])
def test_reflection_matches_the_twopoint_recursion(n, x):
    assert reference.rademacher_exact(n, x) == pytest.approx(
        reference.twopoint_exact(1.0, 1.0, n, x), rel=1e-12)


@pytest.mark.parametrize("literal", workloads.TheorySchedule.FAMILIES, ids=lambda lit: lit["family"])
@pytest.mark.parametrize("side", ["below", "above"])
def test_closed_form_moments_match_mdlab(literal, side):
    from mdlab.distributions import from_literal

    dist = from_literal(literal)
    levels = np.array([0.3, 1.0, 2.7, 9.0])
    for p in (2.0, 3.0):
        got = reference.truncated_abs_moment(literal, p, levels, side)
        want = [dist.truncated_abs_moment(p, c, side) for c in levels]
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# -- tracing ------------------------------------------------------------------


def test_tracer_wraps_every_alias_and_keeps_parents_across_the_pool(tmp_path):
    import mdlab.cli
    import mdlab.experiments
    import mdlab.oracle

    original = mdlab.oracle.lattice_dp_max
    t = tracer.Tracer()
    t.install()
    try:
        assert mdlab.experiments.lattice_dp_max is mdlab.oracle.lattice_dp_max is not original
        run = workloads.call_cli(["simulate", "--dist", "rademacher", "--n", "8", "--x", "1",
                                  "--samples", str(3 << 16), "--workers", "2"])
    finally:
        t.uninstall()
    assert run.rc == 0
    assert mdlab.oracle.lattice_dp_max is original
    by_id = {s[0]: s for s in t.spans}
    samples = [s for s in t.spans if s[2] == "distributions.Rademacher.sample"]
    assert len(samples) == 3 * 8
    for s in samples:
        task = by_id[s[1]]
        assert task[2] == tracer.POOL_TASK and by_id[task[1]][2] == "mc.simulate"
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["mc.path_steps"] == metrics["distributions.draws"] == 3 * 8 << 16
    assert 0 < metrics["mc.pool_efficiency"] <= 1


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "cli.main", "cli", 1, 0.0, 10.0, None),
        (2, 1, "mc.simulate", "mc", 1, 1.0, 9.0, 100),
        (3, 2, tracer.POOL_TASK, None, 2, 2.0, 6.0, 2),
        (4, 2, tracer.POOL_TASK, None, 3, 3.0, 8.0, 2),
        (5, 3, "distributions.Uniform.sample", "distributions", 2, 2.0, 3.0, 10),
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    # simulate: 8 s less the 6 s the tasks cover; tasks: 9 s less 1 s sampling
    assert m["mc.kernel_s"] == pytest.approx(2.0 + 8.0)
    assert m["mc.pool_efficiency"] == pytest.approx(9.0 / (2 * 8.0))
    assert m["distributions.draws"] == 10
