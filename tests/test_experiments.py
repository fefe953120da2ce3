"""Sweep runner: CSV schema, resumability, reproducibility, reporting."""

import json
import math
import os
import platform
import time

import numpy as np
import pytest
import scipy

from mdlab import SequenceSpec, TwoPoint, experiments
from mdlab.distributions import STREAM_VERSION
from mdlab.errors import BudgetExceededError, ConfigError
from mdlab.experiments import (
    CSV_COLUMNS,
    RatioRow,
    SweepConfig,
    convergence_report,
    run_sweep,
)
from mdlab.oracle import enumerate_exact, lattice_dp_max, twopoint_dp
from mdlab.theory import normal_tail

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
HEADER = (
    "n,x,p_max,p_sum,tail,ratio_max,ratio_sum,ci_low,ci_high,probe,"
    "delta_nx,dnr,n0,epsilon,method,samples,seed"
)


def oracle_cfg(tmp_path, name="o.csv", **overrides):
    raw = {
        "dist": {"family": "rademacher", "scale": 1.0},
        "n_grid": [16, 64, 256],
        "x_values": [1.0],
        "engine": "oracle",
        "seed": 333,
        "output": str(tmp_path / name),
    }
    raw.update(overrides)
    return SweepConfig.from_dict(raw)


def mc_cfg(tmp_path, name="m.csv", **overrides):
    raw = {
        "dist": {"family": "rademacher", "scale": 1.0},
        "n_grid": [16, 64],
        "x_values": [1.0, 1.5],
        "engine": "mc",
        "mc_method": "naive",
        "mc_samples": 4096,
        "seed": 99,
        "output": str(tmp_path / name),
    }
    raw.update(overrides)
    return SweepConfig.from_dict(raw)


def test_oracle_sweep_rows_and_schema(tmp_path):
    cfg = oracle_cfg(tmp_path)
    rows = run_sweep(cfg)
    assert len(rows) == 3
    text = (tmp_path / "o.csv").read_text()
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS) == HEADER
    for row, n in zip(rows, (16, 64, 256)):
        exact = lattice_dp_max(n, 1.0)
        assert row.method == "lattice_dp"
        assert row.samples == 0
        assert row.p_max == exact.p_max
        assert row.p_sum == exact.p_sum
        assert row.tail == normal_tail(1.0)
        assert row.ratio_max == pytest.approx(row.p_max / row.tail, rel=1e-15)
        assert row.ratio_sum <= row.ratio_max
        assert row.ci_low == row.ci_high == row.ratio_max  # oracle rows: width 0
    manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert manifest["config_hash"] == cfg.config_hash()
    assert manifest["columns"] == CSV_COLUMNS
    assert manifest["seed"] == 333
    assert manifest["stream_version"] == STREAM_VERSION
    assert "tool_version" in manifest
    assert (manifest["python"], manifest["numpy"], manifest["scipy"]) == (
        platform.python_version(), np.__version__, scipy.__version__)


def test_readme_documents_the_csv_header():
    with open(README) as fh:
        assert HEADER in fh.read().splitlines()


def test_config_hash_pinned():
    cfg = SweepConfig.from_dict({
        "dist": {"family": "twopoint", "a": 2.0, "b": 1.0}, "n_grid": [8, 30],
        "x_c": [0.5, 1.0], "x_power": 0.2, "r": 0.5, "delta": 2.0, "tau": 1.5,
        "engine": "mc", "mc_method": "tilted", "mc_samples": 4096,
        "mc_fallback": False, "seed": 99, "a0_constant": 3.0, "workers": 2,
        "output": "x.csv",
    })
    # resume compares this digest with existing manifests: it must not drift
    assert cfg.config_hash() == "d5ac707b1fedfb816161af4c976ccab4eaf31fd919a352504e91e32c969a67d4"


def test_csv_line_pinned():
    row = RatioRow(
        n=8, x=0.1, p_max=1 / 3, p_sum=0.2, tail=0.46017216272297101, ratio_max=2.0,
        ratio_sum=1e-300, ci_low=0.0, ci_high=math.inf, probe=-0.25, delta_nx=0.5,
        dnr=1.0, n0=3, epsilon=math.nan, method="tilted", samples=4096, seed=715517,
    )
    line = (
        "8,0.10000000000000001,0.33333333333333331,0.20000000000000001,"
        "0.46017216272297101,2,1e-300,0,inf,-0.25,0.5,1,3,nan,tilted,4096,715517"
    )
    assert row.to_csv_line() == line
    assert RatioRow.from_csv_line(line).to_csv_line() == line


def test_csv_round_trip(tmp_path):
    rows = run_sweep(oracle_cfg(tmp_path, name="rt.csv"))
    for row in rows:
        assert RatioRow.from_csv_line(row.to_csv_line()) == row


def test_rerun_is_byte_identical(tmp_path):
    cfg = oracle_cfg(tmp_path, name="a.csv")
    run_sweep(cfg)
    first = (tmp_path / "a.csv").read_bytes()
    run_sweep(cfg)  # resume over a complete file recomputes nothing
    assert (tmp_path / "a.csv").read_bytes() == first


def test_interrupted_resume_matches_uninterrupted(tmp_path):
    cfg_full = mc_cfg(tmp_path, name="full.csv")
    run_sweep(cfg_full)
    full_bytes = (tmp_path / "full.csv").read_bytes()

    cfg_part = mc_cfg(tmp_path, name="part.csv")
    partial = run_sweep(cfg_part, stop_after_rows=2)
    assert len(partial) == 2
    resumed = run_sweep(cfg_part)
    assert len(resumed) == 4
    assert (tmp_path / "part.csv").read_bytes() == full_bytes


def test_resume_discards_partial_trailing_line(tmp_path):
    cfg_full = mc_cfg(tmp_path, name="ref.csv")
    run_sweep(cfg_full)
    ref = (tmp_path / "ref.csv").read_bytes()

    cfg = mc_cfg(tmp_path, name="cut.csv")
    run_sweep(cfg, stop_after_rows=3)
    path = tmp_path / "cut.csv"
    content = path.read_text()
    path.write_text(content + "64,1.5,0.123")  # torn write, no newline
    run_sweep(cfg)
    assert path.read_bytes() == ref


def test_orphan_csv_without_manifest_is_refused(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("precious,data\n1,2\n")
    before = path.read_bytes()
    with pytest.raises(ConfigError, match="without its manifest"):
        run_sweep(oracle_cfg(tmp_path, name="orphan.csv"))
    assert path.read_bytes() == before
    assert not (tmp_path / "orphan.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "edit, match",
    [
        pytest.param(lambda lines: lines[:2] + ["999" + lines[2][2:]] + lines[3:],
                     r"row 1 is for \(n=999", id="n"),
        pytest.param(lambda lines: lines[:2] + [lines[2].replace(",1,", ",1.25,", 1)] + lines[3:],
                     r"row 1 is for \(n=64, x=1.25\)", id="x"),
        pytest.param(lambda lines: lines[:2] + ["64,1,oops"] + lines[3:],
                     "malformed CSV row", id="malformed"),
        pytest.param(lambda lines: lines + [lines[-1]], "more rows", id="extra_row"),
    ],
)
def test_resume_refuses_rows_that_do_not_match_the_jobs(tmp_path, edit, match):
    cfg = oracle_cfg(tmp_path, name="ed.csv")
    run_sweep(cfg)
    path = tmp_path / "ed.csv"
    lines = path.read_text().splitlines()
    assert lines[2].startswith("64,1,")
    path.write_text("\n".join(edit(lines)) + "\n")
    before = path.read_bytes()
    with pytest.raises(ConfigError, match=match):
        run_sweep(cfg)
    assert path.read_bytes() == before


def test_worker_counts_byte_identical(tmp_path):
    outputs = []
    for w in (1, 2, 8):
        cfg = mc_cfg(tmp_path, name=f"w{w}.csv")
        run_sweep(cfg, workers=w)
        outputs.append((tmp_path / f"w{w}.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_failing_row_does_not_compute_the_queued_rows(tmp_path, monkeypatch):
    calls = []
    real = experiments.compute_row

    def flaky(cfg, idx, n, x):
        calls.append(idx)
        if idx == 1:
            raise BudgetExceededError("row 1 fails")
        if idx > 1:
            time.sleep(0.1)  # the failure surfaces while the later rows run
        return real(cfg, idx, n, x)

    monkeypatch.setattr(experiments, "compute_row", flaky)
    cfg = oracle_cfg(tmp_path, n_grid=list(range(1, 21)))
    with pytest.raises(BudgetExceededError):
        run_sweep(cfg, workers=2)
    assert len(calls) <= 2 + 2  # the rows already running, never the queue
    assert (tmp_path / "o.csv").read_text() == HEADER + "\n" + real(cfg, 0, 1, 1.0).to_csv_line() + "\n"


def test_config_hash_mismatch_refuses(tmp_path):
    run_sweep(oracle_cfg(tmp_path, name="h.csv"))
    changed = oracle_cfg(tmp_path, name="h.csv", seed=334)
    with pytest.raises(ConfigError, match="different config"):
        run_sweep(changed)


def test_workers_and_output_not_in_hash(tmp_path):
    a = oracle_cfg(tmp_path, name="p.csv", workers=1)
    b = oracle_cfg(tmp_path, name="q.csv", workers=8)
    assert a.config_hash() == b.config_hash()


def test_x_zero_row(tmp_path):
    cfg = oracle_cfg(tmp_path, name="z.csv", n_grid=[16], x_values=[0.0])
    (row,) = run_sweep(cfg)
    assert row.tail == 0.5
    assert row.ratio_max == pytest.approx(2.0 * row.p_max, rel=1e-15)
    assert row.n0 == 0 and row.delta_nx == 0.0 and math.isinf(row.epsilon)


def test_probe_reduces_for_unit_moments(tmp_path):
    # Rademacher has E X^2 = E|X|^3 = 1: probe = (ratio_max - 2)/(1 + x^3)
    cfg = oracle_cfg(tmp_path, name="pr.csv", n_grid=[64], x_values=[1.5])
    (row,) = run_sweep(cfg)
    assert row.probe == pytest.approx((row.ratio_max - 2.0) / (1.0 + 1.5**3), rel=1e-13)


def test_embedded_theory_fields_match_theory_module(tmp_path):
    from mdlab import Rademacher, SequenceSpec, compute_quantities

    cfg = oracle_cfg(tmp_path, name="th.csv", n_grid=[64, 256], x_values=[1.5])
    for row in run_sweep(cfg):
        q = compute_quantities(SequenceSpec(Rademacher(1.0), row.n), row.x, 1.0, 1.0)
        assert row.delta_nx == q.delta_nx
        assert row.dnr == q.dnr
        assert row.n0 == q.n0
        assert row.epsilon == q.epsilon
        assert row.delta_nx >= 0.0 and row.dnr > 0.0


def test_symmetric_oracle_rows_reflection_inequality(tmp_path):
    # for the symmetric lattice walk, p_max = 2 p_sum - P(S_n = barrier),
    # so ratio_max <= 2 ratio_sum
    cfg = oracle_cfg(tmp_path, name="refl.csv", n_grid=[16, 64, 256], x_values=[0.5, 1.5])
    for row in run_sweep(cfg):
        assert row.ratio_max <= 2.0 * row.ratio_sum + 1e-12


def test_oracle_twopoint_rows_run_the_dp(tmp_path):
    # n = 100 ran Monte Carlo while TwoPoint rows were enumerated; rows past
    # the DP's budget still fall back to it
    cfg = oracle_cfg(
        tmp_path, name="tp.csv", dist={"family": "twopoint", "a": 2.0, "b": 1.0},
        n_grid=[10, 100, 256], x_values=[1.0], mc_samples=1000,
    )
    small, mid, big = run_sweep(cfg)
    assert [r.method for r in (small, mid, big)] == ["lattice_dp", "lattice_dp", "naive"]
    assert small.samples == mid.samples == 0
    enum = enumerate_exact(SequenceSpec(TwoPoint(2.0, 1.0), 10), 1.0)
    assert small.p_max == pytest.approx(enum.p_max, rel=1e-13)
    assert small.p_sum == pytest.approx(enum.p_sum, rel=1e-13)
    exact = twopoint_dp(100, 1.0, 2.0, 1.0)
    assert (mid.p_max, mid.p_sum) == (exact.p_max, exact.p_sum)
    assert mid.ci_low == mid.ci_high == mid.ratio_max


def test_oracle_twopoint_far_apart_steps(tmp_path):
    # one step of 1e-13 next to 1: exact, not swallowed by the tie cut, where
    # reaching 1.3 V_n takes two ups
    cfg = oracle_cfg(
        tmp_path, name="far.csv", dist={"family": "twopoint", "a": 1.0, "b": 1e-13},
        n_grid=[30], x_values=[1.3],
    )
    (row,) = run_sweep(cfg)
    assert (row.method, row.samples) == ("lattice_dp", 0)
    p = 1e-13 / (1.0 + 1e-13)
    two_ups = math.fsum(math.comb(30, m) * p**m * (1.0 - p) ** (30 - m) for m in range(2, 31))
    assert row.p_max == pytest.approx(two_ups, rel=1e-12, abs=0.0)


def test_oracle_rademacher_exact_at_any_n(tmp_path):
    cfg = oracle_cfg(
        tmp_path, name="big.csv", n_grid=[100_001, 10**6, 2**30], x_values=[1.5], mc_fallback=False,
    )
    for row, n in zip(run_sweep(cfg), (100_001, 10**6, 2**30)):
        assert row.method == "lattice_dp"
        assert row.samples == 0
        assert row.p_max == lattice_dp_max(n, 1.5).p_max


def test_oracle_falls_back_to_mc(tmp_path):
    cfg = oracle_cfg(
        tmp_path, name="fb.csv", dist={"family": "uniform", "half_width": 1.0},
        n_grid=[16], x_values=[1.0], mc_samples=2000,
    )
    (row,) = run_sweep(cfg)
    assert row.method == "naive"
    assert row.samples == 2000
    assert row.ci_low <= row.ratio_max <= row.ci_high


def test_oracle_budget_error_without_fallback(tmp_path):
    # refused with the config, before run_sweep could write a file
    with pytest.raises(BudgetExceededError):
        run_sweep(oracle_cfg(
            tmp_path, name="nf.csv", dist={"family": "uniform", "half_width": 1.0},
            n_grid=[16], x_values=[1.0], mc_fallback=False,
        ))
    with pytest.raises(BudgetExceededError):  # past the closed form's range
        run_sweep(oracle_cfg(tmp_path, n_grid=[2**30, 2**30 + 1], mc_fallback=False))
    assert os.listdir(tmp_path) == []


def test_monte_carlo_rows_past_the_path_step_budget_are_refused(tmp_path):
    # 2^31 steps of 1000 paths: the fallback past the closed form's range,
    # refused with the config, not when its row builds 2^31 unit scales
    with pytest.raises(BudgetExceededError, match="path-steps"):
        oracle_cfg(tmp_path, n_grid=[16, 2**31], mc_samples=1000)
    with pytest.raises(BudgetExceededError, match="path-steps"):
        mc_cfg(tmp_path, n_grid=[16, 2**24], mc_samples=1025)
    mc_cfg(tmp_path, n_grid=[16, 2**24], mc_samples=1024)  # 2^34 path-steps: checked only
    oracle_cfg(tmp_path, n_grid=[2**30], mc_samples=10**6)  # an exact row draws no path
    assert os.listdir(tmp_path) == []


def _edit_manifest(cfg, edit):
    with open(cfg.manifest_path()) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(cfg.manifest_path(), "w") as fh:
        json.dump(manifest, fh)


def _set_manifest_stream_version(cfg, version):
    """Rewrite the manifest as a run of stream ``version`` left it; None
    drops the key, as manifests written before it was recorded lack it."""
    def edit(manifest):
        manifest.pop("stream_version")
        if version is not None:
            manifest["stream_version"] = version

    _edit_manifest(cfg, edit)


@pytest.mark.parametrize("version", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("make_cfg, rows", [
    (mc_cfg, 2),
    # an exact row first, then a Monte Carlo fallback row: TwoPoint past n = 255
    (lambda tmp_path, name: oracle_cfg(tmp_path, name=name, dist={"family": "twopoint"},
                                       n_grid=[8, 300], mc_samples=2000), 2),
], ids=["mc", "fallback"])
def test_resume_refuses_monte_carlo_rows_of_another_stream_version(tmp_path, make_cfg, rows,
                                                                   version):
    cfg = make_cfg(tmp_path, name="v.csv")
    run_sweep(cfg, stop_after_rows=rows)
    _set_manifest_stream_version(cfg, version)
    files = [cfg.output, cfg.manifest_path()]
    before = [open(f, "rb").read() for f in files]
    with pytest.raises(ConfigError, match=f"stream version {version or 1}"):
        run_sweep(cfg)
    assert [open(f, "rb").read() for f in files] == before


@pytest.mark.parametrize("version", [None, 1, 2, 3, 4, 5])
def test_exact_rows_of_another_stream_version_resume(tmp_path, version):
    # only Monte Carlo rows depend on the stream; the rows still to come
    # are drawn by this one, and the manifest now says so
    full_cfg = oracle_cfg(tmp_path, name="full.csv", dist={"family": "twopoint"},
                          n_grid=[8, 12, 300], mc_samples=2000)
    full = run_sweep(full_cfg)
    assert [row.method for row in full] == ["lattice_dp", "lattice_dp", "naive"]
    cfg = oracle_cfg(tmp_path, name="old.csv", dist={"family": "twopoint"},
                     n_grid=[8, 12, 300], mc_samples=2000)
    run_sweep(cfg, stop_after_rows=2)
    _set_manifest_stream_version(cfg, version)
    assert run_sweep(cfg) == full
    with open(cfg.manifest_path()) as fh:
        assert json.load(fh)["stream_version"] == STREAM_VERSION
    assert run_sweep(cfg) == full  # and its Monte Carlo row resumes


@pytest.mark.parametrize("edit, warning", [
    (lambda m: m.update(numpy="0.0.0"), f"numpy 0.0.0 (now {np.__version__})"),
    (lambda m: m.update(python="2.7.0", scipy="0.1.0"),
     f"python 2.7.0 (now {platform.python_version()}), scipy 0.1.0 (now {scipy.__version__})"),
    # a manifest from before the versions were recorded resumes silently
    (lambda m: [m.pop(key) for key in ("python", "numpy", "scipy")], None),
], ids=["numpy", "python_and_scipy", "unrecorded"])
def test_resume_names_library_versions_that_differ(tmp_path, capsys, edit, warning):
    full_cfg = mc_cfg(tmp_path, name="full.csv")
    run_sweep(full_cfg)
    cfg = mc_cfg(tmp_path, name="v.csv")
    run_sweep(cfg, stop_after_rows=2)
    _edit_manifest(cfg, edit)
    manifest = open(cfg.manifest_path(), "rb").read()
    capsys.readouterr()
    assert run_sweep(cfg) == run_sweep(full_cfg)
    err = capsys.readouterr().err
    if warning is None:
        assert err == ""
    else:
        assert err.count("\n") == 1 and warning in err
    # the warning changes neither the CSV nor the manifest
    assert open(cfg.output, "rb").read() == open(full_cfg.output, "rb").read()
    assert open(cfg.manifest_path(), "rb").read() == manifest


def test_scaling_rule_default_power(tmp_path):
    cfg = oracle_cfg(tmp_path, name="sr.csv", x_values=None, x_c=[0.5, 1.0], r=1.0)
    jobs = cfg.jobs()
    # default exponent r/(4+2r) = 1/6
    assert jobs[0][2] == pytest.approx(0.5 * 16 ** (1.0 / 6.0), rel=1e-14)
    assert jobs[1][2] == pytest.approx(1.0 * 16 ** (1.0 / 6.0), rel=1e-14)
    assert len(jobs) == 6


def test_config_validation():
    base = {
        "dist": {"family": "rademacher"},
        "n_grid": [4, 8],
        "x_values": [1.0],
        "output": "x.csv",
    }
    SweepConfig.from_dict(base)
    for patch in (
        {"n_grid": [8, 4]},
        {"n_grid": [4, 4]},
        {"x_values": None, "x_c": None},
        {"x_values": [1.0], "x_c": [0.5]},
        {"engine": "exact"},
        {"mc_samples": 10},
        {"r": 1.5},
        {"bogus_key": 1},
        {"x_values": [-1.0]},
        {"mc_fallback": "false"},
        {"mc_fallback": 0},
        {"mc_fallback": None},
        {"seed": "abc"},
        {"seed": True},
        {"mc_samples": "1e5"},
        {"n_grid": ["a"]},
        {"n_grid": [1.5]},
        {"n_grid": 4},
        {"r": None},
        {"output": None},
        {"engine": None},
        {"x_values": [float("nan")]},
        {"x_values": [float("inf")]},
        {"x_values": None, "x_c": [0.5], "x_power": float("nan")},
        {"x_values": None, "x_c": [0.5], "x_power": 1e3, "n_grid": [10**6]},
        {"dist": {"family": "rademacher", "scale": "x"}},
        {"dist": {"family": "rademacher", "scale": 1e-300}},
        {"dist": "rademacher"},
        {"delta": 0.0},
        {"a0_constant": 0.0},
        {"a0_constant": float("inf")},
        {"tau": float("nan")},
        {"n_grid": [0, 4]},
        {"x_values": None, "x_c": [0.0]},
        {"x_values": None, "x_c": [0.5, -1.0]},
    ):
        bad = dict(base)
        bad.update(patch)
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(bad)
    with pytest.raises(ConfigError, match="output"):
        SweepConfig.from_dict({k: v for k, v in base.items() if k != "output"})
    with pytest.raises(ConfigError, match="workers"):
        run_sweep(SweepConfig.from_dict(base), workers=0)
    with pytest.raises(ConfigError, match=r"mc_method must be 'naive' or 'tilted', got 'exact'"):
        SweepConfig.from_dict({**base, "mc_method": "exact"})
    assert SweepConfig.from_dict({**base, "mc_fallback": False}).mc_fallback is False
    # integral floats are integers, integers are floats where floats are due
    cfg = SweepConfig.from_dict({**base, "mc_samples": 1e5, "n_grid": [4.0, 8], "r": 1})
    assert (cfg.mc_samples, cfg.n_grid, cfg.r) == (100_000, (4, 8), 1.0)
    assert type(cfg.mc_samples) is int and type(cfg.r) is float


# ---------------------------------------------------------------------------
# convergence report
# ---------------------------------------------------------------------------

def test_report_decreasing_oracle_trajectory(tmp_path):
    cfg = oracle_cfg(tmp_path, name="cr.csv", n_grid=[256, 1024, 4096], x_values=[1.5])
    rows = run_sweep(cfg)
    report = convergence_report(rows, delta=1.0)
    (traj,) = report["trajectories"]
    assert traj["x"] == 1.5
    assert traj["trend"] == "decreasing"
    assert traj["final_err_max"] <= traj["abs_err_max_ratio"][0]
    assert report["fitted_c"] is not None and report["fitted_c"] > 0.0


def test_report_flat_rows_have_no_fit():
    row = RatioRow(
        n=8, x=1.0, p_max=0.3, p_sum=0.2, tail=normal_tail(1.0),
        ratio_max=0.3 / normal_tail(1.0), ratio_sum=0.2 / normal_tail(1.0),
        ci_low=1.0, ci_high=1.0, probe=0.0, delta_nx=0.5, dnr=1.0, n0=0,
        epsilon=1.0, method="lattice_dp", samples=0, seed=1,
    )
    report = convergence_report([row, row, row], delta=1.0)
    (traj,) = report["trajectories"]
    assert traj["trend"] == "flat"
    assert report["fitted_c"] is None


def test_report_single_trajectory_for_scaling_rule(tmp_path):
    cfg = oracle_cfg(tmp_path, name="st.csv", x_values=None, x_c=[1.0])
    rows = run_sweep(cfg)
    report = convergence_report(rows, delta=1.0)
    (traj,) = report["trajectories"]
    assert traj["x"] is None
    assert traj["n"] == [16, 64, 256]


def test_report_needs_three_rows():
    with pytest.raises(ConfigError):
        convergence_report([], delta=1.0)
