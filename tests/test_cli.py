"""Command line surface: payload schemas, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import mdlab
from mdlab.cli import main
from mdlab.experiments import CSV_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theory_payload(capsys):
    code, out, _ = run_cli(
        capsys, "theory", "--dist", "rademacher", "--n", "100", "--x", "2",
        "--r", "1", "--delta", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "bn2", "lnr", "dnr", "delta_nx", "n0", "gamma", "epsilon", "m",
        "a0_ok", "bor_ok", "range_ok",
    ]
    assert payload["delta_nx"] == pytest.approx(0.8, abs=1e-12)
    assert payload["m"] == 2
    assert payload["range_ok"] is True


def test_theory_json_dist_literal(capsys):
    code, out, _ = run_cli(
        capsys, "theory", "--dist", '{"family": "uniform", "half_width": 1.7320508075688772}',
        "--n", "64", "--x", "1.5",
    )
    assert code == 0
    assert json.loads(out)["bn2"] == pytest.approx(64.0, rel=1e-12)


def test_theory_with_scales_file(tmp_path, capsys):
    scales_path = tmp_path / "scales.json"
    scales_path.write_text(json.dumps([1.0, 2.0, 3.0]))
    code, out, _ = run_cli(
        capsys, "theory", "--dist", "rademacher", "--n", "3", "--x", "1.0",
        "--scales", str(scales_path),
    )
    assert code == 0
    assert json.loads(out)["bn2"] == pytest.approx(14.0, rel=1e-14)
    # wrong length, or an entry that is not a finite number, is a config error
    for bad in ([1.0, 2.0], [None, 1.0, 2.0], [True, "2", 3.0], [1.0, 2.0, 1e400]):
        scales_path.write_text(json.dumps(bad))
        code, out, _ = run_cli(
            capsys, "theory", "--dist", "rademacher", "--n", "3", "--x", "1.0",
            "--scales", str(scales_path),
        )
        assert (code, out) == (2, ""), bad


def test_enumerate_payload(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dist", "rademacher", "--n", "4", "--x", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "p_max": 0.375, "p_sum": 0.3125, "n": 4, "x": 1.0, "method": "enumeration"
    }
    assert list(payload) == ["p_max", "p_sum", "n", "x", "method"]


@pytest.mark.parametrize("x", ["nan", "inf", "-inf", "-0.5"])
def test_enumerate_bad_x_is_config_error(capsys, x):
    code, out, err = run_cli(capsys, "enumerate", "--dist", "rademacher", "--n", "4", f"--x={x}")
    assert code == 2
    assert out == ""
    assert "x must be finite and >= 0" in err


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["theory", "--dist", "rademacher", "--n", "10"],
        ["simulate", "--dist", "rademacher", "--n", "10", "--samples", "2000"],
        ["simulate", "--dist", "uniform", "--n", "10", "--samples", "2000", "--method", "tilted"],
    ],
)
def test_nonfinite_x_is_config_error(capsys, argv, x):
    code, out, err = run_cli(capsys, *argv, f"--x={x}")
    assert code == 2
    assert out == ""
    assert "x must be" in err


@pytest.mark.parametrize(
    "flag", ["--r=nan", "--delta=nan", "--delta=inf"]
)
def test_theory_nonfinite_r_delta_is_config_error(capsys, flag):
    code, out, _ = run_cli(capsys, "theory", "--dist", "rademacher", "--n", "10", "--x", "2", flag)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "value", ['"abc"', "null", "true", "[1.0]", "NaN", "Infinity", "1e999"]
)
def test_dist_parameter_must_be_a_finite_number(capsys, value):
    lit = '{"family": "rademacher", "scale": %s}' % value
    code, out, err = run_cli(capsys, "theory", "--dist", lit, "--n", "10", "--x", "1")
    assert code == 2
    assert out == ""
    assert "rademacher scale must be a finite number" in err


@pytest.mark.parametrize(
    "flag, code",
    [
        ("--a0-constant=0", 2),
        ("--a0-constant=-1", 2),
        ("--a0-constant=nan", 2),
        ("--a0-constant=inf", 2),
        ("--delta=1e300", 3),
        ("--x=1e200", 3),
        ("--x=1e-320", 3),
    ],
)
def test_theory_at_the_ends_of_the_float_range(capsys, flag, code):
    argv = ["theory", "--dist", "rademacher", "--n", "10", "--x", "2", flag]
    assert run_cli(capsys, *argv)[:2] == (code, "")


def _refuse_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


_PARAMS = {cls.family: [f.name for f in dataclasses.fields(cls)] for cls in (
    mdlab.Rademacher, mdlab.TwoPoint, mdlab.Uniform, mdlab.CenteredExponential, mdlab.StudentT
)}


@st.composite
def cli_argv(draw):
    family = draw(st.sampled_from(sorted(_PARAMS)))
    literal = {"family": family}
    for key in _PARAMS[family]:
        if draw(st.booleans()):
            literal[key] = draw(st.one_of(st.floats(), st.text(max_size=3), st.none(), st.booleans()))
    command = draw(st.sampled_from(["theory", "enumerate", "simulate"]))
    argv = [command, "--dist", json.dumps(literal), f"--x={draw(st.floats())!r}"]
    scales = None  # the content of a --scales file, when one is given
    if command == "theory":
        scales = draw(st.none() | st.floats() | st.lists(st.floats(), min_size=1, max_size=6) | st.lists(
            st.one_of(st.floats(), st.integers(), st.none(), st.booleans(), st.text(max_size=3)),
            min_size=1, max_size=6,
        ))
        n = len(scales) if isinstance(scales, list) else draw(st.integers(1, 10**24))
        argv.append(f"--n={n}")
        argv += [f"{flag}={draw(st.floats())!r}" for flag in ("--r", "--delta", "--a0-constant")]
    else:
        argv.append(f"--n={draw(st.integers(1, 6))}")
    if command == "simulate":
        argv += [
            f"--samples={draw(st.integers(1000, 2000))}",
            f"--workers={draw(st.integers(1, 3))}",  # each worker is a thread
            f"--method={draw(st.sampled_from(['naive', 'tilted']))}",
        ]
    return argv, scales


_THEORY = ["theory", "--dist", "rademacher", "--n=10", "--x=2"]
_SCALED = ["theory", "--dist", "rademacher", "--n=2", "--x=1"]


@settings(max_examples=300, deadline=None)
@given(cli_argv())
@example((_THEORY + ["--a0-constant=0"], None))
@example((_THEORY + ["--a0-constant=nan"], None))
@example((_THEORY + ["--a0-constant=inf"], None))
@example((_THEORY + ["--delta=1e300"], None))
@example((_THEORY[:-1] + ["--x=1e200"], None))
@example((_THEORY[:-1] + ["--x=1e-320"], None))
@example((_SCALED, [None, 1.0]))
@example((_SCALED, [True, "2"]))
@example((_SCALED, [1e308, 1e308]))
@example((["simulate", "--dist", '{"family": "uniform", "half_width": 1e150}', "--n=4",
           "--x=1e200", "--samples=1000"], None))
def test_fuzz_exit_codes_and_strict_json(case):
    argv, scales = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if scales is not None:
            path = os.path.join(tmp, "scales.json")
            with open(path, "w") as fh:
                json.dump(scales, fh)
            argv = argv + ["--scales", path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


def test_simulate_payload(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--dist", "rademacher", "--n", "16", "--x", "1",
        "--samples", "2000", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"max", "sum"}
    for event in ("max", "sum"):
        est = payload[event]
        assert list(est) == ["p_hat", "stderr", "n_samples", "method", "seed", "event"]
        assert est["n_samples"] == 2000
        assert est["seed"] == 5
        assert est["event"] == event
    assert payload["sum"]["p_hat"] <= payload["max"]["p_hat"]


def test_zero_samples_is_config_error(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--dist", "rademacher", "--n", "4", "--x", "1",
        "--samples", "0",
    )
    assert code == 2
    assert out == ""
    assert "1000" in err


def test_unknown_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "theory", "--dist", "rademacher", "--frobnicate", "1")
    assert code == 2
    assert "usage" in err


def test_unknown_family_exits_2(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--dist", "cauchy", "--n", "4", "--x", "1")
    assert code == 2
    assert "family" in err


def test_budget_exceeded_exits_3(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--dist", "rademacher", "--n", "30", "--x", "1")
    assert code == 3
    assert "budget" in err


def test_tilt_unsupported_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--dist", "centered_exponential", "--n", "8", "--x", "1",
        "--samples", "2000", "--method", "tilted",
    )
    assert code == 3
    assert "naive" in err


def test_identical_invocations_identical_stdout(capsys):
    argv = [
        "simulate", "--dist", "rademacher", "--n", "32", "--x", "1.5",
        "--samples", "4096", "--seed", "17", "--method", "tilted",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    # worker count must not change the bytes either
    _, out3, _ = run_cli(capsys, *(argv + ["--workers", "4"]))
    assert out3 == out1


def test_seed_default_is_fixed(capsys):
    argv = ["simulate", "--dist", "rademacher", "--n", "8", "--x", "1", "--samples", "2000"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    assert json.loads(out1)["max"]["seed"] == 715517


def test_sweep_subcommand(tmp_path, capsys):
    config = {
        "dist": {"family": "rademacher", "scale": 1.0},
        "n_grid": [16, 64, 256],
        "x_values": [1.5],
        "engine": "oracle",
        "seed": 7,
        "output": str(tmp_path / "s.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--workers", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 3
    assert payload["csv"] == config["output"]
    assert payload["report"]["trajectories"][0]["trend"] == "decreasing"
    header = (tmp_path / "s.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS) == (
        "n,x,p_max,p_sum,tail,ratio_max,ratio_sum,ci_low,ci_high,probe,"
        "delta_nx,dnr,n0,epsilon,method,samples,seed"
    )


def test_sweep_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2


_SWEEP = '{"dist": %s, "n_grid": %s, "x_values": %s, "output": "out/q.csv"%s}'


@pytest.mark.parametrize(
    "text, code",
    [
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1.0]", ', "seed": "abc"'), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1.0]", ', "mc_samples": "1e5"'), 2),
        (_SWEEP % ('{"family": "rademacher"}', '["a"]', "[1.0]", ""), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1.0]", ', "r": null'), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[1.5]", "[1.0]", ""), 2),
        (_SWEEP % ('{"family": "rademacher", "scale": "x"}', "[4]", "[1.0]", ""), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[NaN]", ""), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1e400]", ""), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[41]", ""), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1.0]", ', "a0_constant": 0'), 2),
        ('{"dist": {"family": "rademacher"}, "n_grid": [4], "x_c": [1.0], "x_power": NaN, '
         '"output": "out/q.csv"}', 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1.0, 38]", ""), 3),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[39]", ""), 3),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1.0]", ', "delta": 1e300'), 3),
        (_SWEEP % ('{"family": "student_t"}', "[4]", "[1.0]",
                   ', "engine": "mc", "mc_method": "tilted"'), 3),
        (_SWEEP % ('{"family": "uniform"}', "[4]", "[1.0]", ', "mc_fallback": false'), 3),
        (_SWEEP % ('{"family": "twopoint"}', "[4, 300]", "[1.0]", ', "mc_fallback": false'), 3),
    ],
)
def test_sweep_config_is_checked_before_any_file_is_written(tmp_path, monkeypatch, capsys, text, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    assert run_cli(capsys, "sweep", "--config", "cfg.json")[:2] == (code, "")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mdlab", "enumerate", "--dist", "rademacher",
         "--n", "4", "--x", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p_max"] == 0.375


def test_cli_import_loads_neither_quadrature_nor_stats():
    src = os.path.dirname(os.path.dirname(mdlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, mdlab.cli; print([m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
