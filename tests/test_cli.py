"""Command line surface: payload schemas, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mdlab
from mdlab.cli import main
from mdlab.experiments import CSV_COLUMNS, SweepConfig, run_sweep
from mdlab.oracle import lattice_dp_max

_TWOPOINT = {"family": "twopoint", "a": 2.0, "b": 1.0}


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
        "p_max": 0.375, "p_sum": 0.3125, "n": 4, "x": 1.0, "method": "lattice_dp"
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


@pytest.mark.parametrize("command", [["theory"], ["simulate", "--samples", "1000"]],
                         ids=["theory", "simulate"])
@pytest.mark.parametrize("rate, code", [(1e-160, 3), (1e300, 2)], ids=["overflows", "underflows"])
def test_exponential_variance_past_the_double_range(capsys, command, rate, code):
    # 1 / rate^2 overflows (exit 3) or rounds to 0, a degenerate law (exit 2)
    lit = json.dumps({"family": "centered_exponential", "rate": rate})
    argv = [*command, "--dist", lit, "--n", "8", "--x", "1"]
    assert run_cli(capsys, *argv)[:2] == (code, "")


def _refuse_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


_PARAMS = {cls.family: [f.name for f in dataclasses.fields(cls)] for cls in (
    mdlab.Rademacher, mdlab.TwoPoint, mdlab.Uniform, mdlab.CenteredExponential, mdlab.StudentT
)}


# family values that are not strings, hashable or not
_NOT_A_NAME = st.one_of(st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                        st.integers(), st.floats(), st.none())


@st.composite
def cli_argv(draw):
    family = draw(st.sampled_from(sorted(_PARAMS)))
    literal = {"family": family if draw(st.integers(0, 4)) else draw(_NOT_A_NAME)}
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
    elif command == "enumerate":  # past 24 steps only the closed form and the DP answer
        argv.append(f"--n={draw(st.integers(1, 6) | st.integers(1, 10**400))}")
    else:  # past 2^25 steps every --samples drawn here is over the path-step budget
        argv.append(f"--n={draw(st.integers(1, 6) | st.integers(2**25, 10**400))}")
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
@example((["theory", "--dist", '{"family": []}', "--n=4", "--x=1"], None))
@example((["enumerate", "--dist", '{"family": {}}', "--n=4", "--x=1"], None))
@example((["enumerate", "--dist", "rademacher", f"--n={10**23}", "--x=1"], None))
@example((["enumerate", "--dist", "rademacher", f"--n={10**400}", "--x=1"], None))
@example((["simulate", "--dist", "rademacher", f"--n={10**9}", "--x=1", "--samples=1000"], None))
@example((["simulate", "--dist", "rademacher", f"--n={10**400}", "--x=1", "--samples=1000",
           "--method=tilted"], None))
@example((["theory", "--dist", '{"a": ' * 5000, "--n=4", "--x=1"], None))
@example((["theory", "--dist", '{"family": "rademacher", "scale": %s}' % ("1" * 5000), "--n=4",
           "--x=1"], None))
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
    code, out, err = run_cli(capsys, "enumerate", "--dist", json.dumps(_TWOPOINT), "--n", "256",
                             "--x", "1")
    assert (code, out) == (3, "")
    assert "budget" in err


def test_enumerate_answers_rademacher_past_the_enumeration_budget(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dist", "rademacher", "--n", "30", "--x", "1")
    assert code == 0
    assert json.loads(out) == dataclasses.asdict(lattice_dp_max(30, 1.0))


@pytest.mark.parametrize("n", [2**30 + 1, 10**23, 10**400])
def test_enumerate_rademacher_past_the_closed_form_range_exits_3(capsys, n):
    # the closed form loses digits past 2^30 and reads 0.0 from about 1e23
    code, out, err = run_cli(capsys, "enumerate", "--dist", "rademacher", "--n", str(n), "--x", "1")
    assert (code, out) == (3, "")
    assert "budget" in err


@pytest.mark.parametrize("n, samples, method", [
    (1075830521, 1000, "naive"),  # an 8 GiB array of unit scales
    (10**400, 1000, "tilted"),  # n does not convert to a double
    (2**24, 1025, "naive"),  # one path past the budget
])
def test_simulate_past_the_path_step_budget_exits_3(capsys, n, samples, method):
    code, out, err = run_cli(capsys, "simulate", "--dist", "rademacher", "--n", str(n), "--x", "1",
                             "--samples", str(samples), "--method", method)
    assert (code, out) == (3, "")
    assert "budget" in err


def test_enumerate_twopoint_is_bit_equal_to_the_sweep_row(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dist", json.dumps(_TWOPOINT), "--n", "255",
                           "--x", "1")
    assert code == 0
    cfg = SweepConfig.from_dict({"dist": _TWOPOINT, "n_grid": [255], "x_values": [1.0],
                                 "output": str(tmp_path / "s.csv")})
    (row,) = run_sweep(cfg)
    payload = json.loads(out)
    assert (payload["p_max"], payload["p_sum"]) == (row.p_max, row.p_sum)
    assert payload["method"] == row.method == "lattice_dp"


def test_enumerate_without_finite_support_exits_2(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--dist", "uniform", "--n", "4", "--x", "1")
    assert (code, out) == (2, "")
    assert "finite support" in err


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
        (_SWEEP % ('{"family": {}}', "[4]", "[1.0]", ""), 2),
        ('[{"dist": {"family": "rademacher"}}]', 2),
        ('{"dist": {"family": "rademacher"}, "n_grid": [4], "x_values": [1.0], "output": ""}', 2),
        ('{"dist": {"family": "rademacher"}, "n_grid": [4], "x_values": [1.0], "output": "out/"}',
         2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[NaN]", ""), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1e400]", ""), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[41]", ""), 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1.0]", ', "a0_constant": 0'), 2),
        ('{"dist": {"family": "rademacher"}, "n_grid": [4], "x_c": [1.0], "x_power": NaN, '
         '"output": "out/q.csv"}', 2),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1.0, 38]", ""), 3),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[39]", ""), 3),
        (_SWEEP % ('{"family": "rademacher"}', "[4]", "[1.0]", ', "delta": 1e300'), 3),
        (_SWEEP % ('{"family": "twopoint", "a": 1e110, "b": 1.0}', "[4]", "[0.0]", ""), 3),
        (_SWEEP % ('{"family": "rademacher", "scale": 1e110}', "[4]", "[0.0]", ', "r": 0.5'), 3),
        (_SWEEP % ('{"family": "student_t"}', "[4]", "[1.0]",
                   ', "engine": "mc", "mc_method": "tilted"'), 3),
        (_SWEEP % ('{"family": "uniform"}', "[4]", "[1.0]", ', "mc_fallback": false'), 3),
        (_SWEEP % ('{"family": "uniform"}', "[4]", "[1.0]", ', "seed": -1'), 2),
        # row 1 of a Monte Carlo sweep draws with seed + 1, past 2^64 - 1
        (_SWEEP % ('{"family": "uniform"}', "[4, 8]", "[1.0]", ', "seed": 18446744073709551615'), 2),
        (_SWEEP % ('{"family": "twopoint"}', "[4, 300]", "[1.0]", ', "mc_fallback": false'), 3),
        # Monte Carlo rows past the path-step budget: a fallback row past the
        # closed form's range, and rows of a Monte Carlo sweep
        (_SWEEP % ('{"family": "rademacher"}', "[4, 2147483648]", "[1.0]", ""), 3),
        (_SWEEP % ('{"family": "uniform"}', "[4, 17179870]", "[1.0]",
                   ', "engine": "mc", "mc_samples": 1000'), 3),
        (_SWEEP % ('{"family": "rademacher"}', "[4, 1000000]", "[1.0]",
                   ', "engine": "mc", "mc_method": "tilted", "mc_samples": 100000'), 3),
    ],
)
def test_sweep_config_is_checked_before_any_file_is_written(tmp_path, monkeypatch, capsys, text, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    assert run_cli(capsys, "sweep", "--config", "cfg.json")[:2] == (code, "")
    assert os.listdir(tmp_path) == ["cfg.json"]


def _files(root):
    """{path under root: its bytes, or None for a directory}."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in Path(root).rglob("*")}


def _config(output):
    """Writes cfg.json, a two-row sweep to ``output``, in the current directory."""
    Path("cfg.json").write_text(json.dumps({"dist": {"family": "rademacher"}, "n_grid": [4, 8],
                                            "x_values": [1.0], "output": output}))


def _swept(output):
    _config(output)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", "cfg.json"]) == 0


def _manifest_holds(data):
    return lambda: (_swept("s.csv"), Path("s.csv.manifest.json").write_bytes(data))


def _csv_not_utf8():
    _swept("s.csv")
    with open("s.csv", "ab") as fh:
        fh.write(b"\xff\n")


def _output_is_a_directory():
    _swept("d")
    os.remove("d")
    os.mkdir("d")


def _output_under_a_file():
    Path("f").write_bytes(b"")
    _config("f/s.csv")


@pytest.mark.parametrize("setup", [
    pytest.param(_manifest_holds(b"\xff"), id="manifest_not_utf8"),
    pytest.param(_manifest_holds(b"garbage"), id="manifest_not_json"),
    pytest.param(_manifest_holds(b"[1, 2]"), id="manifest_a_list"),
    pytest.param(_csv_not_utf8, id="csv_not_utf8"),
    pytest.param(_output_is_a_directory, id="output_a_directory"),
    pytest.param(_output_under_a_file, id="output_under_a_file"),
    pytest.param(lambda: Path("cfg.json").write_bytes(b"\xff"), id="config_not_utf8"),
    pytest.param(lambda: Path("cfg.json").write_bytes(b"[" * 100_000), id="config_too_deep"),
])
def test_unreadable_sweep_files_exit_2_and_touch_nothing(tmp_path, monkeypatch, capsys, setup):
    monkeypatch.chdir(tmp_path)
    setup()
    before = _files(tmp_path)
    assert run_cli(capsys, "sweep", "--config", "cfg.json")[:2] == (2, "")
    assert _files(tmp_path) == before


@pytest.mark.parametrize("data", [b"\xff", b"garbage", b'{"a": 1}', b"[" * 100_000, b"1" * 5000],
                         ids=["not_utf8", "not_json", "an_object", "too_deep", "too_many_digits"])
def test_unreadable_scales_file_exits_2(tmp_path, capsys, data):
    (tmp_path / "scales.json").write_bytes(data)
    argv = ["theory", "--dist", "rademacher", "--n", "2", "--x", "1", "--scales",
            str(tmp_path / "scales.json")]
    assert run_cli(capsys, *argv)[:2] == (2, "")


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mdlab", "enumerate", "--dist", "rademacher",
         "--n", "4", "--x", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p_max"] == 0.375


def test_cli_import_loads_neither_quadrature_nor_stats():
    # nor any other scipy module: scipy.special is loaded by the functions
    # that evaluate it, and scipy by the manifest's version record
    probe = ("import json, sys, mdlab.cli; "
             "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert _fresh_interpreter(probe) == []


# scipy.optimize and the packages that importing it pulls in
_ROOT_FINDER_MODULES = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.fft", "scipy.spatial")
_SCALES = [0.5, 1.0, 2.0, 1.5, 0.75, 3.0, 1.25, 0.9]


def _fresh_interpreter(probe, *args, cwd=None):
    src = os.path.dirname(os.path.dirname(mdlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_leaves_out_the_root_finder():
    probe = ("import json, sys, mdlab.cli; "
             f"print(json.dumps([m for m in {_ROOT_FINDER_MODULES!r} if m in sys.modules]))")
    assert _fresh_interpreter(probe) == []


# runs each (name, argv) of argv[1] through cli.main in one interpreter and
# reports {name: [exit code, the watched modules loaded after it]}
_COMMANDS_PROBE = """
import contextlib, io, json, sys
from mdlab.cli import main
seen = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[name] = [code, [m for m in ("scipy.optimize", "scipy.special") if m in sys.modules]]
print(json.dumps(seen))
"""


def _loads(seen, module):
    """{name: [exit code, whether ``module`` was loaded]} of a probe's report."""
    return {name: [code, module in loaded] for name, (code, loaded) in seen.items()}


def _sweep_config(path, **cfg):
    path.write_text(json.dumps({"n_grid": [4, 12], "x_values": [0.5, 1.5], "seed": 3, **cfg}))
    return ["sweep", "--config", path.name]


def test_commands_that_never_root_find_leave_scipy_optimize_unloaded(tmp_path):
    # no command loads scipy.optimize: the tilt has a closed form for iid
    # two-point laws, and Newton's method solves every other one
    (tmp_path / "scales.json").write_text(json.dumps(_SCALES))
    twopoint = json.dumps(_TWOPOINT)
    commands = [
        ("theory", ["theory", "--dist", twopoint, "--n", "50", "--x", "1.5"]),
        ("theory_scales", ["theory", "--dist", twopoint, "--n", str(len(_SCALES)), "--x", "1.2",
                           "--scales", "scales.json"]),
        ("enumerate", ["enumerate", "--dist", twopoint, "--n", "8", "--x", "1"]),
        ("simulate_naive", ["simulate", "--dist", twopoint, "--n", "8", "--x", "1",
                            "--samples", "1000", "--method", "naive"]),
        # iid two-point laws: the closed-form tilt
        ("simulate_rademacher_tilted", ["simulate", "--dist", "rademacher", "--n", "16", "--x", "2",
                                        "--samples", "1000", "--method", "tilted"]),
        ("simulate_twopoint_tilted", ["simulate", "--dist", twopoint, "--n", "8", "--x", "1",
                                      "--samples", "1000", "--method", "tilted"]),
        ("sweep_twopoint_mc_tilted", _sweep_config(
            tmp_path / "twopoint.json", dist=_TWOPOINT, output="t.csv", engine="mc",
            mc_method="tilted", mc_samples=1000)),
        ("sweep_oracle", _sweep_config(tmp_path / "oracle.json", dist=_TWOPOINT, output="o.csv")),
        # Newton's method: Uniform, and a scale schedule
        ("simulate_uniform_tilted", ["simulate", "--dist", "uniform", "--n", "8", "--x", "1",
                                     "--samples", "1000", "--method", "tilted"]),
        ("sweep_uniform_mc_tilted", _sweep_config(
            tmp_path / "uniform.json", dist={"family": "uniform"}, output="u.csv", engine="mc",
            mc_method="tilted", mc_samples=1000)),
    ]
    seen = _fresh_interpreter(_COMMANDS_PROBE, json.dumps(commands), cwd=tmp_path)
    assert _loads(seen, "scipy.optimize") == {name: [0, False] for name, _ in commands}
    # the CLI tilts no scale schedule: solve one through the library
    probe = ("import json, sys, numpy as np; from mdlab import SequenceSpec, TwoPoint; "
             "from mdlab.mc import choose_tilt; "
             f"seq = SequenceSpec(TwoPoint(2.0, 1.0), {len(_SCALES)}, scales=np.array({_SCALES})); "
             "print(json.dumps([choose_tilt(seq, 1.2) > 0.0, 'scipy.optimize' in sys.modules]))")
    assert _fresh_interpreter(probe) == [True, False]


def test_tilted_uniform_runs_next_to_the_hull():
    # x up to the largest double below the hull x = sqrt(3 n): a tilt of up
    # to 1e16 per unit width, whose draws overflowed expm1 and exited 1 with
    # a traceback from about 3e-3 below the hull on, and whose solve Brent's
    # method refused from 1e-9 below it on
    commands = []
    for n in (4, 64):
        hull_x = math.sqrt(3.0 * n)
        for gap in (1e-3, 1e-6, 1e-9, 1e-15, 0.0):
            x = math.nextafter(hull_x, 0.0) if gap == 0.0 else hull_x * (1.0 - gap)
            commands.append((f"{n}_{gap}", ["simulate", "--dist", "uniform", "--n", str(n),
                                            "--x", repr(x), "--samples", "1000",
                                            "--method", "tilted"]))
    seen = _fresh_interpreter(_COMMANDS_PROBE, json.dumps(commands))
    assert seen == {name: [0, []] for name, _ in commands}


def _simulate(dist, method, x, n=16, samples=1 << 12):
    return ["simulate", "--dist", json.dumps(dist), "--n", str(n), "--x", str(x),
            "--samples", str(samples), "--method", method, "--workers", "2"]


def test_which_commands_load_scipy_special(tmp_path):
    # moving a command from one list to the other is a change of its start-up
    # cost: loading scipy.special is about half of a cold start
    never = [
        # the benchmark's simulate_mc commands, at its tiny size
        ("simulate_rademacher_tilted", _simulate({"family": "rademacher", "scale": 1.0}, "tilted", 2.5)),
        ("simulate_twopoint_tilted", _simulate(_TWOPOINT, "tilted", 2.5)),
        ("simulate_uniform_naive", _simulate({"family": "uniform", "half_width": 1.0}, "naive", 1.5)),
        ("simulate_exponential_naive", _simulate(
            {"family": "centered_exponential", "rate": 1.0}, "naive", 1.5)),
        ("simulate_student_t_naive", _simulate({"family": "student_t", "nu": 5.0}, "naive", 1.5)),
        ("simulate_uniform_tilted", _simulate({"family": "uniform"}, "tilted", 1.0, n=8, samples=1000)),
        ("simulate_twopoint_naive", _simulate(_TWOPOINT, "naive", 1.0, n=8, samples=1000)),
        *((f"theory_{family}", ["theory", "--dist", json.dumps(dist), "--n", "50", "--x", "1.5"])
          for family, dist in (("uniform", {"family": "uniform"}), ("twopoint", _TWOPOINT),
                               ("rademacher", {"family": "rademacher"}))),
        ("sweep_uniform_mc", _sweep_config(tmp_path / "uniform.json", dist={"family": "uniform"},
                                           output="u.csv", engine="mc", mc_samples=1000)),
    ]
    seen = _fresh_interpreter(_COMMANDS_PROBE, json.dumps(never), cwd=tmp_path)
    assert _loads(seen, "scipy.special") == {name: [0, False] for name, _ in never}
    # each in a fresh interpreter, so that none rides on another's import
    loads = [
        ("theory_student_t", ["theory", "--dist", "student_t", "--n", "50", "--x", "1.5"]),
        ("theory_exponential", ["theory", "--dist", "centered_exponential", "--n", "50", "--x", "1.5"]),
        ("enumerate_rademacher", ["enumerate", "--dist", "rademacher", "--n", "30", "--x", "1"]),
        ("enumerate_twopoint", ["enumerate", "--dist", json.dumps(_TWOPOINT), "--n", "8", "--x", "1"]),
        ("sweep_oracle", _sweep_config(tmp_path / "oracle.json", dist=_TWOPOINT, output="o.csv")),
    ]
    for name, argv in loads:
        seen = _fresh_interpreter(_COMMANDS_PROBE, json.dumps([(name, argv)]), cwd=tmp_path)
        assert _loads(seen, "scipy.special") == {name: [0, True]}
