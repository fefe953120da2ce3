"""Byte pins of the CLI: the sha256 of stdout (and of a sweep's CSV) for a
fixed set of invocations.

A change that claims to leave the output alone is checked here rather than
by hand. When a change moves bytes on purpose, it says which ones in
CHANGES.md and updates the digests below; ``PYTHONPATH=src python
tests/test_cli_bytes.py`` prints the current ones.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import mdlab
from mdlab.cli import main

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

_TWOPOINT = '{"family": "twopoint", "a": 2.0, "b": 1.0}'
_SKEWED = '{"family": "twopoint", "a": 1.5, "b": 0.8}'
_STUDENT = '{"family": "student_t", "nu": 5.0}'
_EXPONENTIAL = '{"family": "centered_exponential", "rate": 1.0}'
_UNIFORM = '{"family": "uniform", "half_width": 1.7320508075688772}'
_SCALES = [0.5, 1.0, 2.0, 1.5, 0.75, 3.0, 1.25, 0.9]
_RADEMACHER_03 = '{"family": "rademacher", "scale": 0.3}'
# 0.01 to 100: the levels level / scale fall on both sides of sqrt(nu) and of 1 / rate
_WIDE_SCALES = [10.0 ** (k / 10.0) for k in range(-20, 21)]


def _sim(dist, n, x, method, *extra):
    return ["simulate", "--dist", dist, "--n", str(n), "--x", x, "--samples", "4096",
            "--seed", "5", "--method", method, *extra]


def _sweep(dist, n_grid, x_values, **extra):
    return {"dist": json.loads(dist), "n_grid": n_grid, "x_values": x_values,
            "output": "s.csv", "seed": 3, **extra}


PROBES = {
    "theory_rademacher": ["theory", "--dist", "rademacher", "--n", "100", "--x", "2"],
    "theory_twopoint": ["theory", "--dist", _TWOPOINT, "--n", "50", "--x", "1.5"],
    "theory_uniform": ["theory", "--dist", _UNIFORM, "--n", "64", "--x", "1.5"],
    "theory_exponential": ["theory", "--dist", _EXPONENTIAL, "--n", "200", "--x", "2.5",
                           "--r", "0.5"],
    "theory_student_t": ["theory", "--dist", _STUDENT, "--n", "1000", "--x", "3",
                         "--delta", "0.5"],
    "theory_scales": ["theory", "--dist", _SKEWED, "--n", str(len(_SCALES)), "--x", "1.2",
                      "--scales", "scales.json"],
    "theory_rademacher_scales": ["theory", "--dist", _RADEMACHER_03, "--n", str(len(_SCALES)),
                                 "--x", "1.2", "--scales", "scales.json"],
    "theory_student_t_scales": ["theory", "--dist", _STUDENT, "--n", str(len(_WIDE_SCALES)),
                                "--x", "3", "--scales", "wide_scales.json"],
    "theory_exponential_scales": ["theory", "--dist", _EXPONENTIAL, "--n",
                                  str(len(_WIDE_SCALES)), "--x", "2.5", "--scales",
                                  "wide_scales.json"],
    "enumerate_rademacher": ["enumerate", "--dist", "rademacher", "--n", "4", "--x", "1"],
    "enumerate_twopoint": ["enumerate", "--dist", _TWOPOINT, "--n", "12", "--x", "1.3"],
    "enumerate_skewed": ["enumerate", "--dist", _SKEWED, "--n", "10", "--x", "0.7"],
    "enumerate_rademacher_x0": ["enumerate", "--dist", _RADEMACHER_03, "--n", "6", "--x", "0"],
    # past n = 128 the closed form sums pmf terms from Loader's saddle-point pmf
    "enumerate_rademacher_loader": ["enumerate", "--dist", "rademacher", "--n", "4097", "--x",
                                    "1.5"],
    "simulate_rademacher_naive": _sim("rademacher", 16, "1.5", "naive"),
    "simulate_rademacher_tilted": _sim("rademacher", 16, "2", "tilted"),
    "simulate_rademacher_scaled_tilted": _sim('{"family": "rademacher", "scale": 0.5}', 32, "2",
                                              "tilted"),
    "simulate_twopoint_naive": _sim(_TWOPOINT, 10, "1", "naive", "--workers", "2"),
    "simulate_twopoint_tilted": _sim(_TWOPOINT, 20, "1.5", "tilted"),
    "simulate_uniform_tilted": _sim(_UNIFORM, 32, "2", "tilted"),
    "simulate_exponential_naive": _sim(_EXPONENTIAL, 16, "1.5", "naive"),
    "simulate_student_t_naive": _sim(_STUDENT, 16, "1", "naive"),
    "sweep_rademacher_lattice": _sweep('{"family": "rademacher"}', [4, 16, 64], [0.0, 1.0, 2.5]),
    "sweep_rademacher_loader": _sweep('{"family": "rademacher"}', [129, 1024, 16384], [0.5, 3.0]),
    "sweep_twopoint_dp": _sweep(_SKEWED, [4, 12, 30], [0.5, 1.5]),
    "sweep_uniform_mc_fallback": _sweep(_UNIFORM, [8, 16, 32], [1.0], mc_samples=4096),
    "sweep_rademacher_mc_tilted": _sweep('{"family": "rademacher"}', [16, 32, 64], [1.5],
                                         engine="mc", mc_method="tilted", mc_samples=4096),
    "sweep_rademacher_mc_naive": _sweep(_RADEMACHER_03, [8, 16], [0.0, 1.0], engine="mc",
                                        mc_method="naive", mc_samples=4096),
}

DIGESTS = {
    "theory_rademacher": "3c09455076a77da2db4cb8b0083bc60ab2eae700a1aea402b3efc72495ca9092",
    "theory_twopoint": "35ecc216981583a5a062590229557177cda08890c30cad9ff9145975a961e143",
    "theory_uniform": "f6385ab664a75dbc49731a6baf90cfeeb802ce6c2c305fea2726d7c298ba9f53",
    "theory_exponential": "033f0fa3f7edfb3e85748572070383898b8f4f505a7ce9945e91206c0329f1ab",
    "theory_student_t": "7e313a39f624bdf60489458c48c71d99c5b7fd523a255ca399a17f87dd6e9f6c",
    "theory_scales": "e9adad34e88102a2cd23c2b036616267c972af02ff442056df1ca235c6153175",
    "theory_rademacher_scales": "b37f0b55283b062ab1e9f63680fa05512e7b39ecc956a0620e8c35e374f43ce8",
    "theory_student_t_scales": "79b6fd94eca311cc01d0d28de61729e16e49c7b91e2f950c81eb03b50e5f47c5",
    "theory_exponential_scales": "e919dba197b44ea0452fc1f4cfbed91717f2c60b2d275a68a7dddf950afc16b4",
    "enumerate_rademacher": "b42207a8581ca283be3476ce481f4cd733707b46943455c2e5e3231fe307175d",
    "enumerate_twopoint": "052b0b99a26ba5183bcb1298de0e595b814bfdf820e4c418fb0a72818901aeb4",
    "enumerate_skewed": "687ad61de4a28edcd3c1abd5519a2c6ef88351568d8b78762510b31a73f27791",
    "enumerate_rademacher_x0": "8f59e1dd3f321fe427c85fa394c9934aff4b789b1d9113d0c97b35d136c4df9b",
    "enumerate_rademacher_loader": "806b7d449048dd8b661804f547cfea60c67e3830ad12e7b30d829563c3a3b3ba",
    "simulate_rademacher_naive": "5d9ec7b3e988abcabc241e359872aaa974d913c5136cd948d673efa35d09e19f",
    "simulate_rademacher_tilted": "fba55d19d786a79dcc7f4ae3e42b16f7c54b67b65880f0fc1c2d278aa6aa2cdc",
    "simulate_rademacher_scaled_tilted": "4ef0a1715759c80caeaedb70a2cc6b6e1c13e14d9a4a02fff5bd86958f0c2897",
    "simulate_twopoint_naive": "c61c9ea0aaa1b96fd7a50bcb6359e37628b013bfcbb575ae2ee0a75ccf75c85e",
    "simulate_twopoint_tilted": "ba7603cf37f88ce5f680dbd55610b4c59ddf984c4ea90ac77f6bbe82c0e38042",
    "simulate_uniform_tilted": "468e130da806b93412d782276179565a87d270c2cf115cfefdd2d182e11384b8",
    "simulate_exponential_naive": "d94a968e958554b0358d1db08ecec9538a4c64744f1eac7f2e8db8ba61b95592",
    "simulate_student_t_naive": "e5e9accb3b67c5ab39a98cbc8cb36a648913ee97fc78bf1a0ea54feadb825085",
    "sweep_rademacher_lattice": "0b909a9eafff8fc3bf9aad5de86843f440c1cba19965d631ffbbf0bc6fc21a00",
    "sweep_rademacher_lattice.csv": "062efdf71a918fc03240d4c025b5427f7b421595bd58d9855ca0993f9847d0ff",
    "sweep_rademacher_loader": "86a77c64962a1501edfd20999167a6f95389a94453e286fcfab13b0a47545d48",
    "sweep_rademacher_loader.csv": "52d43e8f66b2621f2a4f0c55e5a64f82e1a55b1db0b39fe20002aff90147803b",
    "sweep_twopoint_dp": "5297f7b375f36671efe274f02c906bd022507bd4de1f3fe20d96888691823e53",
    "sweep_twopoint_dp.csv": "ab5ed1bfcdbc7964a6186d1e02e4463160ed6b19dae9fcd2a59415f844e73b3e",
    "sweep_uniform_mc_fallback": "79e91ce1454c40cc60ffb8b9a5db13131470f8818a7049e839d0651e240bea05",
    "sweep_uniform_mc_fallback.csv": "eb10f9477a88b6c6d3950073dd30a434e4341d6b3a994f1dfe0b2b21699dac6e",
    "sweep_rademacher_mc_tilted": "c21e131d954c103f12a229a1cd29d8cffc3de488aeba6f9807846be8a036e21a",
    "sweep_rademacher_mc_tilted.csv": "20ffdfa730fa58aadd12d210d9eb67079f263737b1995c2e45aa9935c27f919d",
    "sweep_rademacher_mc_naive": "62e81ccdaa051962d29a72cd01ad677d77cd3154819f1be6159c8c136d420ea6",
    "sweep_rademacher_mc_naive.csv": "e8d32a8ba917489d9df8d0ebc68f1d1c2bff6f6c24d7d9dd179cec8f2792817d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_probe(name: str, workdir: str) -> dict:
    """{digest name: sha256} of one probe, run with ``workdir`` as the
    current directory; a sweep also pins its CSV."""
    probe = PROBES[name]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open("scales.json", "w") as fh:
            json.dump(_SCALES, fh)
        with open("wide_scales.json", "w") as fh:
            json.dump(_WIDE_SCALES, fh)
        if isinstance(probe, dict):
            with open("cfg.json", "w") as fh:
                json.dump(probe, fh)
            argv = ["sweep", "--config", "cfg.json"]
        else:
            argv = probe
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, (name, code)
        got = {name: _sha(out.getvalue().encode())}
        if isinstance(probe, dict):
            with open("s.csv", "rb") as fh:
                got[name + ".csv"] = _sha(fh.read())
        return got
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_cli_output_bytes_are_pinned(name, tmp_path):
    got = run_probe(name, str(tmp_path))
    assert got == {k: DIGESTS[k] for k in got}


def moment_digest() -> str:
    """sha256 of the heavy-tailed laws' truncated moments and of the normal
    tail on dense grids of levels: every level's bits, where the probes'
    sums and rounding to 17 digits hide most of them."""
    from mdlab import CenteredExponential, StudentT
    from mdlab.theory import normal_tail

    # from Python's pow, not np.logspace, whose np.power is one of the loops that differ
    levels = np.array([10.0 ** (k / 200.0) for k in range(-1200, 1201)] + [0.0, math.inf])
    sha = hashlib.sha256()
    for dist in (StudentT(3.5), StudentT(5.0), StudentT(30.0),
                 CenteredExponential(0.3), CenteredExponential(1.0), CenteredExponential(2.5)):
        for p in (2.0, 2.5, 3.0):
            for side in ("below", "above"):
                sha.update(dist.truncated_abs_moment(p, levels, side).tobytes())
    sha.update(np.array([normal_tail(x) for x in np.linspace(0.0, 40.0, 4001).tolist()]).tobytes())
    return sha.hexdigest()


# prints the digests of the probes named in argv[2], run with argv[1] as the
# current directory, and that of moment_digest
_FRESH_PROBES = """
import json, sys
import test_cli_bytes
digests = {key: digest for name in json.loads(sys.argv[2])
           for key, digest in test_cli_bytes.run_probe(name, sys.argv[1]).items()}
print(json.dumps({**digests, "moments": test_cli_bytes.moment_digest()}))
"""
_TARGETS = ["default", *__cpu_dispatch__]


def _fresh_digests(target, workdir, names=()):
    """:data:`_FRESH_PROBES` in a fresh interpreter whose numpy runs the loops
    of the level below ``target``, with it and every target above it
    disabled; skipped where the CPU lacks ``target``."""
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    if target != "default":
        if not __cpu_features__.get(target):
            pytest.skip(f"this CPU lacks {target}")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(__cpu_dispatch__[__cpu_dispatch__.index(target):])
    src = os.path.dirname(os.path.dirname(mdlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, os.path.dirname(__file__), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROBES, str(workdir), json.dumps(list(names))],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("target", _TARGETS)
def test_theory_bytes_at_every_numpy_dispatch_level(target, tmp_path):
    # numpy's log, exp and power round differently at different levels; the
    # special functions take theirs from libm
    names = sorted(name for name in PROBES if name.startswith("theory"))
    got = _fresh_digests(target, tmp_path, names)
    assert {name: got[name] for name in names} == {name: DIGESTS[name] for name in names}


@pytest.mark.parametrize("target", _TARGETS)
def test_special_function_bits_at_every_numpy_dispatch_level(target, tmp_path):
    # every level's bits, against this process's, where the probes above
    # see few of them
    assert _fresh_digests(target, tmp_path)["moments"] == moment_digest()


if __name__ == "__main__":
    for probe_name in PROBES:
        with tempfile.TemporaryDirectory() as tmp:
            for key, digest in run_probe(probe_name, tmp).items():
                print(f'    "{key}": "{digest}",')
